// kmsbench — the in-process half of the end-to-end benchmark (README.md).
//
//   kmsbench gen <dir>
//       Write every workload input (BLIF) and MANIFEST.json, generated
//       by src/gen with the suite's fixed seeds.
//   kmsbench setup <blif>...
//       Time one cold set-up in this fresh process: read and parse every
//       input and validate its irr spec.
//   kmsbench run <outdir> <seconds> <blif>...
//       Untraced: default-options irr run_job over the listed inputs, in
//       whole rounds until the next round would pass <seconds>. Writes
//       round-1 results to <outdir> and prints one JSON summary line.
//   kmsbench trace <outdir> <certify 0|1> <blif>...
//       One untraced run_job pass, then the same jobs phase by phase as
//       run_job composes them (under a ProofSession with certify=1),
//       timed from outside; asserts equal output digests.
//   kmsbench probe <outdir> <blif>...
//       The service layers in-process: certify with and without an
//       artifact directory (left in <outdir>/probe_<name> for kmsproof),
//       then audit/delay/analyze/lint jobs.
//   kmsbench audit <blif>...
//       An audit job per result netlist (the fallback for faults the
//       independent checker's vectors miss).
//
// Every timed stream runs on this one thread (jobs=1, speculate_k=1: the
// JobSpec defaults).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/governor.hpp"
#include "src/core/kms.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/suite.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"
#include "src/proof/journal.hpp"
#include "src/proof/verify.hpp"
#include "src/serve/job.hpp"
#include "src/serve/runner.hpp"
#include "src/timing/sensitize.hpp"

namespace fs = std::filesystem;
using namespace kms;

namespace {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!(out << bytes)) throw std::runtime_error("cannot write " + path);
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    s += (i ? "," : "") + num(v[i]);
  return s + "]";
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Input {
  std::string name;
  std::string bytes;
};

std::vector<Input> load_inputs(char** first, char** last) {
  std::vector<Input> out;
  for (char** p = first; p != last; ++p)
    out.push_back({fs::path(*p).stem().string(), slurp(*p)});
  return out;
}

serve::JobSpec job_spec(serve::JobKind kind, const std::string& blif) {
  serve::JobSpec spec;
  spec.kind = kind;
  spec.blif = blif;
  return spec;
}

serve::JobReport run_one(const serve::JobSpec& spec) {
  ResourceGovernor governor;
  return serve::run_job(spec, governor);
}

// ---------------------------------------------------------------- gen

int cmd_gen(const std::string& dir) {
  fs::create_directories(dir);
  std::string manifest = "[\n";
  const auto emit = [&](const std::string& name, const std::string& family,
                        const std::string& generator, const std::string& seed,
                        Network net) {
    net.set_name(name);
    spit(dir + "/" + name + ".blif", write_blif_string(net));
    if (manifest.size() > 2) manifest += ",\n";
    manifest += "  {\"name\": " + quote(name) + ", \"family\": " +
                quote(family) + ", \"generator\": " + quote(generator) +
                ", \"seed\": " + quote(seed) + "}";
  };
  // Table I carry-skip rows plus csa_16_4, as bench_table1_csa builds
  // them: decomposed to simple gates, unit gate delays.
  const auto csa = [](std::size_t bits, std::size_t block) {
    Network net = carry_skip_adder(bits, block);
    decompose_to_simple(net);
    apply_unit_delays(net);
    return net;
  };
  const std::size_t rows[][2] = {{2, 2}, {4, 4}, {8, 2}, {8, 4}, {16, 4}};
  for (const auto& r : rows) {
    const std::string b = std::to_string(r[0]), k = std::to_string(r[1]);
    emit("csa_" + b + "_" + k, "adders",
         "carry_skip_adder(" + b + "," + k +
             ") + decompose_to_simple + apply_unit_delays",
         "none (deterministic)", csa(r[0], r[1]));
  }
  emit("csa_8_2_x2", "adders",
       "replicate_blocks(carry_skip_adder(8,2) + decompose_to_simple + "
       "apply_unit_delays, 2)",
       "none (deterministic)", replicate_blocks(csa(8, 2), 2));
  for (const SuiteSpec& spec : benchmark_suite()) {
    Network net = build_suite_circuit(spec, /*delay_optimized=*/true);
    decompose_to_simple(net);
    char seed[32];
    std::snprintf(seed, sizeof seed, "0x%llX",
                  static_cast<unsigned long long>(spec.seed));
    emit(spec.name, "mcnc",
         "build_suite_circuit(suite_spec(\"" + spec.name +
             "\"), delay_optimized=true) + decompose_to_simple",
         seed, std::move(net));
  }
  spit(dir + "/MANIFEST.json", manifest + "\n]\n");
  return 0;
}

// ---------------------------------------------------------------- run

/// The parts of a report that must repeat exactly from round to round.
std::string report_key(const serve::JobReport& r) {
  serve::JobReport k = r;
  k.wall_seconds = 0;
  k.removal_sim_seconds = 0;
  k.removal_sat_seconds = 0;
  return k.to_json();
}

/// The set-up a caller pays before its first job: read and parse every
/// input, build and validate its irr spec.
std::vector<serve::JobSpec> prepare(char** first, char** last) {
  std::vector<serve::JobSpec> specs;
  for (char** p = first; p != last; ++p) {
    const std::string bytes = slurp(*p);
    const BlifSequential model = read_blif_sequential_string(bytes);
    if (model.comb.count_gates() == 0)
      throw std::runtime_error(std::string(*p) + ": empty network");
    specs.push_back(job_spec(serve::JobKind::kIrr, bytes));
    const std::string problem = specs.back().validate();
    if (!problem.empty()) throw std::runtime_error(*p + (": " + problem));
  }
  return specs;
}

int cmd_setup(char** first, char** last) {
  const double t0 = wall_now();
  const std::size_t n = prepare(first, last).size();
  std::printf("{\"setup\":%s,\"jobs\":%zu}\n", num(wall_now() - t0).c_str(),
              n);
  return 0;
}

int cmd_run(const std::string& outdir, double seconds,
            const std::vector<Input>& inputs,
            const std::vector<serve::JobSpec>& specs) {
  fs::create_directories(outdir);
  std::vector<double> walls, cpus;
  std::vector<std::string> keys;
  std::size_t attempted = 0, failed = 0;
  bool repeat_ok = true;
  const double start = wall_now();
  do {
    const double w0 = wall_now(), c0 = cpu_now();
    std::vector<serve::JobReport> reps;
    for (const serve::JobSpec& spec : specs) reps.push_back(run_one(spec));
    walls.push_back(wall_now() - w0);
    cpus.push_back(cpu_now() - c0);
    for (std::size_t i = 0; i < reps.size(); ++i) {
      ++attempted;
      if (reps[i].exit_code != 0) ++failed;
      if (walls.size() == 1) {
        keys.push_back(report_key(reps[i]));
        spit(outdir + "/" + inputs[i].name + ".out.blif", reps[i].output_blif);
        spit(outdir + "/" + inputs[i].name + ".report.json",
             reps[i].to_json() + "\n");
      } else if (report_key(reps[i]) != keys[i]) {
        repeat_ok = false;
      }
    }
  } while (wall_now() - start + median(walls) <= seconds);

  std::printf(
      "{\"wall\":%s,\"cpu\":%s,\"peak_rss_mb\":%s,"
      "\"attempted\":%zu,\"failed\":%zu,\"repeat_ok\":%s}\n",
      list(walls).c_str(), list(cpus).c_str(), num(peak_rss_mb()).c_str(),
      attempted, failed,
      repeat_ok ? "true" : "false");
  return 0;
}

// ---------------------------------------------------------------- trace

/// Per-layer totals of the traced run, in README order.
struct Layers {
  double parse = 0, decompose = 0, write = 0, loop = 0, removal = 0, sim = 0,
         sat = 0, delay = 0, capture = 0, verify = 0, traced = 0,
         untraced = 0;
  std::size_t iterations = 0, sens_queries = 0, sta_repaired = 0, passes = 0,
              removed = 0, sat_queries = 0, sim_dropped = 0,
              witness_dropped = 0, cache_hits = 0, cache_invalidated = 0,
              static_discharged = 0, conflicts = 0, certificates = 0,
              steps = 0;
};

struct TracedResult {
  std::uint64_t digest = 0;  ///< as run_job computes output_digest
  double final_delay = 0;
};

/// One irr (certify=false) or certify job, phase by phase as run_job
/// composes them, each phase timed around its public entry point.
TracedResult traced_job(const Input& in, bool certify, Layers* L) {
  ResourceGovernor governor;
  proof::ProofSession session;
  double t = wall_now();
  const auto lap = [&t](double* acc) {
    const double now = wall_now();
    *acc += now - t;
    t = now;
  };
  BlifSequential model = read_blif_sequential_string(in.bytes);
  lap(&L->parse);
  std::string proof_input;
  if (certify) {
    proof_input = write_blif_string(model.comb);
    session.journal.set_model(model.comb.name());
    session.journal.set_input_digest(proof::digest_bytes(proof_input));
    lap(&L->write);
  }
  const std::size_t complex = decompose_to_simple(model.comb);
  if (certify && complex > 0) session.journal.add_decompose(complex);
  lap(&L->decompose);

  KmsOptions opts;
  opts.remove_remaining = false;
  opts.context.governor = &governor;
  opts.context.session = certify ? &session : nullptr;
  const double capture_start = t;
  const KmsStats ls = kms_make_irredundant(model.comb, opts);
  lap(&L->loop);
  RedundancyRemovalOptions ro = opts.removal;
  ro.context = opts.context;
  const RedundancyRemovalResult r = remove_redundancies(model.comb, ro);
  lap(&L->removal);
  if (certify) L->capture += t - capture_start;
  TracedResult res;
  res.final_delay = computed_delay(model.comb, SensitizationMode::kStatic,
                                   opts.max_queries, &governor)
                        .delay;
  lap(&L->delay);

  std::string proof_output;
  if (certify) {
    proof_output = write_blif_string(model.comb);
    res.digest = proof::digest_bytes(proof_output);
    session.journal.set_output_digest(res.digest);
  } else {
    std::ostringstream out;
    write_blif_sequential(model.comb, model.latch_init.size(),
                          model.latch_init, out);
    res.digest = proof::digest_bytes(out.str());
  }
  lap(&L->write);
  if (certify) {
    const proof::VerifyReport v =
        proof::verify_session(session, proof_input, proof_output);
    lap(&L->verify);
    if (!v) throw std::runtime_error(in.name + ": verify failed: " + v.error);
    L->certificates += v.certificates_checked;
    L->steps += v.steps_checked;
  }
  L->iterations += ls.iterations;
  L->sens_queries += ls.sensitization_queries;
  L->sta_repaired += ls.sta_gates_repaired;
  L->passes += r.passes;
  L->removed += r.removed;
  L->sat_queries += r.sat_queries;
  L->sim_dropped += r.sim_dropped;
  L->witness_dropped += r.witness_dropped;
  L->cache_hits += r.cache_hits;
  L->cache_invalidated += r.cache_invalidated;
  L->static_discharged += r.static_discharged;
  L->conflicts += r.atpg.sat_conflicts;
  L->sim += r.sim_seconds;
  L->sat += r.sat_seconds;
  return res;
}

int cmd_trace(const std::string& outdir, bool certify,
              const std::vector<Input>& inputs) {
  Layers L;
  std::string mismatches;
  for (const Input& in : inputs) {
    const double u0 = wall_now();
    const serve::JobReport rep = run_one(
        job_spec(certify ? serve::JobKind::kCertify : serve::JobKind::kIrr,
                 in.bytes));
    L.untraced += wall_now() - u0;
    if (rep.exit_code != 0)
      throw std::runtime_error(in.name + ": run_job failed: " + rep.error);
    spit(outdir + "/" + in.name + ".report.json", rep.to_json() + "\n");
    const double t0 = wall_now();
    const TracedResult traced = traced_job(in, certify, &L);
    L.traced += wall_now() - t0;
    if (traced.digest != rep.output_digest ||
        traced.final_delay != rep.final_computed_delay)
      mismatches += " " + in.name;
  }
  const double phases = L.parse + L.decompose + L.write + L.loop + L.removal +
                        L.delay + L.verify;
  const double queries = static_cast<double>(L.sat_queries);
  std::printf(
      "{\"digests_equal\":%s,\"mismatches\":%s,\"jobs\":%zu,"
      "\"netlist.parse_s\":%s,\"netlist.decompose_s\":%s,"
      "\"netlist.write_s\":%s,\"core.loop_s\":%s,\"core.iterations\":%zu,"
      "\"core.sensitization_queries\":%zu,\"timing.sta_gates_repaired\":%zu,"
      "\"atpg.removal_s\":%s,\"atpg.sim_s\":%s,\"atpg.sat_s\":%s,"
      "\"atpg.other_s\":%s,\"atpg.passes\":%zu,\"atpg.removed\":%zu,"
      "\"atpg.sat_queries\":%zu,\"atpg.sim_dropped\":%zu,"
      "\"atpg.witness_dropped\":%zu,\"atpg.cache_hits\":%zu,"
      "\"atpg.cache_invalidated\":%zu,\"analysis.static_discharged\":%zu,"
      "\"sat.conflicts\":%zu,\"atpg.queries_per_removal\":%s,"
      "\"timing.delay_s\":%s,\"proof.capture_s\":%s,\"proof.verify_s\":%s,"
      "\"proof.certificates_checked\":%zu,\"proof.steps_checked\":%zu,"
      "\"trace.traced_s\":%s,\"trace.untraced_s\":%s,"
      "\"trace.unattributed_s\":%s}\n",
      mismatches.empty() ? "true" : "false", quote(mismatches).c_str(),
      inputs.size(), num(L.parse).c_str(), num(L.decompose).c_str(),
      num(L.write).c_str(), num(L.loop).c_str(), L.iterations,
      L.sens_queries, L.sta_repaired, num(L.removal).c_str(),
      num(L.sim).c_str(), num(L.sat).c_str(),
      num(L.removal - L.sim - L.sat).c_str(), L.passes, L.removed,
      L.sat_queries, L.sim_dropped, L.witness_dropped, L.cache_hits,
      L.cache_invalidated, L.static_discharged, L.conflicts,
      num(L.removed ? queries / static_cast<double>(L.removed) : 0.0).c_str(),
      num(L.delay).c_str(), num(L.capture).c_str(), num(L.verify).c_str(),
      L.certificates, L.steps, num(L.traced).c_str(), num(L.untraced).c_str(),
      num(L.traced - phases).c_str());
  return 0;
}

// ---------------------------------------------------------------- probe

std::uintmax_t dir_bytes(const std::string& dir) {
  std::uintmax_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir))
    if (e.is_regular_file()) total += e.file_size();
  return total;
}

int cmd_probe(const std::string& outdir, const std::vector<Input>& inputs) {
  double durable = 0, audit = 0, delay = 0, analyze = 0, lint = 0;
  std::uintmax_t bytes = 0;
  std::string bad;
  const auto timed = [](const serve::JobSpec& spec, double* acc) {
    const double t0 = wall_now();
    serve::JobReport rep = run_one(spec);
    *acc += wall_now() - t0;
    if (rep.exit_code != 0)
      throw std::runtime_error(std::string(serve::job_kind_name(spec.kind)) +
                               " job failed: " + rep.error);
    return rep;
  };
  for (const Input& in : inputs) {
    double plain = 0, artifacts = 0;
    const serve::JobReport cert =
        timed(job_spec(serve::JobKind::kCertify, in.bytes), &plain);
    serve::JobSpec spec = job_spec(serve::JobKind::kCertify, in.bytes);
    spec.emit_proof = outdir + "/probe_" + in.name;
    fs::remove_all(spec.emit_proof);
    const serve::JobReport dur = timed(spec, &artifacts);
    if (dur.output_digest != cert.output_digest) bad += " " + in.name;
    durable += artifacts - plain;
    bytes += dir_bytes(spec.emit_proof);
    const serve::JobReport au =
        timed(job_spec(serve::JobKind::kAudit, cert.output_blif), &audit);
    if (au.audit_redundant != 0 || au.audit_unknown != 0)
      bad += " " + in.name + "(audit)";
    timed(job_spec(serve::JobKind::kDelay, in.bytes), &delay);
    timed(job_spec(serve::JobKind::kAnalyze, in.bytes), &analyze);
    timed(job_spec(serve::JobKind::kLint, in.bytes), &lint);
  }
  std::printf(
      "{\"probe_ok\":%s,\"problems\":%s,\"recover.durable_s\":%s,"
      "\"recover.bytes_written\":%ju,\"atpg.audit_s\":%s,"
      "\"timing.delay_job_s\":%s,\"analysis.analyze_s\":%s,"
      "\"check.lint_s\":%s}\n",
      bad.empty() ? "true" : "false", quote(bad).c_str(),
      num(durable).c_str(), bytes, num(audit).c_str(), num(delay).c_str(),
      num(analyze).c_str(), num(lint).c_str());
  return 0;
}

int cmd_audit(const std::vector<Input>& inputs) {
  std::string out = "[";
  for (const Input& in : inputs) {
    const serve::JobReport rep =
        run_one(job_spec(serve::JobKind::kAudit, in.bytes));
    if (out.size() > 1) out += ",";
    out += "{\"name\":" + quote(in.name) +
           ",\"exit_code\":" + std::to_string(rep.exit_code) +
           ",\"redundant\":" + std::to_string(rep.audit_redundant) +
           ",\"unknown\":" + std::to_string(rep.audit_unknown) + "}";
  }
  std::printf("%s]\n", out.c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: kmsbench gen <dir>\n"
               "       kmsbench setup <blif>...\n"
               "       kmsbench run <outdir> <seconds> <blif>...\n"
               "       kmsbench trace <outdir> <certify 0|1> <blif>...\n"
               "       kmsbench probe <outdir> <blif>...\n"
               "       kmsbench audit <blif>...\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "gen") return cmd_gen(argv[2]);
    if (cmd == "setup") return cmd_setup(argv + 2, argv + argc);
    if (cmd == "run" && argc >= 5)
      return cmd_run(argv[2], std::atof(argv[3]),
                     load_inputs(argv + 4, argv + argc),
                     prepare(argv + 4, argv + argc));
    if (cmd == "trace" && argc >= 5) {
      fs::create_directories(argv[2]);
      return cmd_trace(argv[2], std::string(argv[3]) == "1",
                       load_inputs(argv + 4, argv + argc));
    }
    if (cmd == "audit") return cmd_audit(load_inputs(argv + 2, argv + argc));
    if (cmd == "probe" && argc >= 4) {
      fs::create_directories(argv[2]);
      return cmd_probe(argv[2], load_inputs(argv + 3, argv + argc));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kmsbench: %s\n", e.what());
    return 2;
  }
  return usage();
}
