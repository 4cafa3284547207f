// ATPG substrate throughput: fault counts, fault-simulation drop rate,
// SAT ATPG speed and redundancy identification across the benchmark
// suite — the engine Section VI's "remove remaining redundancies in any
// order" leans on.
//
// Modes:
//   bench_atpg                      audit table (fault counts, drop
//                                   rates, solver throughput)
//   bench_atpg --json <path>        two-way removal-engine comparison
//                                   (seed / incremental), written as
//                                   kms-bench-atpg-v3 JSON (schema
//                                   documented in DESIGN.md §11)
//   bench_atpg --json <path> --quick
//                                   same, smallest circuit only (the CI
//                                   bench-smoke stage)
//   bench_atpg --jobs <n>           parallel-removal scaling table:
//                                   worker counts 1,2,4,... up to n on
//                                   each circuit; exits 2 unless every
//                                   thread count reproduces the
//                                   sequential removed count and BLIF
//                                   digest bit-for-bit
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/atpg/atpg.hpp"
#include "src/atpg/fault_sim.hpp"
#include "src/atpg/redundancy.hpp"
#include "src/base/rng.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/suite.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"
#include "src/proof/journal.hpp"

using namespace kms;

namespace {

void audit(const std::string& name, Network net) {
  decompose_to_simple(net);
  const auto faults = collapsed_faults(net);
  FaultSimulator sim(net);
  Rng rng(1);
  bench::Timer t_sim;
  const auto detected = sim.detect_random(faults, 16, rng);
  const double sim_secs = t_sim.seconds();
  std::size_t dropped = 0;
  for (bool d : detected)
    if (d) ++dropped;

  Atpg atpg(net);
  std::size_t redundant = 0;
  bench::Timer t_sat;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (detected[i]) continue;
    if (!atpg.is_testable(faults[i])) ++redundant;
  }
  const double sat_secs = t_sat.seconds();
  const std::size_t sat_calls = faults.size() - dropped;
  std::printf("%-10s %7zu %7zu %7zu %7zu %9.3f %9.3f %10.0f\n",
              name.c_str(), net.count_gates(), faults.size(), dropped,
              redundant, sim_secs, sat_secs,
              sat_calls > 0 ? static_cast<double>(sat_calls) / sat_secs
                            : 0.0);
}

int run_audit_table() {
  std::printf(
      "ATPG engine: random-pattern drop + exact SAT on survivors\n");
  bench::rule('=');
  std::printf("%-10s %7s %7s %7s %7s %9s %9s %10s\n", "circuit", "gates",
              "faults", "dropped", "redund", "sim[s]", "sat[s]",
              "sat/sec");
  bench::rule();

  audit("csa 8.2", carry_skip_adder(8, 2));
  audit("csa 16.4", carry_skip_adder(16, 4));
  audit("rca 16", ripple_carry_adder(16));
  for (const SuiteSpec& spec : benchmark_suite())
    audit(spec.name, build_suite_circuit(spec));
  bench::rule();
  return 0;
}

// ---- seed-vs-incremental comparison (--json) ------------------------------

struct EngineRun {
  RedundancyRemovalResult r;
  double seconds = 0.0;
  unsigned jobs = 1;
  std::uint64_t digest = 0;  ///< FNV-1a of the result's BLIF bytes
};

EngineRun run_engine(const Network& net, bool incremental,
                     unsigned jobs = 1) {
  Network copy = net.clone_compact();
  RedundancyRemovalOptions opts;
  opts.incremental = incremental;
  opts.context.jobs = jobs;
  // The comparison isolates exact-ATPG load: random-pattern pre-drop is
  // off for both engines (it hides the query counts behind stimulus
  // luck — with it on, small circuits sit at the one-UNSAT-per-removal
  // floor for both engines). The incremental engine's witness dropping
  // and cross-pass cache take over the drop role from targeted, not
  // random, stimulus.
  opts.use_fault_sim = false;
  bench::Timer t;
  EngineRun run;
  run.r = remove_redundancies(copy, opts);
  run.seconds = t.seconds();
  run.jobs = jobs;
  run.digest = proof::digest_bytes(write_blif_string(copy));
  return run;
}

void write_engine(std::FILE* out, const char* key, const EngineRun& run) {
  const AtpgStats& a = run.r.atpg;
  std::fprintf(
      out,
      "      \"%s\": {\"removed\": %zu, \"passes\": %zu, "
      "\"sat_queries\": %zu, \"structural_shortcuts\": %zu, "
      "\"sim_dropped\": %zu, \"witness_dropped\": %zu, "
      "\"cache_hits\": %zu, \"cache_invalidated\": %zu, "
      "\"unknown_queries\": %zu, \"aborted\": %s, \"jobs\": %u, "
      "\"digest\": \"%016llx\", "
      "\"sat_conflicts\": %llu, \"cone_gates_avg\": %.2f, "
      "\"max_cone_gates\": %llu, \"seconds\": %.6f}",
      key, run.r.removed, run.r.passes, run.r.sat_queries,
      run.r.structural_shortcuts, run.r.sim_dropped, run.r.witness_dropped,
      run.r.cache_hits, run.r.cache_invalidated, run.r.unknown_queries,
      run.r.aborted ? "true" : "false", run.jobs,
      static_cast<unsigned long long>(run.digest),
      static_cast<unsigned long long>(a.sat_conflicts),
      a.sat_solves > 0 ? static_cast<double>(a.cone_gates_encoded) /
                             static_cast<double>(a.sat_solves)
                       : 0.0,
      static_cast<unsigned long long>(a.max_cone_gates), run.seconds);
}

int run_json(const std::string& path, bool quick) {
  std::vector<std::pair<std::string, Network>> circuits;
  circuits.emplace_back("csa_8_2", carry_skip_adder(8, 2));
  if (!quick) {
    circuits.emplace_back("csa_16_4", carry_skip_adder(16, 4));
    circuits.emplace_back("rca_16", ripple_carry_adder(16));
    for (const SuiteSpec& spec : benchmark_suite())
      circuits.emplace_back(spec.name, build_suite_circuit(spec));
  }

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "bench_atpg: cannot write %s\n", path.c_str());
    return 2;
  }
  std::fprintf(out, "{\n  \"schema\": \"kms-bench-atpg-v3\",\n");
  std::fprintf(out, "  \"circuits\": [\n");
  bool failed = false;
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    Network& net = circuits[c].second;
    decompose_to_simple(net);
    const std::size_t gates = net.count_gates();
    const std::size_t faults = collapsed_faults(net).size();
    std::fprintf(stderr, "bench_atpg: %s (%zu gates, %zu faults)\n",
                 circuits[c].first.c_str(), gates, faults);
    const EngineRun seed = run_engine(net, /*incremental=*/false);
    const EngineRun inc = run_engine(net, /*incremental=*/true);
    const bool match =
        seed.r.removed == inc.r.removed && seed.digest == inc.digest;
    if (!match) failed = true;
    const double ratio =
        static_cast<double>(seed.r.sat_queries) /
        static_cast<double>(inc.r.sat_queries > 0 ? inc.r.sat_queries : 1);
    std::fprintf(out, "    {\"name\": \"%s\", \"gates\": %zu, "
                      "\"faults\": %zu,\n",
                 circuits[c].first.c_str(), gates, faults);
    std::fprintf(out, "     \"engines\": {\n");
    write_engine(out, "seed", seed);
    std::fprintf(out, ",\n");
    write_engine(out, "incremental", inc);
    std::fprintf(out, "\n     },\n");
    std::fprintf(out, "     \"removed_match\": %s, "
                      "\"sat_query_ratio\": %.3f}%s\n",
                 match ? "true" : "false", ratio,
                 c + 1 < circuits.size() ? "," : "");
    std::fprintf(stderr,
                 "  seed: %zu removed, %zu sat queries, %.3fs | "
                 "incremental: %zu removed, %zu sat queries, %.3fs "
                 "(ratio %.2fx)%s\n",
                 seed.r.removed, seed.r.sat_queries, seed.seconds,
                 inc.r.removed, inc.r.sat_queries, inc.seconds, ratio,
                 match ? "" : "  ENGINE MISMATCH");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  if (failed) {
    std::fprintf(stderr,
                 "bench_atpg: FAILED — engines diverged (removed count or "
                 "result digest)\n");
    return 2;
  }
  return 0;
}

// ---- parallel-removal scaling (--jobs) ------------------------------------

int run_scaling(unsigned max_jobs, bool quick) {
  std::vector<std::pair<std::string, Network>> circuits;
  circuits.emplace_back("csa_8_2", carry_skip_adder(8, 2));
  if (!quick) {
    circuits.emplace_back("csa_16_4", carry_skip_adder(16, 4));
    circuits.emplace_back("rca_16", ripple_carry_adder(16));
    for (const SuiteSpec& spec : benchmark_suite())
      circuits.emplace_back(spec.name, build_suite_circuit(spec));
  }
  std::vector<unsigned> job_counts{1};
  for (unsigned j = 2; j < max_jobs; j *= 2) job_counts.push_back(j);
  if (max_jobs > 1) job_counts.push_back(max_jobs);

  std::printf("parallel removal scaling (incremental engine, pre-drop "
              "off)\n");
  bench::rule('=');
  std::printf("%-12s %7s %7s %5s %8s %9s %8s %6s\n", "circuit", "gates",
              "faults", "jobs", "removed", "sec", "speedup", "match");
  bench::rule();
  bool failed = false;
  for (auto& [name, net] : circuits) {
    decompose_to_simple(net);
    const std::size_t gates = net.count_gates();
    const std::size_t faults = collapsed_faults(net).size();
    EngineRun base;
    for (const unsigned jobs : job_counts) {
      const EngineRun run = run_engine(net, /*incremental=*/true, jobs);
      if (jobs == 1) base = run;
      // The whole point of the commit protocol: every worker count
      // reproduces the sequential result bit for bit.
      const bool match =
          run.r.removed == base.r.removed && run.digest == base.digest;
      if (!match) failed = true;
      std::printf("%-12s %7zu %7zu %5u %8zu %9.3f %7.2fx %6s\n",
                  name.c_str(), gates, faults, jobs, run.r.removed,
                  run.seconds,
                  run.seconds > 0 ? base.seconds / run.seconds : 0.0,
                  match ? "yes" : "NO");
    }
  }
  bench::rule();
  if (failed) {
    std::fprintf(stderr,
                 "bench_atpg: FAILED — a parallel run diverged from the "
                 "sequential result\n");
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool quick = false;
  long long jobs = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      char* end = nullptr;
      jobs = std::strtoll(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || jobs < 1 || jobs > 1024) {
        std::fprintf(stderr, "bench_atpg: bad --jobs value\n");
        return 1;
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_atpg [--json <path> [--quick]] "
                   "[--jobs <n> [--quick]]\n");
      return 1;
    }
  }
  if (jobs >= 1 && !json_path.empty()) {
    std::fprintf(stderr, "bench_atpg: --jobs and --json are exclusive\n");
    return 1;
  }
  if (jobs >= 1) return run_scaling(static_cast<unsigned>(jobs), quick);
  if (!json_path.empty()) return run_json(json_path, quick);
  return run_audit_table();
}
