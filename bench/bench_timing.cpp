// Incremental-STA repair cost across the KMS loop: how many gate visits
// the dirty-cone repair spends versus the per-iteration full recompute
// it replaces (counted by the engine itself), and the loop's wall time.
//
// Modes:
//   bench_timing                  human-readable table
//   bench_timing --json <path>    kms-bench-timing-v2 JSON (schema
//                                 documented in DESIGN.md §15), validated
//                                 by tools/validate_bench_timing.py
//   bench_timing --json <path> --quick
//                                 smallest circuits only (the CI
//                                 bench-smoke stage)
//
// The loop phase runs alone (remove_remaining off): the final removal
// phase recomputes nothing per iteration, so including it would dilute
// the loop-cost signal under SAT time. Exactness of the repaired tables
// is not measured here — NL028 audits it against a full recompute after
// every repair (tests/timing_incremental_test.cpp, --audit-timing).
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/core/kms.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/suite.hpp"
#include "src/netlist/transform.hpp"

using namespace kms;

namespace {

struct Row {
  std::string name;
  std::size_t gates = 0;
  std::size_t iterations = 0;
  std::size_t applies = 0;
  std::size_t rebuilds = 0;
  std::uint64_t incremental_visits = 0;
  std::uint64_t full_visits = 0;
  double loop_seconds = 0.0;

  double repaired_fraction() const {
    return full_visits > 0 ? static_cast<double>(incremental_visits) /
                                 static_cast<double>(full_visits)
                           : 0.0;
  }
};

Row measure(const std::string& name, Network net) {
  decompose_to_simple(net);
  Row row;
  row.name = name;
  row.gates = net.count_gates();
  Network copy = net.clone_compact();
  KmsOptions opts;
  opts.remove_remaining = false;
  bench::Timer t;
  const KmsStats stats = kms_make_irredundant(copy, opts);
  row.loop_seconds = t.seconds();
  row.iterations = stats.iterations;
  row.applies = stats.sta_applies;
  row.rebuilds = stats.sta_rebuilds;
  row.incremental_visits = stats.sta_gates_repaired;
  row.full_visits = stats.sta_full_visits;
  return row;
}

std::vector<std::pair<std::string, Network>> corpus(bool quick) {
  std::vector<std::pair<std::string, Network>> circuits;
  circuits.emplace_back("csa_8_2", carry_skip_adder(8, 2));
  if (quick) return circuits;
  circuits.emplace_back("csa_16_4", carry_skip_adder(16, 4));
  circuits.emplace_back("rca_16", ripple_carry_adder(16));
  for (const SuiteSpec& spec : benchmark_suite())
    circuits.emplace_back(spec.name, build_suite_circuit(spec));
  return circuits;
}

int run(const std::string& json_path, bool quick) {
  std::vector<Row> rows;
  for (auto& [name, net] : corpus(quick)) {
    std::fprintf(stderr, "bench_timing: %s\n", name.c_str());
    rows.push_back(measure(name, std::move(net)));
  }

  std::printf("KMS loop timing: incremental dirty-cone repair vs full "
              "recompute per iteration\n");
  bench::rule('=');
  std::printf("%-10s %7s %6s %8s %10s %10s %6s %9s\n", "circuit", "gates",
              "iters", "applies", "inc-visit", "full-visit", "frac",
              "loop[s]");
  bench::rule();
  std::uint64_t sum_inc = 0, sum_full = 0;
  for (const Row& r : rows) {
    sum_inc += r.incremental_visits;
    sum_full += r.full_visits;
    std::printf("%-10s %7zu %6zu %8zu %10llu %10llu %5.2f %9.3f\n",
                r.name.c_str(), r.gates, r.iterations, r.applies,
                static_cast<unsigned long long>(r.incremental_visits),
                static_cast<unsigned long long>(r.full_visits),
                r.repaired_fraction(), r.loop_seconds);
  }
  bench::rule();
  std::printf("suite totals: %llu incremental visits vs %llu full "
              "(fraction %.3f)\n",
              static_cast<unsigned long long>(sum_inc),
              static_cast<unsigned long long>(sum_full),
              sum_full > 0 ? static_cast<double>(sum_inc) /
                                 static_cast<double>(sum_full)
                           : 0.0);

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "bench_timing: cannot write %s\n",
                   json_path.c_str());
      return 2;
    }
    std::fprintf(out, "{\n  \"schema\": \"kms-bench-timing-v2\",\n");
    std::fprintf(out, "  \"circuits\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          out,
          "    {\"name\": \"%s\", \"gates\": %zu, \"iterations\": %zu, "
          "\"sta_applies\": %zu, \"sta_rebuilds\": %zu,\n"
          "     \"incremental_gate_visits\": %llu, "
          "\"full_gate_visits\": %llu, \"repaired_fraction\": %.6f,\n"
          "     \"loop_seconds\": %.6f}%s\n",
          r.name.c_str(), r.gates, r.iterations, r.applies, r.rebuilds,
          static_cast<unsigned long long>(r.incremental_visits),
          static_cast<unsigned long long>(r.full_visits),
          r.repaired_fraction(), r.loop_seconds,
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_timing [--json <path>] [--quick]\n");
      return 1;
    }
  }
  return run(json_path, quick);
}
