#include "src/analysis/report.hpp"

#include <algorithm>
#include <limits>
#include <ostream>

#include "src/analysis/collapse.hpp"
#include "src/analysis/dominators.hpp"
#include "src/analysis/levels.hpp"
#include "src/analysis/rules.hpp"
#include "src/analysis/scoap.hpp"
#include "src/analysis/static_untestable.hpp"
#include "src/timing/checker.hpp"
#include "src/timing/sta.hpp"

namespace kms::analysis {

AnalysisReport run_analysis(const Network& net) {
  AnalysisReport r;
  r.model = net.name();
  r.gates = net.count_gates();
  r.conns = net.count_live_conns();
  r.depth = net.depth();

  const std::vector<std::uint32_t> levels = gate_levels(net);
  for (GateId g : net.topo_order())
    r.max_level = std::max(r.max_level, levels[g.value()]);

  const StaticUntestable stat(net);
  for (GateId g : net.topo_order())
    if (stat.dominators().ipdom(g).is_valid()) ++r.dominated_gates;

  const ScoapMetrics scoap = compute_scoap(net);
  for (GateId g : net.topo_order()) {
    const Gate& gt = net.gate(g);
    if (gt.kind == GateKind::kOutput) continue;
    if (scoap.cc0[g.value()] != kScoapInfinity)
      r.max_cc = std::max(r.max_cc, scoap.cc0[g.value()]);
    if (scoap.cc1[g.value()] != kScoapInfinity)
      r.max_cc = std::max(r.max_cc, scoap.cc1[g.value()]);
    if (scoap.co[g.value()] != kScoapInfinity)
      r.max_co = std::max(r.max_co, scoap.co[g.value()]);
    if (is_logic(gt.kind) && !is_constant(gt.kind) && !scoap.observable(g))
      ++r.unobservable_gates;
  }

  const FaultCollapse collapse(net);
  r.total_faults = collapse.total_faults();
  r.fault_classes = collapse.classes().size();
  r.largest_class = collapse.classes().empty()
                        ? 0
                        : collapse.classes().front().members.size();
  r.dominance_edges = collapse.dominance_edges();

  // Static untestability over one representative per equivalence class —
  // the same universe the ATPG removal scan walks.
  for (const FaultClass& cls : collapse.classes()) {
    const FaultNode& f = cls.members.front();
    const StaticResult sr = f.branch ? stat.analyze_branch(f.conn, f.stuck)
                                     : stat.analyze_stem(f.gate, f.stuck);
    ++r.fault_sites;
    switch (sr.verdict) {
      case StaticVerdict::kUnobservable: ++r.unobservable; break;
      case StaticVerdict::kUnexcitable:  ++r.unexcitable;  break;
      case StaticVerdict::kBlocked:      ++r.blocked;      break;
      case StaticVerdict::kUnknown:      break;
    }
  }

  // Timing snapshot: one full pass, audited by the TimingChecker's
  // semantic rules (a violation here means the timing subsystem itself
  // is wrong — surfaced in the report rather than thrown, since analyze
  // is a read-only diagnostic command).
  const TimingTables timing = compute_timing(net);
  r.delay = timing.delay;
  bool any_slack = false;
  for (GateId g : net.topo_order()) {
    const double s = timing.slack[g.value()];
    if (s == std::numeric_limits<double>::infinity() ||
        s == -std::numeric_limits<double>::infinity())
      continue;
    if (!any_slack || s < r.min_slack) r.min_slack = s;
    any_slack = true;
    if (s <= 1e-9) ++r.critical_gates;
  }
  r.timing_violations = audit_timing_tables(net, timing).diagnostics
                            .error_count();

  run_analysis_rules(net, &r.diagnostics);
  run_timing_rules(net, &r.diagnostics);
  return r;
}

void AnalysisReport::print_text(std::ostream& out) const {
  out << "analysis report for " << (model.empty() ? "<unnamed>" : model)
      << "\n";
  out << "  structure  : " << gates << " gates, " << conns
      << " conns, depth " << depth << ", max level " << max_level << "\n";
  out << "  dominators : " << dominated_gates
      << " gates with a proper post-dominator\n";
  out << "  scoap      : max CC " << max_cc << ", max CO " << max_co << ", "
      << unobservable_gates << " unobservable gates\n";
  out << "  collapse   : " << total_faults << " faults -> " << fault_classes
      << " classes (largest " << largest_class << "), " << dominance_edges
      << " dominance edges\n";
  out << "  static     : " << fault_sites << " fault sites -> "
      << static_untestable() << " untestable (" << unobservable
      << " unobservable, " << unexcitable << " unexcitable, " << blocked
      << " blocked)\n";
  out << "  timing     : delay " << delay << ", min slack " << min_slack
      << ", " << critical_gates << " critical gates, " << timing_violations
      << " invariant violations\n";
  out << "  findings   : " << diagnostics.warning_count() << " warnings, "
      << diagnostics.error_count() << " errors\n";
  diagnostics.print_text(out, "  ");
}

void AnalysisReport::print_json(std::ostream& out) const {
  out << "{\"model\":\"" << json_escape(model) << "\",";
  out << "\"structure\":{\"gates\":" << gates << ",\"conns\":" << conns
      << ",\"depth\":" << depth << ",\"max_level\":" << max_level << "},";
  out << "\"dominators\":{\"dominated_gates\":" << dominated_gates << "},";
  out << "\"scoap\":{\"max_cc\":" << max_cc << ",\"max_co\":" << max_co
      << ",\"unobservable_gates\":" << unobservable_gates << "},";
  out << "\"collapse\":{\"total_faults\":" << total_faults
      << ",\"classes\":" << fault_classes << ",\"largest_class\":"
      << largest_class << ",\"dominance_edges\":" << dominance_edges << "},";
  out << "\"static\":{\"fault_sites\":" << fault_sites
      << ",\"unobservable\":" << unobservable << ",\"unexcitable\":"
      << unexcitable << ",\"blocked\":" << blocked << ",\"untestable\":"
      << static_untestable() << "},";
  out << "\"timing\":{\"delay\":" << delay << ",\"min_slack\":" << min_slack
      << ",\"critical_gates\":" << critical_gates
      << ",\"invariant_violations\":" << timing_violations << "},";
  out << "\"lint\":";
  diagnostics.print_json(out);
  out << "}";
}

}  // namespace kms::analysis
