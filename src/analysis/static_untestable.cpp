#include "src/analysis/static_untestable.hpp"

#include <sstream>

#include "src/analysis/snapshot.hpp"
#include "src/base/strings.hpp"

namespace kms::analysis {
namespace {

/// Mark `entry` and everything reachable from it through live
/// connections. Gates in this set can differ between the good and the
/// faulty circuit; everything outside holds its good value.
std::vector<char> mark_cone(const Network& net, GateId entry) {
  std::vector<char> cone(net.gate_capacity(), 0);
  std::vector<GateId> stack{entry};
  cone[entry.value()] = 1;
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    for (ConnId c : net.gate(g).fanouts) {
      if (net.conn(c).dead) continue;
      const GateId to = net.conn(c).to;
      if (cone[to.value()]) continue;
      cone[to.value()] = 1;
      stack.push_back(to);
    }
  }
  return cone;
}

/// One side input of a dominator: the conn, its live pin index at the
/// dominator, and its source gate.
struct Side {
  GateId dom;
  ConnId conn;
  std::uint32_t pin;
  GateId source;
};

/// All side inputs of the dominators of a fault whose sources lie
/// outside the fault cone (so their values are fault-independent).
/// Restricted to dominators with a controlling value — only those can
/// block propagation through a forced side input.
std::vector<Side> outside_sides(const Network& net,
                                const std::vector<GateId>& doms,
                                const std::vector<char>& cone,
                                ConnId fault_conn) {
  std::vector<Side> sides;
  for (GateId d : doms) {
    if (!has_controlling_value(net.gate(d).kind)) continue;
    std::uint32_t pin = 0;
    for (ConnId c : net.gate(d).fanins) {
      if (net.conn(c).dead) continue;
      const std::uint32_t p = pin++;
      if (c == fault_conn) continue;
      const GateId s = net.conn(c).from;
      if (cone[s.value()]) continue;
      sides.push_back(Side{d, c, p, s});
    }
  }
  return sides;
}

}  // namespace

std::string_view static_verdict_name(StaticVerdict v) {
  switch (v) {
    case StaticVerdict::kUnknown:      return "unknown";
    case StaticVerdict::kUnobservable: return "unobservable";
    case StaticVerdict::kUnexcitable:  return "unexcitable";
    case StaticVerdict::kBlocked:      return "blocked";
  }
  return "unknown";
}

StaticUntestable::StaticUntestable(const Network& net)
    : net_(net), dom_(net), imp_(net) {
  const std::vector<GateId> order = snapshot_order(net);
  snap_index_.assign(net.gate_capacity(), 0xFFFFFFFFu);
  for (std::uint32_t i = 0; i < order.size(); ++i)
    snap_index_[order[i].value()] = i;
}

StaticResult StaticUntestable::analyze_stem(GateId g, bool stuck) const {
  return analyze(g, g, ConnId::invalid(), stuck);
}

StaticResult StaticUntestable::analyze_branch(ConnId c, bool stuck) const {
  return analyze(net_.conn(c).from, net_.conn(c).to, c, stuck);
}

StaticResult StaticUntestable::analyze(GateId source, GateId entry,
                                       ConnId fault_conn, bool stuck) const {
  StaticResult res;
  // The justification text is formatted only once a rule fires: most
  // faults hit no rule, and they must not pay for the strings.
  auto head = [&] {
    std::string site;
    if (fault_conn.is_valid()) {
      // Live pin index of the faulty connection at its sink — the
      // snapshot numbering the checker will see.
      std::uint32_t pin = 0, fault_pin = 0;
      for (ConnId c : net_.gate(entry).fanins) {
        if (net_.conn(c).dead) continue;
        if (c == fault_conn) fault_pin = pin;
        ++pin;
      }
      site = str_format("site=branch:%u.%u", snap_index_[entry.value()],
                        fault_pin);
    } else {
      site = str_format("site=stem:%u", snap_index_[source.value()]);
    }
    return site + str_format(" stuck=%d", stuck ? 1 : 0);
  };

  // Rule 1: no live path from the fault site to any primary output.
  if (!dom_.reaches_output(entry)) {
    res.verdict = StaticVerdict::kUnobservable;
    res.justification = head() + " kind=unobservable";
    return res;
  }

  // Rule 2: the excitation value conflicts — the site is structurally
  // stuck at the fault value already.
  const bool act = !stuck;
  const Implications exc = imp_.propagate({{source, act}});
  if (exc.conflict) {
    res.verdict = StaticVerdict::kUnexcitable;
    res.justification =
        head() + str_format(" kind=unexcitable conflict=%u",
                            snap_index_[exc.conflict_gate.value()]);
    return res;
  }

  // Rule 3: a dominator side input outside the fault cone is forced to
  // the dominator's controlling value under excitation.
  std::vector<GateId> doms;
  if (fault_conn.is_valid()) doms.push_back(entry);
  for (GateId d : dom_.chain(entry)) doms.push_back(d);
  if (doms.empty()) return res;

  auto doms_csv = [&] {
    std::string csv;
    for (GateId d : doms) {
      if (!csv.empty()) csv += ",";
      csv += str_format("%u", snap_index_[d.value()]);
    }
    return csv;
  };

  const std::vector<char> cone = mark_cone(net_, entry);
  const std::vector<Side> sides = outside_sides(net_, doms, cone, fault_conn);

  for (const Side& s : sides) {
    const bool cv = controlling_value(net_.gate(s.dom).kind);
    if (exc.implies(s.source, cv)) {
      res.verdict = StaticVerdict::kBlocked;
      res.justification =
          head() + str_format(" kind=blocked mode=direct dom=%u side=%u "
                              "impl=%u:%d doms=%s",
                              snap_index_[s.dom.value()], s.pin,
                              snap_index_[s.source.value()], cv ? 1 : 0,
                              doms_csv().c_str());
      return res;
    }
  }

  // Indirect (one level of recursive learning): every outside side
  // input must individually sit at its noncontrolling value in any
  // test, so seeding them all jointly with the excitation is a
  // necessary condition — a conflict proves untestability.
  if (!sides.empty()) {
    std::vector<std::pair<GateId, bool>> seeds{{source, act}};
    for (const Side& s : sides)
      seeds.emplace_back(s.source,
                         noncontrolling_value(net_.gate(s.dom).kind));
    const Implications joint = imp_.propagate(seeds);
    if (joint.conflict) {
      std::string sides_csv;
      for (const Side& s : sides) {
        if (!sides_csv.empty()) sides_csv += ",";
        sides_csv += str_format("%u.%u", snap_index_[s.dom.value()], s.pin);
      }
      res.verdict = StaticVerdict::kBlocked;
      res.justification =
          head() + str_format(" kind=blocked mode=indirect sides=%s doms=%s",
                              sides_csv.c_str(), doms_csv().c_str());
      return res;
    }
  }
  return res;
}

// ---------------------------------------------------------------------------
// Independent claim checker.
// ---------------------------------------------------------------------------
namespace {

struct Claim {
  bool branch = false;
  std::uint32_t site_gate = 0;   ///< stem gate, or branch sink
  std::uint32_t site_pin = 0;    ///< branch only
  bool stuck = false;
  std::string kind, mode;
  bool has_dom = false, has_side = false, has_impl = false;
  std::uint32_t dom = 0, side = 0;
  std::uint32_t impl_gate = 0;
  bool impl_val = false;
  std::vector<std::uint32_t> doms;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sides;  ///< (dom, pin)
  std::string error;
};

Claim parse_claim(const std::string& text) {
  Claim c;
  std::istringstream in(text);
  std::string tok;
  auto fail = [&](const std::string& why) {
    if (c.error.empty()) c.error = "static claim: " + why;
  };
  while (in >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      fail("token without '=': " + tok);
      break;
    }
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    try {
      if (key == "site") {
        if (val.rfind("stem:", 0) == 0) {
          c.site_gate = static_cast<std::uint32_t>(std::stoul(val.substr(5)));
        } else if (val.rfind("branch:", 0) == 0) {
          c.branch = true;
          const std::size_t dot = val.find('.', 7);
          if (dot == std::string::npos) {
            fail("branch site needs sink.pin");
            break;
          }
          c.site_gate =
              static_cast<std::uint32_t>(std::stoul(val.substr(7, dot - 7)));
          c.site_pin =
              static_cast<std::uint32_t>(std::stoul(val.substr(dot + 1)));
        } else {
          fail("unknown site form: " + val);
          break;
        }
      } else if (key == "stuck") {
        c.stuck = val == "1";
      } else if (key == "kind") {
        c.kind = val;
      } else if (key == "mode") {
        c.mode = val;
      } else if (key == "conflict") {
        // informational: the conflict site is re-derived, not trusted
      } else if (key == "dom") {
        c.has_dom = true;
        c.dom = static_cast<std::uint32_t>(std::stoul(val));
      } else if (key == "side") {
        c.has_side = true;
        c.side = static_cast<std::uint32_t>(std::stoul(val));
      } else if (key == "impl") {
        const std::size_t colon = val.find(':');
        if (colon == std::string::npos) {
          fail("impl needs gate:value");
          break;
        }
        c.has_impl = true;
        c.impl_gate =
            static_cast<std::uint32_t>(std::stoul(val.substr(0, colon)));
        c.impl_val = val.substr(colon + 1) == "1";
      } else if (key == "doms") {
        std::istringstream ls(val);
        std::string item;
        while (std::getline(ls, item, ','))
          c.doms.push_back(static_cast<std::uint32_t>(std::stoul(item)));
      } else if (key == "sides") {
        std::istringstream ls(val);
        std::string item;
        while (std::getline(ls, item, ',')) {
          const std::size_t dot = item.find('.');
          if (dot == std::string::npos) {
            fail("sides entries need dom.pin");
            break;
          }
          c.sides.emplace_back(
              static_cast<std::uint32_t>(std::stoul(item.substr(0, dot))),
              static_cast<std::uint32_t>(std::stoul(item.substr(dot + 1))));
        }
      } else {
        fail("unknown key: " + key);
        break;
      }
    } catch (const std::exception&) {
      fail("malformed value for " + key);
      break;
    }
  }
  if (c.error.empty() && c.kind.empty()) fail("missing kind=");
  return c;
}

/// Live pin `pin` of gate `g`, or invalid.
ConnId live_pin(const Network& net, GateId g, std::uint32_t pin) {
  std::uint32_t p = 0;
  for (ConnId c : net.gate(g).fanins) {
    if (net.conn(c).dead) continue;
    if (p++ == pin) return c;
  }
  return ConnId::invalid();
}

}  // namespace

std::string verify_static_claim(const Network& net,
                                const std::string& justification) {
  const Claim c = parse_claim(justification);
  if (!c.error.empty()) return c.error;

  // On a snapshot-parsed network, GateId::value() is the snapshot
  // index, so claim coordinates are gate ids directly.
  if (c.site_gate >= net.gate_capacity())
    return "static claim: site gate out of range";
  const GateId site{c.site_gate};
  if (net.gate(site).dead) return "static claim: site gate is dead";

  GateId source, entry;
  ConnId fault_conn = ConnId::invalid();
  if (c.branch) {
    entry = site;
    fault_conn = live_pin(net, site, c.site_pin);
    if (!fault_conn.is_valid())
      return "static claim: branch pin out of range";
    source = net.conn(fault_conn).from;
  } else {
    source = entry = site;
    if (!is_logic(net.gate(site).kind) && net.gate(site).kind != GateKind::kInput)
      return "static claim: stem site is not a fault site";
  }

  const DominatorTree dom(net);
  const ImplicationEngine imp(net);
  const bool act = !c.stuck;

  if (c.kind == "unobservable") {
    if (dom.reaches_output(entry))
      return "static claim: site reaches an output; not unobservable";
    return "";
  }

  if (c.kind == "unexcitable") {
    const Implications exc = imp.propagate({{source, act}});
    if (!exc.conflict)
      return "static claim: excitation closure does not conflict";
    return "";
  }

  if (c.kind != "blocked") return "static claim: unknown kind " + c.kind;

  // Re-derive the dominator chain and require the recorded one to match
  // exactly — the claim must speak about the real structure.
  std::vector<std::uint32_t> doms_actual;
  if (c.branch) doms_actual.push_back(entry.value());
  for (GateId d : dom.chain(entry)) doms_actual.push_back(d.value());
  if (doms_actual != c.doms)
    return "static claim: recorded dominator chain does not match";

  const std::vector<char> cone = mark_cone(net, entry);
  auto check_side = [&](std::uint32_t dom_idx, std::uint32_t pin,
                        GateId* src_out, bool* cv_out) -> std::string {
    bool on_chain = false;
    for (const std::uint32_t d : doms_actual) on_chain |= d == dom_idx;
    if (!on_chain) return "static claim: dom is not a dominator of the site";
    const GateId d{dom_idx};
    if (!has_controlling_value(net.gate(d).kind))
      return "static claim: dominator has no controlling value";
    const ConnId sc = live_pin(net, d, pin);
    if (!sc.is_valid()) return "static claim: side pin out of range";
    if (sc == fault_conn) return "static claim: side pin is the fault pin";
    const GateId s = net.conn(sc).from;
    if (cone[s.value()])
      return "static claim: side source lies inside the fault cone";
    *src_out = s;
    *cv_out = controlling_value(net.gate(d).kind);
    return "";
  };

  if (c.mode == "direct") {
    if (!c.has_dom || !c.has_side || !c.has_impl)
      return "static claim: direct mode needs dom=, side=, impl=";
    GateId s;
    bool cv = false;
    if (std::string err = check_side(c.dom, c.side, &s, &cv); !err.empty())
      return err;
    if (s.value() != c.impl_gate || cv != c.impl_val)
      return "static claim: impl does not name the side source at the "
             "controlling value";
    const Implications exc = imp.propagate({{source, act}});
    if (exc.conflict)
      return "static claim: excitation conflicts; claim should be "
             "unexcitable";
    if (!exc.implies(s, cv))
      return "static claim: closure does not force the side input to the "
             "controlling value";
    return "";
  }

  if (c.mode == "indirect") {
    if (c.sides.empty()) return "static claim: indirect mode needs sides=";
    std::vector<std::pair<GateId, bool>> seeds{{source, act}};
    for (const auto& [dom_idx, pin] : c.sides) {
      GateId s;
      bool cv = false;
      if (std::string err = check_side(dom_idx, pin, &s, &cv); !err.empty())
        return err;
      seeds.emplace_back(s, !cv);
    }
    const Implications joint = imp.propagate(seeds);
    if (!joint.conflict)
      return "static claim: joint closure of the necessary side values "
             "does not conflict";
    return "";
  }
  return "static claim: unknown blocked mode " + c.mode;
}

}  // namespace kms::analysis
