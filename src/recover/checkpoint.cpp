#include "src/recover/checkpoint.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

namespace kms::recover {
namespace {

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

std::string fmt_hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// %.17g round-trips every finite double exactly.
std::string fmt_dbl(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::uint64_t parse_u64(const std::string& s, const std::string& key) {
  if (s.empty()) throw std::runtime_error("checkpoint: empty value for " + key);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size())
    throw std::runtime_error("checkpoint: bad integer for " + key + ": '" + s +
                             "'");
  return v;
}

std::uint64_t parse_hex(const std::string& s, const std::string& key) {
  if (s.size() != 16)
    throw std::runtime_error("checkpoint: bad digest for " + key + ": '" + s +
                             "'");
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 16);
  if (errno != 0 || end != s.c_str() + s.size())
    throw std::runtime_error("checkpoint: bad digest for " + key + ": '" + s +
                             "'");
  return v;
}

double parse_dbl(const std::string& s, const std::string& key) {
  if (s.empty()) throw std::runtime_error("checkpoint: empty value for " + key);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size())
    throw std::runtime_error("checkpoint: bad double for " + key + ": '" + s +
                             "'");
  return v;
}

bool parse_flag(const std::string& s, const std::string& key) {
  if (s == "0") return false;
  if (s == "1") return true;
  throw std::runtime_error("checkpoint: bad flag for " + key + ": '" + s +
                           "'");
}

/// Field table shared by the writer and the parser, so the two can
/// never drift apart: every serialized key is one entry here.
struct FieldTable {
  std::vector<std::pair<std::string, std::string>> out;  // writer
  std::map<std::string, std::function<void(const std::string&)>> in;  // parser
  bool writing = false;

  void u64(const std::string& key, std::uint64_t* f) {
    if (writing)
      out.emplace_back(key, fmt_u64(*f));
    else
      in[key] = [f, key](const std::string& v) { *f = parse_u64(v, key); };
  }
  void sz(const std::string& key, std::size_t* f) {
    if (writing)
      out.emplace_back(key, fmt_u64(*f));
    else
      in[key] = [f, key](const std::string& v) {
        *f = static_cast<std::size_t>(parse_u64(v, key));
      };
  }
  void hex(const std::string& key, std::uint64_t* f) {
    if (writing)
      out.emplace_back(key, fmt_hex(*f));
    else
      in[key] = [f, key](const std::string& v) { *f = parse_hex(v, key); };
  }
  void dbl(const std::string& key, double* f) {
    if (writing)
      out.emplace_back(key, fmt_dbl(*f));
    else
      in[key] = [f, key](const std::string& v) { *f = parse_dbl(v, key); };
  }
  void flag(const std::string& key, bool* f) {
    if (writing)
      out.emplace_back(key, *f ? "1" : "0");
    else
      in[key] = [f, key](const std::string& v) { *f = parse_flag(v, key); };
  }
  /// A string value spanning the rest of the line; "" serialized as "-".
  void str(const std::string& key, std::string* f) {
    if (writing)
      out.emplace_back(key, f->empty() ? "-" : *f);
    else
      in[key] = [f](const std::string& v) { *f = v == "-" ? "" : v; };
  }

  void bind(Checkpoint& c) {
    str("phase", &c.phase);
    u64("cursor", &c.cursor);
    u64("steps", &c.steps);
    u64("drat-certs", &c.drat_certs);
    hex("net-digest", &c.net_digest);
    str("rng", &c.rng_state);

    KmsStats& k = c.stats;
    sz("kms.iterations", &k.iterations);
    sz("kms.duplicated_gates", &k.duplicated_gates);
    sz("kms.constants_set", &k.constants_set);
    sz("kms.redundancies_removed", &k.redundancies_removed);
    sz("kms.sensitization_queries", &k.sensitization_queries);
    sz("kms.decomposed_complex", &k.decomposed_complex);
    flag("kms.path_cap_hit", &k.path_cap_hit);
    flag("kms.iteration_cap_hit", &k.iteration_cap_hit);
    sz("kms.unknown_queries", &k.unknown_queries);
    flag("kms.deadline_hit", &k.deadline_hit);
    flag("kms.budget_exhausted", &k.budget_exhausted);
    flag("kms.interrupted", &k.interrupted);
    flag("kms.degraded", &k.degraded);
    sz("kms.initial_gates", &k.initial_gates);
    sz("kms.final_gates", &k.final_gates);
    dbl("kms.initial_topo_delay", &k.initial_topo_delay);
    dbl("kms.final_topo_delay", &k.final_topo_delay);
    dbl("kms.initial_computed_delay", &k.initial_computed_delay);
    dbl("kms.final_computed_delay", &k.final_computed_delay);
    sz("kms.initial_max_fanout", &k.initial_max_fanout);
    sz("kms.final_max_fanout", &k.final_max_fanout);
    flag("kms.sta_incremental", &k.sta_incremental);
    sz("kms.sta_applies", &k.sta_applies);
    sz("kms.sta_rebuilds", &k.sta_rebuilds);
    sz("kms.sta_gates_repaired", &k.sta_gates_repaired);
    sz("kms.sta_full_visits", &k.sta_full_visits);
    sz("kms.sta_enum_reseeds", &k.sta_enum_reseeds);
    sz("kms.sta_enum_seed_visits", &k.sta_enum_seed_visits);
    str("kms.loop_exit", &k.loop_exit);
    sz("kms.spec_batches", &k.spec_batches);
    sz("kms.spec_solves", &k.spec_solves);
    sz("kms.spec_cache_hits", &k.spec_cache_hits);
    sz("kms.spec_cache_insertions", &k.spec_cache_insertions);
    sz("kms.spec_cache_invalidated", &k.spec_cache_invalidated);

    RedundancyRemovalResult& r = k.removal;
    sz("rm.removed", &r.removed);
    sz("rm.passes", &r.passes);
    sz("rm.sat_queries", &r.sat_queries);
    sz("rm.structural_shortcuts", &r.structural_shortcuts);
    sz("rm.unknown_queries", &r.unknown_queries);
    flag("rm.aborted", &r.aborted);
    sz("rm.sim_dropped", &r.sim_dropped);
    sz("rm.witness_dropped", &r.witness_dropped);
    sz("rm.cache_hits", &r.cache_hits);
    sz("rm.cache_invalidated", &r.cache_invalidated);

    AtpgStats& a = r.atpg;
    u64("atpg.queries", &a.queries);
    u64("atpg.testable", &a.testable);
    u64("atpg.untestable", &a.untestable);
    u64("atpg.unknown_queries", &a.unknown_queries);
    u64("atpg.sat_conflicts", &a.sat_conflicts);
    u64("atpg.sat_solves", &a.sat_solves);
    u64("atpg.structural_shortcuts", &a.structural_shortcuts);
    u64("atpg.cone_gates_encoded", &a.cone_gates_encoded);
    u64("atpg.max_cone_gates", &a.max_cone_gates);
  }
};

}  // namespace

std::string write_checkpoint(const Checkpoint& c) {
  FieldTable t;
  t.writing = true;
  t.bind(const_cast<Checkpoint&>(c));
  std::ostringstream out;
  for (const auto& [key, value] : t.out) out << key << ' ' << value << '\n';
  // The cache state is raw multi-line data, so it goes last, preceded by
  // its exact byte count.
  out << "cache " << c.cache_state.size() << '\n' << c.cache_state;
  return out.str();
}

Checkpoint read_checkpoint(const std::string& text) {
  Checkpoint c;
  FieldTable t;
  t.bind(c);

  std::size_t pos = 0;
  std::size_t seen = 0;
  bool cache_seen = false;
  std::map<std::string, bool> assigned;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos)
      throw std::runtime_error("checkpoint: unterminated line");
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos)
      throw std::runtime_error("checkpoint: malformed line '" + line + "'");
    const std::string key = line.substr(0, sp);
    const std::string value = line.substr(sp + 1);
    if (key == "cache") {
      const std::uint64_t n = parse_u64(value, "cache");
      if (text.size() - pos != n)
        throw std::runtime_error("checkpoint: cache length mismatch");
      c.cache_state = text.substr(pos);
      pos = text.size();
      cache_seen = true;
      break;
    }
    const auto it = t.in.find(key);
    if (it == t.in.end())
      throw std::runtime_error("checkpoint: unknown key '" + key + "'");
    if (assigned[key])
      throw std::runtime_error("checkpoint: duplicate key '" + key + "'");
    assigned[key] = true;
    it->second(value);
    ++seen;
  }
  if (!cache_seen) throw std::runtime_error("checkpoint: missing cache block");
  if (seen != t.in.size())
    throw std::runtime_error("checkpoint: missing fields (" +
                             std::to_string(seen) + " of " +
                             std::to_string(t.in.size()) + ")");
  if (c.phase != "loop" && c.phase != "removal")
    throw std::runtime_error("checkpoint: unknown phase '" + c.phase + "'");
  return c;
}

}  // namespace kms::recover
