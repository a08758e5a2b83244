#include "scenario/overrides.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <ostream>
#include <sstream>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/parse.hpp"
#include "fault/parser.hpp"
#include "models/link_model_matrix.hpp"

namespace timing::scenario {

namespace {

using S = ScenarioSpec;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bounds of a numeric key, or of every entry of a list key.
struct Range {
  double lo = -kInf;
  double hi = kInf;
  bool open_lo = false;  ///< lo itself is out of range

  constexpr bool holds(double v) const {
    return (open_lo ? v > lo : v >= lo) && v <= hi;
  }
};

/// The spec field a plain key stores its value in; keys with their own
/// grammar (leader, algorithm, profile) have none.
using Field =
    std::variant<std::monostate, int S::*, std::uint64_t S::*, double S::*,
                 std::vector<int> S::*, std::vector<double> S::*,
                 std::array<int, kNumModels> S::*, std::string S::*>;

struct KeyRow {
  Key key;
  const char* name;
  const char* value;  ///< value placeholder of the help text
  const char* help;   ///< help text, '\n' between lines
  Field field{};
  Range range{};
  // Key-specific code; a null one falls back to the field's own parse /
  // show / range check. parse: "" or the reason the value is rejected.
  // check: "" or a one-line reason naming the key.
  std::string (*parse)(S&, const std::string&) = nullptr;
  std::string (*show)(const S&) = nullptr;
  std::string (*check)(const KeyRow&, const S&) = nullptr;
};

// -- What a plain key does with its field, by field type -----------------

std::string parse_value(const std::string& v, int& out) {
  return parse_int(v, out) ? "" : "expected an integer";
}

std::string parse_value(const std::string& v, std::uint64_t& out) {
  return parse_u64(v, out) ? "" : "expected an unsigned integer";
}

std::string parse_value(const std::string& v, double& out) {
  return parse_double(v, out) ? "" : "expected a number";
}

std::string parse_value(const std::string& v, std::vector<int>& out) {
  if (parse_int_list(v, out)) return "";
  return "expected a comma-separated list of integers";
}

std::string parse_value(const std::string& v, std::vector<double>& out) {
  if (parse_double_list(v, out)) return "";
  return "expected a comma-separated list of numbers";
}

std::string parse_value(const std::string& v,
                        std::array<int, kNumModels>& out) {
  std::vector<int> vals;
  if (!parse_int_list(v, vals) || vals.size() != out.size()) {
    return "expected exactly " + std::to_string(out.size()) +
           " comma-separated integers (ES,LM,WLM,AFM)";
  }
  std::copy(vals.begin(), vals.end(), out.begin());
  return "";
}

std::string parse_value(const std::string& v, std::string& out) {
  out = v;  // '' is meaningful (unset); deeper checks run in validate()
  return "";
}

template <typename T>
std::string show_value(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return v.empty() ? "-" : v;
  } else if constexpr (std::is_arithmetic_v<T>) {
    std::ostringstream os;
    os << v;
    return os.str();
  } else {
    std::string out;
    for (const auto& x : v) out += (out.empty() ? "" : ",") + show_value(x);
    return out.empty() ? "-" : out;
  }
}

std::string out_of_range(const KeyRow& row, const char* what) {
  const Range& r = row.range;
  const std::string bound =
      r.hi == kInf ? (r.open_lo ? "> " : ">= ") + show_value(r.lo)
                   : std::string("in ") + (r.open_lo ? "(" : "[") +
                         show_value(r.lo) + ", " + show_value(r.hi) + "]";
  return row.name + std::string(what) + " must be " + bound;
}

template <typename T>
std::string check_value(const KeyRow& row, const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return "";
  } else if constexpr (std::is_arithmetic_v<T>) {
    return row.range.holds(static_cast<double>(v)) ? ""
                                                   : out_of_range(row, "");
  } else {
    const bool ok = std::all_of(v.begin(), v.end(),
                                [&](double x) { return row.range.holds(x); });
    return ok ? "" : out_of_range(row, " entries");
  }
}

/// fn(the row's spec field); "" for keys without a field.
template <typename Spec, typename Fn>
std::string on_field(const KeyRow& row, Spec& s, Fn fn) {
  return std::visit(
      [&](auto member) -> std::string {
        if constexpr (std::is_same_v<decltype(member), std::monostate>) {
          return "";
        } else {
          return fn(s.*member);
        }
      },
      row.field);
}

// -- Keys with their own grammar or checks --------------------------------

std::string parse_leader(S& s, const std::string& v) {
  if (v == "default" || v == "average") {
    s.leader_policy =
        v == "default" ? LeaderPolicy::kDefault : LeaderPolicy::kAverage;
    s.leader = kNoProcess;
    return "";
  }
  int id = 0;
  if (!parse_int(v, id)) {
    return "expected a process id, 'default' or 'average'";
  }
  s.leader_policy = LeaderPolicy::kFixed;
  s.leader = id;
  return "";
}

std::string show_leader(const S& s) {
  const std::string policy = to_string(s.leader_policy);
  if (s.leader_policy != LeaderPolicy::kFixed) return policy;
  return policy + " (" + std::to_string(s.leader) + ")";
}

std::string check_leader(const KeyRow& row, const S& s) {
  if (s.leader_policy == LeaderPolicy::kFixed &&
      (s.leader < 0 || s.leader >= s.n)) {
    return std::string(row.name) + " out of range [0, n)";
  }
  return "";
}

std::string parse_algorithm(S& s, const std::string& v) {
  if (parse_algorithm_kind(v, s.algorithm)) return "";
  std::string known;
  for (AlgorithmKind k : all_algorithm_kinds()) {
    if (!known.empty()) known += ", ";
    known += algorithm_key(k);
  }
  return "unknown algorithm (known: " + known + ")";
}

std::string show_algorithm(const S& s) { return algorithm_key(s.algorithm); }

std::string check_fault(const KeyRow& row, const S& s) {
  if (s.fault_spec.empty()) return "";
  const std::string bad = "bad " + std::string(row.name) + " plan: ";
  const fault::ParseResult pr = fault::load_fault_plan(s.fault_spec);
  if (!pr.ok()) return bad + pr.error;
  const ProcessId ld =
      s.leader_policy == LeaderPolicy::kFixed ? s.leader : kNoProcess;
  const std::string err = fault::validate(pr.plan, s.n, ld);
  return err.empty() ? "" : bad + err;
}

std::string check_link_models(const KeyRow& row, const S& s) {
  if (s.link_models.empty()) return "";
  LinkModelMatrix m;
  const std::string err = parse_link_models(s.link_models, s.n, m);
  return err.empty() ? "" : "bad " + std::string(row.name) + ": " + err;
}

std::string check_corrupt(const KeyRow& row, const S& s) {
  const std::string& v = s.corrupt_spec;
  if (v.empty() || v == "none" || v == "stale" || v == "lost") return "";
  return std::string(row.name) + " must be one of none, stale, lost";
}

/// Switch latency testbed wholesale: sampler, group size and a
/// profile-appropriate round timeout (override timeouts_ms AFTER
/// profile= to pick a different one).
std::string parse_profile(S& s, const std::string& v) {
  if (v == "lan") {
    s.sampler = SamplerKind::kLan;
    s.n = s.lan.n;
    s.timeouts_ms = {0.2};
    return "";
  }
  if (v == "wan") {
    s.sampler = SamplerKind::kWan;
    s.n = s.wan.n;
    s.timeouts_ms = {200};
    return "";
  }
  return "expected lan or wan";
}

std::string show_profile(const S& s) { return to_string(s.sampler); }

// -- The key table -------------------------------------------------------

constexpr KeyRow kTable[] = {
    {Key::runs, "runs", "N",
     "repetitions per sweep point (instances /\n"
     "commands / MC trials for the live ablations)",
     &S::runs, Range{1}},
    {Key::rounds_per_run, "rounds_per_run", "N",
     "rounds per run (round cap for live runs)", &S::rounds_per_run,
     Range{2}},
    {Key::start_points, "start_points", "N",
     "random decision-window start points per run", &S::start_points,
     Range{1}},
    {Key::n, "n", "N",
     "group size (the LAN/WAN testbeds fix it to\n"
     "their profile's)",
     &S::n, Range{2}},
    {Key::seed, "seed", "U64", "base RNG seed (runs use counter sub-streams)",
     &S::seed},
    {Key::iid_p, "iid_p", "P",
     "per-link timely probability (IID links;\n"
     "pre-gsr timeliness under fault plans)",
     &S::iid_p, Range{0, 1, true}},
    {Key::timeouts_ms, "timeouts_ms", "A,B,..",
     "round-timeout sweep in milliseconds", &S::timeouts_ms,
     Range{0, kInf, true}},
    {Key::group_sizes, "group_sizes", "A,B,..",
     "group-size sweep (n-scaling scenarios)", &S::group_sizes, Range{2}},
    {Key::decision_rounds, "decision_rounds", "ES,LM,WLM,AFM",
     "conforming rounds needed for global decision", &S::decision_rounds,
     Range{1}},
    {Key::leader, "leader", "ID|default|average",
     "leader policy (paper default / average-leader\n"
     "variant / fixed process id)",
     {}, {}, parse_leader, show_leader, check_leader},
    {Key::algorithm, "algorithm", "KEY",
     "protocol for live-run scenarios (wlm, es3,\n"
     "lm3, afm5, lm_over_wlm, paxos)",
     {}, {}, parse_algorithm, show_algorithm},
    {Key::jsonl, "jsonl", "PATH", "write results JSONL to PATH ('' disables)",
     &S::results_path},
    {Key::fault, "fault", "PLAN",
     "fault plan: a plan-file path or an inline\n"
     "';'-separated spec, e.g.\n"
     "\"crash 1 @2; recover 1 @5; gsr @8\"\n"
     "(grammar: docs/FAULTS.md; chaos scenarios\n"
     "draw seeded random plans when unset)",
     &S::fault_spec, {}, nullptr, nullptr, check_fault},
    {Key::clients, "clients", "N", "closed-loop SMR clients", &S::clients,
     Range{1}},
    {Key::reg_keys, "reg_keys", "N", "read/write/cas register keys",
     &S::reg_keys, Range{0}},
    {Key::append_keys, "append_keys", "N", "append hash-chain keys",
     &S::append_keys, Range{0}},
    {Key::corrupt, "corrupt", "none|stale|lost",
     "test-only linearizability violation hook\n"
     "(see docs/HISTORY.md)",
     &S::corrupt_spec, {}, nullptr, nullptr, check_corrupt},
    {Key::link_models, "link_models", "SPEC",
     "per-link timing assumptions, e.g.\n"
     "\"sync:all;async:0->2,3->*\" (classes sync,\n"
     "psync, async; unmentioned links are sync;\n"
     "'' = homogeneous predicates)",
     &S::link_models, {}, nullptr, nullptr, check_link_models},
    {Key::async_fracs, "async_fracs", "A,B,..", "async link-fraction sweep",
     &S::async_fracs, Range{0, 1}},
    {Key::psync_frac, "psync_frac", "F",
     "psync share of the non-async links in the\n"
     "mixed matrices of the async-fraction sweep",
     &S::psync_frac, Range{0, 1}},
    {Key::pipeline, "pipeline", "K",
     "consensus instances kept in flight by the\n"
     "replicated log (>1 switches smr/linearizable\n"
     "to the pipelined harness)",
     &S::pipeline, Range{1}},
    {Key::batch, "batch", "B",
     "commands per decree slot (flush deadline\n"
     "still seals partial batches)",
     &S::batch, Range{1}},
    {Key::profile, "profile", "lan|wan",
     "latency testbed (sets sampler, n and a\n"
     "matching round timeout; put timeouts_ms=\n"
     "after it to re-pick)",
     {}, {}, parse_profile, show_profile},
    {Key::budget, "budget", "N",
     "chaos evaluations for the adversary hunt\n"
     "(rounds up to whole generations)",
     &S::budget, Range{1}},
    {Key::baseline, "baseline", "N",
     "uniform random plans the hunt must beat\n"
     "(0 skips the gate)",
     &S::baseline, Range{0}},
    {Key::archive, "archive", "DIR",
     "adversary archive directory: search writes\n"
     "minimized winners, chaos/regression replays\n"
     "every *.plan in it",
     &S::archive},
};

constexpr bool rows_follow_key_order() {
  for (std::size_t i = 0; i < std::size(kTable); ++i) {
    if (kTable[i].key != static_cast<Key>(i)) return false;
  }
  return true;
}
static_assert(std::size(kTable) < 8 * sizeof(KeySet));
static_assert(rows_follow_key_order(),
              "the key table rows must follow the order of enum Key");

bool reads(KeySet keys, const KeyRow& row) {
  return (keys & key_set({row.key})) != 0;
}

const KeyRow* find_row(const std::string& name) {
  for (const KeyRow& row : kTable) {
    if (name == row.name) return &row;
  }
  return nullptr;
}

}  // namespace

std::vector<std::string> override_keys() {
  std::vector<std::string> out;
  for (const KeyRow& row : kTable) out.emplace_back(row.name);
  return out;
}

CliArgs apply_cli_args(ScenarioSpec& spec, int argc, char** argv, int first) {
  CliArgs out;
  // Repeated key=value overrides are almost always a command-line typo
  // (the second silently wins otherwise), so remember where each key was
  // first set and reject the repeat with both positions.
  std::vector<std::pair<std::string, int>> seen;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--csv") {
      out.csv = true;
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      out.help = true;
      continue;
    }
    const auto eq = arg.find('=');
    if (arg.empty() || arg[0] == '-' || eq == std::string::npos ||
        eq == 0) {
      out.error = "unknown argument '" + arg + "'";
      return out;
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    for (const auto& [prev_key, prev_pos] : seen) {
      if (prev_key == key) {
        out.error = "duplicate override '" + arg + "' (argument " +
                    std::to_string(i - first + 1) + "): '" + key +
                    "=' was already set by argument " +
                    std::to_string(prev_pos - first + 1);
        return out;
      }
    }
    seen.emplace_back(key, i);
    const KeyRow* row = find_row(key);
    if (row == nullptr) {
      out.error = "bad override '" + arg + "': unknown key";
      return out;
    }
    if (!reads(spec.keys, *row)) {
      out.error = "key '" + key + "' is not used by " +
                  (spec.scenario ? spec.scenario : "this scenario");
      return out;
    }
    const std::string err =
        row->parse ? row->parse(spec, value)
                   : on_field(*row, spec, [&](auto& field) {
                       return parse_value(value, field);
                     });
    if (!err.empty()) {
      out.error = "bad override '" + arg + "': " + err;
      return out;
    }
  }
  return out;
}

std::string override_help(KeySet keys) {
  // "  key=VALUE" in a 20-column field, help text from column 22; a
  // longer head gets the help on the following lines.
  const std::string indent(22, ' ');
  std::string out;
  for (const KeyRow& row : kTable) {
    if (!reads(keys, row)) continue;
    std::string head = std::string("  ") + row.name + "=" + row.value;
    if (head.size() <= 20) {
      head.resize(22, ' ');
    } else {
      head += "\n" + indent;
    }
    out += head;
    for (const char* c = row.help; *c != '\0'; ++c) {
      out += *c;
      if (*c == '\n') out += indent;
    }
    out += "\n";
  }
  return out;
}

void print_keys(std::ostream& os, const ScenarioSpec& spec) {
  for (const KeyRow& row : kTable) {
    if (!reads(spec.keys, row)) continue;
    std::string head = std::string("  ") + row.name;
    head.resize(19, ' ');
    os << head
       << (row.show ? row.show(spec)
                    : on_field(row, spec, [](const auto& field) {
                        return show_value(field);
                      }))
       << "\n";
  }
}

std::string check_keys(const ScenarioSpec& spec) {
  // Visit only the rows of spec.keys: validate() runs once per process
  // on a cold cache, and its cost is the rows it touches.
  constexpr KeySet kTableKeys = (KeySet{1} << std::size(kTable)) - 1;
  for (KeySet k = spec.keys & kTableKeys; k != 0; k &= k - 1) {
    const KeyRow& row = kTable[std::countr_zero(k)];
    const std::string err =
        row.check ? row.check(row, spec)
                  : on_field(row, spec, [&](const auto& field) {
                      return check_value(row, field);
                    });
    if (!err.empty()) return err;
  }
  return "";
}

int runs_or_default(int paper_default) {
  static bool warned = false;
  if (const char* env = std::getenv("TIMING_RUNS")) {
    long v = 0;
    if (!parse_long(env, v) || v < 1) {
      if (!warned) {
        warned = true;
        std::fprintf(stderr,
                     "warning: ignoring invalid TIMING_RUNS=%s (expected an "
                     "integer >= 1); using the scenario default\n",
                     env);
      }
      return paper_default;
    }
    if (v > 100000) {
      if (!warned) {
        warned = true;
        std::fprintf(stderr, "warning: TIMING_RUNS=%ld clamped to 100000\n",
                     v);
      }
      v = 100000;
    }
    return static_cast<int>(v);
  }
  return paper_default;
}

}  // namespace timing::scenario
