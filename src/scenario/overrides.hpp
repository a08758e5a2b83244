// The shared scenario CLI grammar: `key=value` overrides over a
// ScenarioSpec plus the common flags. Used by timing_lab and by every
// bench binary, so all experiment surfaces accept the same arguments,
// reject the same garbage, and print the same usage text.
//
// Every key is one row of the key table in overrides.cpp: its parser,
// printer, help text and range check. Override parsing, --help, the
// per-key lines of `timing_lab describe` and the per-key checks of
// validate() are all derived from that table.
#pragma once

#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

#include "scenario/spec.hpp"

namespace timing::scenario {

/// The override keys, in key-table order. Registry entries state the
/// keys their runner reads as a KeySet (ScenarioSpec::keys).
enum class Key : unsigned {
  runs, rounds_per_run, start_points, n, seed, iid_p, timeouts_ms,
  group_sizes, decision_rounds, leader, algorithm, jsonl, fault, clients,
  reg_keys, append_keys, corrupt, link_models, async_fracs, psync_frac,
  pipeline, batch, profile, budget, baseline, archive,
};

/// The KeySet holding exactly `ks`.
constexpr KeySet key_set(std::initializer_list<Key> ks) {
  KeySet out = 0;
  for (Key k : ks) out |= KeySet{1} << static_cast<unsigned>(k);
  return out;
}

/// Names of every override key, in table order.
std::vector<std::string> override_keys();

struct CliArgs {
  bool csv = false;   ///< emit tables as CSV instead of aligned text
  bool help = false;  ///< --help seen; caller prints usage and exits 0
  std::string error;  ///< non-empty: unknown/invalid argument (usage error)
};

/// Parse argv[first..argc) over `spec`. Recognised flags: --csv, --help
/// (and -h). Everything else must be a `key=value` override of a key in
/// spec.keys; unknown keys, keys the scenario does not read, repeated
/// keys and unparsable values set CliArgs::error and leave later args
/// unprocessed. Values are checked (full-string numeric parses), so
/// `runs=abc` is an error, never a silent 0.
CliArgs apply_cli_args(ScenarioSpec& spec, int argc, char** argv, int first);

/// The override grammar of the keys in `keys`, one key per entry, for
/// --help output, `timing_lab describe` and docs.
std::string override_help(KeySet keys = kAllKeys);

/// One line per key in spec.keys: the key and its current value.
void print_keys(std::ostream& os, const ScenarioSpec& spec);

/// The range checks of the keys in spec.keys (the others keep their
/// valid defaults), in table order: "" when all hold, otherwise the
/// first violation as one line naming the key.
std::string check_keys(const ScenarioSpec& spec);

/// The paper's repetition count unless TIMING_RUNS (>= 1) says otherwise.
/// Raising it appends runs N, N+1, ... — existing runs keep their seeds,
/// so curves only tighten, they don't resample. Invalid values
/// (non-numeric, < 1) and clamped values (> 100000) warn once on stderr
/// instead of silently falling back.
int runs_or_default(int paper_default);

}  // namespace timing::scenario
