// The named scenario registry: one entry per paper figure / ablation.
// Bench binaries run entries by name (bench/bench_main.cpp over
// scenario/cli.hpp's bench_main), and tools/timing_lab drives the same
// entries with `key=value` overrides — experiments are data, not code.
#pragma once

#include <string>
#include <vector>

#include "scenario/run.hpp"
#include "scenario/spec.hpp"

namespace timing::scenario {

struct Scenario {
  /// Registry key ("fig1g", "ablation/group_size").
  const char* name;
  /// The bench executable wrapping this entry.
  const char* binary;
  /// Paper anchor ("Figure 1(g)", "Appendix C", "ablation").
  const char* figure;
  /// One-line description for `timing_lab list`.
  const char* summary;
  /// Default (paper) parameters. A function, not a static, so profile
  /// defaults are constructed on demand. The returned spec carries the
  /// entry's name, keys and constraints, so apply_cli_args and
  /// validate() enforce them on every surface.
  ScenarioSpec (*defaults)();
  /// Execute over a (possibly overridden) spec. Returns a process exit
  /// code; 0 on success.
  int (*run)(const ScenarioSpec& spec, const RunContext& ctx);
  /// Override keys the runner reads (scenario/overrides.hpp's
  /// key_set); jsonl=, read by the driver, is implied. Any other key is
  /// rejected.
  KeySet keys = 0;
  /// The runner measures decision windows, so a run must be longer than
  /// the longest one.
  bool decision_windows = false;
  /// Smallest n the runner supports; 0 = only the n= key's own bound.
  int min_n = 0;
};

/// All registered scenarios, in presentation order (figures, appendix,
/// ablations). Names are unique.
const std::vector<Scenario>& registry();

/// Null when `name` is not registered.
const Scenario* find_scenario(const std::string& name);

}  // namespace timing::scenario
