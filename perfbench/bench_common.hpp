// Shared by the benchmark binaries: the monotonic clock, and the
// scenario resolution timing_lab performs before a runner starts.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiments.hpp"
#include "scenario/overrides.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Resolved {
  const timing::scenario::Scenario* scenario = nullptr;
  timing::scenario::ScenarioSpec spec;
  timing::ProcessId leader = timing::kNoProcess;
  std::string error;  ///< non-empty: the arguments do not make a run
};

/// Everything `timing_lab run` does before the runner's first unit of
/// work: registry lookup, the default (profile) spec, override parsing,
/// validation, and the testbed/leader resolution of latency testbeds.
inline Resolved resolve(const std::string& name,
                        std::vector<std::string> overrides) {
  using namespace timing::scenario;
  Resolved r;
  r.scenario = find_scenario(name);
  if (r.scenario == nullptr) {
    r.error = "unknown scenario '" + name + "'";
    return r;
  }
  r.spec = r.scenario->defaults();
  if (r.spec.honor_env_runs) r.spec.runs = runs_or_default(r.spec.runs);
  std::vector<char*> argv;
  for (std::string& a : overrides) argv.push_back(a.data());
  const CliArgs args =
      apply_cli_args(r.spec, static_cast<int>(argv.size()), argv.data(), 0);
  if (!args.error.empty()) {
    r.error = args.error;
    return r;
  }
  if (args.help || args.csv) {
    r.error = "only key=value overrides are accepted";
    return r;
  }
  r.error = validate(r.spec);
  if (!r.error.empty()) return r;
  if (r.spec.sampler == SamplerKind::kWan ||
      r.spec.sampler == SamplerKind::kLan) {
    r.leader = timing::resolve_leader(to_experiment_config(r.spec));
  } else {
    r.leader =
        r.spec.leader_policy == LeaderPolicy::kFixed ? r.spec.leader : 0;
  }
  return r;
}

}  // namespace perfbench
