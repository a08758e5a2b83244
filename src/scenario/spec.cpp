#include "scenario/spec.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "oracles/omega.hpp"
#include "scenario/overrides.hpp"

namespace timing::scenario {

std::string to_string(SamplerKind k) {
  switch (k) {
    case SamplerKind::kAnalysis: return "analysis";
    case SamplerKind::kLan: return "lan";
    case SamplerKind::kWan: return "wan";
    case SamplerKind::kIid: return "iid";
    case SamplerKind::kSchedule: return "schedule";
  }
  return "?";
}

std::string to_string(LeaderPolicy p) {
  switch (p) {
    case LeaderPolicy::kDefault: return "default";
    case LeaderPolicy::kAverage: return "average";
    case LeaderPolicy::kFixed: return "fixed";
  }
  return "?";
}

std::string validate(const ScenarioSpec& spec) {
  const std::string err = check_keys(spec);
  if (!err.empty()) return err;
  if (spec.n < spec.min_n) {
    return "n must be >= " + std::to_string(spec.min_n) + " for " +
           (spec.scenario ? spec.scenario : "this scenario");
  }
  const bool latency_testbed =
      spec.sampler == SamplerKind::kLan || spec.sampler == SamplerKind::kWan;
  if (latency_testbed) {
    if (spec.timeouts_ms.empty()) return "empty timeout sweep";
    const int profile_n =
        spec.sampler == SamplerKind::kLan ? spec.lan.n : spec.wan.n;
    if (spec.n != profile_n) {
      return "n must match the " + to_string(spec.sampler) +
             " profile's group size (" + std::to_string(profile_n) + ")";
    }
  }
  const int window = *std::max_element(spec.decision_rounds.begin(),
                                       spec.decision_rounds.end());
  if (spec.decision_windows && spec.rounds_per_run <= window) {
    return "rounds_per_run must exceed the longest decision window (" +
           std::to_string(window) + " rounds)";
  }
  if (spec.reg_keys + spec.append_keys < 1) {
    return "need at least one register or append key";
  }
  if (spec.clients + spec.reg_keys + spec.append_keys > 255) {
    return "clients + keys must fit the register command encoding (<= 255)";
  }
  return "";
}

ExperimentConfig to_experiment_config(const ScenarioSpec& spec) {
  ExperimentConfig cfg;
  cfg.testbed =
      spec.sampler == SamplerKind::kLan ? Testbed::kLan : Testbed::kWan;
  cfg.timeouts_ms = spec.timeouts_ms;
  cfg.runs = spec.runs;
  cfg.rounds_per_run = spec.rounds_per_run;
  cfg.start_points = spec.start_points;
  cfg.seed = spec.seed;
  cfg.lan = spec.lan;
  cfg.wan = spec.wan;
  cfg.decision_rounds = spec.decision_rounds;
  if (!spec.link_models.empty()) {
    const std::string lerr =
        parse_link_models(spec.link_models, spec.n, cfg.link_models);
    TM_CHECK(lerr.empty(), lerr.c_str());
  }
  switch (spec.leader_policy) {
    case LeaderPolicy::kDefault:
      cfg.leader = kNoProcess;
      break;
    case LeaderPolicy::kFixed:
      cfg.leader = spec.leader;
      break;
    case LeaderPolicy::kAverage:
      cfg.leader = pick_average_leader(expected_rtt_matrix(cfg));
      break;
  }
  return cfg;
}

ProcessId resolve_leader(const ScenarioSpec& spec) {
  return timing::resolve_leader(to_experiment_config(spec));
}

std::vector<TimeoutResult> run_experiment(const ScenarioSpec& spec) {
  const std::string err = validate(spec);
  TM_CHECK(err.empty(), err.c_str());
  return timing::run_experiment(to_experiment_config(spec));
}

}  // namespace timing::scenario
