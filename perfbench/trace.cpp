// pb_trace: the traced per-layer run. It drives each workload's inputs
// (the same specs, seeds and sizes as the untraced pb_lab invocation)
// through the public functions of the layers, with spans recorded here,
// around the calls, never inside the program:
//
//   pb_trace --seconds S --spans PATH
//            (--full|--probe) <workload> <scenario> [key=value ...] ; ...
//
// The --full replica repeats until S seconds have passed, each repetition
// after an untraced call of the registered runner on the same spec (the
// base of the trace overhead). Each --probe replica (the other workloads,
// at a reduced shape) runs once, so every per-layer metric is measured
// whichever workload is selected. Fixed-size
// micro probes time the innermost calls (RNG draw, sampled round,
// predicate kernel, engine step). Spans are kept in memory and written
// to PATH as JSONL when the run ends; the last stdout line is one JSON
// object with the full replica's work counts (which must equal the
// untraced run's), its wall time per repetition, the per-layer metrics
// and each layer's self time.
#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "adversary/search.hpp"
#include "adversary/shrink.hpp"
#include "analysis/granular.hpp"
#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "consensus/factory.hpp"
#include "fault/chaos.hpp"
#include "fault/injector.hpp"
#include "giraf/engine.hpp"
#include "harness/measurement.hpp"
#include "history/history.hpp"
#include "history/linearizability.hpp"
#include "models/predicates.hpp"
#include "models/schedule.hpp"
#include "oracles/omega.hpp"
#include "sim/latency_model.hpp"
#include "sim/sampler.hpp"
#include "smr/client.hpp"

namespace {

using namespace timing;
using perfbench::now_ns;
using scenario::ScenarioSpec;

// -- spans -----------------------------------------------------------------

struct Span {
  const char* name;          ///< "<layer>.<call>"
  std::uint64_t unit;        ///< shared by the spans of one unit of work
  int parent;                ///< index in the same log, -1 = root
  std::int64_t t0 = 0, t1 = 0;
  std::int64_t inner_ns = 0; ///< time a TimedSampler measured inside
};

/// Spans of one thread-confined scope (a unit of work, or the main
/// thread's phases). Units run in parallel; their logs are merged into
/// the main log in unit order afterwards.
class SpanLog {
 public:
  int begin(const char* name, std::uint64_t unit) {
    spans_.push_back(Span{name, unit, open_, now_ns()});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void end(int i, std::int64_t inner_ns = 0) {
    spans_[static_cast<std::size_t>(i)].t1 = now_ns();
    spans_[static_cast<std::size_t>(i)].inner_ns = inner_ns;
    open_ = spans_[static_cast<std::size_t>(i)].parent;
  }
  /// Append `other`; its roots become children of the open span.
  void adopt(const SpanLog& other) {
    const int offset = static_cast<int>(spans_.size());
    for (Span s : other.spans_) {
      s.parent = s.parent < 0 ? open_ : s.parent + offset;
      spans_.push_back(s);
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

/// Call count and time spent in a wrapped sampler.
struct SamplerClock {
  long long calls = 0;
  std::int64_t ns = 0;
};

/// Timing decorator over the public TimelinessSampler interface; forwards
/// all three entry points unchanged, so the run it measures is the run.
class TimedSampler final : public TimelinessSampler {
 public:
  TimedSampler(TimelinessSampler& inner, SamplerClock& clock)
      : inner_(&inner), clock_(clock) {}
  TimedSampler(std::unique_ptr<TimelinessSampler> owned, SamplerClock& clock)
      : owned_(std::move(owned)), inner_(owned_.get()), clock_(clock) {}

  int n() const noexcept override { return inner_->n(); }
  void sample_round(Round k, LinkMatrix& out) override {
    const std::int64_t t0 = now_ns();
    inner_->sample_round(k, out);
    tick(t0);
  }
  void sample_round(Round k, PackedLinkMatrix& out) override {
    const std::int64_t t0 = now_ns();
    inner_->sample_round(k, out);
    tick(t0);
  }
  FusedRoundEval sample_round_and_evaluate(Round k, ProcessId leader,
                                           PackedLinkMatrix& out,
                                           ColumnDeficits& cols) override {
    const std::int64_t t0 = now_ns();
    const FusedRoundEval e =
        inner_->sample_round_and_evaluate(k, leader, out, cols);
    tick(t0);
    return e;
  }

 private:
  void tick(std::int64_t t0) {
    clock_.ns += now_ns() - t0;
    ++clock_.calls;
  }
  std::unique_ptr<TimelinessSampler> owned_;
  TimelinessSampler* inner_;
  SamplerClock& clock_;
};

/// What one replica repetition returns: its spans, the work counts the
/// untraced run also reports, and the layer metrics it measured.
struct Replica {
  SpanLog log;
  std::map<std::string, std::string> counts;
  std::map<std::string, double> metrics;
  std::int64_t wall_ns = 0;
  double checksum = 0.0;  ///< printed, so no result is optimised away
};

std::string count(long long v) { return std::to_string(v); }

/// Mean duration (ms) and total inner time of the spans named `name`.
struct SpanSum {
  long long n = 0;
  std::int64_t ns = 0;
  std::int64_t inner_ns = 0;
  double mean_ms() const { return n ? ns * 1e-6 / static_cast<double>(n) : 0; }
};

SpanSum sum_spans(const SpanLog& log, const std::string& name) {
  SpanSum s;
  for (const Span& sp : log.spans()) {
    if (name != sp.name) continue;
    ++s.n;
    s.ns += sp.t1 - sp.t0;
    s.inner_ns += sp.inner_ns;
  }
  return s;
}

// -- mc_wan: fig1g through harness::measure_run_streaming ------------------

Replica replica_mc_wan(const ScenarioSpec& spec) {
  TM_CHECK(spec.sampler == scenario::SamplerKind::kWan &&
               spec.link_models.empty(),
           "the mc_wan replica drives the homogeneous WAN sweep");
  const ExperimentConfig cfg = scenario::to_experiment_config(spec);
  const ProcessId leader = resolve_leader(cfg);
  const auto runs = static_cast<std::size_t>(cfg.runs);
  struct Unit {
    SpanLog log;
    SamplerClock clock;
    StreamedRun run;
  };
  Replica out;
  const std::int64_t t0 = now_ns();
  std::vector<Unit> units = run_trials<Unit>(
      cfg.timeouts_ms.size() * runs, [&](std::size_t cell) {
        Unit u;
        const int span = u.log.begin("bench.unit", cell);
        const std::uint64_t run = cell % runs;
        WanLatencyModel model(cfg.wan, substream_seed(cfg.seed, run));
        LatencyTimelinessSampler sampler(model, cfg.timeouts_ms[cell / runs]);
        TimedSampler timed(sampler, u.clock);
        // harness/experiments.cpp's start-point stream.
        Rng start_rng = substream(cfg.seed ^ 0xabcdef, run);
        const int h = u.log.begin("harness.run", cell);
        u.run = measure_run_streaming(timed, cfg.rounds_per_run, leader,
                                      cfg.decision_rounds, cfg.start_points,
                                      start_rng);
        u.log.end(h, u.clock.ns);
        u.log.end(span);
        return u;
      });
  out.wall_ns = now_ns() - t0;
  long long rounds = 0;
  for (const Unit& u : units) {
    out.log.adopt(u.log);
    rounds += u.clock.calls;
  }
  // The Figure 1(g) cells, folded in run order as run_experiment does, so
  // the replica is shown to have sampled the same latency streams.
  std::string cells;
  for (std::size_t ti = 0; ti < cfg.timeouts_ms.size(); ++ti) {
    std::array<RunningStats, kNumModels> mean_rounds, censored;
    for (std::size_t r = 0; r < runs; ++r) {
      const StreamedRun& m = units[ti * runs + r].run;
      for (std::size_t i = 0; i < kNumModels; ++i) {
        mean_rounds[i].add(m.mean_rounds[i]);
        censored[i].add(m.censored[i]);
      }
    }
    const auto at = [&](TimingModel m) {
      return static_cast<std::size_t>(model_index(m));
    };
    const std::size_t es = at(TimingModel::kEs);
    cells += (cells.empty() ? "" : " ") +
             std::string(censored[es].mean() > 0 ? ">=" : "") +
             Table::num(mean_rounds[es].mean(), 1) + " " +
             Table::num(censored[es].mean(), 2);
    for (TimingModel m : {TimingModel::kAfm, TimingModel::kLm,
                          TimingModel::kWlm}) {
      cells += " " + Table::num(mean_rounds[at(m)].mean(), 1);
    }
  }
  out.counts = {{"rows", count(static_cast<long long>(cfg.timeouts_ms.size()))},
                {"units", count(rounds)},
                {"measured", cells}};
  const SpanSum h = sum_spans(out.log, "harness.run");
  out.metrics["harness.run_ms"] = h.mean_ms();
  out.metrics["harness.self_frac"] =
      1.0 - static_cast<double>(h.inner_ns) / static_cast<double>(h.ns);
  return out;
}

// -- mc_iid_granular: granular/ablation's serial sweep ---------------------

Replica replica_mc_iid_granular(const ScenarioSpec& spec) {
  const int n = spec.n;
  const ProcessId leader =
      spec.leader_policy == scenario::LeaderPolicy::kFixed ? spec.leader : 0;
  analysis::GranularLinkProbs q;
  q.p_sync = q.p_psync = q.p_async = spec.iid_p;
  q.timely_self = true;
  Replica out;
  SamplerClock clock;
  std::string cells;
  const std::int64_t t0 = now_ns();
  for (std::size_t fi = 0; fi < spec.async_fracs.size(); ++fi) {
    const LinkModelMatrix m = LinkModelMatrix::mixed(
        n, spec.async_fracs[fi], spec.psync_frac,
        substream_seed(spec.seed, static_cast<std::uint64_t>(fi)));
    const GranularContext g{m};
    std::array<double, kNumModels> pm{};
    double c_sync = 0.0;
    for (int run = 0; run < spec.runs; ++run) {
      const std::uint64_t unit = fi * 1'000'000 + static_cast<std::uint64_t>(run);
      const int span = out.log.begin("bench.unit", unit);
      // The runner's link and start-point streams
      // (scenario/runners_granular.cpp).
      IidTimelinessSampler sampler(
          n, spec.iid_p,
          substream_seed(spec.seed ^ 0x11d5eedULL,
                         static_cast<std::uint64_t>(run)));
      TimedSampler timed(sampler, clock);
      Rng start_rng =
          substream(spec.seed ^ 0xabcdef, static_cast<std::uint64_t>(run));
      const std::int64_t inner0 = clock.ns;
      const int h = out.log.begin("harness.granular_run", unit);
      const GranularStreamedRun r = measure_run_streaming_granular(
          timed, spec.rounds_per_run, leader, spec.decision_rounds,
          spec.start_points, start_rng, g);
      out.log.end(h, clock.ns - inner0);
      out.log.end(span);
      for (std::size_t i = 0; i < kNumModels; ++i) pm[i] += r.base.pm[i];
      c_sync += r.class_pm[0];
    }
    // The measured cells of the sweep row, averaged as the runner does.
    for (TimingModel model : {TimingModel::kEs, TimingModel::kLm,
                              TimingModel::kWlm, TimingModel::kAfm}) {
      const double v = pm[static_cast<std::size_t>(model_index(model))];
      cells += (cells.empty() ? "" : " ") + Table::num(v / spec.runs, 3);
    }
    cells += " " + Table::num(c_sync / spec.runs, 3);
    const int a = out.log.begin("analysis.granular_point", fi);
    for (TimingModel model : kAllModels) {
      out.checksum += analysis::granular_p_model(model, m, leader, q);
    }
    out.checksum += analysis::granular_p_class(m, LinkModelClass::kSync, q);
    out.log.end(a);
  }
  out.wall_ns = now_ns() - t0;
  out.counts = {{"rows", count(static_cast<long long>(spec.async_fracs.size()))},
                {"units", count(clock.calls)},
                {"measured", cells}};
  const SpanSum h = sum_spans(out.log, "harness.granular_run");
  out.metrics["harness.granular_run_ms"] = h.mean_ms();
  out.metrics["harness.granular_self_frac"] =
      1.0 - static_cast<double>(h.inner_ns) / static_cast<double>(h.ns);
  out.metrics["analysis.granular_point_ms"] =
      sum_spans(out.log, "analysis.granular_point").mean_ms();
  return out;
}

// -- chaos_hunt: adversary/search's three phases ---------------------------

// The runner's stream salts and shape (scenario/runners_adversary.cpp).
constexpr std::uint64_t kEvalSalt = 0xe7a1d;
constexpr std::uint64_t kBaselineSalt = 0xba5e;
constexpr std::uint64_t kPolishSalt = 0x90115a;
constexpr int kShrinkTop = 3;
constexpr int kPolishDivisor = 8;

adversary::SearchConfig search_config(const ScenarioSpec& spec) {
  adversary::SearchConfig cfg;
  const ProcessId leader =
      spec.leader_policy == scenario::LeaderPolicy::kFixed ? spec.leader : 0;
  cfg.mut.n = spec.n;
  cfg.mut.leader = leader;
  cfg.mut.algorithm = spec.algorithm;
  if (!spec.link_models.empty()) {
    TM_CHECK(parse_link_models(spec.link_models, spec.n, cfg.mut.base_links)
                 .empty(),
             "validate() admits only parseable link_models");
  }
  cfg.eval.algorithm = spec.algorithm;
  cfg.eval.n = spec.n;
  cfg.eval.leader = leader;
  cfg.eval.pre_gsr_p = spec.iid_p;
  cfg.eval.eval_seed = substream_seed(spec.seed, kEvalSalt);
  cfg.eval.samples = spec.runs;
  cfg.eval.min_rounds = spec.rounds_per_run;
  cfg.seed = spec.seed;
  return cfg;
}

Replica replica_chaos_hunt(const ScenarioSpec& spec) {
  const adversary::SearchConfig cfg = search_config(spec);
  Replica out;
  const std::int64_t t0 = now_ns();

  adversary::AdversarySearch search(cfg);
  const long long target = spec.budget - spec.budget / kPolishDivisor;
  const int phase_search = out.log.begin("adversary.search", 0);
  while (search.evaluations() < target) {
    const int g = out.log.begin("adversary.generation",
                                static_cast<std::uint64_t>(search.generations()));
    search.run(cfg.walkers);
    out.log.end(g);
  }
  out.log.end(phase_search);
  TM_CHECK(!search.elites().empty(), "the hunt found no scorable candidate");

  const int phase_shrink = out.log.begin("adversary.shrink", 0);
  const int top =
      std::min<int>(kShrinkTop, static_cast<int>(search.elites().size()));
  const int polish_each = static_cast<int>(
      std::max<long long>(0, spec.budget - search.evaluations()) / top);
  long long polish_spent = 0;
  long long shrink_evals = 0;
  double hunt_best = adversary::kRejectScore;
  for (int i = 0; i < top; ++i) {
    const adversary::Elite& elite = search.elites()[static_cast<std::size_t>(i)];
    adversary::ShrinkResult s =
        adversary::shrink(elite.candidate, cfg.mut, cfg.eval);
    const adversary::PolishResult p = adversary::polish(
        s.candidate, cfg.mut, cfg.eval,
        substream_seed(spec.seed ^ kPolishSalt, static_cast<std::uint64_t>(i)),
        polish_each);
    polish_spent += p.evaluations;
    if (p.fitness.score > s.fitness.score) {
      s = adversary::shrink(p.candidate, cfg.mut, cfg.eval);
    }
    shrink_evals += s.evaluations;
    hunt_best = std::max(hunt_best, s.fitness.score);
  }
  out.log.end(phase_shrink);

  const int phase_baseline = out.log.begin("adversary.baseline", 0);
  struct Unit {
    SpanLog log;
    double score = adversary::kRejectScore;
  };
  std::vector<Unit> units = run_trials<Unit>(
      static_cast<std::size_t>(spec.baseline), [&](std::size_t i) {
        Unit u;
        const int span = u.log.begin("adversary.evaluate", i);
        const adversary::Candidate c = adversary::seed_candidate(
            cfg.mut, substream_seed(spec.seed ^ kBaselineSalt, i));
        u.score = adversary::evaluate(c, cfg.eval).score;
        u.log.end(span);
        return u;
      });
  double uniform_best = adversary::kRejectScore;
  for (const Unit& u : units) {
    out.log.adopt(u.log);
    uniform_best = std::max(uniform_best, u.score);
  }
  out.log.end(phase_baseline);
  out.wall_ns = now_ns() - t0;

  out.counts = {{"search_evals", count(search.evaluations())},
                {"generations", count(search.generations())},
                {"signatures",
                 count(static_cast<long long>(search.signatures_seen()))},
                {"baseline_evals", count(spec.baseline)},
                {"baseline_best", Table::num(uniform_best, 1)},
                {"hunt_best", Table::num(hunt_best, 1)},
                {"shrink_evals", count(shrink_evals)},
                {"units", count(search.evaluations() + polish_spent +
                                spec.baseline)}};
  const double eval_ms = sum_spans(out.log, "adversary.evaluate").mean_ms();
  const double gen_ms = sum_spans(out.log, "adversary.generation").mean_ms();
  out.metrics["adversary.eval_ms"] = eval_ms;
  out.metrics["adversary.generation_ms"] = gen_ms;
  out.metrics["adversary.gen_util"] =
      cfg.walkers * eval_ms / (effective_threads() * gen_ms);
  out.metrics["adversary.search_s"] =
      sum_spans(out.log, "adversary.search").ns * 1e-9;
  out.metrics["adversary.shrink_s"] =
      sum_spans(out.log, "adversary.shrink").ns * 1e-9;
  out.metrics["adversary.baseline_s"] =
      sum_spans(out.log, "adversary.baseline").ns * 1e-9;
  return out;
}

/// Counts fault.* through a trace sink.
class FateCounter final : public TraceSink {
 public:
  void record(const TraceEvent& e) override {
    if (e.kind == EventKind::kRoundStart) ++rounds;
    if (e.kind == EventKind::kMsgSent) ++messages;
  }
  long long rounds = 0;
  long long messages = 0;
};

/// fault.*: run_chaos_algorithm exactly as adversary::evaluate calls it,
/// on the first uniform baseline candidates of the chaos_hunt spec.
void probe_fault(const ScenarioSpec& spec, SpanLog& log,
                 std::map<std::string, double>& metrics) {
  const adversary::SearchConfig cfg = search_config(spec);
  constexpr int kCandidates = 16;
  FateCounter fates;
  long long execs = 0;
  for (int i = 0; i < kCandidates; ++i) {
    const adversary::Candidate c = adversary::seed_candidate(
        cfg.mut, substream_seed(spec.seed ^ kBaselineSalt,
                                static_cast<std::uint64_t>(i)));
    for (int j = 0; j < cfg.eval.samples; ++j) {
      fault::ChaosTrialConfig tc;
      tc.n = cfg.eval.n;
      tc.leader = cfg.eval.leader;
      tc.seed = j == 0 ? cfg.eval.eval_seed
                       : substream_seed(cfg.eval.eval_seed,
                                        static_cast<std::uint64_t>(j));
      tc.pre_gsr_p = cfg.eval.pre_gsr_p;
      tc.plan = c.plan;
      tc.link_models = c.link_models;
      tc.max_rounds = std::max(
          cfg.eval.min_rounds,
          c.plan.gsr + fault::bound_after_gsr(cfg.eval.algorithm) + 2);
      tc.trace = &fates;
      const int span = log.begin("fault.run_chaos_algorithm",
                                 static_cast<std::uint64_t>(execs));
      fault::run_chaos_algorithm(cfg.eval.algorithm, tc);
      log.end(span);
      ++execs;
    }
  }
  metrics["fault.exec_us"] =
      sum_spans(log, "fault.run_chaos_algorithm").mean_ms() * 1e3;
  metrics["fault.rounds_per_exec"] =
      static_cast<double>(fates.rounds) / static_cast<double>(execs);
  metrics["fault.messages_per_exec"] =
      static_cast<double>(fates.messages) / static_cast<double>(execs);
}

// -- smr_lin: smr/linearizable's serialized trials -------------------------

/// The runner's per-instance sampler: a schedule under a fault plan.
class ChaosInstanceSampler final : public TimelinessSampler {
 public:
  ChaosInstanceSampler(const ScheduleConfig& scfg, const fault::FaultPlan& plan,
                       const fault::InjectorConfig& icfg)
      : sampler_(scfg), injector_(plan, icfg), injected_(sampler_, injector_) {}
  int n() const noexcept override { return injected_.n(); }
  void sample_round(Round k, LinkMatrix& out) override {
    injected_.sample_round(k, out);
  }
  void sample_round(Round k, PackedLinkMatrix& out) override {
    injected_.sample_round(k, out);
  }
  FusedRoundEval sample_round_and_evaluate(Round k, ProcessId leader,
                                           PackedLinkMatrix& out,
                                           ColumnDeficits& cols) override {
    return injected_.sample_round_and_evaluate(k, leader, out, cols);
  }

 private:
  ScheduleSampler sampler_;
  fault::FaultInjector injector_;
  fault::FaultInjectedSampler injected_;
};

std::vector<Round> crash_rounds_of(const fault::FaultPlan& plan, int n) {
  std::vector<Round> open(static_cast<std::size_t>(n), 0);
  for (const fault::FaultEvent& e : plan.events) {
    if (e.kind == fault::FaultKind::kCrash) {
      open[static_cast<std::size_t>(e.proc)] = e.from;
    } else if (e.kind == fault::FaultKind::kRecover) {
      open[static_cast<std::size_t>(e.proc)] = 0;
    }
  }
  return open;
}

Replica replica_smr_lin(const ScenarioSpec& spec) {
  TM_CHECK(spec.pipeline == 1 && spec.batch == 1 && spec.fault_spec.empty() &&
               spec.corrupt_spec.empty(),
           "the smr_lin replica drives the default serialized gate");
  const int n = spec.n;
  const ProcessId leader =
      spec.leader_policy == scenario::LeaderPolicy::kFixed ? spec.leader : 0;
  const int bound = fault::bound_after_gsr(spec.algorithm);
  struct Unit {
    SpanLog log;
    SamplerClock clock;
    SmrClientReport rep;
    std::size_t ops = 0;
    bool linearizable = true;
  };
  Replica out;
  const std::int64_t t0 = now_ns();
  std::vector<Unit> units = run_trials<Unit>(
      static_cast<std::size_t>(spec.runs), [&](std::size_t t) {
        Unit u;
        const int span = u.log.begin("bench.unit", t);
        const std::uint64_t trial_seed = substream_seed(spec.seed, t);
        SmrClientConfig ccfg;
        ccfg.n = n;
        ccfg.algorithm = spec.algorithm;
        ccfg.leader = leader;
        ccfg.clients = spec.clients;
        ccfg.reg_keys = spec.reg_keys;
        ccfg.append_keys = spec.append_keys;
        ccfg.seed = substream_seed(trial_seed, 1);

        auto make_env = [&](std::uint64_t inst_seed, bool probe,
                            std::uint64_t probe_salt) {
          InstanceEnv env;
          ScheduleConfig scfg;
          scfg.n = n;
          scfg.model = fault::native_model(spec.algorithm);
          scfg.leader = leader;
          if (!probe) {
            const fault::FaultPlan plan =
                fault::random_fault_plan(n, leader, inst_seed);
            scfg.gsr = plan.gsr;
            scfg.pre_gsr_p = spec.iid_p;
            scfg.seed = substream_seed(inst_seed, 1);
            scfg.crash_rounds = crash_rounds_of(plan, n);
            fault::InjectorConfig icfg;
            icfg.n = n;
            icfg.leader = leader;
            icfg.seed = substream_seed(inst_seed, 2);
            env.crash_rounds = scfg.crash_rounds;
            env.max_rounds = std::max(spec.rounds_per_run, plan.gsr + bound + 4);
            env.sampler = std::make_unique<TimedSampler>(
                std::make_unique<ChaosInstanceSampler>(scfg, plan, icfg),
                u.clock);
          } else {
            scfg.gsr = 1;
            scfg.seed = substream_seed(trial_seed, probe_salt);
            env.max_rounds = std::max(spec.rounds_per_run, 1 + bound + 4);
            env.sampler = std::make_unique<TimedSampler>(
                std::make_unique<ScheduleSampler>(scfg), u.clock);
          }
          return env;
        };
        const InstanceEnvFactory env_of = [&](int index) {
          if (index < ccfg.instances) {
            return make_env(
                substream_seed(trial_seed,
                               100 + static_cast<std::uint64_t>(index)),
                false, 0);
          }
          return make_env(0, true, 1000 + static_cast<std::uint64_t>(index));
        };

        const int s = u.log.begin("smr.run_smr_clients", t);
        u.rep = run_smr_clients(ccfg, env_of);
        u.log.end(s, u.clock.ns);
        const int b = u.log.begin("history.build_history", t);
        const History h = build_history(u.rep.events);
        u.log.end(b);
        const int c = u.log.begin("history.check_history", t);
        u.linearizable = check_history(h).linearizable;
        u.log.end(c);
        u.ops = h.ops.size();
        u.log.end(span);
        return u;
      });
  out.wall_ns = now_ns() - t0;

  long long run = 0, decided = 0, ok = 0, fail = 0, info = 0, bad = 0,
            ops = 0;
  for (const Unit& u : units) {
    out.log.adopt(u.log);
    run += u.rep.instances_run;
    decided += u.rep.instances_decided;
    ok += u.rep.ops_ok;
    fail += u.rep.ops_fail;
    info += u.rep.ops_info;
    bad += (u.linearizable && u.rep.consistent) ? 0 : 1;
    ops += static_cast<long long>(u.ops);
  }
  out.counts = {{"trials", count(spec.runs)},     {"instances", count(run)},
                {"decided", count(decided)},      {"ops_ok", count(ok)},
                {"ops_fail", count(fail)},        {"ops_info", count(info)},
                {"non_linearizable", count(bad)}, {"units", count(spec.runs)}};
  const SpanSum s = sum_spans(out.log, "smr.run_smr_clients");
  const double trials = static_cast<double>(spec.runs);
  out.metrics["smr.trial_ms"] = s.mean_ms();
  out.metrics["smr.sampler_frac"] =
      static_cast<double>(s.inner_ns) / static_cast<double>(s.ns);
  out.metrics["smr.instances_per_trial"] = static_cast<double>(run) / trials;
  out.metrics["smr.ok_frac"] =
      static_cast<double>(ok) / static_cast<double>(ok + fail + info);
  out.metrics["history.check_us"] =
      sum_spans(out.log, "history.check_history").mean_ms() * 1e3;
  out.metrics["history.ops_per_check"] = static_cast<double>(ops) / trials;
  return out;
}

// -- micro probes: the innermost calls at fixed sizes ----------------------

/// Median over reps of (ns of `body`) / ops.
template <class Body>
double ns_per_op(long long ops, Body&& body) {
  constexpr int kReps = 5;
  std::array<double, kReps> v{};
  for (double& x : v) {
    const std::int64_t t0 = now_ns();
    body();
    x = static_cast<double>(now_ns() - t0) / static_cast<double>(ops);
  }
  std::sort(v.begin(), v.end());
  return v[kReps / 2];
}

/// Returns a checksum of the results, printed so no loop is optimised
/// away.
std::uint64_t micro_probes(std::uint64_t seed, SpanLog& log,
                           std::map<std::string, double>& m) {
  const int span = log.begin("bench.micro", 0);
  std::uint64_t sink = 0;
  Rng rng(seed);

  constexpr long long kDraws = 1 << 21;
  m["common.rng.bernoulli_ns"] = ns_per_op(kDraws, [&] {
    for (long long i = 0; i < kDraws; ++i) sink += rng.bernoulli(0.95);
  });
  m["common.rng.lognormal_ns"] = ns_per_op(kDraws, [&] {
    double acc = 0.0;
    for (long long i = 0; i < kDraws; ++i) acc += rng.lognormal(3.0, 0.5);
    sink += static_cast<std::uint64_t>(acc);
  });

  constexpr int kRounds = 8192;
  const WanProfile wan{};
  WanLatencyModel wan_model(wan, seed);
  LatencyTimelinessSampler wan_sampler(wan_model, 200.0);
  PackedLinkMatrix a8(wan.n);
  ColumnDeficits cols;
  Round k = 0;
  m["sim.wan.round_ns"] = ns_per_op(kRounds, [&] {
    for (int r = 0; r < kRounds; ++r) {
      sink += wan_sampler
                  .sample_round_and_evaluate(++k, WanLatencyModel::kUk, a8,
                                             cols)
                  .mask;
    }
  });

  IidTimelinessSampler iid(32, 0.95, seed);
  PackedLinkMatrix a32(32);
  m["sim.iid.round_ns"] = ns_per_op(kRounds, [&] {
    for (int r = 0; r < kRounds; ++r) iid.sample_round(++k, a32);
    sink += a32.n();
  });

  ScheduleConfig scfg;
  scfg.n = 5;
  scfg.gsr = kRounds * 6;  // pre-gsr: the random rounds the chaos runs see
  scfg.pre_gsr_p = 0.4;
  scfg.seed = seed;
  ScheduleSampler sched(scfg);
  PackedLinkMatrix a5(5);
  Round ks = 0;
  m["sim.schedule.round_ns"] = ns_per_op(kRounds, [&] {
    for (int r = 0; r < kRounds; ++r) sched.sample_round(++ks, a5);
    sink += a5.n();
  });

  // Predicate kernels over pre-sampled matrices.
  constexpr int kMats = 256;
  std::vector<PackedLinkMatrix> m8, m32;
  for (int i = 0; i < kMats; ++i) {
    wan_sampler.sample_round(++k, a8);
    m8.push_back(a8);
    iid.sample_round(++k, a32);
    m32.push_back(a32);
  }
  constexpr int kEvals = 32 * kMats;
  m["models.packed.eval_ns"] = ns_per_op(kEvals, [&] {
    for (int i = 0; i < kEvals; ++i) {
      sink += evaluate_all(m8[static_cast<std::size_t>(i % kMats)],
                           WanLatencyModel::kUk);
    }
  });
  const GranularContext g{LinkModelMatrix::mixed(32, 0.2, 0.25, seed)};
  m["models.granular.eval_ns"] = ns_per_op(kEvals, [&] {
    for (int i = 0; i < kEvals; ++i) {
      sink += evaluate_all_granular(m32[static_cast<std::size_t>(i % kMats)],
                                    0, g)
                  .sat;
    }
  });

  // RoundEngine::step at n = 5 for Paxos and <>WLM over chaos-style
  // schedules (random until gsr, then model-conforming).
  constexpr int kInstances = 64;
  constexpr int kSteps = 40;
  std::int64_t step_ns = 0;
  long long steps = 0;
  for (AlgorithmKind kind : {AlgorithmKind::kPaxos, AlgorithmKind::kWlm}) {
    for (int inst = 0; inst < kInstances; ++inst) {
      const std::uint64_t s = substream_seed(seed, static_cast<std::uint64_t>(inst));
      ScheduleConfig c;
      c.n = 5;
      c.model = fault::native_model(kind);
      c.gsr = 10;
      c.pre_gsr_p = 0.4;
      c.seed = s;
      ScheduleSampler sampler(c);
      std::vector<PackedLinkMatrix> fates(kSteps, PackedLinkMatrix(5));
      for (int r = 0; r < kSteps; ++r) sampler.sample_round(r + 1, fates[r]);
      RoundEngine engine(make_group(kind, {1, 2, 3, 4, 5}),
                         std::make_shared<UnstableOracle>(5, 0, c.gsr - 1, s));
      const std::int64_t t0 = now_ns();
      for (const PackedLinkMatrix& f : fates) sink += engine.step(f);
      step_ns += now_ns() - t0;
      steps += kSteps;
    }
  }
  m["giraf.step_ns"] = static_cast<double>(step_ns) / static_cast<double>(steps);
  log.end(span);
  return sink;
}

// -- driver ----------------------------------------------------------------

struct Group {
  bool full = false;
  std::string workload;
  const scenario::Scenario* scenario = nullptr;
  ScenarioSpec spec;
};

/// Wall seconds of one untraced call of the registered runner.
double untraced_wall_s(const Group& g) {
  std::ostringstream discard;
  scenario::RunContext ctx;
  ctx.out = &discard;
  const std::int64_t t0 = now_ns();
  g.scenario->run(g.spec, ctx);
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

using ReplicaFn = Replica (*)(const ScenarioSpec&);

const std::map<std::string, ReplicaFn> kReplicas = {
    {"mc_wan", replica_mc_wan},
    {"mc_iid_granular", replica_mc_iid_granular},
    {"chaos_hunt", replica_chaos_hunt},
    {"smr_lin", replica_smr_lin},
};

Replica run_replica(const Group& g) { return kReplicas.at(g.workload)(g.spec); }

/// Self time per layer: a span's duration minus its children's, with the
/// time its TimedSampler measured moved to the sim layer.
std::map<std::string, double> layer_self_ms(const SpanLog& log) {
  const auto& spans = log.spans();
  std::vector<std::int64_t> child(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    out[layer] += (s.t1 - s.t0 - child[i] - s.inner_ns) * 1e-6;
    if (s.inner_ns > 0) out["sim"] += s.inner_ns * 1e-6;
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

template <class Map>
void write_json_map(std::ostream& os, const Map& m) {
  os << "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    os << (first ? "" : ", ") << "\"" << json_escape(k) << "\": ";
    if constexpr (std::is_same_v<typename Map::mapped_type, std::string>) {
      os << "\"" << json_escape(v) << "\"";
    } else {
      os << v;
    }
    first = false;
  }
  os << "}";
}

int usage() {
  std::cerr << "usage: pb_trace --seconds S --spans PATH (--full|--probe) "
               "<workload> <scenario> [key=value ...] ; ...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  double seconds = 1.0;
  std::string spans_path;
  std::vector<Group> groups;
  for (int i = 1; i < argc;) {
    const std::string a = argv[i];
    if (a == "--seconds" && i + 1 < argc) {
      seconds = std::stod(argv[i + 1]);
      i += 2;
    } else if (a == "--spans" && i + 1 < argc) {
      spans_path = argv[i + 1];
      i += 2;
    } else if ((a == "--full" || a == "--probe") && i + 2 < argc) {
      Group g;
      g.full = a == "--full";
      g.workload = argv[i + 1];
      if (kReplicas.count(g.workload) == 0) {
        std::cerr << "error: no replica for workload '" << g.workload << "'\n";
        return 2;
      }
      const std::string scenario = argv[i + 2];
      std::vector<std::string> overrides;
      for (i += 3; i < argc && std::string(argv[i]) != ";"; ++i) {
        overrides.push_back(argv[i]);
      }
      ++i;  // the ';'
      const perfbench::Resolved r = perfbench::resolve(scenario, overrides);
      if (!r.error.empty()) {
        std::cerr << "error: " << g.workload << ": " << r.error << "\n";
        return 2;
      }
      g.scenario = r.scenario;
      g.spec = r.spec;
      groups.push_back(std::move(g));
    } else {
      return usage();
    }
  }
  const auto full = std::find_if(groups.begin(), groups.end(),
                                 [](const Group& g) { return g.full; });
  if (full == groups.end() || spans_path.empty()) return usage();

  SpanLog main_log;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> counts;
  std::vector<double> full_wall_s;
  std::vector<double> untraced_s;
  std::map<std::string, double> full_self_ms;

  // The full replica, repeated for `seconds` and interleaved with untraced
  // runner calls on the same spec (the trace overhead's base); its counts
  // must repeat.
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<Replica> reps;
  do {
    untraced_s.push_back(untraced_wall_s(*full));
    const int span = main_log.begin("bench.replica", reps.size());
    Replica r = run_replica(*full);
    main_log.adopt(r.log);
    main_log.end(span);
    full_wall_s.push_back(r.wall_ns * 1e-9);
    if (reps.empty()) {
      counts = r.counts;
    } else if (r.counts != counts) {
      std::cerr << "error: traced work counts changed between repetitions\n";
      return 1;
    }
    reps.push_back(std::move(r));
  } while (now_ns() < deadline && reps.size() < 64);
  // Per-layer metrics of the full replica: the median over repetitions.
  for (const auto& [name, unused] : reps.front().metrics) {
    std::vector<double> v;
    for (const Replica& r : reps) v.push_back(r.metrics.at(name));
    std::sort(v.begin(), v.end());
    metrics[name] = v[v.size() / 2];
  }
  for (const Replica& r : reps) {
    for (const auto& [layer, ms] : layer_self_ms(r.log)) {
      full_self_ms[layer] += ms / static_cast<double>(reps.size());
    }
  }

  double checksum = reps.front().checksum;
  for (const Group& g : groups) {
    if (g.full) continue;
    const int span = main_log.begin("bench.probe", 0);
    Replica r = run_replica(g);
    main_log.adopt(r.log);
    main_log.end(span);
    for (const auto& [name, v] : r.metrics) metrics.emplace(name, v);
    checksum += r.checksum;
  }
  const auto hunt = std::find_if(groups.begin(), groups.end(), [](const Group& g) {
    return g.workload == "chaos_hunt";
  });
  if (hunt != groups.end()) probe_fault(hunt->spec, main_log, metrics);
  checksum +=
      static_cast<double>(micro_probes(full->spec.seed, main_log, metrics) % 997);

  // harness.self_frac: both streaming harness paths together.
  const double plain = metrics["harness.self_frac"];
  const double gran = metrics["harness.granular_self_frac"];
  metrics["harness.self_frac"] = (plain + gran) / 2.0;
  metrics.erase("harness.granular_self_frac");
  std::cerr << "pb_trace checksum " << checksum << "\n";

  std::ofstream spans(spans_path);
  for (std::size_t i = 0; i < main_log.spans().size(); ++i) {
    const Span& s = main_log.spans()[i];
    spans << "{\"id\": " << i << ", \"parent\": " << s.parent
          << ", \"unit\": " << s.unit << ", \"name\": \"" << s.name
          << "\", \"t0\": " << s.t0 << ", \"t1\": " << s.t1
          << ", \"inner_ns\": " << s.inner_ns << "}\n";
  }
  spans.flush();
  if (!spans) {
    std::cerr << "error: cannot write spans to " << spans_path << "\n";
    return 1;
  }

  std::cerr << "self time per layer (ms per repetition of " << full->workload
            << "):";
  for (const auto& [layer, ms] : full_self_ms) {
    std::cerr << " " << layer << "=" << Table::num(ms, 2);
  }
  std::cerr << "\n";

  std::ostringstream os;
  os.precision(9);
  os << "{\"counts\": ";
  write_json_map(os, counts);
  os << ", \"full_wall_s\": [";
  for (std::size_t i = 0; i < full_wall_s.size(); ++i) {
    os << (i ? ", " : "") << full_wall_s[i];
  }
  os << "], \"untraced_wall_s\": [";
  for (std::size_t i = 0; i < untraced_s.size(); ++i) {
    os << (i ? ", " : "") << untraced_s[i];
  }
  os << "], \"metrics\": ";
  write_json_map(os, metrics);
  os << ", \"self_ms\": ";
  write_json_map(os, full_self_ms);
  os << "}";
  std::cout << os.str() << "\n";
  return 0;
}
