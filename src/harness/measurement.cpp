#include "harness/measurement.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "obs/jsonl.hpp"

namespace timing {

double RunMeasurement::incidence(TimingModel m) const noexcept {
  const auto& s = sat[static_cast<std::size_t>(model_index(m))];
  if (s.empty()) return 0.0;
  long long c = 0;
  for (auto b : s) c += b ? 1 : 0;
  return static_cast<double>(c) / static_cast<double>(s.size());
}

RunMeasurement measure_run(TimelinessSampler& sampler, int rounds,
                           ProcessId leader, TraceSink* trace,
                           MetricsRegistry* metrics) {
  TM_CHECK(rounds > 0, "need at least one round");
  RunMeasurement out;
  out.rounds = rounds;
  for (auto& s : out.sat) s.reserve(static_cast<std::size_t>(rounds));
  const int n = sampler.n();
  // One packed matrix per run, reused every round: the sample and
  // predicate phases both run on the bit plane.
  PackedLinkMatrix a(n);
  for (int r = 1; r <= rounds; ++r) {
    trace_emit(trace, [&] { return TraceEvent::round_start(r); });
    {
      PhaseTimer t(metrics, "phase.sample");
      sampler.sample_round(r, a);
    }
    // Message fates of the round's (virtual) all-to-all traffic. Self
    // links are excluded, matching the paper's p ("each process sent ...
    // to all others"). When tracing, walk cells in (dst, src) order so
    // the event stream is byte-identical to the historical scalar path;
    // otherwise tally from popcounts over the bit plane.
    if (trace != nullptr) {
      for (ProcessId d = 0; d < n; ++d) {
        for (ProcessId s = 0; s < n; ++s) {
          if (s == d) continue;
          ++out.messages_total;
          const Delay fate = a.at(d, s);
          if (fate == 0) {
            ++out.messages_timely;
            trace_emit(trace, [&] {
              return TraceEvent::msg(EventKind::kMsgTimely, r, s, d);
            });
          } else if (fate == kLost) {
            ++out.messages_lost;
            trace_emit(trace, [&] {
              return TraceEvent::msg(EventKind::kMsgLost, r, s, d);
            });
          } else {
            ++out.messages_late;
            trace_emit(trace, [&] {
              return TraceEvent::msg(EventKind::kMsgLate, r, s, d, fate);
            });
          }
        }
      }
    } else {
      FusedRoundEval fates;
      tally_fates(a, fates);
      out.messages_total += static_cast<long long>(n) * (n - 1);
      out.messages_timely += fates.timely;
      out.messages_late += fates.late;
      out.messages_lost += fates.lost;
    }
    std::uint8_t mask = 0;
    {
      PhaseTimer t(metrics, "phase.predicates");
      mask = evaluate_all(a, leader, trace, r);
    }
    for (TimingModel m : kAllModels) {
      const int idx = model_index(m);
      out.sat[static_cast<std::size_t>(idx)].push_back(
          (mask & (1u << idx)) ? 1 : 0);
    }
    trace_emit(trace, [&] { return TraceEvent::round_end(r); });
  }
  if (metrics != nullptr) {
    metrics->inc("rounds", rounds);
    metrics->inc("messages.total", out.messages_total);
    metrics->inc("messages.timely", out.messages_timely);
    metrics->inc("messages.late", out.messages_late);
    metrics->inc("messages.lost", out.messages_lost);
    for (TimingModel m : kAllModels) {
      const auto idx = static_cast<std::size_t>(model_index(m));
      long long sat = 0;
      for (auto b : out.sat[idx]) sat += b ? 1 : 0;
      metrics->inc(std::string("rounds.sat.") + to_string(m), sat);
    }
    metrics->observe("run.timely_fraction", out.timely_fraction());
  }
  return out;
}

std::vector<RunMeasurement> measure_runs(int num_runs,
                                         const SamplerFactory& make_sampler,
                                         int rounds, ProcessId leader,
                                         const MeasureObs& obs) {
  TM_CHECK(num_runs > 0, "need at least one run");

  // Resolve the trace destination: an explicit stream wins, otherwise
  // TIMING_TRACE=<path> (the off-by-default env knob).
  const TraceConfig env = TraceConfig::from_env();
  std::ofstream env_file;
  std::ostream* trace_out = obs.trace_out;
  std::size_t max_events = obs.max_events_per_trial;
  if (trace_out == nullptr && env.enabled()) {
    env_file.open(env.path, std::ios::trunc);
    TM_CHECK(env_file.good(), "cannot open TIMING_TRACE output file");
    trace_out = &env_file;
    if (max_events == 0) max_events = env.max_events_per_trial;
  }
  const bool tracing = trace_out != nullptr;
  const bool metering = obs.metrics != nullptr;

  // Per-trial private sinks/registries; pool threads never share one.
  std::vector<BufferSink> sinks;
  std::vector<MetricsRegistry> registries;
  if (tracing) {
    sinks.reserve(static_cast<std::size_t>(num_runs));
    for (int i = 0; i < num_runs; ++i) sinks.emplace_back(max_events);
  }
  if (metering) registries.resize(static_cast<std::size_t>(num_runs));

  // Each slot is written by exactly one trial, so the pool threads never
  // contend; read only after run_trials returns.
  std::vector<int> trial_n(static_cast<std::size_t>(num_runs), 0);

  auto result = run_trials<RunMeasurement>(
      static_cast<std::size_t>(num_runs), [&](std::size_t run) {
        auto sampler = make_sampler(static_cast<int>(run));
        TM_CHECK(sampler != nullptr, "sampler factory returned null");
        trial_n[run] = sampler->n();
        return measure_run(*sampler, rounds, leader,
                           tracing ? &sinks[run] : nullptr,
                           metering ? &registries[run] : nullptr);
      });

  // Drain in trial-index order on this thread: deterministic bytes and
  // deterministic metric folds regardless of the thread count. The header
  // carries the max n; trials that differ (e.g. a group-size sweep)
  // record their own n on the trial marker.
  if (tracing) {
    int max_n = 0;
    for (int n : trial_n) max_n = std::max(max_n, n);
    write_trace_header(*trace_out, max_n);
    for (int run = 0; run < num_runs; ++run) {
      const int n = trial_n[static_cast<std::size_t>(run)];
      write_trial(*trace_out, run,
                  sinks[static_cast<std::size_t>(run)].events(),
                  n == max_n ? 0 : n);
    }
    trace_out->flush();
  }
  if (metering) {
    for (const MetricsRegistry& r : registries) obs.metrics->merge(r);
  }
  return result;
}

DecisionWindow rounds_until_conditions(const std::vector<std::uint8_t>& sat,
                                       int start, int needed) {
  TM_CHECK(needed >= 1, "window length must be positive");
  TM_CHECK(start >= 0, "start must be non-negative");
  const int len = static_cast<int>(sat.size());
  int streak = 0;
  for (int i = start; i < len; ++i) {
    streak = sat[static_cast<std::size_t>(i)] ? streak + 1 : 0;
    if (streak >= needed) {
      return DecisionWindow{static_cast<double>(i - start + 1), false};
    }
  }
  return DecisionWindow{static_cast<double>(len - start), true};
}

DecisionStats decision_stats(const std::vector<std::uint8_t>& sat, int needed,
                             int start_points, Rng& rng) {
  TM_CHECK(start_points > 0, "need at least one start point");
  const int len = static_cast<int>(sat.size());
  TM_CHECK(len > needed, "run shorter than the decision window");
  DecisionStats out;
  int censored = 0;
  double sum = 0.0;
  for (int s = 0; s < start_points; ++s) {
    // Start anywhere in the first half so a typical window can complete.
    const int start = static_cast<int>(rng.uniform_int(
        static_cast<std::uint64_t>(std::max(1, len / 2))));
    const DecisionWindow w = rounds_until_conditions(sat, start, needed);
    sum += w.rounds;
    if (w.censored) ++censored;
  }
  out.mean_rounds = sum / start_points;
  out.censored_fraction = static_cast<double>(censored) / start_points;
  return out;
}

ConsecutiveWindowTracker::ConsecutiveWindowTracker(int needed,
                                                   std::vector<int> starts,
                                                   int total_rounds)
    : needed_(needed), total_(total_rounds), starts_(std::move(starts)),
      rounds_(starts_.size(), -1.0) {
  TM_CHECK(needed_ >= 1, "window length must be positive");
  TM_CHECK(total_ > needed_, "run shorter than the decision window");
  by_start_.resize(starts_.size());
  for (std::size_t j = 0; j < starts_.size(); ++j) {
    TM_CHECK(starts_[j] >= 0 && starts_[j] < total_,
             "start point out of range");
    by_start_[j] = j;
  }
  std::sort(by_start_.begin(), by_start_.end(),
            [this](std::size_t a, std::size_t b) {
              return starts_[a] != starts_[b] ? starts_[a] < starts_[b]
                                              : a < b;
            });
}

void ConsecutiveWindowTracker::observe(bool satisfied) noexcept {
  const int i = round_++;
  if (!satisfied) {
    streak_ = 0;
    return;
  }
  ++sat_rounds_;
  ++streak_;
  if (streak_ < needed_) return;
  // A `needed`-long satisfied window ends at round i. Every pending start
  // point at or before the window's first round resolves here with
  // i - start + 1 rounds — the same value rounds_until_conditions returns,
  // because a streak that began before `start` still leaves a full window
  // inside [start, i] whenever start <= i - needed + 1.
  const int cutoff = i - needed_ + 1;
  while (next_ < by_start_.size() && starts_[by_start_[next_]] <= cutoff) {
    const std::size_t j = by_start_[next_++];
    rounds_[j] = static_cast<double>(i - starts_[j] + 1);
  }
}

DecisionStats ConsecutiveWindowTracker::finalize() const {
  TM_CHECK(!starts_.empty(), "need at least one start point");
  DecisionStats out;
  int censored = 0;
  double sum = 0.0;
  // Accumulate in the original draw order so the floating-point sum is
  // bit-identical to decision_stats over the materialised sat vector.
  for (std::size_t j = 0; j < starts_.size(); ++j) {
    if (rounds_[j] >= 0.0) {
      sum += rounds_[j];
    } else {
      sum += static_cast<double>(total_ - starts_[j]);  // censored bound
      ++censored;
    }
  }
  const int start_points = static_cast<int>(starts_.size());
  out.mean_rounds = sum / start_points;
  out.censored_fraction = static_cast<double>(censored) / start_points;
  return out;
}

namespace {

/// Pre-draws a run's random start points in exactly the order the
/// vector-based path consumes them (model-major, kAllModels order, each
/// uniform over the first half of the run so a typical window can
/// complete), so the same `start_rng` sub-stream yields the same points,
/// and returns one window tracker per model over them.
std::vector<ConsecutiveWindowTracker> draw_trackers(
    int rounds, const std::array<int, kNumModels>& needed, int start_points,
    Rng& start_rng) {
  TM_CHECK(rounds > 0, "need at least one round");
  TM_CHECK(start_points > 0, "need at least one start point");
  std::vector<ConsecutiveWindowTracker> track;
  track.reserve(kNumModels);
  for (TimingModel m : kAllModels) {
    const int idx = model_index(m);
    std::vector<int> starts(static_cast<std::size_t>(start_points));
    for (int s = 0; s < start_points; ++s) {
      starts[static_cast<std::size_t>(s)] = static_cast<int>(
          start_rng.uniform_int(
              static_cast<std::uint64_t>(std::max(1, rounds / 2))));
    }
    track.emplace_back(needed[static_cast<std::size_t>(idx)],
                       std::move(starts), rounds);
  }
  return track;
}

/// Per-class conformance tallies of a run (rounds in which every link of
/// each LinkModelClass was timely).
using ClassSat = std::array<long long, kNumLinkModelClasses>;

/// Feeds one round's predicate mask (bit model_index(m) per model) to the
/// run's four trackers.
void observe_mask(ConsecutiveWindowTracker* track, std::uint8_t mask) {
  for (TimingModel m : kAllModels) {
    const int idx = model_index(m);
    track[idx].observe((mask & (1u << idx)) != 0);
  }
}

/// Evaluates one packed round, the homogeneous predicates or with `g` the
/// granular ones, and feeds the run's trackers and class tallies.
void observe_round(const PackedLinkMatrix& a, ProcessId leader,
                   const GranularContext* g, ColumnDeficits& cols,
                   ConsecutiveWindowTracker* track, ClassSat& class_sat) {
  if (g == nullptr) {
    observe_mask(track, packed_evaluate_mask(a, leader, cols));
    return;
  }
  const GranularEval e =
      packed_evaluate_granular(a, leader, g->planes(), cols);
  observe_mask(track, e.sat);
  for (int c = 0; c < kNumLinkModelClasses; ++c) {
    if (e.csat & (1u << c)) ++class_sat[static_cast<std::size_t>(c)];
  }
}

void add_fates(const FusedRoundEval& fates, int n, StreamedRun& out) {
  out.messages_total += static_cast<long long>(n) * (n - 1);
  out.messages_timely += fates.timely;
  out.messages_late += fates.late;
  out.messages_lost += fates.lost;
}

/// P_M, the decision-window statistics and the class conformance of a
/// finished run (class_pm stays zero when no class was tallied).
void finalize_run(const ConsecutiveWindowTracker* track,
                  const ClassSat& class_sat, int rounds,
                  GranularStreamedRun& out) {
  for (TimingModel m : kAllModels) {
    const auto idx = static_cast<std::size_t>(model_index(m));
    const DecisionStats ds = track[idx].finalize();
    out.base.pm[idx] = static_cast<double>(track[idx].satisfied_rounds()) /
                       static_cast<double>(rounds);
    out.base.mean_rounds[idx] = ds.mean_rounds;
    out.base.censored[idx] = ds.censored_fraction;
  }
  for (int c = 0; c < kNumLinkModelClasses; ++c) {
    const auto i = static_cast<std::size_t>(c);
    out.class_pm[i] =
        static_cast<double>(class_sat[i]) / static_cast<double>(rounds);
  }
}

/// Rejects a leader or link-model matrix that does not fit `n` processes.
void check_run_shape(int n, ProcessId leader, const GranularContext* g) {
  TM_CHECK(leader >= 0 && leader < n, "leader out of range");
  TM_CHECK(g == nullptr || g->n() == n,
           "link-model matrix size must match the process count");
}

/// The one streamed-run loop: each round is a packed sample_round, a fate
/// tally and observe_round.
GranularStreamedRun stream_run(TimelinessSampler& sampler, int rounds,
                               ProcessId leader,
                               const std::array<int, kNumModels>& needed,
                               int start_points, Rng& start_rng,
                               const GranularContext* g) {
  const int n = sampler.n();
  check_run_shape(n, leader, g);
  std::vector<ConsecutiveWindowTracker> track =
      draw_trackers(rounds, needed, start_points, start_rng);

  GranularStreamedRun out;
  ClassSat class_sat{};
  PackedLinkMatrix a(n);
  ColumnDeficits cols;
  for (int r = 1; r <= rounds; ++r) {
    sampler.sample_round(r, a);
    FusedRoundEval fates;
    tally_fates(a, fates);
    add_fates(fates, n, out.base);
    observe_round(a, leader, g, cols, track.data(), class_sat);
  }
  finalize_run(track.data(), class_sat, rounds, out);
  return out;
}

}  // namespace

StreamedRun measure_run_streaming(TimelinessSampler& sampler, int rounds,
                                  ProcessId leader,
                                  const std::array<int, kNumModels>& needed,
                                  int start_points, Rng& start_rng) {
  return stream_run(sampler, rounds, leader, needed, start_points, start_rng,
                    nullptr)
      .base;
}

GranularStreamedRun measure_run_streaming_granular(
    TimelinessSampler& sampler, int rounds, ProcessId leader,
    const std::array<int, kNumModels>& needed, int start_points,
    Rng& start_rng, const GranularContext& g) {
  return stream_run(sampler, rounds, leader, needed, start_points, start_rng,
                    &g);
}

std::vector<GranularStreamedRun> measure_run_sweep(
    LatencyModel& model, const std::vector<double>& timeouts_ms, int rounds,
    ProcessId leader, const std::array<int, kNumModels>& needed,
    int start_points, Rng& start_rng, const GranularContext* g) {
  const int n = model.n();
  check_run_shape(n, leader, g);
  for (const double t : timeouts_ms) {
    TM_CHECK(t > 0.0, "timeout must be positive");
  }
  const std::size_t num_timeouts = timeouts_ms.size();

  // One draw of the start points, shared by every timeout: the paired
  // design, exactly as if each timeout re-drew them from the same
  // sub-stream.
  const std::vector<ConsecutiveWindowTracker> drawn =
      draw_trackers(rounds, needed, start_points, start_rng);
  std::vector<ConsecutiveWindowTracker> track;
  track.reserve(num_timeouts * kNumModels);
  for (std::size_t ti = 0; ti < num_timeouts; ++ti) {
    track.insert(track.end(), drawn.begin(), drawn.end());
  }

  std::vector<GranularStreamedRun> out(num_timeouts);
  std::vector<ClassSat> class_sat(num_timeouts, ClassSat{});
  std::vector<double> ms(static_cast<std::size_t>(n) * n, 0.0);
  PackedLinkMatrix a(n);
  ColumnDeficits cols;
  constexpr int kBits = PackedLinkMatrix::kWordBits;
  for (int r = 1; r <= rounds; ++r) {
    // The round's latencies, drawn once in LatencyTimelinessSampler's
    // (dst, src) order so the model's RNG stream is consumed as a
    // per-timeout sampler would consume it.
    model.begin_round(r);
    for (ProcessId dst = 0; dst < n; ++dst) {
      for (ProcessId src = 0; src < n; ++src) {
        if (src == dst) continue;
        ms[static_cast<std::size_t>(dst) * n + src] =
            model.sample_ms(src, dst);
      }
    }
    for (std::size_t ti = 0; ti < num_timeouts; ++ti) {
      // Only the bit plane is built: the predicates read nothing else,
      // so the delay plane is left unwritten and the late/lost fates
      // are only counted.
      const double timeout = timeouts_ms[ti];
      FusedRoundEval fates;
      for (ProcessId dst = 0; dst < n; ++dst) {
        const double* row_ms = ms.data() + static_cast<std::size_t>(dst) * n;
        std::uint64_t* row = a.mutable_row_words(dst);
        for (int w = 0; w < a.words_per_row(); ++w) {
          const ProcessId base = w * kBits;
          const int bits = std::min(kBits, n - base);
          std::uint64_t word = 0;
          for (int b = 0; b < bits; ++b) {
            const ProcessId src = base + b;
            if (src == dst) {
              word |= 1ULL << b;
              continue;
            }
            const Delay d = classify_latency(row_ms[src], timeout,
                                             kDefaultMaxDelayRounds);
            if (d == 0) {
              word |= 1ULL << b;
              ++fates.timely;
            } else if (d == kLost) {
              ++fates.lost;
            } else {
              ++fates.late;
            }
          }
          row[w] = word;
        }
      }
      add_fates(fates, n, out[ti].base);
      observe_round(a, leader, g, cols, track.data() + ti * kNumModels,
                    class_sat[ti]);
    }
  }

  for (std::size_t ti = 0; ti < num_timeouts; ++ti) {
    finalize_run(track.data() + ti * kNumModels, class_sat[ti], rounds,
                 out[ti]);
  }
  return out;
}

}  // namespace timing
