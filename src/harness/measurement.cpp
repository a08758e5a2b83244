#include "harness/measurement.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>
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
                                                   int total_rounds, int lanes)
    : needed_(needed), total_(total_rounds), starts_(std::move(starts)) {
  TM_CHECK(needed_ >= 1, "window length must be positive");
  TM_CHECK(total_ > needed_, "run shorter than the decision window");
  TM_CHECK(lanes >= 0, "negative lane count");
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
  Lane lane;
  lane.pending = starts_.empty() ? std::numeric_limits<int>::max()
                                 : starts_[by_start_[0]];
  lanes_.assign(static_cast<std::size_t>(lanes), lane);
  first_count_.assign(static_cast<std::size_t>(lanes) + 1, 0);
  rounds_.assign(static_cast<std::size_t>(lanes) * starts_.size(), -1.0);
}

void ConsecutiveWindowTracker::observe_from(int first) noexcept {
  const int i = round_++;
  const int num_lanes = lanes();
  first = std::clamp(first, 0, num_lanes);
  ++first_count_[static_cast<std::size_t>(first)];
  for (int lane = 0; lane < first; ++lane) {
    lanes_[static_cast<std::size_t>(lane)].streak_start = i + 1;
  }
  // A lane's streak is `needed` long when it started at or before the
  // cutoff. A `needed`-long satisfied window ending at round i resolves
  // every pending start point at or before the window's first round with
  // i - start + 1 rounds — the same value rounds_until_conditions returns,
  // because a streak that began before `start` still leaves a full window
  // inside [start, i] whenever start <= i - needed + 1.
  const int cutoff = i - needed_ + 1;
  for (int lane = first; lane < num_lanes; ++lane) {
    Lane& l = lanes_[static_cast<std::size_t>(lane)];
    if (std::max(l.streak_start, l.pending) > cutoff) continue;
    double* rounds =
        rounds_.data() + static_cast<std::size_t>(lane) * starts_.size();
    do {
      const std::size_t j = by_start_[l.next++];
      rounds[j] = static_cast<double>(i - starts_[j] + 1);
    } while (l.next < by_start_.size() &&
             starts_[by_start_[l.next]] <= cutoff);
    l.pending = l.next < by_start_.size() ? starts_[by_start_[l.next]]
                                          : std::numeric_limits<int>::max();
  }
}

long long ConsecutiveWindowTracker::satisfied_rounds(int lane) const noexcept {
  long long sat = 0;
  for (int f = 0; f <= lane; ++f) {
    sat += first_count_[static_cast<std::size_t>(f)];
  }
  return sat;
}

DecisionStats ConsecutiveWindowTracker::finalize(int lane) const {
  TM_CHECK(!starts_.empty(), "need at least one start point");
  const double* rounds =
      rounds_.data() + static_cast<std::size_t>(lane) * starts_.size();
  DecisionStats out;
  int censored = 0;
  double sum = 0.0;
  // Accumulate in the original draw order so the floating-point sum is
  // bit-identical to decision_stats over the materialised sat vector.
  for (std::size_t j = 0; j < starts_.size(); ++j) {
    if (rounds[j] >= 0.0) {
      sum += rounds[j];
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
/// and returns one window tracker per model over them, with `lanes`
/// lanes each.
std::vector<ConsecutiveWindowTracker> draw_trackers(
    int rounds, const std::array<int, kNumModels>& needed, int start_points,
    Rng& start_rng, int lanes = 1) {
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
                       std::move(starts), rounds, lanes);
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

/// Evaluates one packed round: the homogeneous predicates (csat stays 0)
/// or, with `g`, the granular ones.
GranularEval evaluate_round(const PackedLinkMatrix& a, ProcessId leader,
                            const GranularContext* g, ColumnDeficits& cols) {
  if (g == nullptr) return GranularEval{packed_evaluate_mask(a, leader, cols)};
  return packed_evaluate_granular(a, leader, g->planes(), cols);
}

/// Evaluates one packed round and feeds the run's one-lane trackers and
/// class tallies.
void observe_round(const PackedLinkMatrix& a, ProcessId leader,
                   const GranularContext* g, ColumnDeficits& cols,
                   ConsecutiveWindowTracker* track, ClassSat& class_sat) {
  const GranularEval e = evaluate_round(a, leader, g, cols);
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

/// P_M, the decision-window statistics and the class conformance of
/// `lane` of a finished run (class_pm stays zero when no class was
/// tallied).
void finalize_run(const ConsecutiveWindowTracker* track,
                  const ClassSat& class_sat, int rounds,
                  GranularStreamedRun& out, int lane = 0) {
  for (TimingModel m : kAllModels) {
    const auto idx = static_cast<std::size_t>(model_index(m));
    const DecisionStats ds = track[idx].finalize(lane);
    out.base.pm[idx] =
        static_cast<double>(track[idx].satisfied_rounds(lane)) /
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

/// verdict[lo] and verdict[hi] are known; fills every entry between them.
/// Each bit of a verdict is a step function of the index, so equal ends
/// mean an equal span; otherwise bisect.
template <class Evaluate>
void settle_verdicts(int lo, int hi, GranularEval* verdict,
                     const Evaluate& evaluate) {
  if (hi - lo < 2) return;
  const GranularEval& a = verdict[lo];
  if (a.sat == verdict[hi].sat && a.csat == verdict[hi].csat) {
    std::fill(verdict + lo + 1, verdict + hi, a);
    return;
  }
  const int mid = lo + (hi - lo) / 2;
  verdict[mid] = evaluate(mid);
  settle_verdicts(lo, mid, verdict, evaluate);
  settle_verdicts(mid, hi, verdict, evaluate);
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
  const int num_t = static_cast<int>(timeouts_ms.size());
  const auto num_slots = static_cast<std::size_t>(num_t) + 1;

  // The timeouts in ascending order (stable, so duplicates keep their
  // order) and each user index's sorted position.
  std::vector<int> order(static_cast<std::size_t>(num_t));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return timeouts_ms[static_cast<std::size_t>(a)] <
           timeouts_ms[static_cast<std::size_t>(b)];
  });
  std::vector<double> sorted(static_cast<std::size_t>(num_t));
  std::vector<int> pos(static_cast<std::size_t>(num_t));
  for (int j = 0; j < num_t; ++j) {
    const auto user =
        static_cast<std::size_t>(order[static_cast<std::size_t>(j)]);
    sorted[static_cast<std::size_t>(j)] = timeouts_ms[user];
    pos[user] = j;
  }
  // A latency at or below this is lost under no timeout: a message is lost
  // only when floor(ms / t) > kDefaultMaxDelayRounds, so ms > 64 * t.
  const double lost_floor =
      num_t > 0 ? kDefaultMaxDelayRounds * sorted[0] : 0.0;

  // One draw of the start points, shared by every timeout: the paired
  // design, exactly as if each timeout re-drew them from the same
  // sub-stream. Lane j of each tracker is sorted timeout j.
  std::vector<ConsecutiveWindowTracker> track =
      draw_trackers(rounds, needed, start_points, start_rng, num_t);

  // Run-wide histograms, indexed 0..num_t: cells of each rank (rank num_t
  // is timely under no timeout), cells lost under exactly the first L
  // sorted timeouts, and rounds whose class c first conforms at sorted
  // timeout j.
  std::vector<long long> rank_count(num_slots, 0);
  std::vector<long long> lost_prefix_count(num_slots, 0);
  std::array<std::vector<long long>, kNumLinkModelClasses> class_first;
  for (auto& h : class_first) h.assign(num_slots, 0);

  // planes[j] is the round's timely plane under sorted timeout j, built
  // only for the steps: j = 0 and each j whose delta plane (the cells of
  // rank j) is non-empty, marked by fresh[j]. Every other plane equals
  // its predecessor, and so does its verdict.
  std::vector<PackedLinkMatrix> planes(static_cast<std::size_t>(num_t),
                                       PackedLinkMatrix(n));
  const int words = planes.empty() ? 0 : planes[0].words_per_row();
  const std::size_t plane_words = static_cast<std::size_t>(n) * words;
  std::vector<std::uint64_t> delta(static_cast<std::size_t>(num_t) *
                                   plane_words);
  std::vector<std::uint8_t> fresh(static_cast<std::size_t>(num_t), 0);
  std::vector<int> steps;
  steps.reserve(static_cast<std::size_t>(num_t));
  std::vector<GranularEval> step_verdict(static_cast<std::size_t>(num_t));
  std::vector<double> ms(static_cast<std::size_t>(n) * n, 0.0);
  ColumnDeficits cols;
  const auto evaluate = [&](int p) {
    const auto j = static_cast<std::size_t>(steps[static_cast<std::size_t>(p)]);
    return evaluate_round(planes[j], leader, g, cols);
  };
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
    if (num_t == 0) continue;

    // Rank every cell once: its rank is the first sorted j with
    // ms <= t_j. Rank 0 goes straight into plane 0, ranks 1..num_t-1 into
    // their delta planes. The self link's latency stays 0, so it lands in
    // plane 0 like a timely cell and is taken out of the count below.
    long long rank0 = -n;
    for (ProcessId dst = 0; dst < n; ++dst) {
      const double* row_ms = ms.data() + static_cast<std::size_t>(dst) * n;
      std::uint64_t* row0 = planes[0].mutable_row_words(dst);
      for (int w = 0; w < words; ++w) {
        const ProcessId base = w * kBits;
        const int bits = std::min(kBits, n - base);
        std::uint64_t word = 0;
        for (int b = 0; b < bits; ++b) {
          const double x = row_ms[base + b];
          if (x <= sorted[0]) {
            word |= 1ULL << b;
            ++rank0;
            continue;
          }
          int rank = 1;
          while (rank < num_t &&
                 !(x <= sorted[static_cast<std::size_t>(rank)])) {
            ++rank;
          }
          ++rank_count[static_cast<std::size_t>(rank)];
          if (rank < num_t) {
            delta[static_cast<std::size_t>(rank) * plane_words +
                  static_cast<std::size_t>(dst) * words + w] |= 1ULL << b;
            fresh[static_cast<std::size_t>(rank)] = 1;
          }
          if (!std::isfinite(x) || x > lost_floor) {
            // Untimely under the first `rank` timeouts and, since
            // floor(ms / t) only falls as t grows, lost under a prefix of
            // them (NaN and infinity under all).
            int lost = 0;
            while (lost < rank &&
                   classify_latency(x, sorted[static_cast<std::size_t>(lost)],
                                    kDefaultMaxDelayRounds) == kLost) {
              ++lost;
            }
            ++lost_prefix_count[static_cast<std::size_t>(lost)];
          }
        }
        row0[w] = word;
      }
    }
    rank_count[0] += rank0;

    // Plane j = plane j-1 OR delta j, for each step; the delta plane is
    // cleared for the next round as it is consumed.
    steps.assign(1, 0);
    for (int j = 1; j < num_t; ++j) {
      const auto sj = static_cast<std::size_t>(j);
      if (!fresh[sj]) continue;
      fresh[sj] = 0;
      const PackedLinkMatrix& prev =
          planes[static_cast<std::size_t>(steps.back())];
      std::uint64_t* add = delta.data() + sj * plane_words;
      for (ProcessId dst = 0; dst < n; ++dst, add += words) {
        const std::uint64_t* from = prev.row_words(dst);
        std::uint64_t* to = planes[sj].mutable_row_words(dst);
        for (int w = 0; w < words; ++w) {
          to[w] = from[w] | add[w];
          add[w] = 0;
        }
      }
      steps.push_back(j);
    }

    // step_verdict[p] is the verdict of planes[steps[p]]: the packed
    // kernel runs at both ends of the steps, and by bisection only where
    // the verdicts at a span's ends differ.
    const int last = static_cast<int>(steps.size()) - 1;
    step_verdict[0] = evaluate(0);
    if (last > 0) {
      step_verdict[static_cast<std::size_t>(last)] = evaluate(last);
    }
    settle_verdicts(0, last, step_verdict.data(), evaluate);

    // Each model's sat bit and each class's csat bit holds from its first
    // step on; the first sorted timeout with it is that step's timeout
    // (num_t when no step has it).
    const auto first_with = [&](auto bit_of) {
      int first = num_t;
      for (int p = last;
           p >= 0 && bit_of(step_verdict[static_cast<std::size_t>(p)]); --p) {
        first = steps[static_cast<std::size_t>(p)];
      }
      return first;
    };
    for (TimingModel m : kAllModels) {
      const int idx = model_index(m);
      track[static_cast<std::size_t>(idx)].observe_from(
          first_with([idx](const GranularEval& e) {
            return (e.sat & (1u << idx)) != 0;
          }));
    }
    for (int c = 0; c < kNumLinkModelClasses; ++c) {
      ++class_first[static_cast<std::size_t>(c)][static_cast<std::size_t>(
          first_with([c](const GranularEval& e) {
            return (e.csat & (1u << c)) != 0;
          }))];
    }
  }

  // Fates and class tallies of sorted timeout j from the histograms: timely
  // = ranks <= j, lost = lost prefixes > j, class c = first step <= j.
  std::vector<GranularStreamedRun> out(static_cast<std::size_t>(num_t));
  const long long total = static_cast<long long>(rounds) * n * (n - 1);
  for (int ti = 0; ti < num_t; ++ti) {
    const int j = pos[static_cast<std::size_t>(ti)];
    GranularStreamedRun& run = out[static_cast<std::size_t>(ti)];
    StreamedRun& base = run.base;
    base.messages_total = total;
    ClassSat class_sat{};
    for (int k = 0; k <= j; ++k) {
      const auto sk = static_cast<std::size_t>(k);
      base.messages_timely += rank_count[sk];
      for (int c = 0; c < kNumLinkModelClasses; ++c) {
        const auto sc = static_cast<std::size_t>(c);
        class_sat[sc] += class_first[sc][sk];
      }
    }
    for (int k = j + 1; k <= num_t; ++k) {
      base.messages_lost += lost_prefix_count[static_cast<std::size_t>(k)];
    }
    base.messages_late = total - base.messages_timely - base.messages_lost;
    finalize_run(track.data(), class_sat, rounds, run, j);
  }
  return out;
}

}  // namespace timing
