// Unit tests for the measurement harness: run measurement, decision
// windows, random start points, and the experiment driver's statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "harness/algorithm_runs.hpp"
#include "harness/experiments.hpp"
#include "oracles/omega.hpp"
#include "harness/measurement.hpp"
#include "models/link_model_matrix.hpp"
#include "models/schedule.hpp"
#include "sim/latency_model.hpp"

namespace timing {
namespace {

TEST(Measurement, IncidenceCountsSatisfyingRounds) {
  // An ES schedule stable from round 11 of 20: exactly half the rounds
  // satisfy every model (plus whatever chaos satisfies by luck at p=0).
  ScheduleConfig cfg;
  cfg.n = 6;
  cfg.model = TimingModel::kEs;
  cfg.gsr = 11;
  cfg.pre_gsr_p = 0.0;
  cfg.seed = 3;
  ScheduleSampler s(cfg);
  RunMeasurement m = measure_run(s, 20, /*leader=*/0);
  EXPECT_EQ(m.rounds, 20);
  EXPECT_DOUBLE_EQ(m.incidence(TimingModel::kEs), 0.5);
  EXPECT_DOUBLE_EQ(m.incidence(TimingModel::kWlm), 0.5);
  // p: 10 rounds fully timely, 10 rounds fully untimely (except self
  // links, which are excluded from message counting).
  EXPECT_NEAR(m.timely_fraction(), 0.5, 1e-9);
}

TEST(Measurement, DecisionWindowBasics) {
  //                         0  1  2  3  4  5  6  7
  std::vector<std::uint8_t> sat{0, 1, 1, 0, 1, 1, 1, 0};
  // From 0, first window of 3 consecutive ends at index 6: 7 rounds.
  auto w = rounds_until_conditions(sat, 0, 3);
  EXPECT_FALSE(w.censored);
  EXPECT_DOUBLE_EQ(w.rounds, 7.0);
  // From 4: ends at 6 -> 3 rounds.
  w = rounds_until_conditions(sat, 4, 3);
  EXPECT_DOUBLE_EQ(w.rounds, 3.0);
  // Window of 2 from 0 ends at index 2 -> 3 rounds.
  w = rounds_until_conditions(sat, 0, 2);
  EXPECT_DOUBLE_EQ(w.rounds, 3.0);
  // Window of 4 never occurs: censored, lower bound = remaining length.
  w = rounds_until_conditions(sat, 0, 4);
  EXPECT_TRUE(w.censored);
  EXPECT_DOUBLE_EQ(w.rounds, 8.0);
}

TEST(Measurement, DecisionWindowStreakMustBeConsecutive) {
  std::vector<std::uint8_t> sat{1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1};
  auto w = rounds_until_conditions(sat, 0, 3);
  EXPECT_FALSE(w.censored);
  EXPECT_DOUBLE_EQ(w.rounds, 11.0) << "alternating rounds never form a window";
}

TEST(Measurement, DecisionStatsAveragesStartPoints) {
  std::vector<std::uint8_t> sat(100, 1);  // always satisfying
  Rng rng(5);
  auto ds = decision_stats(sat, 4, 15, rng);
  EXPECT_DOUBLE_EQ(ds.mean_rounds, 4.0);
  EXPECT_DOUBLE_EQ(ds.censored_fraction, 0.0);

  std::vector<std::uint8_t> never(100, 0);
  auto ds2 = decision_stats(never, 4, 15, rng);
  EXPECT_DOUBLE_EQ(ds2.censored_fraction, 1.0);
  EXPECT_GT(ds2.mean_rounds, 45.0) << "censored windows report remaining run";
}

TEST(Experiments, PairedSeedsGiveIdenticalLatencies) {
  // The same run index must see the same p regardless of other timeouts
  // in the sweep (paired design).
  ExperimentConfig a;
  a.testbed = Testbed::kWan;
  a.timeouts_ms = {200};
  a.runs = 5;
  a.rounds_per_run = 50;
  a.seed = 11;
  ExperimentConfig b = a;
  b.timeouts_ms = {160, 200, 350};
  const auto ra = run_experiment(a);
  const auto rb = run_experiment(b);
  EXPECT_DOUBLE_EQ(ra[0].mean_p, rb[1].mean_p);
  EXPECT_DOUBLE_EQ(ra[0].models[2].mean_pm, rb[1].models[2].mean_pm);
}

TEST(Experiments, LeaderResolution) {
  ExperimentConfig wan;
  wan.testbed = Testbed::kWan;
  EXPECT_EQ(resolve_leader(wan), WanLatencyModel::kUk);
  wan.leader = 3;
  EXPECT_EQ(resolve_leader(wan), 3);

  ExperimentConfig lan;
  lan.testbed = Testbed::kLan;
  // The best-connected LAN machine is node 0 (smallest node factor).
  EXPECT_EQ(resolve_leader(lan), 0);
}

TEST(Experiments, WellConnectedElectionPicksUk) {
  // The paper's offline method ("we measured the round-trip times of all
  // links using pings, and then chose a well-connected node") must pick
  // the UK site on this testbed, as it did on PlanetLab.
  ExperimentConfig wan;
  wan.testbed = Testbed::kWan;
  EXPECT_EQ(elect_well_connected(expected_rtt_matrix(wan)),
            WanLatencyModel::kUk);
}

TEST(Experiments, ExpectedRttMatrixShape) {
  ExperimentConfig wan;
  wan.testbed = Testbed::kWan;
  const auto rtt = expected_rtt_matrix(wan);
  ASSERT_EQ(rtt.size(), 8u);
  EXPECT_DOUBLE_EQ(rtt[0][0], 0.0);
  EXPECT_DOUBLE_EQ(rtt[0][6], rtt[6][0]);
  EXPECT_NEAR(rtt[0][6], 20.0, 1.0);  // CH <-> UK, 2 x 10 ms
}

TEST(Experiments, MeanTimeIsRoundsTimesTimeout) {
  ExperimentConfig cfg;
  cfg.testbed = Testbed::kWan;
  cfg.timeouts_ms = {250};
  cfg.runs = 4;
  cfg.rounds_per_run = 120;
  cfg.seed = 9;
  const auto rs = run_experiment(cfg);
  for (const auto& m : rs[0].models) {
    EXPECT_DOUBLE_EQ(m.mean_time_ms, m.mean_rounds * 250.0);
  }
}

TEST(AlgorithmRuns, ReportsMessageComplexity) {
  AlgorithmRunConfig cfg;
  cfg.kind = AlgorithmKind::kLm3;
  cfg.schedule.n = 6;
  cfg.schedule.model = TimingModel::kLm;
  cfg.schedule.leader = 1;
  cfg.schedule.gsr = 5;
  cfg.schedule.seed = 8;
  for (int i = 0; i < 6; ++i) cfg.proposals.push_back(i + 1);
  const auto r = run_algorithm(cfg);
  ASSERT_TRUE(r.all_decided);
  EXPECT_EQ(r.stable_round_messages, 6 * 5) << "LM-3 broadcasts: n(n-1)";
  EXPECT_GT(r.total_messages, r.stable_round_messages);
}

TEST(AlgorithmRuns, WlmVsLm3MessageComplexityContrast) {
  // The paper's core message-complexity claim, measured: Algorithm 2
  // sends 2(n-1) stable-state messages/round, the <>LM algorithm n(n-1).
  for (int n : {4, 8, 16, 32}) {
    AlgorithmRunConfig wlm;
    wlm.kind = AlgorithmKind::kWlm;
    wlm.schedule.n = n;
    wlm.schedule.model = TimingModel::kWlm;
    wlm.schedule.leader = 0;
    wlm.schedule.gsr = 4;
    wlm.schedule.seed = n;
    wlm.oracle_stable_from = 0;
    for (int i = 0; i < n; ++i) wlm.proposals.push_back(i + 1);
    const auto rw = run_algorithm(wlm);
    ASSERT_TRUE(rw.all_decided);
    EXPECT_EQ(rw.stable_round_messages, 2 * (n - 1));

    AlgorithmRunConfig lm = wlm;
    lm.kind = AlgorithmKind::kLm3;
    lm.schedule.model = TimingModel::kLm;
    const auto rl = run_algorithm(lm);
    ASSERT_TRUE(rl.all_decided);
    EXPECT_EQ(rl.stable_round_messages, static_cast<long long>(n) * (n - 1));
  }
}

TEST(Streaming, WindowTrackerMatchesDecisionStatsBitForBit) {
  // The incremental tracker must reproduce decision_stats (vector path)
  // exactly: same start points, same resolution rounds, same censoring,
  // same floating-point sums.
  Rng bits_rng(0x7777ULL);
  for (int rep = 0; rep < 20; ++rep) {
    const int len = 40 + static_cast<int>(bits_rng.uniform_int(80));
    const int needed = 2 + static_cast<int>(bits_rng.uniform_int(5));
    const double density = 0.3 + 0.6 * rep / 20.0;
    std::vector<std::uint8_t> sat(static_cast<std::size_t>(len));
    for (auto& b : sat) b = bits_rng.bernoulli(density) ? 1 : 0;

    // Same sub-stream for both paths -> same start points.
    Rng rng_vec = substream(99, static_cast<std::uint64_t>(rep));
    Rng rng_stream = substream(99, static_cast<std::uint64_t>(rep));
    const int start_points = 15;
    const DecisionStats want =
        decision_stats(sat, needed, start_points, rng_vec);

    std::vector<int> starts(static_cast<std::size_t>(start_points));
    for (int s = 0; s < start_points; ++s) {
      starts[static_cast<std::size_t>(s)] = static_cast<int>(
          rng_stream.uniform_int(
              static_cast<std::uint64_t>(std::max(1, len / 2))));
    }
    ConsecutiveWindowTracker tracker(needed, std::move(starts), len);
    long long sat_count = 0;
    for (const auto b : sat) {
      tracker.observe(b != 0);
      sat_count += b ? 1 : 0;
    }
    const DecisionStats got = tracker.finalize();
    EXPECT_EQ(got.mean_rounds, want.mean_rounds) << "rep=" << rep;
    EXPECT_EQ(got.censored_fraction, want.censored_fraction);
    EXPECT_EQ(tracker.satisfied_rounds(), sat_count);
  }

  // The batched form: `lanes` lanes over one start draw, fed a step
  // function per round (lane j satisfied iff j >= first, first anywhere in
  // [0, lanes]). Each lane must match decision_stats over its own bits.
  for (int rep = 0; rep < 20; ++rep) {
    const int lanes = 1 + rep % 6;
    const int len = 40 + static_cast<int>(bits_rng.uniform_int(80));
    const int needed = 1 + static_cast<int>(bits_rng.uniform_int(5));
    std::vector<int> first(static_cast<std::size_t>(len));
    for (auto& f : first) {
      f = static_cast<int>(
          bits_rng.uniform_int(static_cast<std::uint64_t>(lanes) + 1));
    }
    const int start_points = 15;
    std::vector<int> starts(static_cast<std::size_t>(start_points));
    Rng rng_stream = substream(98, static_cast<std::uint64_t>(rep));
    for (auto& s : starts) {
      s = static_cast<int>(rng_stream.uniform_int(
          static_cast<std::uint64_t>(std::max(1, len / 2))));
    }
    ConsecutiveWindowTracker tracker(needed, std::move(starts), len, lanes);
    ASSERT_EQ(tracker.lanes(), lanes);
    for (const int f : first) tracker.observe_from(f);
    for (int lane = 0; lane < lanes; ++lane) {
      SCOPED_TRACE(::testing::Message() << "rep=" << rep << " lane=" << lane);
      std::vector<std::uint8_t> sat(static_cast<std::size_t>(len));
      long long sat_count = 0;
      for (int i = 0; i < len; ++i) {
        sat[static_cast<std::size_t>(i)] =
            lane >= first[static_cast<std::size_t>(i)] ? 1 : 0;
        sat_count += sat[static_cast<std::size_t>(i)];
      }
      Rng rng_vec = substream(98, static_cast<std::uint64_t>(rep));
      const DecisionStats want =
          decision_stats(sat, needed, start_points, rng_vec);
      const DecisionStats got = tracker.finalize(lane);
      EXPECT_EQ(got.mean_rounds, want.mean_rounds);
      EXPECT_EQ(got.censored_fraction, want.censored_fraction);
      EXPECT_EQ(tracker.satisfied_rounds(lane), sat_count);
    }
  }
}

TEST(Streaming, MeasureRunStreamingMatchesVectorPipeline) {
  // One (timeout, run) trial both ways: classic measure_run + incidence +
  // decision_stats vs the packed streaming path, same sampler sub-stream,
  // same start_rng. Everything must agree bit-for-bit — this is the
  // invariant that lets run_experiment use the fast path while keeping
  // the figure outputs byte-identical.
  const int n = 8;
  const int rounds = 120;
  const int start_points = 15;
  const std::array<int, kNumModels> needed = {3, 3, 4, 5};
  const ProcessId leader = 2;

  IidTimelinessSampler vec_sampler(n, 0.9, 0xfeedfaceULL);
  RunMeasurement m = measure_run(vec_sampler, rounds, leader);
  Rng vec_rng = substream(7, 3);
  std::array<double, kNumModels> want_rounds{};
  std::array<double, kNumModels> want_censored{};
  for (TimingModel tm : kAllModels) {
    const auto idx = static_cast<std::size_t>(model_index(tm));
    const DecisionStats ds =
        decision_stats(m.sat[idx], needed[idx], start_points, vec_rng);
    want_rounds[idx] = ds.mean_rounds;
    want_censored[idx] = ds.censored_fraction;
  }

  IidTimelinessSampler stream_sampler(n, 0.9, 0xfeedfaceULL);
  Rng stream_rng = substream(7, 3);
  const StreamedRun s = measure_run_streaming(
      stream_sampler, rounds, leader, needed, start_points, stream_rng);

  EXPECT_EQ(s.messages_total, m.messages_total);
  EXPECT_EQ(s.messages_timely, m.messages_timely);
  EXPECT_EQ(s.messages_late, m.messages_late);
  EXPECT_EQ(s.messages_lost, m.messages_lost);
  EXPECT_EQ(s.timely_fraction(), m.timely_fraction());
  for (TimingModel tm : kAllModels) {
    const auto idx = static_cast<std::size_t>(model_index(tm));
    EXPECT_EQ(s.pm[idx], m.incidence(tm)) << to_string(tm);
    EXPECT_EQ(s.mean_rounds[idx], want_rounds[idx]) << to_string(tm);
    EXPECT_EQ(s.censored[idx], want_censored[idx]) << to_string(tm);
  }
}

/// Exact bit equality (EXPECT_EQ on doubles identifies -0.0 with +0.0).
::testing::AssertionResult bits_equal(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  if (ba == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ in bits";
}

void expect_same_run(const GranularStreamedRun& got,
                     const GranularStreamedRun& want) {
  EXPECT_EQ(got.base.messages_total, want.base.messages_total);
  EXPECT_EQ(got.base.messages_timely, want.base.messages_timely);
  EXPECT_EQ(got.base.messages_late, want.base.messages_late);
  EXPECT_EQ(got.base.messages_lost, want.base.messages_lost);
  for (std::size_t i = 0; i < kNumModels; ++i) {
    EXPECT_TRUE(bits_equal(got.base.pm[i], want.base.pm[i])) << "model " << i;
    EXPECT_TRUE(bits_equal(got.base.mean_rounds[i], want.base.mean_rounds[i]))
        << "model " << i;
    EXPECT_TRUE(bits_equal(got.base.censored[i], want.base.censored[i]))
        << "model " << i;
  }
  for (std::size_t c = 0; c < kNumLinkModelClasses; ++c) {
    EXPECT_TRUE(bits_equal(got.class_pm[c], want.class_pm[c])) << "class " << c;
  }
}

std::unique_ptr<LatencyModel> testbed_model(Testbed testbed,
                                            std::uint64_t seed) {
  if (testbed == Testbed::kLan) {
    return std::make_unique<LanLatencyModel>(LanProfile{}, seed);
  }
  return std::make_unique<WanLatencyModel>(WanProfile{}, seed);
}

/// Latencies on a 10 ms grid, lost (infinite or NaN) on a few links, so
/// that some land exactly on a timeout.
class GridLatencyModel final : public LatencyModel {
 public:
  int n() const noexcept override { return 5; }
  void begin_round(Round k) override { round_ = k; }
  double sample_ms(ProcessId src, ProcessId dst) override {
    const int cell = src + 2 * dst + round_;
    if (cell % 11 == 0) return std::numeric_limits<double>::infinity();
    if (cell % 13 == 0) return std::numeric_limits<double>::quiet_NaN();
    return 10.0 * (1 + cell % 7);
  }

 private:
  Round round_ = 0;
};

/// Run length, start points and decision windows of a tested sweep.
struct SweepShape {
  int rounds = 90;
  int start_points = 7;
  std::array<int, kNumModels> needed{3, 3, 4, 5};
};

/// The oracle of measure_run_sweep: one streamed run per timeout, each
/// over a fresh LatencyTimelinessSampler on a fresh model and a fresh
/// start stream from the same sub-streams.
std::vector<GranularStreamedRun> streamed_per_timeout(
    const std::function<std::unique_ptr<LatencyModel>()>& make_model,
    const std::vector<double>& timeouts_ms, ProcessId leader,
    const GranularContext* g, std::uint64_t run,
    const SweepShape& shape = {}) {
  std::vector<GranularStreamedRun> out;
  for (const double t : timeouts_ms) {
    auto model = make_model();
    LatencyTimelinessSampler sampler(*model, t);
    Rng start_rng = substream(23, run);
    GranularStreamedRun want;
    if (g != nullptr) {
      want = measure_run_streaming_granular(sampler, shape.rounds, leader,
                                            shape.needed, shape.start_points,
                                            start_rng, *g);
    } else {
      want.base = measure_run_streaming(sampler, shape.rounds, leader,
                                        shape.needed, shape.start_points,
                                        start_rng);
    }
    out.push_back(want);
  }
  return out;
}

std::vector<GranularStreamedRun> swept(
    const std::function<std::unique_ptr<LatencyModel>()>& make_model,
    const std::vector<double>& timeouts_ms, ProcessId leader,
    const GranularContext* g, std::uint64_t run,
    const SweepShape& shape = {}) {
  auto model = make_model();
  Rng start_rng = substream(23, run);
  auto out =
      measure_run_sweep(*model, timeouts_ms, shape.rounds, leader,
                        shape.needed, shape.start_points, start_rng, g);
  // The start points are drawn once, not once per timeout.
  Rng once = substream(23, run);
  for (int i = 0; i < kNumModels * shape.start_points; ++i) {
    (void)once.uniform_int(static_cast<std::uint64_t>(shape.rounds / 2));
  }
  EXPECT_EQ(start_rng.next(), once.next());
  return out;
}

TEST(Experiments, SweepMatchesPerTimeoutStreaming) {
  // measure_run_sweep against its oracle, for the homogeneous and the
  // granular predicates on both testbeds. Every field must agree bit for
  // bit. The timeouts come unsorted and duplicated and include one below
  // every latency (all late on the LAN, 0.01 ms) and one so small that
  // floor(ms / t) > 64 turns late messages into lost ones (WAN, 1 ms).
  LinkModelMatrix mix;
  ASSERT_EQ(parse_link_models("psync:0->*,3->5;async:2->1,6->4,7->0", 8, mix),
            "");
  const GranularContext mixed{mix};

  struct Case {
    Testbed testbed;
    ProcessId leader;
    std::vector<double> timeouts_ms;
    double all_late_ms;  ///< below every latency, still within 64 rounds
    double all_lost_ms;  ///< >64 rounds below many latencies
  };
  const std::vector<Case> cases{
      {Testbed::kLan, 0, {0.2, 0.01, 0.1, 0.2, 0.07, 0.0004}, 0.01, 0.0004},
      {Testbed::kWan, WanLatencyModel::kUk, {300, 1, 160, 300, 5, 140}, 5, 1},
  };
  for (const Case& c : cases) {
    for (const GranularContext* g : {static_cast<const GranularContext*>(
                                         nullptr),
                                     &mixed}) {
      for (std::uint64_t run : {0, 1}) {
        SCOPED_TRACE(::testing::Message()
                     << (c.testbed == Testbed::kLan ? "LAN" : "WAN")
                     << (g ? " granular" : " homogeneous") << " run " << run);
        const auto make = [&] {
          return testbed_model(c.testbed, substream_seed(11, run));
        };
        const auto got = swept(make, c.timeouts_ms, c.leader, g, run);
        const auto want =
            streamed_per_timeout(make, c.timeouts_ms, c.leader, g, run);
        ASSERT_EQ(got.size(), c.timeouts_ms.size());
        for (std::size_t ti = 0; ti < c.timeouts_ms.size(); ++ti) {
          const double t = c.timeouts_ms[ti];
          SCOPED_TRACE(::testing::Message() << "timeout " << t);
          expect_same_run(got[ti], want[ti]);
          const StreamedRun& r = got[ti].base;
          if (t == c.all_late_ms) {
            EXPECT_EQ(r.messages_timely, 0);
            EXPECT_GT(r.messages_late, 0);
          }
          if (t == c.all_lost_ms) {
            // Only the real losses are lost at the larger timeouts.
            EXPECT_EQ(r.messages_timely, 0);
            EXPECT_GT(r.messages_lost, r.messages_total / 4);
          }
        }
      }
    }
  }
}

TEST(Experiments, SweepClassifiesBoundaryLatenciesLikeTheSampler) {
  // Latencies exactly on a timeout are timely; infinite and NaN ones are
  // lost, as are those more than 64 rounds late (0.5 ms).
  const std::vector<double> timeouts{20, 40, 0.5, 20, 70};
  const auto make = [] { return std::make_unique<GridLatencyModel>(); };
  const auto got = swept(make, timeouts, 1, nullptr, 0);
  const auto want = streamed_per_timeout(make, timeouts, 1, nullptr, 0);
  ASSERT_EQ(got.size(), timeouts.size());
  for (std::size_t ti = 0; ti < timeouts.size(); ++ti) {
    SCOPED_TRACE(::testing::Message() << "timeout " << timeouts[ti]);
    expect_same_run(got[ti], want[ti]);
    EXPECT_GT(got[ti].base.messages_lost, 0);
  }
  EXPECT_GT(got[0].base.messages_timely, 0);
  EXPECT_GT(got[0].base.messages_late, 0);
}

/// Latencies from a seeded stream, built to hit every branch of the
/// sweep's rank and lost-prefix logic: finite values around the timeouts,
/// values exactly on a timeout, values 64 and 65 timeouts out (the edge of
/// "lost"), far beyond 64 rounds of any timeout, and infinite or NaN ones.
class GeneratedLatencyModel final : public LatencyModel {
 public:
  GeneratedLatencyModel(int n, std::uint64_t seed,
                        std::vector<double> timeouts_ms)
      : n_(n), rng_(seed), timeouts_(std::move(timeouts_ms)) {
    for (const double t : timeouts_) max_t_ = std::max(max_t_, t);
  }

  int n() const noexcept override { return n_; }
  void begin_round(Round) override {}
  double sample_ms(ProcessId, ProcessId) override {
    const double t = timeouts_[static_cast<std::size_t>(
        rng_.uniform_int(timeouts_.size()))];
    const std::uint64_t kind = rng_.uniform_int(100);
    if (kind < 3) return std::numeric_limits<double>::infinity();
    if (kind < 5) return std::numeric_limits<double>::quiet_NaN();
    if (kind < 15) return t;
    if (kind < 18) return 64.0 * t;
    if (kind < 21) return 65.0 * t;
    if (kind < 24) return std::nextafter(65.0 * t, 0.0);
    if (kind < 27) return max_t_ * (66.0 + rng_.uniform(0.0, 1000.0));
    if (kind < 35) return t * rng_.uniform(1.0, 80.0);
    return rng_.uniform(0.0, 1.5 * max_t_);
  }

 private:
  int n_;
  Rng rng_;
  std::vector<double> timeouts_;
  double max_t_ = 0.0;
};

TEST(Experiments, SweepMatchesOracleOnGeneratedSweeps) {
  // measure_run_sweep against streamed_per_timeout over generated cases:
  // group sizes on both sides of the 64-bit row word, 1-16 timeouts in
  // any order with duplicates (some tiny, so late cells turn lost), and
  // the homogeneous or the granular predicates over a random link-model
  // matrix. Every field must agree bit for bit.
  constexpr std::array<int, 5> kSizes{3, 8, 64, 65, 130};
  Rng gen(0x5eed5eedULL);
  int cases = 0;
  for (int rep = 0; rep < 250; ++rep) {
    const int n = kSizes[static_cast<std::size_t>(rep) % kSizes.size()];
    // Keep each case to a few million cell draws.
    const int max_timeouts = n > 64 ? 6 : 16;
    const int num_t =
        1 + static_cast<int>(gen.uniform_int(
                static_cast<std::uint64_t>(max_timeouts)));
    std::vector<double> timeouts;
    for (int i = 0; i < num_t; ++i) {
      if (i > 0 && gen.bernoulli(0.2)) {
        timeouts.push_back(timeouts[static_cast<std::size_t>(
            gen.uniform_int(static_cast<std::uint64_t>(i)))]);
      } else if (gen.bernoulli(0.15)) {
        timeouts.push_back(gen.uniform(0.001, 0.05));
      } else {
        timeouts.push_back(gen.uniform(1.0, 400.0));
      }
    }
    SweepShape shape;
    shape.rounds = n > 64 ? 6 + static_cast<int>(gen.uniform_int(4))
                          : 8 + static_cast<int>(gen.uniform_int(40));
    shape.start_points = 1 + static_cast<int>(gen.uniform_int(9));
    for (auto& w : shape.needed) {
      w = 1 + static_cast<int>(gen.uniform_int(
                  static_cast<std::uint64_t>(std::min(5, shape.rounds - 1))));
    }
    const auto leader = static_cast<ProcessId>(
        gen.uniform_int(static_cast<std::uint64_t>(n)));
    std::unique_ptr<GranularContext> g;
    if (gen.bernoulli(0.5)) {
      const double async_frac = gen.uniform();
      g = std::make_unique<GranularContext>(LinkModelMatrix::mixed(
          n, async_frac, gen.uniform() * (1.0 - async_frac), gen.next()));
    }
    const std::uint64_t model_seed = gen.next();
    const auto run = static_cast<std::uint64_t>(rep);
    const auto make = [&] {
      return std::make_unique<GeneratedLatencyModel>(n, model_seed, timeouts);
    };

    SCOPED_TRACE(::testing::Message()
                 << "rep " << rep << " n=" << n << " timeouts=" << num_t
                 << " rounds=" << shape.rounds
                 << (g ? " granular" : " homogeneous"));
    const auto got = swept(make, timeouts, leader, g.get(), run, shape);
    const auto want =
        streamed_per_timeout(make, timeouts, leader, g.get(), run, shape);
    ASSERT_EQ(got.size(), timeouts.size());
    for (std::size_t ti = 0; ti < timeouts.size(); ++ti) {
      SCOPED_TRACE(::testing::Message() << "timeout " << timeouts[ti]);
      expect_same_run(got[ti], want[ti]);
    }
    if (::testing::Test::HasFailure()) break;
    ++cases;
  }
  EXPECT_GE(cases, 200);
}

}  // namespace
}  // namespace timing
