// Calibration tests: the simulated LAN and WAN testbeds must stay pinned
// to the paper's published anchor points (within tolerances). These are
// the guardrails that keep the Figure 1(c)-(i) benches honest - if a
// latency-model change drifts the curves away from the paper, this suite
// fails.
//
// Anchors (from the paper's text):
//  LAN (Section 5.2): p = 0.7 @ 0.1 ms; p ~ 0.976 @ 0.2 ms; ES measured
//    above its IID prediction (loss clusters); AFM/LM below theirs (slow
//    node); more rounds satisfy <>AFM than <>LM; a good-leader <>WLM
//    beats everything.
//  WAN (Section 5.3): p ~ 0.88 @ 160 ms, ~0.90 @ 170 ms, ~0.95 @ 200 ms,
//    ~0.96 @ 210 ms; at 160 ms P_ES ~ 0, P_AFM ~ 0.4, P_LM ~ 0.79,
//    P_WLM ~ 0.94; <>LM has high run-to-run variance at short timeouts;
//    <>AFM catches up only past ~230 ms; the <>WLM time-vs-timeout curve
//    is convex with its optimum near 160-170 ms (~730 ms) and <>LM's near
//    200-210 ms, within ~100 ms of each other.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/equations.hpp"
#include "harness/experiments.hpp"
#include "oracles/omega.hpp"
#include "models/timing_model.hpp"

namespace timing {
namespace {

class WanCalibration : public ::testing::Test {
 protected:
  static const std::vector<TimeoutResult>& results() {
    static const std::vector<TimeoutResult> r = [] {
      ExperimentConfig cfg;
      cfg.testbed = Testbed::kWan;
      cfg.timeouts_ms = {140, 160, 170, 200, 210, 230, 300, 350};
      cfg.runs = 33;
      cfg.rounds_per_run = 300;
      cfg.seed = 42;
      return run_experiment(cfg);
    }();
    return r;
  }
  static const TimeoutResult& at(double timeout) {
    for (const auto& r : results()) {
      if (r.timeout_ms == timeout) return r;
    }
    ADD_FAILURE() << "timeout " << timeout << " not in sweep";
    return results().front();
  }
  static double pm(const TimeoutResult& r, TimingModel m) {
    return r.models[static_cast<std::size_t>(model_index(m))].mean_pm;
  }
};

TEST_F(WanCalibration, TimeoutToPAnchors) {
  EXPECT_NEAR(at(160).mean_p, 0.88, 0.02);
  EXPECT_NEAR(at(170).mean_p, 0.90, 0.02);
  EXPECT_NEAR(at(200).mean_p, 0.95, 0.02);
  EXPECT_NEAR(at(210).mean_p, 0.96, 0.02);
  // "up to 99% ... assuring 100% is unrealistic": the ceiling.
  EXPECT_GE(at(350).mean_p, 0.985);
  EXPECT_LT(at(350).mean_p, 0.9999);
}

TEST_F(WanCalibration, PIsMonotoneInTimeout) {
  double prev = 0.0;
  for (const auto& r : results()) {
    EXPECT_GE(r.mean_p + 1e-9, prev) << "at timeout " << r.timeout_ms;
    prev = r.mean_p;
  }
}

TEST_F(WanCalibration, ModelIncidencesAt160) {
  const auto& r = at(160);
  EXPECT_LT(pm(r, TimingModel::kEs), 0.03) << "P_ES ~ 0";
  EXPECT_NEAR(pm(r, TimingModel::kAfm), 0.40, 0.08);
  EXPECT_NEAR(pm(r, TimingModel::kLm), 0.79, 0.06);
  EXPECT_NEAR(pm(r, TimingModel::kWlm), 0.94, 0.03);
}

TEST_F(WanCalibration, WlmEasiestEverywhere) {
  for (const auto& r : results()) {
    EXPECT_GE(pm(r, TimingModel::kWlm) + 1e-9, pm(r, TimingModel::kLm))
        << "timeout " << r.timeout_ms;
    EXPECT_GE(pm(r, TimingModel::kLm) + 0.02, pm(r, TimingModel::kEs))
        << "timeout " << r.timeout_ms;
  }
}

TEST_F(WanCalibration, EsRareBelow200ms) {
  for (double t : {140.0, 160.0, 170.0}) {
    EXPECT_LT(pm(at(t), TimingModel::kEs), 0.03) << t;
  }
}

TEST_F(WanCalibration, LmHighVarianceAtShortTimeouts) {
  // Figure 1(f): at 160 ms <>LM swings between runs (Poland), while
  // <>AFM is consistently low and <>WLM consistently high.
  const auto& r = at(160);
  const auto& lm = r.models[model_index(TimingModel::kLm)];
  const auto& afm = r.models[model_index(TimingModel::kAfm)];
  const auto& wlm = r.models[model_index(TimingModel::kWlm)];
  EXPECT_GT(lm.var_pm, 0.02) << "LM variance must be large at 160 ms";
  EXPECT_GT(lm.var_pm, 2.0 * afm.var_pm);
  EXPECT_GT(lm.var_pm, 4.0 * wlm.var_pm);
  // For long timeouts LM variance collapses...
  EXPECT_LT(at(300).models[model_index(TimingModel::kLm)].var_pm, 0.005);
  // ...while ES variance grows (Figure 1(e): growing CIs).
  EXPECT_GT(at(300).models[model_index(TimingModel::kEs)].var_pm,
            at(160).models[model_index(TimingModel::kEs)].var_pm);
}

TEST_F(WanCalibration, AfmCatchesUpPast230ms) {
  EXPECT_LT(pm(at(160), TimingModel::kAfm), 0.55);
  EXPECT_GT(pm(at(230), TimingModel::kAfm), 0.90);
  // Below 230 ms AFM needs more rounds than LM and WLM (Figure 1(g)).
  for (double t : {160.0, 170.0, 200.0}) {
    const auto& r = at(t);
    EXPECT_GT(r.models[model_index(TimingModel::kAfm)].mean_rounds,
              r.models[model_index(TimingModel::kLm)].mean_rounds)
        << t;
    EXPECT_GT(r.models[model_index(TimingModel::kAfm)].mean_rounds,
              r.models[model_index(TimingModel::kWlm)].mean_rounds)
        << t;
  }
}

TEST_F(WanCalibration, TimeoutTradeoffConvexWithPaperOptima) {
  // Figure 1(i): <>WLM's best time sits at a SHORTER timeout than <>LM's,
  // both curves are convex (ends above the middle), and the two optima
  // are within ~150 ms of each other, <>WLM's within [600, 900] ms
  // (paper: ~730 ms).
  const auto& rs = results();
  auto best = [&](TimingModel m) {
    double best_t = 0.0, best_v = 1e18;
    for (const auto& r : rs) {
      const double v = r.models[model_index(m)].mean_time_ms;
      if (v < best_v) {
        best_v = v;
        best_t = r.timeout_ms;
      }
    }
    return std::pair{best_t, best_v};
  };
  const auto [wlm_t, wlm_v] = best(TimingModel::kWlm);
  const auto [lm_t, lm_v] = best(TimingModel::kLm);
  EXPECT_LE(wlm_t, 180.0) << "<>WLM optimum near 160-170 ms";
  EXPECT_GE(wlm_t, 140.0);
  EXPECT_GE(lm_t, 180.0) << "<>LM optimum near 200-210 ms";
  EXPECT_LE(lm_t, 260.0);
  EXPECT_NEAR(wlm_v, 730.0, 120.0);
  EXPECT_LT(wlm_v - lm_v, 150.0)
      << "paper: using <>WLM costs only ~80 ms over <>LM at their optima";
  EXPECT_GT(wlm_v - lm_v, 0.0)
      << "<>LM at its optimum is slightly faster (but quadratic messages)";
  // Convexity of the <>WLM curve: both sweep ends exceed the optimum.
  EXPECT_GT(rs.front().models[model_index(TimingModel::kWlm)].mean_time_ms,
            wlm_v);
  EXPECT_GT(rs.back().models[model_index(TimingModel::kWlm)].mean_time_ms,
            wlm_v);
}

TEST_F(WanCalibration, WlmAround4p5RoundsAt180ms) {
  // Section 5.3: "if we set our timeout to 180ms ... the number of rounds
  // will be very small (4.5 rounds on average) ... about 800ms".
  ExperimentConfig cfg;
  cfg.testbed = Testbed::kWan;
  cfg.timeouts_ms = {180};
  cfg.runs = 33;
  cfg.rounds_per_run = 300;
  cfg.seed = 42;
  const auto rs = run_experiment(cfg);
  const auto& wlm = rs[0].models[model_index(TimingModel::kWlm)];
  EXPECT_NEAR(wlm.mean_rounds, 4.5, 0.8);
  EXPECT_NEAR(wlm.mean_time_ms, 800.0, 150.0);
}

// --------------------------------------------------------------- LAN --

class LanCalibration : public ::testing::Test {
 protected:
  static const std::vector<TimeoutResult>& results() {
    static const std::vector<TimeoutResult> r = [] {
      ExperimentConfig cfg;
      cfg.testbed = Testbed::kLan;
      cfg.timeouts_ms = {0.1, 0.2, 0.35, 0.5, 0.9, 1.6};
      cfg.runs = 25;
      cfg.rounds_per_run = 300;
      cfg.seed = 7;
      return run_experiment(cfg);
    }();
    return r;
  }
  static const TimeoutResult& at(double timeout) {
    for (const auto& r : results()) {
      if (r.timeout_ms == timeout) return r;
    }
    ADD_FAILURE() << "timeout " << timeout << " not in sweep";
    return results().front();
  }
};

TEST_F(LanCalibration, TimeoutToPAnchors) {
  // Section 5.2: "for a timeout of 0.1ms we measured p = 0.7, for a
  // timeout of 0.2ms it was already p = 0.976".
  EXPECT_NEAR(at(0.1).mean_p, 0.70, 0.04);
  EXPECT_NEAR(at(0.2).mean_p, 0.976, 0.012);
}

TEST_F(LanCalibration, EsBeatsItsIidPrediction) {
  // "Although still worse than the other models, ES is better in practice
  // than what was predicted" - because late messages cluster.
  const auto& r = at(0.35);
  const double predicted = analysis::p_es(8, r.mean_p);
  const double measured = r.models[model_index(TimingModel::kEs)].mean_pm;
  EXPECT_GT(measured, predicted * 1.5);
  // And still the worst model in practice.
  EXPECT_LT(measured, r.models[model_index(TimingModel::kAfm)].mean_pm);
  EXPECT_LT(measured, r.models[model_index(TimingModel::kWlm)].mean_pm);
}

TEST_F(LanCalibration, AfmAndLmUndershootIidPrediction) {
  // "AFM is worse in reality than was predicted, since it is sensitive to
  // a poor performance of any single node" (the occasionally-slow node).
  const auto& r = at(0.35);
  EXPECT_LT(r.models[model_index(TimingModel::kAfm)].mean_pm,
            analysis::p_afm(8, r.mean_p));
  EXPECT_LT(r.models[model_index(TimingModel::kLm)].mean_pm + 0.02,
            analysis::p_afm(8, r.mean_p));
}

TEST_F(LanCalibration, MoreRoundsSatisfyAfmThanLm) {
  // "...which explains why there are more rounds satisfying <>AFM than
  // <>LM" (<>LM additionally needs the leader column). At the extreme
  // 0.1 ms timeout all incidences collapse and the well-connected leader
  // column briefly favours <>LM, so the claim is checked from 0.2 ms up,
  // the operating range of the paper's LAN experiment.
  for (const auto& r : results()) {
    if (r.timeout_ms < 0.2) continue;
    EXPECT_GE(r.models[model_index(TimingModel::kAfm)].mean_pm + 0.01,
              r.models[model_index(TimingModel::kLm)].mean_pm)
        << "timeout " << r.timeout_ms;
  }
}

TEST_F(LanCalibration, GoodLeaderWlmDominates) {
  // "<>WLM performs much better than all other models" with the
  // well-connected leader, especially at short timeouts.
  for (double t : {0.1, 0.2, 0.35}) {
    const auto& r = at(t);
    EXPECT_GE(r.models[model_index(TimingModel::kWlm)].mean_pm + 1e-9,
              r.models[model_index(TimingModel::kLm)].mean_pm)
        << t;
    EXPECT_GT(r.models[model_index(TimingModel::kWlm)].mean_pm,
              r.models[model_index(TimingModel::kEs)].mean_pm)
        << t;
  }
  EXPECT_GT(at(0.1).models[model_index(TimingModel::kWlm)].mean_pm,
            2.0 * at(0.1).models[model_index(TimingModel::kAfm)].mean_pm);
}

TEST_F(LanCalibration, AverageLeaderNeedsBiggerTimeouts) {
  // Section 5.2: with "a less optimal leader, whose links have average
  // timeliness ... much bigger timeouts are needed", in particular bigger
  // than <>AFM needs. We compare the timeout at which each configuration
  // reaches P = 0.95.
  ExperimentConfig avg;
  avg.testbed = Testbed::kLan;
  avg.timeouts_ms = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0, 1.3, 1.6};
  avg.runs = 25;
  avg.rounds_per_run = 300;
  avg.seed = 7;
  avg.leader = pick_average_leader(expected_rtt_matrix(avg));
  // The LAN's default leader: resolve_leader reads only the testbed
  // (its profile) and the unset leader.
  ExperimentConfig lan_default;
  lan_default.testbed = Testbed::kLan;
  ASSERT_NE(avg.leader, resolve_leader(lan_default));
  const auto avg_rs = run_experiment(avg);

  auto first_reaching = [](const std::vector<TimeoutResult>& rs,
                           TimingModel m, double level) {
    for (const auto& r : rs) {
      if (r.models[model_index(m)].mean_pm >= level) return r.timeout_ms;
    }
    return 1e9;
  };
  // The good-leader sweep on the same fine grid for a fair comparison.
  ExperimentConfig good = avg;
  good.leader = kNoProcess;
  const auto good_rs = run_experiment(good);
  const double good_wlm = first_reaching(good_rs, TimingModel::kWlm, 0.97);
  const double avg_wlm = first_reaching(avg_rs, TimingModel::kWlm, 0.97);
  const double afm = first_reaching(good_rs, TimingModel::kAfm, 0.97);
  EXPECT_LT(good_wlm, afm + 1e-9)
      << "good-leader <>WLM reaches 0.97 no later than <>AFM";
  EXPECT_GT(avg_wlm, good_wlm) << "an average leader needs bigger timeouts";
}

}  // namespace
}  // namespace timing
