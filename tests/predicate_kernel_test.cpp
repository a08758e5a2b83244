// Differential tests for the packed predicate kernels and the packed
// sampling path: the bit-plane implementations must agree bit-for-bit
// with the scalar LinkMatrix oracles on randomized failure-free matrices
// for every n in 1..65 (crossing the one-word/two-word row boundary),
// both must be monotone in the matrix (the scalar path under random
// crash masks too), and the packed samplers must reproduce the exact
// matrices, masks and fate counts of the scalar sample_round for the
// same RNG sub-stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "matrix_generators.hpp"
#include "models/predicates.hpp"
#include "models/schedule.hpp"
#include "sim/link_matrix.hpp"
#include "sim/packed_eval.hpp"
#include "sim/sampler.hpp"

namespace timing {
namespace {

void expect_same_matrix(const LinkMatrix& want, const PackedLinkMatrix& got) {
  ASSERT_EQ(want.n(), got.n());
  for (ProcessId d = 0; d < want.n(); ++d) {
    for (ProcessId s = 0; s < want.n(); ++s) {
      ASSERT_EQ(want.at(d, s), got.at(d, s))
          << "cell (" << d << ", " << s << ")";
    }
  }
}

TEST(PackedLinkMatrix, SetAtRoundTripAndTailInvariant) {
  for (const int n : {1, 5, 63, 64, 65}) {
    PackedLinkMatrix a(n);
    // Fresh all-timely matrix: tail bits beyond n must be zero.
    for (ProcessId d = 0; d < n; ++d) {
      for (int w = 0; w < a.words_per_row(); ++w) {
        EXPECT_EQ(a.row_words(d)[w] & ~a.word_mask(w), 0u);
      }
      EXPECT_EQ(a.timely_into(d), n);
    }
    a.set(0, n - 1, kLost);
    EXPECT_EQ(a.at(0, n - 1), kLost);
    EXPECT_FALSE(a.timely(0, n - 1));
    a.set(0, n - 1, 3);
    EXPECT_EQ(a.at(0, n - 1), 3);
    // Re-marking timely must win over the stale delay-plane entry.
    a.set(0, n - 1, 0);
    EXPECT_EQ(a.at(0, n - 1), 0);
    EXPECT_TRUE(a.timely(0, n - 1));
    EXPECT_EQ(a.timely_count(), static_cast<std::size_t>(n) * n);
  }
}

TEST(PackedLinkMatrix, AssignFromCopyToRoundTrip) {
  Rng rng(0x5eedULL);
  for (const int n : {1, 2, 64, 65}) {
    const LinkMatrix a = random_matrix(n, 0.7, rng);
    PackedLinkMatrix q(n);
    q.assign_from(a);
    expect_same_matrix(a, q);
    LinkMatrix back;
    q.copy_to(back);
    for (ProcessId d = 0; d < n; ++d) {
      for (ProcessId s = 0; s < n; ++s) {
        EXPECT_EQ(back.at(d, s), a.at(d, s));
      }
    }
    // Counts agree with the scalar oracles.
    for (ProcessId i = 0; i < n; ++i) {
      EXPECT_EQ(q.timely_into(i), a.timely_into(i));
      EXPECT_EQ(q.timely_out_of(i), a.timely_out_of(i));
    }
    EXPECT_DOUBLE_EQ(q.timely_fraction(), a.timely_fraction());
  }
}

TEST(PackedLinkMatrix, LargeNTimelyFractionDoesNotOverflow) {
  // n^2 = 2'147'488'281 > INT_MAX: the historical int division made this
  // UB/garbage. The bit plane holds 46341 x 725 words (~268 MB); the
  // delay plane (n^2 int16, ~4.3 GB) is never allocated: the one cleared
  // bit is cleared in the plane directly and its fate is never read.
  const int n = 46341;
  PackedLinkMatrix a(n);
  EXPECT_EQ(a.timely_count(), static_cast<std::size_t>(n) * n);
  EXPECT_DOUBLE_EQ(a.timely_fraction(), 1.0);
  a.mutable_row_words(0)[0] &= ~(1ULL << 1);  // link 1 -> 0 untimely
  const auto total = static_cast<double>(static_cast<std::size_t>(n) * n);
  EXPECT_DOUBLE_EQ(a.timely_fraction(), (total - 1.0) / total);
}

TEST(PredicateKernel, MatchesScalarForAllNAcrossWordBoundary) {
  Rng rng(0xd1ffULL);
  for (int n = 1; n <= 65; ++n) {
    for (const double p : {0.35, 0.8, 0.97}) {
      const LinkMatrix a = random_matrix(n, p, rng);
      PackedLinkMatrix q(n);
      q.assign_from(a);
      const auto leader =
          static_cast<ProcessId>(rng.uniform_int(static_cast<std::uint64_t>(n)));
      const std::uint8_t mask = evaluate_all(q, leader);
      for (TimingModel m : kAllModels) {
        EXPECT_EQ(satisfies(m, a, leader),
                  ((mask >> static_cast<int>(m)) & 1u) != 0)
            << "n=" << n << " p=" << p << " model=" << static_cast<int>(m);
      }
      EXPECT_EQ(evaluate_all(a, leader), mask) << "n=" << n << " p=" << p;
    }
  }
}

TEST(PredicateKernel, MakingALinkTimelyNeverClearsAModel) {
  // Property: every predicate is monotone in the matrix. Each step makes
  // one random untimely link timely; no bit of the scalar mask (under a
  // random crash mask) or of the packed mask may go from set to clear.
  Rng rng(0x3070ULL);
  int gained = 0;
  for (int n = 1; n <= 65; ++n) {
    for (int rep = 0; rep < 4; ++rep) {
      // Densities from the whole of [0, 1), so small groups visit the
      // states where a single link tips a quorum.
      const double p = rng.uniform();
      LinkMatrix a = random_matrix(n, p, rng);
      PackedLinkMatrix q(n);
      q.assign_from(a);
      CorrectMask correct(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) correct[i] = rng.bernoulli(0.8);
      const auto leader =
          static_cast<ProcessId>(rng.uniform_int(static_cast<std::uint64_t>(n)));
      std::uint8_t scalar = evaluate_all(a, leader, &correct);
      std::uint8_t packed = evaluate_all(q, leader);
      for (int step = 0; step < 16 && make_random_cell_timely(a, q, rng);
           ++step) {
        const std::uint8_t scalar_after = evaluate_all(a, leader, &correct);
        const std::uint8_t packed_after = evaluate_all(q, leader);
        EXPECT_EQ(scalar & ~scalar_after, 0) << "n=" << n << " p=" << p;
        EXPECT_EQ(packed & ~packed_after, 0) << "n=" << n << " p=" << p;
        gained += scalar_after != scalar || packed_after != packed;
        scalar = scalar_after;
        packed = packed_after;
      }
    }
  }
  // The walk must actually cross predicate thresholds to test anything.
  EXPECT_GT(gained, 0);
}

TEST(PredicateKernel, EvaluateAllEmitsSamePredicateEvent) {
  Rng rng(0xe4e2ULL);
  const LinkMatrix a = random_matrix(9, 0.8, rng);
  PackedLinkMatrix q(9);
  q.assign_from(a);
  BufferSink scalar_sink;
  BufferSink packed_sink;
  (void)evaluate_all(a, 2, nullptr, &scalar_sink, 7);
  (void)evaluate_all(q, 2, &packed_sink, 7);
  ASSERT_EQ(scalar_sink.events().size(), 1u);
  ASSERT_EQ(packed_sink.events().size(), 1u);
  EXPECT_TRUE(scalar_sink.events()[0] == packed_sink.events()[0]);
}

/// Group sizes around every row-word boundary the IID sampler assembles
/// in a register, and timely probabilities from never to always.
constexpr int kIidSizes[] = {2, 31, 32, 63, 64, 65, 127, 128, 129};
constexpr double kIidProbs[] = {0.0, 0.5, 0.9, 0.95, 1.0};
constexpr Round kIidRounds = 40;

/// Bits past n in the last word of every row must stay zero.
void expect_zero_tails(const PackedLinkMatrix& q) {
  const int last = q.words_per_row() - 1;
  for (ProcessId d = 0; d < q.n(); ++d) {
    ASSERT_EQ(q.row_words(d)[last] & ~q.word_mask(last), 0u) << "row " << d;
  }
}

/// Both samplers must leave their generators where the next round starts
/// the same draws, so each entry point consumes exactly the scalar draws.
void expect_same_next_draw(const IidTimelinessSampler& want,
                           const IidTimelinessSampler& got) {
  Rng a = want.rng();
  Rng b = got.rng();
  ASSERT_EQ(a.next(), b.next());
}

/// One Monte-Carlo round on the packed path (the sampled `q`, then
/// packed_evaluate_mask and tally_fates) must give evaluate_all of the
/// scalar matrix `a` and a scalar count of its off-diagonal fates.
void expect_packed_round_matches_scalar(const LinkMatrix& a,
                                        const PackedLinkMatrix& q,
                                        ProcessId leader,
                                        ColumnDeficits& cols) {
  FusedRoundEval e;
  e.mask = packed_evaluate_mask(q, leader, cols);
  tally_fates(q, e);
  EXPECT_EQ(e.mask, evaluate_all(a, leader));
  long long timely = 0, late = 0, lost = 0;
  for (ProcessId d = 0; d < a.n(); ++d) {
    for (ProcessId s = 0; s < a.n(); ++s) {
      if (s == d) continue;
      const Delay f = a.at(d, s);
      if (f == 0) ++timely;
      else if (f == kLost) ++lost;
      else ++late;
    }
  }
  EXPECT_EQ(e.timely, timely);
  EXPECT_EQ(e.late, late);
  EXPECT_EQ(e.lost, lost);
}

TEST(PackedSampler, IidPackedRoundReproducesScalarMatricesAndMask) {
  for (const int n : kIidSizes) {
    for (const double p : kIidProbs) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " p=" << p);
      IidTimelinessSampler scalar(n, p, 0x1234ULL);
      IidTimelinessSampler packed(n, p, 0x1234ULL);
      LinkMatrix a(n);
      PackedLinkMatrix q(n);
      ColumnDeficits cols;
      const ProcessId leader = n > 2 ? 2 : 0;
      for (Round k = 1; k <= kIidRounds; ++k) {
        SCOPED_TRACE(::testing::Message() << "k=" << k);
        scalar.sample_round(k, a);
        packed.sample_round(k, q);
        expect_same_matrix(a, q);
        expect_zero_tails(q);
        expect_same_next_draw(scalar, packed);
        expect_packed_round_matches_scalar(a, q, leader, cols);
      }
    }
  }
}

TEST(PackedSampler, LatencyPackedRoundReproducesScalarMatricesAndMask) {
  // WAN (fixed 8 sites) and a larger LAN group, each at a timeout that
  // leaves most messages timely and at one that makes them late; at
  // WAN t=1 floor(ms/t) > 64 makes messages lost.
  LanProfile lan;
  lan.n = 16;
  const std::pair<bool, double> cases[] = {
      {true, 1.0}, {true, 140.0}, {true, 170.0}, {false, 0.05}, {false, 170.0}};
  for (const auto& [is_wan, timeout] : cases) {
    SCOPED_TRACE(::testing::Message()
                 << (is_wan ? "WAN" : "LAN") << " timeout=" << timeout);
    const auto make_model = [&]() -> std::unique_ptr<LatencyModel> {
      if (is_wan) return std::make_unique<WanLatencyModel>(WanProfile{}, 77);
      return std::make_unique<LanLatencyModel>(lan, 78);
    };
    const auto scalar_model = make_model();
    const auto packed_model = make_model();
    const int n = scalar_model->n();
    LatencyTimelinessSampler scalar(*scalar_model, timeout);
    LatencyTimelinessSampler packed(*packed_model, timeout);
    LinkMatrix a(n);
    PackedLinkMatrix q(n);
    ColumnDeficits cols;
    for (Round k = 1; k <= 10; ++k) {
      SCOPED_TRACE(::testing::Message() << "k=" << k);
      scalar.sample_round(k, a);
      packed.sample_round(k, q);
      expect_same_matrix(a, q);
      expect_packed_round_matches_scalar(a, q, 0, cols);
    }
  }
}

TEST(PackedSampler, ScheduleSamplerPackedFallbackMatchesScalar) {
  ScheduleConfig cfg;
  cfg.n = 7;
  cfg.model = TimingModel::kWlm;
  cfg.gsr = 3;
  ScheduleSampler scalar(cfg);
  ScheduleSampler packed(cfg);
  LinkMatrix a(cfg.n);
  PackedLinkMatrix q(cfg.n);
  for (Round k = 1; k <= 8; ++k) {
    scalar.sample_round(k, a);
    packed.sample_round(k, q);  // base-class packed fallback
    expect_same_matrix(a, q);
  }
}

}  // namespace
}  // namespace timing
