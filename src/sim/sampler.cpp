#include "sim/sampler.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace timing {

void TimelinessSampler::sample_round(Round k, PackedLinkMatrix& out) {
  // Generic fallback: sample through the scalar path (identical RNG
  // consumption) and pack. The scratch is per-thread and reused, so pool
  // workers never allocate per round after their first.
  thread_local LinkMatrix scratch;
  if (scratch.n() != n()) scratch = LinkMatrix(n());
  sample_round(k, scratch);
  out.assign_from(scratch);
}

FusedRoundEval TimelinessSampler::sample_round_and_evaluate(
    Round k, ProcessId leader, PackedLinkMatrix& out, ColumnDeficits& cols) {
  sample_round(k, out);
  FusedRoundEval eval;
  eval.mask = packed_evaluate_mask(out, leader, cols);
  tally_fates(out, eval);
  return eval;
}

void tally_fates(const PackedLinkMatrix& a, FusedRoundEval& eval) {
  const int n = a.n();
  const int words = a.words_per_row();
  long long timely = 0;
  for (ProcessId dst = 0; dst < n; ++dst) {
    const std::uint64_t* row = a.row_words(dst);
    for (int w = 0; w < words; ++w) {
      timely += std::popcount(row[w]);
      std::uint64_t comp = ~row[w] & a.word_mask(w);
      while (comp != 0) {
        const ProcessId src = static_cast<ProcessId>(
            w * PackedLinkMatrix::kWordBits + std::countr_zero(comp));
        comp &= comp - 1;
        if (src == dst) continue;  // untimely self link: not a message
        if (a.at(dst, src) == kLost) {
          ++eval.lost;
        } else {
          ++eval.late;
        }
      }
    }
    // Self links are not messages; exclude the (normally set) self bit.
    if (a.timely(dst, dst)) --timely;
  }
  eval.timely += timely;
}

LatencyTimelinessSampler::LatencyTimelinessSampler(LatencyModel& model,
                                                   double timeout_ms,
                                                   int max_delay_rounds)
    : model_(model), timeout_ms_(timeout_ms),
      max_delay_rounds_(max_delay_rounds) {
  TM_CHECK(timeout_ms > 0.0, "timeout must be positive");
}

void LatencyTimelinessSampler::sample_round(Round k, LinkMatrix& out) {
  model_.begin_round(k);
  const int n = model_.n();
  for (ProcessId dst = 0; dst < n; ++dst) {
    for (ProcessId src = 0; src < n; ++src) {
      if (src == dst) {
        out.set(dst, src, 0);  // a process always "receives" its own message
        continue;
      }
      const double ms = model_.sample_ms(src, dst);
      if (sink_) sink_(src, dst, ms);
      out.set(dst, src, classify(ms));
    }
  }
}

void LatencyTimelinessSampler::sample_round(Round k, PackedLinkMatrix& out) {
  model_.begin_round(k);
  const int n = model_.n();
  for (ProcessId dst = 0; dst < n; ++dst) {
    std::uint64_t* row = out.mutable_row_words(dst);
    for (int w = 0; w < out.words_per_row(); ++w) row[w] = 0;
    for (ProcessId src = 0; src < n; ++src) {
      if (src == dst) {
        out.set_timely(dst, src);
        continue;
      }
      const double ms = model_.sample_ms(src, dst);
      if (sink_) sink_(src, dst, ms);
      const Delay d = classify(ms);
      if (d == 0) {
        out.set_timely(dst, src);
      } else {
        out.store_untimely(dst, src, d);
      }
    }
  }
}

IidTimelinessSampler::IidTimelinessSampler(int n, double p,
                                           std::uint64_t seed,
                                           double loss_share)
    : n_(n), rng_(seed) {
  TM_CHECK(n > 1, "IID sampler needs n > 1");
  TM_CHECK(p >= 0.0 && p <= 1.0, "p must be a probability");
  TM_CHECK(loss_share >= 0.0 && loss_share <= 1.0,
           "loss_share must be a probability");
  timely_ = BernoulliThreshold(p);
  lost_ = BernoulliThreshold(loss_share);
}

namespace {

/// Each further round of lateness is drawn with probability 0.4.
constexpr BernoulliThreshold kOneMoreRound{0.4};

/// One round's IID draw state, copied out of the sampler into a local so
/// that the matrix stores cannot alias it (see sampler.hpp) and it stays
/// in registers; the entry points write `rng` back.
struct IidDraws {
  Rng rng;
  BernoulliThreshold timely;
  BernoulliThreshold lost;

  bool timely_draw() noexcept { return rng.bernoulli(timely); }

  /// Late-or-lost fate, shared by both entry points (keeps the RNG
  /// consumption identical across them).
  Delay untimely_fate() noexcept {
    if (rng.bernoulli(lost)) return kLost;
    Delay d = 1;
    while (rng.bernoulli(kOneMoreRound) && d < 16) ++d;
    return d;
  }
};

}  // namespace

void IidTimelinessSampler::sample_round(Round, LinkMatrix& out) {
  IidDraws dr{rng_, timely_, lost_};
  for (ProcessId dst = 0; dst < n_; ++dst) {
    for (ProcessId src = 0; src < n_; ++src) {
      if (src == dst) {
        out.set(dst, src, 0);
        continue;
      }
      out.set(dst, src, dr.timely_draw() ? 0 : dr.untimely_fate());
    }
  }
  rng_ = dr.rng;
}

void IidTimelinessSampler::sample_round(Round, PackedLinkMatrix& out) {
  IidDraws dr{rng_, timely_, lost_};
  constexpr int kBits = PackedLinkMatrix::kWordBits;
  for (ProcessId dst = 0; dst < n_; ++dst) {
    std::uint64_t* row = out.mutable_row_words(dst);
    // Assemble each row word in a register and store it once.
    for (int w = 0; w < out.words_per_row(); ++w) {
      const ProcessId base = w * kBits;
      const int bits = std::min(kBits, n_ - base);
      std::uint64_t word = 0;
      for (int b = 0; b < bits; ++b) {
        const ProcessId src = base + b;
        if (src == dst || dr.timely_draw()) {
          word |= 1ULL << b;
        } else {
          out.store_untimely(dst, src, dr.untimely_fate());
        }
      }
      row[w] = word;
    }
  }
  rng_ = dr.rng;
}

}  // namespace timing
