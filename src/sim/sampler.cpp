#include "sim/sampler.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace timing {

namespace {

/// Streaming accumulator for the four failure-free predicates, fed cell
/// by cell as a fused kernel samples a round. Mirrors packed_evaluate_mask
/// exactly (differential-tested against the scalar predicates).
struct MaskAccum {
  int n = 0;
  int maj = 0;
  ProcessId leader = 0;
  ColumnDeficits* cols = nullptr;
  bool es = true;
  bool rows_ok = true;
  bool leader_col = true;
  int leader_row_cnt = 0;
  int cnt = 0;            // timely cells of the current row
  bool leader_bit = false;

  void begin(int n_in, ProcessId leader_in, ColumnDeficits& cols_in) {
    n = n_in;
    maj = majority_size(n_in);
    leader = leader_in;
    cols = &cols_in;
    cols->reset(n_in);
    es = rows_ok = leader_col = true;
    leader_row_cnt = 0;
  }
  void begin_row() {
    cnt = 0;
    leader_bit = false;
  }
  void cell_timely(ProcessId src) {
    ++cnt;
    if (src == leader) leader_bit = true;
  }
  void cell_untimely(ProcessId src) { cols->bump(src); }
  void end_row(ProcessId dst) {
    es &= cnt == n;
    rows_ok &= cnt >= maj;
    leader_col &= leader_bit;
    if (dst == leader) leader_row_cnt = cnt;
  }
  std::uint8_t finish() const {
    bool cols_ok = true;
    for (ProcessId src = 0; src < n; ++src) {
      cols_ok &= n - cols->at(src) >= maj;
    }
    std::uint8_t mask = 0;
    if (es) mask |= kPackedEsBit;
    if (leader_col && rows_ok) mask |= kPackedLmBit;
    if (leader_col && leader_row_cnt >= maj) mask |= kPackedWlmBit;
    if (rows_ok && cols_ok) mask |= kPackedAfmBit;
    return mask;
  }
};

}  // namespace

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

FusedRoundEval LatencyTimelinessSampler::sample_round_and_evaluate(
    Round k, ProcessId leader, PackedLinkMatrix& out, ColumnDeficits& cols) {
  model_.begin_round(k);
  const int n = model_.n();
  FusedRoundEval eval;
  MaskAccum acc;
  acc.begin(n, leader, cols);
  for (ProcessId dst = 0; dst < n; ++dst) {
    std::uint64_t* row = out.mutable_row_words(dst);
    for (int w = 0; w < out.words_per_row(); ++w) row[w] = 0;
    acc.begin_row();
    for (ProcessId src = 0; src < n; ++src) {
      if (src == dst) {
        out.set_timely(dst, src);
        acc.cell_timely(src);
        continue;
      }
      const double ms = model_.sample_ms(src, dst);
      if (sink_) sink_(src, dst, ms);
      const Delay d = classify(ms);
      if (d == 0) {
        out.set_timely(dst, src);
        acc.cell_timely(src);
        ++eval.timely;
      } else {
        out.store_untimely(dst, src, d);
        acc.cell_untimely(src);
        if (d == kLost) {
          ++eval.lost;
        } else {
          ++eval.late;
        }
      }
    }
    acc.end_row(dst);
  }
  eval.mask = acc.finish();
  return eval;
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

  /// Late-or-lost fate, shared by all three entry points (keeps the RNG
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

FusedRoundEval IidTimelinessSampler::sample_round_and_evaluate(
    Round, ProcessId leader, PackedLinkMatrix& out, ColumnDeficits& cols) {
  IidDraws dr{rng_, timely_, lost_};
  constexpr int kBits = PackedLinkMatrix::kWordBits;
  FusedRoundEval eval;
  MaskAccum acc;
  acc.begin(n_, leader, cols);
  for (ProcessId dst = 0; dst < n_; ++dst) {
    std::uint64_t* row = out.mutable_row_words(dst);
    acc.begin_row();
    for (int w = 0; w < out.words_per_row(); ++w) {
      const ProcessId base = w * kBits;
      const int bits = std::min(kBits, n_ - base);
      std::uint64_t word = 0;
      for (int b = 0; b < bits; ++b) {
        const ProcessId src = base + b;
        if (src == dst) {
          word |= 1ULL << b;
          acc.cell_timely(src);
        } else if (dr.timely_draw()) {
          word |= 1ULL << b;
          acc.cell_timely(src);
          ++eval.timely;
        } else {
          const Delay d = dr.untimely_fate();
          out.store_untimely(dst, src, d);
          acc.cell_untimely(src);
          if (d == kLost) {
            ++eval.lost;
          } else {
            ++eval.late;
          }
        }
      }
      row[w] = word;
    }
    acc.end_row(dst);
  }
  rng_ = dr.rng;
  eval.mask = acc.finish();
  return eval;
}

}  // namespace timing
