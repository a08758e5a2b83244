// Bit-plane predicate kernels for PackedLinkMatrix.
//
// These are the Section 4.1 per-round model predicates rewritten as
// popcounts and word compares over the packed rows:
//   ES    - every row is all-ones (row popcount == n);
//   <>LM  - the leader column is all-ones and every row has a majority;
//   <>WLM - the leader column is all-ones and the leader row has a
//           majority;
//   <>AFM - every row has a majority and every column has a majority.
// Column counts are accumulated from the zero bits of each row (the
// complement), so in the common high-p case the whole evaluation touches
// ~n/64 words per row and a handful of stray zero bits.
//
// The kernels evaluate failure-free rounds only, the rounds the paper's
// measurements (and every Monte-Carlo path here) sample. The "between
// correct processes" form under a crash mask is scalar-only: the
// LinkMatrix predicates of models/predicates.hpp are its one
// implementation.
//
// This header lives in sim/ so sampler.hpp's evaluated round can use
// it; models/predicates.cpp wraps it behind the
// TimingModel enum (and static_asserts the bit order matches). The mask
// bit layout is the canonical ES/LM/WLM/AFM order of obs/trace_event.hpp.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/link_matrix.hpp"

namespace timing {

inline constexpr std::uint8_t kPackedEsBit = 1u << 0;
inline constexpr std::uint8_t kPackedLmBit = 1u << 1;
inline constexpr std::uint8_t kPackedWlmBit = 1u << 2;
inline constexpr std::uint8_t kPackedAfmBit = 1u << 3;

/// Scratch for the column (source) counts of the <>AFM predicate. Reused
/// across rounds so the hot path never allocates: reset() reuses the
/// capacity of the first round of a trial.
class ColumnDeficits {
 public:
  void reset(int n) {
    deficits_.assign(static_cast<std::size_t>(n), 0);
  }
  void bump(int src) noexcept { ++deficits_[static_cast<std::size_t>(src)]; }
  int at(int src) const noexcept {
    return deficits_[static_cast<std::size_t>(src)];
  }

 private:
  std::vector<int> deficits_;
};

/// All four predicates of one failure-free round in a single sweep over
/// the bit plane. `cols` is caller-provided scratch (see ColumnDeficits).
inline std::uint8_t packed_evaluate_mask(const PackedLinkMatrix& a,
                                         ProcessId leader,
                                         ColumnDeficits& cols) {
  const int n = a.n();
  const int words = a.words_per_row();
  const int maj = majority_size(n);
  const int lw = leader / PackedLinkMatrix::kWordBits;
  const std::uint64_t lbit =
      1ULL << (static_cast<unsigned>(leader) % PackedLinkMatrix::kWordBits);

  cols.reset(n);
  bool es = true;
  bool rows_ok = true;     // every row popcount >= maj
  bool leader_col = true;  // leader bit set in every row
  int leader_row_cnt = 0;

  for (ProcessId dst = 0; dst < n; ++dst) {
    const std::uint64_t* row = a.row_words(dst);
    int cnt = 0;
    for (int w = 0; w < words; ++w) {
      const std::uint64_t bits = row[w];
      cnt += std::popcount(bits);
      // Column deficits from the complement: rare in the high-p regime.
      std::uint64_t comp = ~bits & a.word_mask(w);
      while (comp != 0) {
        cols.bump(w * PackedLinkMatrix::kWordBits + std::countr_zero(comp));
        comp &= comp - 1;
      }
    }
    es &= cnt == n;
    rows_ok &= cnt >= maj;
    leader_col &= (row[lw] & lbit) != 0;
    if (dst == leader) leader_row_cnt = cnt;
  }

  bool cols_ok = true;
  for (ProcessId src = 0; src < n; ++src) {
    cols_ok &= n - cols.at(src) >= maj;
  }

  std::uint8_t mask = 0;
  if (es) mask |= kPackedEsBit;
  if (leader_col && rows_ok) mask |= kPackedLmBit;
  if (leader_col && leader_row_cnt >= maj) mask |= kPackedWlmBit;
  if (rows_ok && cols_ok) mask |= kPackedAfmBit;
  return mask;
}

// ---------------------------------------------------------------------
// Granular (per-link) variants. Each directed link carries a class in
// [0, GranularPlanes::kNumClasses); classes 0 and 1 are *required*
// (they carry a timing obligation and count towards quorums), class 2 is
// exempt (it can neither violate a predicate nor count towards one).
// models/predicates.cpp maps the LinkModelClass enum onto these indices
// (sync=0, psync=1, async=2) and static_asserts the order.
//
// The predicates restrict both sides of every rule to the required plane:
//   G-ES    - every required link is timely;
//   G-<>LM  - required leader-column links are timely and every row's
//             required-and-timely count has a majority;
//   G-<>WLM - required leader-column links are timely and the leader
//             row's required-and-timely count has a majority;
//   G-<>AFM - every row's and every column's required-and-timely count
//             has a majority.
// Majority thresholds stay majority_size(n): exempting links from a
// quorum does not shrink the quorum the algorithm needs. With the
// all-required plane (every off-diagonal link class 0/1) these reduce
// exactly to the homogeneous kernels above.

/// Per-link class assignment pre-packed into bit planes so the granular
/// sweep stays word-at-a-time. Row layout matches PackedLinkMatrix.
class GranularPlanes {
 public:
  static constexpr int kNumClasses = 3;
  static constexpr int kNumRequiredClasses = 2;

  GranularPlanes() = default;

  /// `class_of(dst, src)` returns the class index of link (dst <- src).
  /// Self links must be required (class 0 or 1).
  template <class ClassFn>
  GranularPlanes(int n, ClassFn&& class_of)
      : n_(n),
        words_((n + PackedLinkMatrix::kWordBits - 1) /
               PackedLinkMatrix::kWordBits),
        require_(static_cast<std::size_t>(n) * words_, 0),
        require_col_(static_cast<std::size_t>(n), 0) {
    for (auto& plane : cls_) {
      plane.assign(static_cast<std::size_t>(n) * words_, 0);
    }
    for (ProcessId dst = 0; dst < n; ++dst) {
      for (ProcessId src = 0; src < n; ++src) {
        const int c = class_of(dst, src);
        const std::size_t idx =
            static_cast<std::size_t>(dst) * words_ +
            static_cast<std::size_t>(src / PackedLinkMatrix::kWordBits);
        const std::uint64_t bit =
            1ULL
            << (static_cast<unsigned>(src) % PackedLinkMatrix::kWordBits);
        cls_[static_cast<std::size_t>(c)][idx] |= bit;
        if (c < kNumRequiredClasses) {
          require_[idx] |= bit;
          ++require_col_[static_cast<std::size_t>(src)];
        }
      }
    }
  }

  int n() const noexcept { return n_; }
  int words_per_row() const noexcept { return words_; }

  const std::uint64_t* require_row(ProcessId dst) const noexcept {
    return require_.data() + static_cast<std::size_t>(dst) * words_;
  }
  const std::uint64_t* class_row(int c, ProcessId dst) const noexcept {
    return cls_[static_cast<std::size_t>(c)].data() +
           static_cast<std::size_t>(dst) * words_;
  }
  /// Number of required links into column `src` over all n rows.
  int require_col(ProcessId src) const noexcept {
    return require_col_[static_cast<std::size_t>(src)];
  }

 private:
  int n_ = 0;
  int words_ = 0;
  std::vector<std::uint64_t> require_;
  std::array<std::vector<std::uint64_t>, kNumClasses> cls_;
  std::vector<int> require_col_;
};

/// Result of one granular evaluation: `sat` uses the canonical
/// ES/LM/WLM/AFM bit order, `csat` has bit c set iff every class-c link
/// was timely this round (the per-class conformance trace_tool summary
/// reports).
struct GranularEval {
  std::uint8_t sat = 0;
  std::uint8_t csat = 0;
};

/// All four granular predicates plus per-class conformance of one
/// failure-free round in a single sweep over the bit plane.
inline GranularEval packed_evaluate_granular(const PackedLinkMatrix& a,
                                             ProcessId leader,
                                             const GranularPlanes& g,
                                             ColumnDeficits& cols) {
  const int n = a.n();
  const int words = a.words_per_row();
  const int maj = majority_size(n);
  const int lw = leader / PackedLinkMatrix::kWordBits;
  const std::uint64_t lbit =
      1ULL << (static_cast<unsigned>(leader) % PackedLinkMatrix::kWordBits);

  cols.reset(n);
  bool es = true;
  bool rows_ok = true;     // every row's required-and-timely count >= maj
  bool leader_col = true;  // every required leader bit set
  int leader_row_cnt = 0;
  bool class_ok[GranularPlanes::kNumClasses] = {true, true, true};

  for (ProcessId dst = 0; dst < n; ++dst) {
    const std::uint64_t* row = a.row_words(dst);
    const std::uint64_t* req = g.require_row(dst);
    int cnt = 0;
    for (int w = 0; w < words; ++w) {
      const std::uint64_t bits = row[w];
      cnt += std::popcount(bits & req[w]);
      // Required-but-untimely links; rare in the high-p regime. The class
      // planes only hold valid bits, so no word_mask is needed.
      std::uint64_t comp = req[w] & ~bits;
      es &= comp == 0;
      while (comp != 0) {
        cols.bump(w * PackedLinkMatrix::kWordBits + std::countr_zero(comp));
        comp &= comp - 1;
      }
      for (int c = 0; c < GranularPlanes::kNumClasses; ++c) {
        class_ok[c] &= (g.class_row(c, dst)[w] & ~bits) == 0;
      }
    }
    rows_ok &= cnt >= maj;
    leader_col &= ((req[lw] & lbit) & ~row[lw]) == 0;
    if (dst == leader) leader_row_cnt = cnt;
  }

  bool cols_ok = true;
  for (ProcessId src = 0; src < n; ++src) {
    cols_ok &= g.require_col(src) - cols.at(src) >= maj;
  }

  GranularEval out;
  if (es) out.sat |= kPackedEsBit;
  if (leader_col && rows_ok) out.sat |= kPackedLmBit;
  if (leader_col && leader_row_cnt >= maj) out.sat |= kPackedWlmBit;
  if (rows_ok && cols_ok) out.sat |= kPackedAfmBit;
  for (int c = 0; c < GranularPlanes::kNumClasses; ++c) {
    if (class_ok[c]) out.csat |= static_cast<std::uint8_t>(1u << c);
  }
  return out;
}

}  // namespace timing
