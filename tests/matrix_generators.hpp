// Random link-matrix generators shared by the predicate test suites.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/link_matrix.hpp"

namespace timing {

/// Random matrix with forced-timely self links (the LinkMatrix
/// convention every sampler maintains): each other link is timely with
/// probability p, otherwise lost or late by 1..4.
inline LinkMatrix random_matrix(int n, double p, Rng& rng) {
  LinkMatrix a(n);
  for (ProcessId d = 0; d < n; ++d) {
    for (ProcessId s = 0; s < n; ++s) {
      if (s == d || rng.bernoulli(p)) {
        a.set(d, s, 0);
      } else {
        a.set(d, s, rng.bernoulli(0.3)
                        ? kLost
                        : static_cast<Delay>(1 + rng.uniform_int(4)));
      }
    }
  }
  return a;
}

/// Makes one uniformly chosen untimely cell of `a` (and the same cell of
/// `q`) timely. Returns false when every cell is already timely.
inline bool make_random_cell_timely(LinkMatrix& a, PackedLinkMatrix& q,
                                    Rng& rng) {
  std::vector<std::pair<ProcessId, ProcessId>> untimely;
  for (ProcessId d = 0; d < a.n(); ++d) {
    for (ProcessId s = 0; s < a.n(); ++s) {
      if (!a.timely(d, s)) untimely.emplace_back(d, s);
    }
  }
  if (untimely.empty()) return false;
  const auto [d, s] = untimely[static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::uint64_t>(untimely.size())))];
  a.set(d, s, 0);
  q.set(d, s, 0);
  return true;
}

}  // namespace timing
