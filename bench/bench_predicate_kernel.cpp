// Predicate-kernel bench: scalar per-cell predicate evaluation vs the
// packed bit-plane kernel, homogeneous and granular, on IID matrices in
// the paper's high-p regime (p = 0.9) at n in {8, 32, 128}.
//
// The contract (gated, exit code 1 on failure): the packed evaluate_all
// is at least 3x the scalar one at n = 32 single-threaded. Both paths'
// masks are cross-checked cell-for-cell while timing, so a kernel that
// got fast by being wrong fails loudly instead.
#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

#include "models/link_model_matrix.hpp"
#include "models/predicates.hpp"
#include "sim/packed_eval.hpp"
#include "sim/sampler.hpp"

using namespace timing;

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kP = 0.9;
constexpr int kBatch = 64;  // rotate matrices so no single one is cached
constexpr int kReps = 7;    // interleaved best-of to shed scheduler noise

double once_ms(const std::function<void()>& body) {
  const auto t0 = Clock::now();
  body();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Round-robin the bodies within each rep so clock drift and scheduler
/// noise hit them all equally; keep each body's best rep.
std::vector<double> interleaved_best_ms(
    const std::vector<std::function<void()>>& bodies) {
  std::vector<double> best(bodies.size(), 1e300);
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t c = 0; c < bodies.size(); ++c) {
      const double ms = once_ms(bodies[c]);
      if (ms < best[c]) best[c] = ms;
    }
  }
  return best;
}

/// Evaluations per timing rep, scaled so every n runs for a comparable
/// wall-clock slice (the scalar path is O(n^2) per evaluation).
int evals_for(int n) {
  const int e = 4'000'000 / (n * n);
  return e < 2000 ? 2000 : e;
}

struct Batch {
  std::vector<LinkMatrix> scalar;
  std::vector<PackedLinkMatrix> packed;
};

Batch make_batch(int n) {
  IidTimelinessSampler s(n, kP, 0xfeedULL + static_cast<unsigned>(n));
  Batch b;
  b.scalar.reserve(kBatch);
  b.packed.reserve(kBatch);
  for (int i = 0; i < kBatch; ++i) {
    LinkMatrix a(n);
    s.sample_round(i + 1, a);
    PackedLinkMatrix q(n);
    q.assign_from(a);
    b.scalar.push_back(std::move(a));
    b.packed.push_back(std::move(q));
  }
  return b;
}

}  // namespace

int main() {
  bool gate_ok = true;
  bool masks_ok = true;
  long long checksum = 0;  // defeat dead-code elimination

  std::printf("predicate evaluation, IID p=%.2f, batch of %d matrices "
              "(best of %d)\n",
              kP, kBatch, kReps);
  std::printf("  %-6s %12s %12s %9s\n", "n", "scalar", "packed", "speedup");
  for (const int n : {8, 32, 128}) {
    const Batch b = make_batch(n);
    // Cross-check before timing: the gate must not pass on a wrong kernel.
    for (int i = 0; i < kBatch; ++i) {
      if (evaluate_all(b.scalar[i], 0) != evaluate_all(b.packed[i], 0)) {
        masks_ok = false;
      }
    }
    const int evals = evals_for(n);
    const std::vector<double> best = interleaved_best_ms({
        [&] {
          for (int i = 0; i < evals; ++i) {
            checksum += evaluate_all(b.scalar[i % kBatch], 0);
          }
        },
        [&] {
          for (int i = 0; i < evals; ++i) {
            checksum += evaluate_all(b.packed[i % kBatch], 0);
          }
        },
    });
    const double scalar_ns = best[0] * 1e6 / evals;
    const double packed_ns = best[1] * 1e6 / evals;
    const double speedup = scalar_ns / packed_ns;
    std::printf("  %-6d %9.1f ns %9.1f ns %8.2fx%s\n", n, scalar_ns,
                packed_ns, speedup, n == 32 ? "  <- gated (>= 3x)" : "");
    if (n == 32 && speedup < 3.0) gate_ok = false;
  }

  std::printf("\ngranular evaluation (mixed matrix: 20%% async, 25%% psync "
              "of the rest)\n");
  std::printf("  %-6s %12s %12s %9s\n", "n", "scalar", "packed", "speedup");
  for (const int n : {8, 32, 128}) {
    const Batch b = make_batch(n);
    const GranularContext g{LinkModelMatrix::mixed(
        n, 0.2, 0.25, 0x6ea1ULL + static_cast<unsigned>(n))};
    for (int i = 0; i < kBatch; ++i) {
      const GranularEval s = evaluate_all_granular(b.scalar[i], 0, g);
      const GranularEval q = evaluate_all_granular(b.packed[i], 0, g);
      if (s.sat != q.sat || s.csat != q.csat) masks_ok = false;
    }
    const int evals = evals_for(n);
    const std::vector<double> best = interleaved_best_ms({
        [&] {
          for (int i = 0; i < evals; ++i) {
            const GranularEval e =
                evaluate_all_granular(b.scalar[i % kBatch], 0, g);
            checksum += e.sat + (e.csat << 8);
          }
        },
        [&] {
          for (int i = 0; i < evals; ++i) {
            const GranularEval e =
                evaluate_all_granular(b.packed[i % kBatch], 0, g);
            checksum += e.sat + (e.csat << 8);
          }
        },
    });
    const double scalar_ns = best[0] * 1e6 / evals;
    const double packed_ns = best[1] * 1e6 / evals;
    const double speedup = scalar_ns / packed_ns;
    std::printf("  %-6d %9.1f ns %9.1f ns %8.2fx%s\n", n, scalar_ns,
                packed_ns, speedup, n == 32 ? "  <- gated (>= 3x)" : "");
    if (n == 32 && speedup < 3.0) gate_ok = false;
  }

  std::printf("\nmask cross-check: %s   [checksum %lld]\n",
              masks_ok ? "OK" : "MISMATCH", checksum);
  std::printf("gate (packed >= 3x scalar at n=32, homogeneous and "
              "granular): %s\n",
              gate_ok && masks_ok ? "OK" : "FAILED");
  return gate_ok && masks_ok ? 0 : 1;
}
