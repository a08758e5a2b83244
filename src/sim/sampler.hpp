// Timeliness samplers: produce the per-round link matrix A consumed by the
// round engine and by the model predicates.
//
// Two families:
//  * LatencyTimelinessSampler - wraps a LatencyModel and a timeout; a
//    message is timely iff its sampled latency is within the timeout
//    (the paper: "a message is considered to arrive in a communication
//    round if its latency is less than the timeout").
//  * Schedule-based samplers live in src/models (they need the model
//    definitions to construct conforming/adversarial rounds).
//
// Every sampler also fills the packed bit-plane representation
// (PackedLinkMatrix); the two concrete samplers here fill the bit plane
// directly and consume the RNG in exactly the per-cell order of the
// scalar sample_round, so for the same sub-stream both entry points draw
// the same matrices (asserted by tests/predicate_kernel_test.cpp). A
// Monte-Carlo round is one packed sample_round followed by
// packed_evaluate_mask (sim/packed_eval.hpp) and tally_fates.
//
// The Figure 1 timeout sweeps do not go through LatencyTimelinessSampler:
// harness/measurement.hpp's measure_run_sweep draws each round's
// latencies once and ranks them against the sorted timeouts with
// classify_latency's rules below (timely iff ms <= timeout; its exact
// lost test for the cells that can be lost).
//
// TimelinessSampler's third virtual (below) and FusedRoundEval have no
// caller in src/ and no override here; see the note on the virtual.
#pragma once

#include <cmath>
#include <functional>

#include "common/rng.hpp"
#include "sim/latency_model.hpp"
#include "sim/link_matrix.hpp"
#include "sim/packed_eval.hpp"

namespace timing {

/// One evaluated round: the packed predicate bitmask (kPackedEsBit..
/// order, equal to models/evaluate_all) plus the off-diagonal
/// message-fate tallies of the round (tally_fates).
struct FusedRoundEval {
  std::uint8_t mask = 0;
  long long timely = 0;
  long long late = 0;
  long long lost = 0;
};

class TimelinessSampler {
 public:
  virtual ~TimelinessSampler() = default;
  virtual int n() const noexcept = 0;
  /// Fill `out` (resized by caller to n x n) with the fates of the round-k
  /// messages. Must be called with strictly increasing k.
  virtual void sample_round(Round k, LinkMatrix& out) = 0;

  /// Packed-plane variant. The default samples into a per-thread scratch
  /// LinkMatrix and packs it (same RNG consumption, so same fates); the
  /// concrete samplers below fill the bit plane directly.
  virtual void sample_round(Round k, PackedLinkMatrix& out);

  /// Packed sample_round, then packed_evaluate_mask for `leader` and
  /// tally_fates; `cols` is reusable scratch (see ColumnDeficits). No
  /// sampler overrides it and nothing in src/ calls it. It and
  /// FusedRoundEval stay only because the frozen benchmark
  /// (perfbench/trace.cpp) overrides and calls it; the benchmark change
  /// of ROADMAP item 1(c) deletes both.
  virtual FusedRoundEval sample_round_and_evaluate(Round k, ProcessId leader,
                                                   PackedLinkMatrix& out,
                                                   ColumnDeficits& cols);
};

/// Off-diagonal fate tallies of an already-sampled packed round: timely
/// from popcounts, late/lost from the (rare) complement bits.
void tally_fates(const PackedLinkMatrix& a, FusedRoundEval& eval);

/// Rounds a straggler may stay in flight before it counts as lost (keeps
/// engine queues bounded).
inline constexpr int kDefaultMaxDelayRounds = 64;

/// Fate of a message with latency `ms` under round timeout `timeout_ms`:
/// timely (0) within the timeout, otherwise floor(ms / timeout) rounds
/// late (a message sent at the start of round k lands in round
/// k + floor(ms / timeout)), and lost when that exceeds
/// `max_delay_rounds` or the latency is not finite.
inline Delay classify_latency(double ms, double timeout_ms,
                              int max_delay_rounds) noexcept {
  if (!std::isfinite(ms)) return kLost;
  if (ms <= timeout_ms) return 0;
  const double rounds_late = std::floor(ms / timeout_ms);
  return rounds_late > max_delay_rounds ? kLost
                                        : static_cast<Delay>(rounds_late);
}

/// Observer invoked for every sampled latency; used by the harness to
/// measure p (the fraction of timely messages) alongside the matrices.
using LatencySink =
    std::function<void(ProcessId src, ProcessId dst, double ms)>;

class LatencyTimelinessSampler final : public TimelinessSampler {
 public:
  /// `max_delay_rounds` caps how long a straggler stays in flight before
  /// it counts as lost (see classify_latency).
  LatencyTimelinessSampler(LatencyModel& model, double timeout_ms,
                           int max_delay_rounds = kDefaultMaxDelayRounds);

  int n() const noexcept override { return model_.n(); }
  void sample_round(Round k, LinkMatrix& out) override;
  void sample_round(Round k, PackedLinkMatrix& out) override;

  void set_latency_sink(LatencySink sink) { sink_ = std::move(sink); }
  double timeout_ms() const noexcept { return timeout_ms_; }

 private:
  Delay classify(double ms) const noexcept {
    return classify_latency(ms, timeout_ms_, max_delay_rounds_);
  }

  LatencyModel& model_;
  double timeout_ms_;
  int max_delay_rounds_;
  LatencySink sink_;
};

/// Direct Bernoulli sampler: entry timely with probability p, otherwise
/// late by a geometric number of rounds or lost. This is the Section 4
/// IID world without the latency detour.
///
/// The probabilities are held as BernoulliThresholds (common/rng.hpp):
/// each draw is an integer compare that decides exactly as
/// `uniform() < p` does, so the matrices are the ones the floating-point
/// form drew. Each entry point copies the generator into a local for the
/// round and writes it back at the end; the packed entry point builds
/// every 64-bit row word in a register and stores it once. The threshold
/// pays off only with the local copy: the matrix stores are uint64_t and
/// may alias a member generator's uint64_t state, which would otherwise
/// be reloaded and stored around every cell.
class IidTimelinessSampler final : public TimelinessSampler {
 public:
  /// `p` is the timely probability and `loss_share` the fraction of
  /// untimely messages that are lost; both must lie in [0, 1].
  IidTimelinessSampler(int n, double p, std::uint64_t seed,
                       double loss_share = 0.25);

  int n() const noexcept override { return n_; }
  void sample_round(Round k, LinkMatrix& out) override;
  void sample_round(Round k, PackedLinkMatrix& out) override;

  /// The generator as the next round will start it (tests pin the RNG
  /// consumption of the entry points with it).
  const Rng& rng() const noexcept { return rng_; }

 private:
  int n_;
  Rng rng_;
  BernoulliThreshold timely_;
  BernoulliThreshold lost_;
};

}  // namespace timing
