// Span-tracing cost bench: what the causal span layer (obs/span.hpp)
// costs the live SMR ablation path (SmrGroup over a stable-regime
// schedule — the workload of ablation/smr_cost), in three modes:
//
//   off    - no tracer attached (what everyone pays by default);
//   ids    - causality only, no clock reads (deterministic traces);
//   timed  - monotonic timestamps on every begin/end (profiling mode).
//
// Gates (docs/OBSERVABILITY.md): the off path must stay under 3% — like
// bench_trace_overhead's null-sink contract, the honest bound comes from
// isolating the `spans && spans->enabled()` branch and scaling it to the
// run's emission-site crossings, since a full-run delta at this scale is
// scheduler noise. Timed mode must stay under 10%, measured directly.
// Budgets relax 3x under sanitizers.
//
// Every comparison is the median of paired samples: each pair times the
// two sides back to back, alternating which runs first, so drift and
// scheduler noise hit both sides of a pair alike (a difference of two
// separate best-of times let one disturbed side swing the result).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <vector>

#include "models/schedule.hpp"
#include "obs/span.hpp"
#include "obs/trace_sink.hpp"
#include "smr/smr.hpp"
#include "smr/state_machine.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TIMING_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define TIMING_BENCH_SANITIZED 1
#endif
#endif

using namespace timing;

namespace {

using BenchClock = std::chrono::steady_clock;

// Mid-point of the ablation/smr_cost group-size sweep {4..64}: big
// enough that the O(n^2) per-round consensus work dominates the clock
// and the constant per-round span cost is measured against realistic
// round work, small enough to finish in milliseconds.
constexpr int kN = 16;
constexpr int kCommands = 300;  // consensus instances per configuration
constexpr int kPairs = 31;     // interleaved pairs per comparison
#ifdef TIMING_BENCH_SANITIZED
constexpr double kBudgetScale = 3.0;
#else
constexpr double kBudgetScale = 1.0;
#endif
constexpr double kOffBudgetPct = 3.0 * kBudgetScale;
constexpr double kTimedBudgetPct = 10.0 * kBudgetScale;

double once_ms(const std::function<void()>& body) {
  const auto t0 = BenchClock::now();
  body();
  return std::chrono::duration<double, std::milli>(BenchClock::now() - t0)
      .count();
}

/// Paired samples: pair i timed a_ms[i] and b_ms[i] back to back.
struct Pairs {
  std::vector<double> a_ms;
  std::vector<double> b_ms;
};

/// Times `a` and `b` back to back kPairs times, alternating which runs
/// first.
Pairs interleaved_pairs(const std::function<void()>& a,
                        const std::function<void()>& b) {
  Pairs p;
  for (int pair = 0; pair < kPairs; ++pair) {
    if (pair % 2 == 0) {
      p.a_ms.push_back(once_ms(a));
      p.b_ms.push_back(once_ms(b));
    } else {
      p.b_ms.push_back(once_ms(b));
      p.a_ms.push_back(once_ms(a));
    }
  }
  return p;
}

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// Median over the pairs of b's cost over a, in percent of a.
double median_pct(const Pairs& p) {
  std::vector<double> pct;
  for (std::size_t i = 0; i < p.a_ms.size(); ++i) {
    pct.push_back(100.0 * (p.b_ms[i] - p.a_ms[i]) / p.a_ms[i]);
  }
  return median(pct);
}

/// The live ablation workload: a stable-leader command sequence, one
/// consensus instance per command, fresh conforming schedule each time.
long long run_sequence(SpanTracer* spans) {
  SmrGroupConfig cfg;
  cfg.n = kN;
  cfg.algorithm = AlgorithmKind::kWlm;
  cfg.leader = 0;
  std::vector<std::unique_ptr<StateMachine>> machines;
  for (int i = 0; i < kN; ++i) {
    machines.push_back(std::make_unique<KvStateMachine>());
  }
  SmrGroup group(cfg, std::move(machines));
  group.set_span_tracer(spans);

  long long checksum = 0;
  for (int c = 0; c < kCommands; ++c) {
    std::vector<Command> proposals;
    for (int i = 0; i < kN; ++i) {
      proposals.push_back(make_kv_command(static_cast<std::uint32_t>(c % 16),
                                          static_cast<std::uint32_t>(c + i)));
    }
    ScheduleConfig sched;
    sched.n = kN;
    sched.model = TimingModel::kWlm;
    sched.leader = 0;
    sched.gsr = 1;  // stable regime: the steady state the paper optimises
    sched.seed = 0xabcdef + static_cast<std::uint64_t>(c);
    ScheduleSampler network(sched);
    const auto r = group.run_instance(proposals, network);
    checksum += r.rounds + (r.decided ? 1 : 0);
  }
  return checksum;
}

}  // namespace

int main() {
  (void)run_sequence(nullptr);  // warm-up: touch every code path once

  long long checksum = 0;  // defeat dead-code elimination
  std::size_t timed_events = 0;
  const auto off = [&] { checksum += run_sequence(nullptr); };
  const Pairs ids = interleaved_pairs(off, [&] {
    BufferSink sink;
    SpanTracer tracer(&sink, SpanMode::kIds);
    checksum += run_sequence(&tracer);
    checksum += static_cast<long long>(sink.events().size());
  });
  const Pairs timed = interleaved_pairs(off, [&] {
    BufferSink sink;
    SpanTracer tracer(&sink, SpanMode::kTimed);
    checksum += run_sequence(&tracer);
    timed_events = sink.events().size();
  });
  const double base_ms = median(timed.a_ms);
  const double timed_pct = median_pct(timed);

  // Each mode has its own pairs, so its off median differs a little
  // from the other's; the percentage is the median of the paired deltas.
  std::printf("SMR live path, n=%d, %d instances (median of %d pairs)\n",
              kN, kCommands, kPairs);
  std::printf("  %-6s %9.2f ms vs off %9.2f ms   %+6.2f%%\n", "ids",
              median(ids.b_ms), median(ids.a_ms), median_pct(ids));
  std::printf("  %-6s %9.2f ms vs off %9.2f ms   %+6.2f%%  (%zu span "
              "events)\n",
              "timed", median(timed.b_ms), base_ms, timed_pct, timed_events);

  // The off-path gate. A full-run delta between "no tracer" and "tracer
  // off" is dominated by noise here, so isolate what the off path
  // actually adds — one pointer test plus one mode load per emission
  // site — on a pointer that is null at runtime but not provably null at
  // compile time, then scale the per-site cost to the number of site
  // crossings the timed run demonstrated.
  BufferSink micro_sink;
  SpanTracer micro_tracer(&micro_sink, SpanMode::kTimed);
  SpanTracer* null_tracer =
      std::getenv("TIMING_BENCH_FORCE_SINK") != nullptr ? &micro_tracer
                                                        : nullptr;
  constexpr int kIters = 2'000'000;
  std::uint64_t xa = 0x9e3779b97f4a7c15ull;
  std::uint64_t xb = 0x9e3779b97f4a7c15ull;
  const auto work = [](std::uint64_t& x) {
    for (int s = 0; s < 4; ++s) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  const auto plain = [&] {
    for (int i = 0; i < kIters; ++i) {
      checksum += static_cast<long long>(work(xa) >> 60);
    }
  };
  const auto guarded = [&] {
    for (int i = 0; i < kIters; ++i) {
      const std::uint64_t w = work(xb);
      if (null_tracer != nullptr && null_tracer->enabled()) {
        checksum += null_tracer->begin(
            make_span_id(span_kind::kRound, w & 0xFF, 0), 0,
            span_kind::kRound);
      }
      checksum += static_cast<long long>(w >> 60);
    }
  };
  plain();
  guarded();
  const Pairs micro = interleaved_pairs(plain, guarded);
  std::vector<double> deltas_ns;  // guarded - plain, per iteration
  for (int i = 0; i < kPairs; ++i) {
    const auto k = static_cast<std::size_t>(i);
    deltas_ns.push_back((micro.b_ms[k] - micro.a_ms[k]) * 1e6 / kIters);
  }
  const double delta_ns = median(deltas_ns);
  const double site_cost_ns = delta_ns > 0.0 ? delta_ns : 0.0;
  // Each recorded span event is one emission-site crossing; scale the
  // branch cost to that count against the baseline run.
  const double off_pct =
      base_ms > 0.0 ? 100.0 * site_cost_ns *
                          static_cast<double>(timed_events) / (base_ms * 1e6)
                    : 0.0;
  std::printf(
      "emission site: %.3f ns per crossing (median of %d pairs), %zu "
      "crossings\n",
      site_cost_ns, kPairs, timed_events);

  const bool off_ok = off_pct < kOffBudgetPct;
  const bool timed_ok = timed_pct < kTimedBudgetPct;
  std::printf("off overhead:   %6.2f%% (budget %.0f%%) -> %s\n", off_pct,
              kOffBudgetPct, off_ok ? "OK" : "OVER BUDGET");
  std::printf("timed overhead: %6.2f%% (budget %.0f%%) -> %s   "
              "[checksum %lld]\n",
              timed_pct, kTimedBudgetPct,
              timed_ok ? "OK" : "OVER BUDGET", checksum);
  return off_ok && timed_ok ? 0 : 1;
}
