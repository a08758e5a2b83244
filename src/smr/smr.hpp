// State-machine replication on top of the consensus library: a sequence
// of consensus instances, one per log slot, each deciding the command
// that every replica then applies.
//
// The engine-based drivers share one replica core, declared first below:
// the Replicas state (machines, decided log, per-replica applied prefix
// with log replay on recovery, fingerprint consistency), the
// SmrEngineConfig fields and make_smr_engine, which builds every
// instance's RoundEngine. Two drive loops sit on that core:
//  * SmrGroup - one instance at a time, run to completion (lock-step
//    rounds over a TimelinessSampler): the form used by tests, the
//    serialized client harness and the simulation studies;
//  * ReplicatedLog (smr/replicated_log.hpp) - pipelined and batched.
// SmrNode is deployment-shaped instead (one object per node over a
// Transport, using the Section 5.1 round synchronization): the form used
// by the examples and the UDP integration tests. Successive instances use
// disjoint wire round ranges so packets of instance k can never confuse
// instance k+1.
//
// The paper's stable-leader observation is what makes this practical:
// "the same leader may persist for numerous instances of consensus
// (possibly thousands)", so Algorithm 2's O(n) stable-state messaging is
// the steady-state cost of the whole replicated service.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "consensus/factory.hpp"
#include "net/transport.hpp"
#include "roundsync/roundsync.hpp"
#include "sim/sampler.hpp"
#include "smr/state_machine.hpp"

namespace timing {

class RoundEngine;

// ---------------------------------------------------------------------
// Shared building blocks (SmrGroup, SmrNode and ReplicatedLog).

/// A consensus protocol instance for one replica, optionally wrapped in
/// OmegaElection when the deployment elects its own leader.
std::unique_ptr<Protocol> make_smr_protocol(AlgorithmKind kind,
                                            ProcessId self, int n,
                                            Command proposal,
                                            bool use_election);

/// The value a decided engine agreed on. Scans every replica that HAS
/// decided — crashed or alive — and TM_CHECKs they all agree; replicas
/// that have not decided (crashed early, or alive but still a round
/// behind the deciders) are skipped, never read. At least one replica
/// must have decided.
Value smr_agreed_decision(const RoundEngine& engine);

/// First wire round of instance `inst` under a per-instance stride,
/// computed in 64 bits and TM_CHECKed to fit Round — at throughput-scale
/// instance counts the 32-bit product silently wrapped and violated the
/// no-overlap invariant.
Round smr_first_round(int inst, Round instance_round_stride);

/// What both engine-based drivers (SmrGroup, ReplicatedLog) read to
/// build one consensus instance.
struct SmrEngineConfig {
  int n = 5;
  AlgorithmKind algorithm = AlgorithmKind::kWlm;
  ProcessId leader = 0;       ///< designated leader (ignored with election)
  bool use_election = false;  ///< wrap protocols in OmegaElection
  int max_rounds_per_instance = 500;
};

/// Network environment for one consensus instance (a serialized instance
/// or one attempt of a pipelined slot). The caller decides what the
/// network does, which keeps the drivers free of any fault/model
/// dependency.
struct InstanceEnv {
  std::unique_ptr<TimelinessSampler> sampler;
  std::vector<Round> crash_rounds;  ///< empty = no crashes
  int max_rounds = -1;              ///< -1 = the config default
};

/// One SMR consensus instance, ready to step.
struct SmrEngine {
  std::unique_ptr<RoundEngine> engine;
  std::uint64_t span = 0;  ///< its `instance` span (0 = tracing off)
};

/// Builds the engine for one instance: replica i proposes proposals[i]
/// under cfg.algorithm, with a DesignatedOracle naming cfg.leader unless
/// cfg.use_election, and crashes at crash_rounds[i] when that is > 0
/// (empty = no crashes). With an enabled tracer the instance opens an
/// `instance` span keyed by `ordinal` under `parent_span`, and the
/// engine's `round` spans hang beneath it.
SmrEngine make_smr_engine(const SmrEngineConfig& cfg,
                          const std::vector<Command>& proposals,
                          const std::vector<Round>& crash_rounds,
                          SpanTracer* spans, int ordinal,
                          std::uint64_t parent_span);

/// The replicated state under both engine-based drivers: one state
/// machine per replica, the decided command log, and the log prefix each
/// replica has applied.
class Replicas {
 public:
  /// One state machine per replica (machines.size() == n, n > 1).
  Replicas(int n, std::vector<std::unique_ptr<StateMachine>> machines);

  /// The decided command log, in commit order.
  const std::vector<Command>& log() const noexcept { return log_; }
  /// Commits so far (decided instances or committed slots).
  int commits() const noexcept { return commits_; }
  const StateMachine& machine(ProcessId i) const { return *machines_[i]; }

  /// True iff all replicas' fingerprints agree. A replica that was
  /// crashed at the last commit is legitimately BEHIND, not divergent —
  /// use consistent_among(alive_at_end()) for runs that end with crashed
  /// replicas.
  bool consistent() const;
  /// Consistency restricted to a subset (e.g. the survivors of a crash).
  bool consistent_among(const std::vector<bool>& include) const;
  /// Which replicas applied the full log at the last commit (all true
  /// before anything committed).
  const std::vector<bool>& alive_at_end() const noexcept {
    return last_applied_;
  }

 protected:
  /// Append `cmds` to the log; every replica in `appliers` then applies
  /// the whole suffix it has not applied yet, so a replica that missed
  /// commits while crashed replays them before the new commands (log
  /// replay on recovery).
  void commit(const std::vector<Command>& cmds,
              const std::vector<bool>& appliers);

 private:
  std::vector<std::unique_ptr<StateMachine>> machines_;
  std::vector<Command> log_;
  std::vector<std::size_t> applied_;  ///< per replica: log prefix applied
  std::vector<bool> last_applied_;    ///< appliers of the last commit
  int commits_ = 0;
};

// ---------------------------------------------------------------------
// Serialized, engine-based replication.

using SmrGroupConfig = SmrEngineConfig;

struct SmrInstanceResult {
  bool decided = false;
  Value command = kNoValue;
  Round rounds = 0;  ///< rounds the instance ran
  /// Which replicas applied this instance's command (alive at decision,
  /// including any log suffix they replayed to catch up). Empty when
  /// undecided.
  std::vector<bool> applied;
};

class SmrGroup : public Replicas {
 public:
  /// One state machine per replica (machines.size() == cfg.n).
  SmrGroup(SmrGroupConfig cfg,
           std::vector<std::unique_ptr<StateMachine>> machines);

  /// Run one consensus instance over the given network; proposals[i] is
  /// replica i's pending command (use kNoopCommand when idle). On global
  /// decision every surviving replica applies the decided command.
  /// `crash_rounds` (optional, one entry per replica, 0 = never) injects
  /// crash failures; pass the same vector to the network's ScheduleConfig
  /// so the model's timeliness guarantees refer to correct processes.
  /// Crashed replicas' machines stop applying commands; a replica that is
  /// alive again in a later instance replays the decided-log suffix it
  /// missed before applying the new command (log replay on recovery), so
  /// surviving replicas never silently diverge. `max_rounds` < 0 uses
  /// cfg.max_rounds_per_instance.
  SmrInstanceResult run_instance(const std::vector<Command>& proposals,
                                 TimelinessSampler& network,
                                 const std::vector<Round>* crash_rounds =
                                     nullptr,
                                 int max_rounds = -1);

  int instances_decided() const noexcept { return commits(); }

  /// Install a span tracer (null disables). Each run_instance call becomes
  /// an `instance` span (keyed by a monotone per-group ordinal) with the
  /// engine's `round` spans as children and an `apply` span around the
  /// log-application loop.
  void set_span_tracer(SpanTracer* spans) noexcept { spans_ = spans; }

 private:
  SmrGroupConfig cfg_;
  SpanTracer* spans_ = nullptr;
  int instances_run_ = 0;  ///< span ordinal (counts undecided runs too)
};

// ---------------------------------------------------------------------
// Network replica (one per node, run concurrently).

struct SmrNodeConfig {
  int n = 0;
  ProcessId self = kNoProcess;
  double timeout_ms = 50.0;
  int max_rounds_per_instance = 500;
  ProcessId leader = 0;       ///< designated leader (ignored with election)
  bool use_election = false;
  std::vector<double> one_way_ms;  ///< L_i[j] for fast-forward (optional)
  /// Wire-round stride between instances; must exceed any instance's
  /// round count and be identical across replicas.
  Round instance_round_stride = 1 << 20;
  /// Optional span tracer (not owned; one per node). Each instance
  /// becomes an `instance` span; the round-sync runner hangs its `round`
  /// and `msg` spans beneath it, and applies get `apply` spans.
  SpanTracer* spans = nullptr;
};

struct SmrNodeInstance {
  bool decided = false;
  Value command = kNoValue;
  Round decision_round = -1;
  double elapsed_ms = 0.0;
};

class SmrNode {
 public:
  SmrNode(SmrNodeConfig cfg, Transport& transport,
          std::unique_ptr<StateMachine> machine);

  /// Runs `instances` consecutive consensus instances. next_command(i)
  /// supplies this node's proposal for instance i (return kNoopCommand
  /// when idle; a real command is required from at least one replica for
  /// the slot to be useful, but consensus itself does not care).
  std::vector<SmrNodeInstance> run(
      int instances, const std::function<Command(int)>& next_command);

  const StateMachine& machine() const { return *machine_; }

 private:
  SmrNodeConfig cfg_;
  Transport& transport_;
  std::unique_ptr<StateMachine> machine_;
};

}  // namespace timing
