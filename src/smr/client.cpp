#include "smr/client.hpp"

#include <cstring>
#include <set>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "history/model.hpp"
#include "history/recorder.hpp"
#include "obs/metrics.hpp"
#include "smr/smr.hpp"

namespace timing {

const char* to_string(CorruptMode m) noexcept {
  switch (m) {
    case CorruptMode::kNone: return "none";
    case CorruptMode::kStaleRead: return "stale";
    case CorruptMode::kLostUpdate: return "lost";
  }
  return "none";
}

bool corrupt_mode_from_string(const char* s, CorruptMode& out) noexcept {
  if (std::strcmp(s, "none") == 0) {
    out = CorruptMode::kNone;
    return true;
  }
  if (std::strcmp(s, "stale") == 0) {
    out = CorruptMode::kStaleRead;
    return true;
  }
  if (std::strcmp(s, "lost") == 0) {
    out = CorruptMode::kLostUpdate;
    return true;
  }
  return false;
}

namespace {

struct ClientState {
  bool busy = false;
  int rid = 0;             ///< request id of the current op
  int next_rid = 1;
  int ops_done = 0;
  int open_instances = 0;  ///< instances the current op has been open
  std::uint8_t func = 0;
  std::int32_t key = 0;
  Value a = kNoValue;
  Value b = kNoValue;
  Command cmd = kNoopCommand;
  bool sabotaged = false;  ///< kLostUpdate: this proposal went out as noop
  bool queued = false;     ///< span state: current op reached a proposal
  long long t_op = 0;      ///< op-span begin reading (timed tracer)
  long long t_queue = 0;   ///< queue-span begin reading
  long long submit_tick = 0;  ///< pipelined harness: tick of submission
};

/// Nonzero even 16-bit value — the update-value domain of the harness.
/// Register states are therefore 0 (initial), even (writes / cas
/// replacements) or odd (append chains), never anything else.
std::uint16_t even16(Rng& rng) {
  return static_cast<std::uint16_t>(2 + 2 * rng.uniform_int(32766));
}

/// The op mix both harnesses draw: every client's first op is an update
/// (so each seeded trial commits nonzero state the probe reads anchor
/// on); afterwards registers see a 40/40/20 read/write/cas mix and
/// append keys a 50/50 read/append mix. Fills func/key/a/b/cmd of `cs`
/// (rid must already be assigned).
void choose_op(Rng& rng, ClientState& cs, ProcessId c, int total_keys,
               int reg_keys) {
  std::uint16_t a16 = 0;
  std::uint16_t b16 = 0;
  if (cs.ops_done == 0) {
    cs.key = c % total_keys;
    if (cs.key < reg_keys) {
      cs.func = op_func::kWrite;
      a16 = even16(rng);
    } else {
      cs.func = op_func::kAppend;
      a16 = static_cast<std::uint16_t>(1 + rng.uniform_int(65535));
    }
  } else {
    cs.key = static_cast<std::int32_t>(
        rng.uniform_int(static_cast<std::uint64_t>(total_keys)));
    if (cs.key < reg_keys) {
      const std::uint64_t pick = rng.uniform_int(10);
      if (pick < 4) {
        cs.func = op_func::kRead;
      } else if (pick < 8) {
        cs.func = op_func::kWrite;
        a16 = even16(rng);
      } else {
        cs.func = op_func::kCas;
        a16 = even16(rng);
        b16 = even16(rng);
      }
    } else {
      if (rng.uniform_int(2) == 0) {
        cs.func = op_func::kRead;
      } else {
        cs.func = op_func::kAppend;
        a16 = static_cast<std::uint16_t>(1 + rng.uniform_int(65535));
      }
    }
  }
  const bool has_a = cs.func != op_func::kRead;
  const bool has_b = cs.func == op_func::kCas;
  cs.a = has_a ? static_cast<Value>(a16) : kNoValue;
  cs.b = has_b ? static_cast<Value>(b16) : kNoValue;
  cs.cmd = make_register_command(cs.func, cs.rid, c, cs.key, a16, b16);
}

/// The client population both harnesses drive: the closed-loop clients
/// 0..cfg.clients-1 plus one probe client per key (cfg.clients + key,
/// rid 1), their history, op/queue/commit spans with the latency records
/// taken from the span readings, completion counters and the final
/// readback. The drive loops decide when ops start, reach consensus and
/// complete.
class ClientPopulation {
 public:
  ClientPopulation(const SmrClientConfig& cfg, const Replicas& replicas)
      : cfg_(cfg),
        replicas_(replicas),
        total_keys_(cfg.reg_keys + cfg.append_keys),
        spans_(cfg.spans),
        sp_on_(spans_ != nullptr && spans_->enabled()),
        record_lat_(sp_on_ && spans_->timed() && cfg.metrics != nullptr),
        rng_(cfg.seed) {
    TM_CHECK(cfg.clients > 0, "need at least one client");
    TM_CHECK(total_keys_ > 0, "need at least one key");
    TM_CHECK(cfg.clients + total_keys_ <= 255 && total_keys_ <= 255,
             "client/key ids must fit the register command encoding");
    clients_.resize(static_cast<std::size_t>(cfg.clients + total_keys_));
  }

  /// Register machines for the drivers' replicas, one per replica.
  static std::vector<std::unique_ptr<StateMachine>> machines(int n) {
    std::vector<std::unique_ptr<StateMachine>> out;
    for (int i = 0; i < n; ++i) {
      out.push_back(std::make_unique<RegisterStateMachine>());
    }
    return out;
  }

  int total_keys() const noexcept { return total_keys_; }
  ClientState& at(ProcessId c) { return clients_[static_cast<std::size_t>(c)]; }
  SmrClientReport& report() noexcept { return rep_; }
  /// The client's op span id, 0 with tracing off.
  std::uint64_t op_span(ProcessId c) const {
    return sp_on_ ? span(span_kind::kOp, c) : 0;
  }

  /// Invoke client c's next op from the op mix; opens its op and queue
  /// spans.
  void start(ProcessId c) {
    ClientState& cs = at(c);
    cs.busy = true;
    cs.open_instances = 0;
    cs.sabotaged = false;
    cs.rid = cs.next_rid++;
    choose_op(rng_, cs, c, total_keys_, cfg_.reg_keys);
    invoke(c, true);
  }

  /// Invoke the probe read of `key`. With `queue_span` it opens an op and
  /// a queue span like start(); without, the op span and straight away
  /// its commit span.
  void start_probe(std::int32_t key, bool queue_span) {
    const ProcessId pc = cfg_.clients + key;
    ClientState& cs = at(pc);
    cs.busy = true;
    cs.rid = cs.next_rid++;
    cs.func = op_func::kRead;
    cs.key = key;
    cs.a = kNoValue;
    cs.b = kNoValue;
    cs.cmd = make_register_command(op_func::kRead, cs.rid, pc, key, 0, 0);
    invoke(pc, queue_span);
  }

  /// The op reached its first proposal (or its batch): the queue span
  /// ends and the commit span begins. Later calls are no-ops.
  void queued(ProcessId c) {
    ClientState& cs = at(c);
    if (!sp_on_ || cs.queued) return;
    cs.queued = true;
    end_queue(c);
    spans_->begin(span(span_kind::kCommit, c), span(span_kind::kOp, c),
                  span_kind::kCommit);
  }

  /// The op's commit span is caused by `cause` (an instance or slot).
  void cause(ProcessId c, std::uint64_t cause) {
    if (sp_on_) spans_->cause(span(span_kind::kCommit, c), cause,
                              span_kind::kCommit);
  }

  /// A replica that applied the whole log up to a commit whose appliers
  /// are `applied`.
  const RegisterStateMachine& observer(const std::vector<bool>& applied) const {
    for (int i = 0; i < cfg_.n; ++i) {
      if (applied[static_cast<std::size_t>(i)]) {
        return static_cast<const RegisterStateMachine&>(replicas_.machine(i));
      }
    }
    TM_CHECK(false, "commit with no live applier");
    return static_cast<const RegisterStateMachine&>(replicas_.machine(0));
  }
  /// Client c's result as the commit applied it (session-deduplicated).
  Value session_result(ProcessId c, const std::vector<bool>& applied) const {
    Value result = kNoValue;
    TM_CHECK(observer(applied).last_result(c, result),
             "committed op must have a session result");
    return result;
  }
  /// The result client c's op WOULD have returned had it been applied
  /// (the acknowledged lost update of CorruptMode::kLostUpdate).
  Value fabricated_result(ProcessId c, const std::vector<bool>& applied) {
    const ClientState& cs = at(c);
    return register_step(observer(applied).value(cs.key), cs.func, cs.a,
                         cs.b)
        .result;
  }

  void ok(ProcessId c, Value result) {
    rec_.ok(c, result);
    ++rep_.ops_ok;
    close(c, true);
  }
  void fail(ProcessId c) {
    rec_.fail(c);
    ++rep_.ops_fail;
    close(c, false);
  }
  void info(ProcessId c) {
    rec_.info(c);
    ++rep_.ops_info;
    close(c, false);
  }
  /// Complete probe client pc from a commit that applied its read; under
  /// CorruptMode::kStaleRead the first probe that would see a committed
  /// update reports the initial value instead.
  void probe_ok(ProcessId pc, const std::vector<bool>& applied) {
    Value result = session_result(pc, applied);
    if (cfg_.corrupt == CorruptMode::kStaleRead && !stale_done_ &&
        result != kRegInitial) {
      result = kRegInitial;  // report none of the committed updates
      stale_done_ = true;
    }
    ok(pc, result);
  }

  /// Main-phase ops still open when it ends stay uncompleted (info).
  void end_main_phase() {
    for (ProcessId c = 0; c < cfg_.clients; ++c) {
      if (at(c).busy) ++rep_.ops_info;
    }
  }

  /// The report: probes left open count as info (their spans stay open
  /// too); consistency and the final value per key come from the
  /// replicas that applied the full log (before any commit, every
  /// replica still holds the initial values).
  SmrClientReport finish() {
    const std::vector<bool>& alive = replicas_.alive_at_end();
    const RegisterStateMachine& m = observer(alive);
    for (std::int32_t k = 0; k < total_keys_; ++k) {
      if (at(cfg_.clients + k).busy) ++rep_.ops_info;
      rep_.final_values.push_back(m.value(k));
    }
    rep_.events = rec_.events();
    rep_.consistent = replicas_.consistent_among(alive);
    return std::move(rep_);
  }

 private:
  std::uint64_t span(std::uint8_t kind, ProcessId c) const {
    return make_span_id(
        kind, static_cast<std::uint64_t>(c),
        static_cast<std::uint64_t>(
            clients_[static_cast<std::size_t>(c)].rid));
  }

  void invoke(ProcessId c, bool queue_span) {
    ClientState& cs = at(c);
    rec_.invoke(c, cs.func, cs.key, cs.rid, cs.a, cs.b);
    if (!sp_on_) return;
    cs.t_op = spans_->begin(span(span_kind::kOp, c), 0, span_kind::kOp);
    cs.queued = !queue_span;
    if (queue_span) {
      cs.t_queue = spans_->begin(span(span_kind::kQueue, c),
                                 span(span_kind::kOp, c), span_kind::kQueue);
    } else {
      spans_->begin(span(span_kind::kCommit, c), span(span_kind::kOp, c),
                    span_kind::kCommit);
    }
  }

  void end_queue(ProcessId c) {
    const long long tq = spans_->end(span(span_kind::kQueue, c),
                                     span_kind::kQueue);
    if (record_lat_) {
      cfg_.metrics->latency("op.queue_ns").record(tq - at(c).t_queue);
    }
  }

  /// Close the op's spans; ok completions feed op.commit_ns from the very
  /// readings the span events carry (the offline-rebuild equality).
  void close(ProcessId c, bool committed_ok) {
    ClientState& cs = at(c);
    if (sp_on_) {
      if (cs.queued) {
        spans_->end(span(span_kind::kCommit, c), span_kind::kCommit);
      } else {
        end_queue(c);
      }
      const long long t = spans_->end(span(span_kind::kOp, c),
                                      span_kind::kOp);
      if (committed_ok && record_lat_) {
        cfg_.metrics->latency("op.commit_ns").record(t - cs.t_op);
      }
    }
    cs.busy = false;
    ++cs.ops_done;
  }

  const SmrClientConfig& cfg_;
  const Replicas& replicas_;
  const int total_keys_;
  SpanTracer* const spans_;
  const bool sp_on_;
  const bool record_lat_;
  Rng rng_;
  HistoryRecorder rec_;
  SmrClientReport rep_;
  std::vector<ClientState> clients_;  ///< clients, then one probe per key
  bool stale_done_ = false;
};

}  // namespace

SmrClientReport run_smr_clients(const SmrClientConfig& cfg,
                                const InstanceEnvFactory& env_of) {
  TM_CHECK(cfg.instances > 0 && cfg.op_timeout_instances > 0, "bad phases");
  SmrGroupConfig gcfg;
  gcfg.n = cfg.n;
  gcfg.algorithm = cfg.algorithm;
  gcfg.leader = cfg.leader;
  SmrGroup group(gcfg, ClientPopulation::machines(cfg.n));
  group.set_span_tracer(cfg.spans);
  ClientPopulation pop(cfg, group);
  SmrClientReport& rep = pop.report();
  bool lost_done = false;
  int env_index = 0;

  // Runs one instance; returns it with the span id of that instance.
  auto run_one = [&](const std::vector<Command>& proposals) {
    InstanceEnv env = env_of(env_index++);
    TM_CHECK(env.sampler != nullptr, "instance env needs a sampler");
    const int ordinal = rep.instances_run++;
    const std::vector<Round>* crashes =
        env.crash_rounds.empty() ? nullptr : &env.crash_rounds;
    SmrInstanceResult r =
        group.run_instance(proposals, *env.sampler, crashes, env.max_rounds);
    if (r.decided) ++rep.instances_decided;
    return std::make_pair(
        std::move(r), make_span_id(span_kind::kInstance,
                                   static_cast<std::uint64_t>(ordinal)));
  };

  // ------------------------------------------------------- main phase --
  for (int inst = 0; inst < cfg.instances; ++inst) {
    for (ProcessId c = 0; c < cfg.clients; ++c) {
      if (!pop.at(c).busy) pop.start(c);
    }
    // Each client submits through replica (c mod n); a replica proposes
    // the longest-open op among its clients (ties to the lowest id).
    std::vector<Command> proposals(static_cast<std::size_t>(cfg.n),
                                   kNoopCommand);
    std::vector<ProcessId> proposer(static_cast<std::size_t>(cfg.n),
                                    kNoProcess);
    for (ProcessId c = 0; c < cfg.clients; ++c) {
      const ClientState& cs = pop.at(c);
      if (!cs.busy) continue;
      ProcessId& cur = proposer[static_cast<std::size_t>(c % cfg.n)];
      if (cur == kNoProcess || cs.open_instances > pop.at(cur).open_instances) {
        cur = c;
      }
    }
    std::set<ProcessId> proposed;
    bool sabotaged_this_instance = false;
    for (ProcessId i = 0; i < cfg.n; ++i) {
      const ProcessId c = proposer[static_cast<std::size_t>(i)];
      if (c == kNoProcess) continue;
      ClientState& cs = pop.at(c);
      if (cfg.corrupt == CorruptMode::kLostUpdate && !lost_done &&
          !sabotaged_this_instance && cs.func == op_func::kAppend) {
        proposals[static_cast<std::size_t>(i)] = kNoopCommand;
        cs.sabotaged = true;
        sabotaged_this_instance = true;
      } else {
        proposals[static_cast<std::size_t>(i)] = cs.cmd;
        cs.sabotaged = false;
      }
      proposed.insert(c);
      pop.queued(c);
    }

    const auto [r, inst_span] = run_one(proposals);
    // Each proposed op's commit span is caused by the instance that
    // carried it (`proposed` is a sorted set, so edge order is stable).
    for (ProcessId c : proposed) pop.cause(c, inst_span);
    for (ProcessId c = 0; c < cfg.clients; ++c) {
      if (pop.at(c).busy) ++pop.at(c).open_instances;
    }

    if (r.decided) {
      if (is_register_command(r.command)) {
        const ProcessId wc = reg_command_client(r.command);
        TM_CHECK(wc >= 0 && wc < cfg.clients, "decided client out of range");
        TM_CHECK(pop.at(wc).busy && pop.at(wc).cmd == r.command,
                 "decided command must be a proposed client op");
        pop.ok(wc, pop.session_result(wc, r.applied));
      }
      if (sabotaged_this_instance) {
        // Acknowledge the sabotaged append even though a noop went out
        // in its place: the command was never proposed, hence never
        // applied — an acknowledged lost update. The ok completes before
        // the probe read is invoked, so real-time order forces the probe
        // to observe the append; it cannot, and the checker rejects.
        for (ProcessId c = 0; c < cfg.clients; ++c) {
          if (!pop.at(c).busy || !pop.at(c).sabotaged) continue;
          pop.ok(c, pop.fabricated_result(c, r.applied));
          lost_done = true;
          break;
        }
      }
      // Everyone else who was proposed into this decided instance lost:
      // their command is provably never applied in this harness.
      for (ProcessId c : proposed) {
        if (pop.at(c).busy) pop.fail(c);
      }
    } else {
      // Undecided instance: close stragglers as info (timeout — unknown
      // whether a future quorum saw the command, so not a fail).
      for (ProcessId c = 0; c < cfg.clients; ++c) {
        if (pop.at(c).busy &&
            pop.at(c).open_instances >= cfg.op_timeout_instances) {
          pop.info(c);
        }
      }
    }
  }
  pop.end_main_phase();

  // ------------------------------------------------------ probe phase --
  // Fresh clients read every key over fault-free instances, anchoring
  // the final state in the history.
  for (std::int32_t k = 0; k < pop.total_keys(); ++k) {
    const ProcessId pc = cfg.clients + k;
    pop.start_probe(k, true);
    for (int attempt = 0; attempt < cfg.probe_attempts; ++attempt) {
      std::vector<Command> proposals(static_cast<std::size_t>(cfg.n),
                                     kNoopCommand);
      proposals[static_cast<std::size_t>(pc % cfg.n)] = pop.at(pc).cmd;
      pop.queued(pc);
      const auto [r, inst_span] = run_one(proposals);
      pop.cause(pc, inst_span);
      if (r.decided && r.command == pop.at(pc).cmd) {
        pop.probe_ok(pc, r.applied);
        break;
      }
    }
  }
  return pop.finish();
}

SmrClientReport run_pipelined_smr_clients(const SmrClientConfig& cfg,
                                          const SmrPipelineConfig& pcfg,
                                          const SlotEnvFactory& env_of) {
  TM_CHECK(pcfg.ticks > 0 && pcfg.op_timeout_ticks > 0, "bad phases");
  ReplicatedLogConfig lcfg;
  lcfg.n = cfg.n;
  lcfg.algorithm = cfg.algorithm;
  lcfg.leader = cfg.leader;
  lcfg.pipeline = pcfg.pipeline;
  lcfg.batch = pcfg.batch;
  lcfg.flush_ticks = pcfg.flush_ticks;
  lcfg.max_attempts_per_slot = pcfg.max_attempts_per_slot;
  lcfg.spans = cfg.spans;
  ReplicatedLog rlog(lcfg, ClientPopulation::machines(cfg.n), env_of);
  ClientPopulation pop(cfg, rlog);
  SmrClientReport& rep = pop.report();
  ProcessId lost_client = kNoProcess;  ///< client whose append went out as noop

  // Invoke + submit in one step: the op enters the open batch the same
  // tick it is invoked, so the queue span covers only the client-side
  // handoff and the commit span covers batch wait + consensus + apply.
  auto start_and_submit = [&](ProcessId c) {
    ClientState& cs = pop.at(c);
    cs.submit_tick = rlog.now();
    pop.start(c);
    pop.queued(c);
    if (cfg.corrupt == CorruptMode::kLostUpdate &&
        lost_client == kNoProcess && cs.func == op_func::kAppend) {
      // The append is silently replaced by a noop in the batch; when its
      // slot commits it will be acknowledged ok anyway — an acknowledged
      // lost update the probe read of the key then exposes.
      rlog.submit(kNoopCommand, pop.op_span(c));
      cs.sabotaged = true;
      lost_client = c;
    } else {
      rlog.submit(cs.cmd, pop.op_span(c));
    }
  };

  // Per probe key: the read was invoked; a submission of it is in flight.
  std::vector<bool> probe_invoked(static_cast<std::size_t>(pop.total_keys()),
                                  false);
  std::vector<bool> probe_in_flight(probe_invoked);

  // Resolve every op riding a freshly committed (or abandoned) slot.
  auto handle_committed = [&]() {
    for (const SlotRecord& sr : rlog.take_committed()) {
      rep.instances_run += sr.attempts;
      if (sr.committed) ++rep.instances_decided;
      for (const LogOp& op : sr.ops) {
        // The sabotaged append rides as the only noop the harness ever
        // submits; everything else decodes to its submitting client.
        const bool is_lost = op.cmd == kNoopCommand;
        const ProcessId c =
            is_lost ? lost_client : reg_command_client(op.cmd);
        if (c >= cfg.clients) {
          // Probe read: a committed slot completes it; an abandoned slot
          // reopens it for a resubmission in the probe loop.
          const auto k = static_cast<std::size_t>(c - cfg.clients);
          if (!probe_in_flight[k]) continue;
          probe_in_flight[k] = false;
          if (sr.committed) pop.probe_ok(c, sr.applied);
          continue;
        }
        ClientState& cs = pop.at(c);
        const bool current =
            cs.busy && (is_lost ? cs.sabotaged : cs.cmd == op.cmd);
        if (!current) continue;  // already closed as info (timeout)
        if (!sr.committed) {
          // Abandoned slots are never applied anywhere, so fail is
          // sound (the command provably never takes effect).
          pop.fail(c);
          continue;
        }
        pop.cause(c, make_span_id(span_kind::kSlot,
                                  static_cast<std::uint64_t>(sr.slot)));
        pop.ok(c, is_lost ? pop.fabricated_result(c, sr.applied)
                          : pop.session_result(c, sr.applied));
      }
    }
  };

  auto timeout_scan = [&]() {
    for (ProcessId c = 0; c < cfg.clients; ++c) {
      // The command stays in its batch and may commit later; info keeps
      // the op concurrent forever, which covers both outcomes.
      if (pop.at(c).busy &&
          rlog.now() - pop.at(c).submit_tick >= pcfg.op_timeout_ticks) {
        pop.info(c);
      }
    }
  };

  // ------------------------------------------------------- main phase --
  for (int t = 0; t < pcfg.ticks; ++t) {
    for (ProcessId c = 0; c < cfg.clients; ++c) {
      if (!pop.at(c).busy) start_and_submit(c);
    }
    rlog.tick();
    handle_committed();
    timeout_scan();
  }
  // Drain: no new submissions; every accepted command resolves (commit
  // or abandonment) within the attempt budget.
  for (int t = 0; t < pcfg.drain_ticks && !rlog.drained(); ++t) {
    rlog.tick();
    handle_committed();
    timeout_scan();
  }
  pop.end_main_phase();

  // ------------------------------------------------------ probe phase --
  // Fresh clients read every key. Every main-phase slot has resolved
  // (the drain loop above), so pcfg.on_probe_start can flip the env
  // factory to fault-free environments for all probe slots.
  if (pcfg.on_probe_start) pcfg.on_probe_start();
  for (int attempt = 0; attempt < cfg.probe_attempts; ++attempt) {
    bool any = false;
    for (std::int32_t k = 0; k < pop.total_keys(); ++k) {
      const auto ki = static_cast<std::size_t>(k);
      const ProcessId pc = cfg.clients + k;
      if (probe_in_flight[ki]) continue;
      if (!probe_invoked[ki]) {
        pop.start_probe(k, false);
        probe_invoked[ki] = true;
      } else if (!pop.at(pc).busy) {
        continue;  // done
      }
      probe_in_flight[ki] = true;
      any = true;
      rlog.submit(pop.at(pc).cmd, pop.op_span(pc));
    }
    if (!any) break;
    for (int t = 0; t < pcfg.drain_ticks && !rlog.drained(); ++t) {
      rlog.tick();
      handle_committed();
    }
  }
  return pop.finish();
}

}  // namespace timing
