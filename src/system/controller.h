// The BATE controller (Sec 4): offline routing (the tunnel catalog it is
// constructed with), admission control, the online scheduler with backup
// pre-computation, and the TCP communication channel to brokers and users.
//
// The controller runs its epoll loop on a dedicated thread. Users connect,
// submit demands and receive admission replies; brokers connect, introduce
// themselves with Hello{role="broker"} and then receive allocation updates
// (normal after every publish; backup while the links brokers report down
// need a backup plan, BackupPlanner::plan_for).
//
// Admission pipeline (DESIGN.md Sec 10): SubmitDemand frames are enqueued
// (bounded, per-tenant token buckets at ingress, overflow shed with
// retry_after) and the queue drains once per event-loop tick through one
// batched AdmissionController::offer_batch call; per-demand verdict replies
// are flushed as a single batched write per peer, correlated by request_id
// so every connection may pipeline many in-flight submits.
//
// The tick is the unit of scheduling work (DESIGN.md Sec 10.2): a withdraw
// only removes its demand; the tick settles every removal since the last
// round with one scheduling round, walks the admission batch, and publishes
// once (precompute, live-table selection, one broadcast carrying the
// removal rows, one SLO refresh). Handlers that read the admitted set or
// the planner between ticks (link reports, a broker's Hello, stats and SLO
// requests) settle pending removals first.
//
// Threading: the controller deliberately owns NO locks — all of its state
// is confined to the event-loop thread (cross-thread mutation goes through
// EventLoop's pending queue).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "core/admission.h"
#include "core/recovery.h"
#include "core/scheduling.h"
#include "net/event_loop.h"
#include "net/framing.h"
#include "net/socket.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "system/protocol.h"
#include "system/rate_limiter.h"

namespace bate {

/// Snapshot view over the process-wide metrics registry (src/obs), scoped
/// to this controller instance: the constructor records the registry's
/// counter values and stats() reports the growth since then.
struct ControllerStats {
  int demands_offered = 0;
  int demands_admitted = 0;
  int demands_shed = 0;
  int link_failures_handled = 0;
  int allocation_updates_sent = 0;
};

/// Admission-pipeline tuning (DESIGN.md Sec 10). Every SubmitDemand goes
/// through the queue and the tick drain; these knobs only size the queue and
/// pick the post-batch work. Defaults keep the low-latency behaviour the
/// tests and demos expect; bench_system raises the knobs for the
/// 100k-arrival churn runs.
struct ControllerConfig {
  /// Event-loop poll timeout; the admission queue drains after every loop
  /// iteration, so this bounds reply latency only on an idle connection.
  /// Also the retry_after hint handed to shed requests.
  int tick_ms = 5;
  /// Bounded admission queue across all tenants; overflow is shed with
  /// AdmissionStatus::kShed + retry_after.
  std::size_t max_queue = 8192;
  /// Per-tenant submit rate (requests/sec) enforced at ingress via
  /// RequestRateLimiter; 0 disables.
  double tenant_rate_per_sec = 0.0;
  /// Bucket depth for the tenant limiter; <= 0 defaults to the rate.
  double tenant_burst = 0.0;
  /// Run a full scheduling round (AdmissionController::reschedule) after
  /// every batch containing admissions, amortizing the pre-pipeline
  /// round-per-request cost to one round per tick. When false, all-greedy
  /// batches keep their (feasible, unoptimized) greedy allocations and only
  /// the new rows are delta-broadcast — the high-churn setting, since a
  /// reschedule LP grows with the admitted set (DESIGN.md Sec 10). Removals
  /// are rescheduled either way.
  bool reschedule_after_batch = true;
  /// Recompute backup plans once in every tick that removed or admitted
  /// demands. Off, the planner stays empty and link events keep the
  /// primary table live. bench_system disables it: precompute cost grows
  /// with the admitted set and the churn bench measures the admission path,
  /// not recovery.
  bool precompute_backup = true;
  /// Period (ms) of the SLO time-series sampler that records the registry
  /// snapshot into the ring-buffer store; <= 0 disables sampling. The
  /// availability ledger itself is always on — it is the product's answer
  /// to "did we keep the beta_d promise", not a diagnostic.
  int slo_sample_period_ms = 1000;
  /// Per-demand transition-log cap in the SLO ledger.
  std::size_t slo_max_transitions = 64;
};

class Controller {
 public:
  /// Topology and catalog must outlive the controller.
  Controller(const Topology& topo, const TunnelCatalog& catalog,
             SchedulerConfig scheduler_cfg = {},
             AdmissionStrategy admission = AdmissionStrategy::kBate,
             ControllerConfig config = {});
  ~Controller();

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Binds a loopback port and starts the service thread.
  void start();
  void stop();
  std::uint16_t port() const { return port_; }

  ControllerStats stats() const;

 private:
  struct Peer {
    Socket socket;
    FrameReader reader;
    std::string role;  // set by Hello
    int dc = -1;
    /// request_ids submitted but not yet replied to (duplicate detection;
    /// legacy request_id 0 is never tracked).
    std::set<std::uint64_t> inflight;
  };

  /// One queued SubmitDemand awaiting the tick drain.
  struct PendingAdmission {
    int fd = -1;
    std::uint64_t request_id = 0;
    Demand demand;
    std::int64_t enqueue_us = 0;
    int tenant = 0;
    /// Wire trace context of the submit frame (client.submit span); zero
    /// when the client did not trace.
    obs::SpanContext trace;
  };

  void on_accept();
  void on_peer_readable(int fd);
  void handle_message(Peer& peer, const Message& msg,
                      const obs::SpanContext& trace = {});
  /// SubmitDemand ingress: duplicate check, tenant rate limit, bounded
  /// queue, then enqueue for the tick drain.
  void on_submit(Peer& peer, const SubmitDemandMsg& submit,
                 const obs::SpanContext& trace);
  /// Tick handler: settles removals with one scheduling round, drains the
  /// admission queue, and publishes once if the tick removed or admitted
  /// demands.
  void on_tick();
  /// Drains the non-empty admission queue through
  /// AdmissionController::offer_batch, flushes per-peer reply batches, runs
  /// the post-batch scheduling round (reschedule_after_batch) when the
  /// batch admitted anyone, and publishes under the batch's span if the
  /// tick `removed` or admitted demands.
  void drain_admission_queue(bool removed);
  /// Sheds one request with kShed + retry_after and counts it.
  void shed(Peer& peer, std::uint64_t request_id, DemandId id,
            double retry_after_ms);
  /// Drops queued work belonging to a departed peer (dead entries must not
  /// reach the admission walk) and, for withdraw, a tenant's queued demand.
  void purge_queue_for_fd(int fd);
  void purge_queue_for_demand(DemandId id);
  int tenant_of(const Peer& peer) const;

  void send_to(Peer& peer, const Message& msg);
  /// Flushes an accumulated frame batch to `peer` with one write.
  void flush_batch(Peer& peer, const FrameBatch& batch);
  /// Sends one AllocationUpdate per (demand, pair) to `peer` as a single
  /// batched write, stamping `trace` onto every frame: first an empty
  /// (removing) row per pair of each `removed` demand, then the rows of
  /// `demands`. Returns the number of updates. Loop thread only.
  int send_allocations_to(Peer& peer, bool backup,
                          std::span<const Demand> demands,
                          std::span<const Allocation> allocs,
                          const FrameContext& trace = {},
                          std::span<const Demand> removed = {});
  /// The live table to a newly introduced broker.
  void send_allocation_snapshot(Peer& peer);
  /// The live allocation table: the active plan's rows, flagged backup, or
  /// the primary rows when no plan is live.
  struct LiveTable {
    bool backup;
    std::span<const Demand> demands;
    std::span<const Allocation> allocs;
  };
  LiveTable live_table() const;
  /// Points active_plan_ at planner_.plan_for(down_links_): the one failure
  /// rule (DESIGN.md Sec 5.5). Run after every publish's precompute and
  /// every change to down_links_, never while removals are pending.
  void select_live_table();
  /// Full broadcast of live_table(), led by the empty rows of `removed`.
  void broadcast_live_table(std::span<const Demand> removed = {});
  /// Delta broadcast: only admitted()[first_new..] rows, after a batch that
  /// appended greedy admissions without rescheduling anyone else.
  void broadcast_new_allocations(std::size_t first_new);
  /// Sends `removed`' empty rows, then `demands`' rows, to every broker
  /// under one controller.broadcast span; an empty row removes it at the
  /// broker.
  void broadcast_rows(bool backup, std::span<const Demand> demands,
                      std::span<const Allocation> allocs,
                      std::span<const Demand> removed = {});
  /// Publishes a change of the admitted set or its allocations: precompute
  /// when precompute_backup is on, re-select the live table, broadcast
  /// (the delta rows from `first_new` when the change only appended greedy
  /// rows to a primary table, else the full table with the removal rows),
  /// refresh the SLO ledger. Takes (and clears) withdrawn_.
  void publish(bool rescheduled, std::size_t first_new);
  /// Between ticks: if a withdraw removed anyone since the last round, one
  /// scheduling round and one publish, so the admitted set, the planner and
  /// the brokers agree before a handler reads them.
  void settle();

  /// Re-derives the satisfied bit of rows [first_row, n) of the active
  /// allocation table under the current down-link set, and feeds the SLO
  /// ledger (degrade/recover transitions on change only). A tick that only
  /// appended greedy rows to the primary table passes its first new row;
  /// publishes with removals, link events and ticks that rescheduled or had
  /// a backup table live pass 0 (DESIGN.md Sec 9.4).
  void refresh_slo(std::int64_t now_us, std::size_t first_row);
  /// Samples the registry into the time-series store once per
  /// slo_sample_period_ms (tick handler).
  void sample_slo_series(std::int64_t now_us);
  /// Renders the SLO payload for a kSloRequest selector.
  std::string slo_payload(const std::string& selector, std::int64_t now_us);

  // Loop-thread state: touched only from the epoll thread (callbacks), or
  // before start() / after stop() joins it.
  TrafficScheduler scheduler_;
  AdmissionController admission_;
  BackupPlanner planner_;
  ControllerConfig config_;
  std::optional<RequestRateLimiter> limiter_;
  std::unique_ptr<TcpListener> listener_;
  EventLoop loop_;
  std::map<int, Peer> peers_;
  /// Admission queue, per tenant for round-robin drain fairness. Bounded by
  /// config_.max_queue across all tenants (queued_ tracks the total).
  std::map<int, std::deque<PendingAdmission>> queue_;
  std::size_t queued_ = 0;

  // Availability-SLO state (tentpole of ISSUE 10). The ledger/store carry
  // their own kObsLedger mutexes (safe under the no-locks loop-thread rule:
  // kObsLedger is below every subsystem rank).
  obs::SloLedger ledger_;
  obs::TimeSeriesStore series_;
  /// Links currently reported down by brokers (loop thread only).
  std::set<LinkId> down_links_;
  /// Demands withdrawn from the admitted set since the last publish, whose
  /// empty rows that publish sends. Non-empty means the admitted set
  /// changed without a scheduling round: allocations and the planner are
  /// stale until the next tick or settle().
  std::vector<Demand> withdrawn_;
  /// Backup plan currently broadcast, or nullptr when primary allocations
  /// are live. Re-selected after every planner_.precompute(), which
  /// invalidates it. After every publish and every settle the planner is
  /// empty (precompute_backup off) or holds exactly admission_.admitted(),
  /// so a live plan covers every row.
  const RecoveryResult* active_plan_ = nullptr;
  std::int64_t next_sample_us_ = 0;

  std::thread thread_;
  std::uint16_t port_ = 0;  // written by start() before the thread exists

  // Registry counter values at construction; stats() subtracts these so the
  // accessor stays per-instance even though the registry is process-wide.
  std::int64_t base_offered_ = 0;
  std::int64_t base_admitted_ = 0;
  std::int64_t base_shed_ = 0;
  std::int64_t base_failures_ = 0;
  std::int64_t base_updates_ = 0;
};

}  // namespace bate
