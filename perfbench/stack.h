// In-process live BATE stack for the benchmark: one Controller and two
// Brokers over loopback TCP, plus the outside-the-program probes the
// workloads use to check and time it (procfs thread clocks, broker enforcer
// reads, the SLO-ledger crosscheck).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "routing/tunnels.h"
#include "system/broker.h"
#include "system/controller.h"
#include "topology/graph.h"
#include "workload/demand.h"

namespace perfbench {

using namespace bate;

/// Steady-clock milliseconds since an arbitrary epoch.
double now_ms();

/// Nearest-rank quantile of a sample (0 when empty); takes a copy.
double quantile(std::vector<double> v, double q);
/// Mean of the middle half of a sample (0 when empty): robust to a few
/// outlying values like a median, but it averages, so it scatters less.
double interquartile_mean(std::vector<double> v);

/// One completed operation: when it completed and how long it took.
struct Timed {
  double done_ms = 0.0;
  double ms = 0.0;
};

/// Statistics of one window of consecutive completions.
struct WindowStats {
  double rate = 0.0;       // completions per second of the window's span
  double busy_rate = 0.0;  // completions per second of summed durations
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Cuts completions, fed in completion order, into consecutive windows of
/// `per_window` and keeps only the current window's samples, so what the
/// benchmark holds does not grow with the run. Interquartile means across
/// windows keep a burst of interference on a shared machine from moving a
/// whole run's figure.
class WindowRecorder {
 public:
  explicit WindowRecorder(std::size_t per_window) : per_window_(per_window) {}
  void add(const Timed& t);
  /// Closes the partial window — as its own window when it holds at least
  /// half a window or no window closed before, else it is left out — and
  /// returns every window.
  std::vector<WindowStats> finish();
  /// Samples added, including any left out of the windows.
  std::size_t count() const { return count_; }

 private:
  void close();
  std::size_t per_window_;
  std::size_t count_ = 0;
  std::vector<Timed> open_;
  std::vector<WindowStats> closed_;
};

/// Windows of `samples`, sorted into completion order first.
std::vector<WindowStats> window_stats(std::vector<Timed> samples,
                                      std::size_t per_window);

/// Ids of the process's threads (/proc/self/task).
std::set<pid_t> thread_ids();
/// Time a thread of this process has been runnable — on a CPU or waiting
/// for one — in nanoseconds, from /proc/self/task/<tid>/schedstat.
/// -1 when the kernel does not expose it.
std::int64_t runnable_ns(pid_t tid);
/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

/// Wall-clock phases of one stack set-up, in milliseconds.
struct SetupTimes {
  double catalog_ms = 0.0;          // TunnelCatalog::build_all_pairs
  double controller_ctor_ms = 0.0;  // Controller constructor
  double total_ms = 0.0;            // everything up to a ready stack
};

/// Topology, tunnel catalog, controller and two brokers, started and
/// connected. Construction is the timed set-up; destruction stops the
/// controller first, then the brokers.
class LiveStack {
 public:
  LiveStack(const std::function<Topology()>& make_topology,
            int tunnels_per_pair, const ControllerConfig& config);
  ~LiveStack();
  LiveStack(const LiveStack&) = delete;
  LiveStack& operator=(const LiveStack&) = delete;

  const Topology& topo() const { return topo_; }
  const TunnelCatalog& catalog() const { return catalog_; }
  std::uint16_t port() const { return controller_->port(); }
  Broker& broker(int i) { return *brokers_[static_cast<std::size_t>(i)]; }
  static constexpr int kBrokers = 2;
  const SetupTimes& setup() const { return setup_; }
  /// The controller's event-loop thread (-1 if it could not be told apart).
  pid_t controller_tid() const { return controller_tid_; }

  /// Blocks until neither broker has received an update for `quiet_ms`.
  /// Callers first make a stats round trip on each connection that sent
  /// work, so the controller has written every resulting broadcast. Returns
  /// false on timeout.
  bool wait_brokers_quiet(int quiet_ms = 20, int timeout_ms = 20000);

 private:
  Topology topo_;
  TunnelCatalog catalog_;
  std::unique_ptr<Controller> controller_;
  std::vector<std::unique_ptr<Broker>> brokers_;
  SetupTimes setup_;
  pid_t controller_tid_ = -1;
};

/// A demand the benchmark keeps live (admitted, not withdrawn).
struct LiveDemand {
  DemandId id = -1;
  std::vector<PairDemand> pairs;
  double beta = 0.0;
};

/// Polls `broker` every 20 us, without sleeping, until it has received more
/// than `count` updates; returns the count it saw (no more than `count` on
/// timeout). Broker::wait_updates_past wakes its caller on every row the
/// broker applies, so the waiter contends for the broker's lock once per
/// row and adds its own wake-up to the time measured. The poller adds at
/// most its interval, and keeps one core from idling between events, which
/// on a VM makes every wake-up of the stack cheaper and steadier.
int spin_updates_past(const Broker& broker, int count, double timeout_ms);

/// Verifies, from every broker's enforcer view, that each live demand has a
/// row for each of its pairs at every broker and that all brokers enforce
/// identical rates, and that per-link load over tunnels that avoid `down`
/// stays within capacity. Returns "" or the first violation.
std::string check_enforced(LiveStack& stack,
                           const std::vector<LiveDemand>& live,
                           const std::set<LinkId>& down);

/// Share of the requested bandwidth of live beta>0 demands that broker 0
/// delivers over tunnels avoiding `down` (each pair capped at its request).
/// 1 when there is no such demand.
double delivered_fraction(LiveStack& stack,
                          const std::vector<LiveDemand>& live,
                          const std::set<LinkId>& down);

/// Scrapes the controller's SLO ledger and replays every row's transition
/// log through bench_system's crosscheck. `expected_rows` is the number of
/// ledger rows the workload's history implies. Returns "" or the error.
std::string crosscheck_ledger(std::uint16_t port, long expected_rows);

}  // namespace perfbench
