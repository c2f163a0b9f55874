#include "stack.h"

#include <dirent.h>
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "system/client.h"

namespace perfbench {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

void WindowRecorder::add(const Timed& t) {
  ++count_;
  open_.push_back(t);
  if (open_.size() == per_window_) close();
}

void WindowRecorder::close() {
  std::vector<double> ms;
  double busy = 0.0;
  for (const Timed& t : open_) {
    ms.push_back(t.ms);
    busy += t.ms;
  }
  WindowStats st;
  const double span = open_.back().done_ms - open_.front().done_ms;
  const double n = static_cast<double>(open_.size());
  st.rate = span > 0.0 ? (n - 1.0) * 1e3 / span : 0.0;
  st.busy_rate = busy > 0.0 ? n * 1e3 / busy : 0.0;
  st.p50 = quantile(ms, 0.5);
  st.p90 = quantile(ms, 0.9);
  st.p99 = quantile(ms, 0.99);
  closed_.push_back(st);
  open_.clear();
}

std::vector<WindowStats> WindowRecorder::finish() {
  if (!open_.empty() &&
      (closed_.empty() || 2 * open_.size() >= per_window_)) {
    close();
  }
  open_.clear();
  return closed_;
}

std::vector<WindowStats> window_stats(std::vector<Timed> samples,
                                      std::size_t per_window) {
  std::sort(samples.begin(), samples.end(),
            [](const Timed& a, const Timed& b) {
              return a.done_ms < b.done_ms;
            });
  WindowRecorder rec(per_window);
  for (const Timed& t : samples) rec.add(t);
  return rec.finish();
}

std::set<pid_t> thread_ids() {
  std::set<pid_t> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    out.insert(static_cast<pid_t>(std::atoi(e->d_name)));
  }
  closedir(dir);
  return out;
}

std::int64_t runnable_ns(pid_t tid) {
  std::ifstream f("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  long long on_cpu = 0;
  long long waiting = 0;
  if (!(f >> on_cpu >> waiting)) return -1;
  return on_cpu + waiting;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

LiveStack::LiveStack(const std::function<Topology()>& make_topology,
                     int tunnels_per_pair, const ControllerConfig& config) {
  const double t0 = now_ms();
  topo_ = make_topology();
  const double t1 = now_ms();
  catalog_ = TunnelCatalog::build_all_pairs(topo_, tunnels_per_pair);
  const double t2 = now_ms();
  controller_ = std::make_unique<Controller>(topo_, catalog_, SchedulerConfig{},
                                             AdmissionStrategy::kBate, config);
  const double t3 = now_ms();
  const std::set<pid_t> before = thread_ids();
  controller_->start();
  std::vector<pid_t> spawned;
  for (const pid_t tid : thread_ids()) {
    if (before.count(tid) == 0) spawned.push_back(tid);
  }
  if (spawned.size() == 1) controller_tid_ = spawned.front();
  for (int i = 0; i < kBrokers; ++i) {
    brokers_.push_back(std::make_unique<Broker>(i, controller_->port()));
    brokers_.back()->start();
  }
  // A stats round trip after both Hellos were written: the controller has
  // registered the brokers before any timed traffic can reach it.
  UserClient(controller_->port()).stats();
  setup_.catalog_ms = t2 - t1;
  setup_.controller_ctor_ms = t3 - t2;
  setup_.total_ms = now_ms() - t0;
}

LiveStack::~LiveStack() {
  // Controller first: its final broadcasts must not race the brokers'
  // socket shutdown.
  controller_->stop();
  for (auto& b : brokers_) b->stop();
  brokers_.clear();
  controller_.reset();
  // Hand the freed heap back, so the next stack's peak memory does not
  // depend on how many stacks came before it and how they left the heap.
  malloc_trim(0);
}

bool LiveStack::wait_brokers_quiet(int quiet_ms, int timeout_ms) {
  const double deadline = now_ms() + timeout_ms;
  std::vector<int> seen(brokers_.size());
  for (std::size_t i = 0; i < brokers_.size(); ++i) {
    seen[i] = brokers_[i]->updates_received();
  }
  while (now_ms() < deadline) {
    bool moved = false;
    for (std::size_t i = 0; i < brokers_.size(); ++i) {
      const int now = brokers_[i]->wait_updates_past(seen[i], quiet_ms);
      if (now != seen[i]) moved = true;
      seen[i] = now;
    }
    if (!moved) return true;
  }
  return false;
}

int spin_updates_past(const Broker& broker, int count, double timeout_ms) {
  constexpr double kPollMs = 0.02;
  const double deadline = now_ms() + timeout_ms;
  int seen = broker.updates_received();
  while (seen <= count && now_ms() < deadline) {
    const double resume = now_ms() + kPollMs;
    while (now_ms() < resume) {
    }
    seen = broker.updates_received();
  }
  return seen;
}

std::string check_enforced(LiveStack& stack,
                           const std::vector<LiveDemand>& live,
                           const std::set<LinkId>& down) {
  const Topology& topo = stack.topo();
  std::vector<double> load(static_cast<std::size_t>(topo.link_count()), 0.0);
  for (const LiveDemand& d : live) {
    for (const PairDemand& p : d.pairs) {
      const std::vector<double> rates = stack.broker(0).enforced_rates(d.id,
                                                                       p.pair);
      const std::string row = "demand " + std::to_string(d.id) + " pair " +
                              std::to_string(p.pair);
      if (rates.empty()) return row + " not enforced at broker 0";
      for (int b = 1; b < LiveStack::kBrokers; ++b) {
        if (stack.broker(b).enforced_rates(d.id, p.pair) != rates) {
          return row + " enforced differently at broker " + std::to_string(b);
        }
      }
      const std::vector<Tunnel>& tunnels = stack.catalog().tunnels(p.pair);
      if (rates.size() > tunnels.size()) return row + " has too many tunnels";
      for (std::size_t t = 0; t < rates.size(); ++t) {
        const auto& links = tunnels[t].links;
        const bool up = std::none_of(links.begin(), links.end(), [&](LinkId e) {
          return down.count(e) != 0;
        });
        if (!up) continue;
        for (const LinkId e : links) {
          load[static_cast<std::size_t>(e)] += rates[t];
        }
      }
    }
  }
  for (const Link& l : topo.links()) {
    const double used = load[static_cast<std::size_t>(l.id)];
    if (used > l.capacity * (1.0 + 1e-6) + 1e-6) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "link %d carries %.6f Mbps over capacity %.6f", l.id, used,
                    l.capacity);
      return buf;
    }
  }
  return "";
}

double delivered_fraction(LiveStack& stack,
                          const std::vector<LiveDemand>& live,
                          const std::set<LinkId>& down) {
  double requested = 0.0;
  double delivered = 0.0;
  for (const LiveDemand& d : live) {
    if (d.beta <= 0.0) continue;
    for (const PairDemand& p : d.pairs) {
      const std::vector<double> rates = stack.broker(0).enforced_rates(d.id,
                                                                       p.pair);
      const std::vector<Tunnel>& tunnels = stack.catalog().tunnels(p.pair);
      double got = 0.0;
      for (std::size_t t = 0; t < rates.size() && t < tunnels.size(); ++t) {
        const auto& links = tunnels[t].links;
        if (std::none_of(links.begin(), links.end(),
                         [&](LinkId e) { return down.count(e) != 0; })) {
          got += rates[t];
        }
      }
      requested += p.mbps;
      delivered += std::min(got, p.mbps);
    }
  }
  return requested > 0.0 ? delivered / requested : 1.0;
}

}  // namespace perfbench
