#include "layers.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <set>
#include <unordered_map>

#include "json_mini.h"
#include "obs/trace.h"
#include "stack.h"

namespace perfbench {

namespace {

using bate::obs::HistogramSnapshot;
using bate::obs::MetricsSnapshot;

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();

/// Per-bucket (not cumulative) counts keyed by exclusive upper bound.
std::map<std::int64_t, std::int64_t> bucket_counts(const HistogramSnapshot& h) {
  std::map<std::int64_t, std::int64_t> out;
  std::int64_t prev = 0;
  for (const HistogramSnapshot::Bucket& b : h.buckets) {
    out[b.infinite ? kInf : b.upper] += b.cumulative - prev;
    prev = b.cumulative;
  }
  return out;
}

template <typename T>
T lookup(const std::vector<std::pair<std::string, T>>& v,
         const std::string& name) {
  for (const auto& [k, val] : v) {
    if (k == name) return val;
  }
  return T{};
}

std::vector<SpanRecord> parse_spans(const std::string& chrome_json) {
  using bate::json::JsonValue;
  const JsonValue root = bate::json::parse(chrome_json);
  std::vector<SpanRecord> out;
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr) return out;
  const auto num = [](const JsonValue& obj, const char* key) {
    const JsonValue* v = obj.find(key);
    return v != nullptr ? v->number : 0.0;
  };
  out.reserve(events->array.size());
  for (const JsonValue& e : events->array) {
    SpanRecord s;
    const JsonValue* name = e.find("name");
    s.name = name != nullptr ? name->str : std::string();
    s.ts_us = static_cast<std::int64_t>(num(e, "ts"));
    s.dur_us = static_cast<std::int64_t>(num(e, "dur"));
    s.ring = static_cast<std::int64_t>(num(e, "tid"));
    if (const JsonValue* args = e.find("args")) {
      s.span_id = static_cast<std::uint64_t>(num(*args, "span"));
      s.parent_id = static_cast<std::uint64_t>(num(*args, "parent"));
    }
    out.push_back(std::move(s));
  }
  return out;
}

/// Linear interpolation of the sampled runnable clock at `t_us`.
double runnable_at(const std::vector<std::pair<std::int64_t, std::int64_t>>& s,
                   std::int64_t t_us) {
  if (s.empty()) return 0.0;
  if (t_us <= s.front().first) return static_cast<double>(s.front().second);
  for (std::size_t i = 1; i < s.size(); ++i) {
    if (t_us <= s[i].first) {
      const double span = static_cast<double>(s[i].first - s[i - 1].first);
      const double w =
          span > 0 ? static_cast<double>(t_us - s[i - 1].first) / span : 1.0;
      return static_cast<double>(s[i - 1].second) +
             w * static_cast<double>(s[i].second - s[i - 1].second);
    }
  }
  return static_cast<double>(s.back().second);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

TraceCapture::~TraceCapture() {
  sampling_ = false;
  if (sampler_.joinable()) sampler_.join();
}

void TraceCapture::sample_loop() {
  while (sampling_) {
    samples_.emplace_back(bate::obs::now_us(), runnable_ns(tid_));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void TraceCapture::begin(pid_t controller_tid) {
  bate::obs::set_enabled(true);
  bate::obs::Tracer::global().clear();
  before_ = bate::obs::Registry::global().snapshot();
  tid_ = controller_tid;
  samples_.clear();
  begin_us_ = bate::obs::now_us();
  samples_.emplace_back(begin_us_, runnable_ns(tid_));
  sampling_ = true;
  sampler_ = std::thread([this] { sample_loop(); });
}

void TraceCapture::end(long submits) {
  const std::int64_t end_us = bate::obs::now_us();
  sampling_ = false;
  sampler_.join();
  samples_.emplace_back(end_us, runnable_ns(tid_));
  const MetricsSnapshot after = bate::obs::Registry::global().snapshot();
  std::vector<SpanRecord> window =
      parse_spans(bate::obs::Tracer::global().chrome_json());
  bate::obs::set_enabled(false);

  std::map<std::string, std::int64_t> delta;
  for (const auto& [name, v] : after.counters) {
    delta[name] = v - lookup(before_.counters, name);
    counters_[name] += delta[name];
  }
  std::map<std::string, std::int64_t> batches;
  for (const auto& [name, h] : after.histograms) {
    const HistogramSnapshot old = lookup(before_.histograms, name);
    auto& acc = buckets_[name];
    const auto old_buckets = bucket_counts(old);
    for (const auto& [upper, n] : bucket_counts(h)) {
      const auto it = old_buckets.find(upper);
      acc[upper] += n - (it == old_buckets.end() ? 0 : it->second);
    }
    hist_count_[name] += h.count - old.count;
    hist_sum_[name] += h.sum - old.sum;
    batches[name] = h.count - old.count;
  }

  // Ring wrap: spans whose exact total is known elsewhere must all be
  // retained, or the breakdown is partial.
  const std::map<std::string, std::int64_t> expected = {
      {"client.submit", submits},
      {"controller.queue_wait",
       delta["bate_controller_demands_offered_total"]},
      {"controller.batch_admission", batches["bate_admission_batch_size"]},
      {"admission.offer_batch", batches["bate_admission_batch_size"]},
      {"scheduler.schedule", delta["bate_scheduler_rounds_total"]},
      {"recovery.precompute", delta["bate_recovery_precompute_total"]},
      {"solver.solve_milp", delta["bate_bnb_solves_total"]},
      {"broker.apply", delta["bate_broker_allocation_updates_total"]},
  };
  std::map<std::string, std::int64_t> retained;
  std::map<std::int64_t, std::int64_t> per_ring;
  std::int64_t controller_ring = -1;
  for (const SpanRecord& s : window) {
    ++retained[s.name];
    ++per_ring[s.ring];
    if (s.name == "controller.batch_admission" ||
        s.name == "controller.broadcast") {
      controller_ring = s.ring;
    }
  }
  for (const auto& [name, n] : expected) {
    dropped_ += std::max<std::int64_t>(0, n - retained[name]);
  }

  // Controller residual over the interval its ring still covers: from the
  // window start, or from its oldest retained span once the ring wrapped.
  if (controller_ring >= 0 && tid_ > 0 && samples_.front().second >= 0) {
    const bool wrapped = per_ring[controller_ring] >=
                         static_cast<std::int64_t>(
                             bate::obs::TraceRing::kDefaultCapacity);
    std::int64_t oldest = end_us;
    std::vector<std::pair<std::int64_t, std::int64_t>> busy;
    for (const SpanRecord& s : window) {
      if (s.ring != controller_ring) continue;
      oldest = std::min(oldest, s.ts_us);
      if (s.name == "controller.queue_wait") continue;  // waiting, not busy
      busy.emplace_back(s.ts_us, s.ts_us + s.dur_us);
    }
    const std::int64_t start = wrapped ? oldest : begin_us_;
    std::sort(busy.begin(), busy.end());
    std::int64_t covered = 0;
    std::int64_t reach = start;
    for (auto [a, b] : busy) {
      a = std::max(a, reach);
      b = std::min(b, end_us);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    named_us_ += static_cast<double>(covered);
    runnable_us_ +=
        (runnable_at(samples_, end_us) - runnable_at(samples_, start)) / 1e3;
  }
  spans_.insert(spans_.end(), std::make_move_iterator(window.begin()),
                std::make_move_iterator(window.end()));
}

std::int64_t TraceCapture::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

TraceCapture::Hist TraceCapture::histogram(const std::string& name) const {
  Hist h;
  const auto b = buckets_.find(name);
  if (b == buckets_.end()) return h;
  h.count = hist_count_.at(name);
  h.sum = hist_sum_.at(name);
  HistogramSnapshot snap;
  snap.count = h.count;
  snap.sum = h.sum;
  std::int64_t cumulative = 0;
  for (const auto& [upper, n] : b->second) {
    if (n == 0) continue;
    cumulative += n;
    snap.buckets.push_back({upper, upper == kInf, cumulative});
  }
  h.p50 = snap.quantile(0.5);
  return h;
}

double TraceCapture::unattributed_frac() const {
  return runnable_us_ > 0.0 ? 1.0 - named_us_ / runnable_us_ : 0.0;
}

std::map<std::string, double> layer_metrics(const TraceCapture& cap,
                                            const EventCounts& events) {
  const auto c = [&](const char* name) {
    return static_cast<double>(cap.counter(name));
  };
  const double ev = static_cast<double>(events.total());
  std::map<std::string, double> m;

  m["net.frames_per_event"] =
      ratio(c("bate_controller_frames_in_total") +
                c("bate_controller_frames_out_total"),
            ev);
  m["net.bytes_per_event"] =
      ratio(c("bate_controller_bytes_in_total") +
                c("bate_controller_bytes_out_total"),
            ev);
  m["net.updates_per_event"] =
      ratio(c("bate_controller_allocation_updates_total"), ev);

  // Span-derived stage times.
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  std::unordered_map<std::uint64_t, std::int64_t> child_us;
  for (const SpanRecord& s : cap.spans()) {
    if (s.span_id != 0) by_id[s.span_id] = &s;
    if (s.parent_id != 0) child_us[s.parent_id] += s.dur_us;
  }
  std::vector<double> queue_wait;
  std::vector<double> tick_self;
  std::vector<double> apply;
  double presolve_us = 0.0;
  double solve_lp_us = 0.0;
  for (const SpanRecord& s : cap.spans()) {
    if (s.name == "controller.queue_wait") {
      queue_wait.push_back(static_cast<double>(s.dur_us));
    } else if (s.name == "controller.batch_admission") {
      const auto it = child_us.find(s.span_id);
      tick_self.push_back(static_cast<double>(
          s.dur_us - (it == child_us.end() ? 0 : it->second)));
    } else if (s.name == "broker.apply") {
      apply.push_back(static_cast<double>(s.dur_us));
    } else if (s.name == "solver.solve_lp") {
      solve_lp_us += static_cast<double>(s.dur_us);
    } else if (s.name == "solver.presolve") {
      const auto parent = by_id.find(s.parent_id);
      if (parent != by_id.end() && parent->second->name == "solver.solve_lp") {
        presolve_us += static_cast<double>(s.dur_us);
      }
    }
  }
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };

  m["system.queue_wait_p50_us"] = quantile(queue_wait, 0.5);
  m["system.queue_wait_p99_us"] = quantile(queue_wait, 0.99);
  m["system.batch_size_mean"] =
      cap.histogram("bate_admission_batch_size").mean();
  m["system.tick_self_us"] = mean(tick_self);
  m["system.fanout_us"] = cap.histogram("bate_controller_fanout_us").mean();
  m["system.broker_apply_us"] = mean(apply);

  m["core.admission.decision_us"] =
      cap.histogram("bate_admission_decision_us").mean();
  m["core.admission.conjecture_accept_frac"] =
      ratio(c("bate_admission_conjecture_accepted_total"),
            c("bate_admission_conjecture_accepted_total") +
                c("bate_admission_conjecture_rejected_total"));
  const TraceCapture::Hist rounds = cap.histogram("bate_scheduler_round_us");
  m["core.scheduling.round_ms_p50"] = rounds.p50 / 1e3;
  m["core.scheduling.round_ms_sum"] = static_cast<double>(rounds.sum) / 1e3;
  m["core.scheduling.rounds_per_event"] =
      ratio(c("bate_scheduler_rounds_total"), ev);
  m["core.scheduling.warm_hit_frac"] =
      ratio(c("bate_scheduler_warm_hits_total"),
            c("bate_scheduler_warm_hits_total") +
                c("bate_scheduler_warm_misses_total"));
  m["core.recovery.precompute_ms"] =
      cap.histogram("bate_recovery_precompute_us").mean() / 1e3;
  m["core.recovery.plans_per_precompute"] =
      ratio(c("bate_recovery_plans_computed_total"),
            c("bate_recovery_precompute_total"));
  m["core.recovery.plan_hit_frac"] =
      ratio(c("bate_recovery_plan_hits_total"),
            c("bate_recovery_plan_hits_total") +
                c("bate_recovery_plan_misses_total"));

  const double lp_solves =
      c("bate_solver_solves_total") + c("bate_batch_instances_total");
  m["solver.solves_per_event"] = ratio(lp_solves, ev);
  m["solver.pivots_per_solve"] =
      ratio(c("bate_solver_pivots_total"), c("bate_solver_solves_total"));
  m["solver.refactorizations_per_solve"] =
      ratio(c("bate_solver_refactorizations_total"),
            c("bate_solver_solves_total"));
  m["solver.solve_us_per_event"] =
      ratio(static_cast<double>(cap.histogram("bate_solver_solve_us").sum +
                                cap.histogram("bate_batch_solve_us").sum),
            ev);
  m["solver.presolve_share"] = ratio(presolve_us, solve_lp_us);
  m["solver.bnb_nodes_per_round"] =
      ratio(c("bate_bnb_nodes_solved_total"), c("bate_scheduler_rounds_total"));

  m["obs.slo_transitions_per_event"] =
      ratio(c("bate_slo_transitions_total"), ev);

  m["trace.unattributed_frac"] = cap.unattributed_frac();
  m["trace.dropped_spans"] = static_cast<double>(cap.dropped_spans());
  return m;
}

}  // namespace perfbench
