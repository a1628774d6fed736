#include "serve/telemetry.h"

#include <algorithm>
#include <utility>

#include "obs/export.h"

namespace pqe {
namespace serve {

const char* CacheClassName(CacheClass c) {
  switch (c) {
    case CacheClass::kAnswerMemo:
      return "answer_memo";
    case CacheClass::kWarmBind:
      return "warm_bind";
    case CacheClass::kDeltaRebind:
      return "delta_rebind";
    case CacheClass::kRebind:
      return "rebind";
    case CacheClass::kColdCompile:
      return "cold_compile";
    case CacheClass::kDelegated:
      return "delegated";
  }
  return "unknown";
}

const ServiceStats::StageStats* ServiceStats::FindStage(
    std::string_view stage) const {
  for (const StageStats& s : stages) {
    if (s.stage == stage) return &s;
  }
  return nullptr;
}

std::string ServiceStats::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("service_stats").BeginObject();
  w.Key("requests").Uint(requests);
  w.Key("ok").Uint(ok);
  w.Key("errors").Uint(errors);
  w.Key("deadline_exceeded").Uint(deadline_exceeded);
  w.Key("by_class").BeginObject();
  for (size_t i = 0; i < kNumCacheClasses; ++i) {
    w.Key(CacheClassName(static_cast<CacheClass>(i))).Uint(by_class[i]);
  }
  w.EndObject();
  w.Key("stages").BeginObject();
  for (const StageStats& s : stages) {
    w.Key(s.stage).BeginObject();
    w.Key("count").Uint(s.count);
    w.Key("sum_ns").Uint(s.sum_ns);
    if (s.count == 0) {
      // A stage no request ran has no distribution. Numeric 0 would read
      // as "measured at 0ns" on a dashboard; explicit nulls say "no data".
      w.Key("p50_ns").Null();
      w.Key("p95_ns").Null();
      w.Key("p99_ns").Null();
    } else {
      w.Key("p50_ns").Double(s.p50_ns);
      w.Key("p95_ns").Double(s.p95_ns);
      w.Key("p99_ns").Double(s.p99_ns);
    }
    w.EndObject();
  }
  w.EndObject();
  w.Key("slow_queries").BeginArray();
  for (const SlowQuery& q : slow_queries) {
    w.BeginObject();
    w.Key("request_id").Uint(q.request_id);
    w.Key("total_ns").Uint(q.total_ns);
    w.Key("class").String(CacheClassName(q.cache_class));
    w.Key("excerpt").String(q.span_excerpt);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  return w.Take();
}

ServiceTelemetry::ServiceTelemetry(size_t slow_log_capacity)
    : slow_capacity_(slow_log_capacity) {}

void ServiceTelemetry::Record(
    RequestTelemetry t,
    const std::function<std::string(const RequestTelemetry&)>& excerpt) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (t.status == StatusCode::kOk) {
    ok_.fetch_add(1, std::memory_order_relaxed);
  } else if (t.deadline_exceeded) {
    deadline_.fetch_add(1, std::memory_order_relaxed);
  } else {
    errors_.fetch_add(1, std::memory_order_relaxed);
  }
  by_class_[static_cast<size_t>(t.cache_class)].fetch_add(
      1, std::memory_order_relaxed);

  total_.Observe(t.total_ns);
  // Stage histograms only see requests that ran the stage, so their
  // quantiles describe the stage's cost, not its frequency (by_class covers
  // frequency).
  if (t.cache_lookup_ns > 0) cache_lookup_.Observe(t.cache_lookup_ns);
  if (t.compile_ns > 0) compile_.Observe(t.compile_ns);
  if (t.bind_ns > 0) bind_.Observe(t.bind_ns);
  if (t.estimate_ns > 0) estimate_.Observe(t.estimate_ns);

  if (slow_capacity_ == 0) return;
  // Fast path: a full log whose slowest floor beats this request means the
  // request can't enter — no lock taken.
  if (t.total_ns <= slow_floor_.load(std::memory_order_relaxed)) return;
  if (excerpt) t.span_excerpt = excerpt(t);
  std::lock_guard<std::mutex> lock(slow_mu_);
  if (slow_.size() >= slow_capacity_ && t.total_ns <= slow_.back().total_ns) {
    return;  // the floor moved while we waited for the lock
  }
  ServiceStats::SlowQuery entry;
  entry.request_id = t.request_id;
  entry.total_ns = t.total_ns;
  entry.cache_class = t.cache_class;
  entry.span_excerpt = std::move(t.span_excerpt);
  auto pos = std::upper_bound(
      slow_.begin(), slow_.end(), entry.total_ns,
      [](uint64_t ns, const ServiceStats::SlowQuery& q) {
        return ns > q.total_ns;
      });
  slow_.insert(pos, std::move(entry));
  if (slow_.size() > slow_capacity_) slow_.pop_back();
  if (slow_.size() >= slow_capacity_) {
    slow_floor_.store(slow_.back().total_ns, std::memory_order_relaxed);
  }
}

void ServiceTelemetry::Reset() {
  requests_.store(0, std::memory_order_relaxed);
  ok_.store(0, std::memory_order_relaxed);
  errors_.store(0, std::memory_order_relaxed);
  deadline_.store(0, std::memory_order_relaxed);
  for (auto& c : by_class_) c.store(0, std::memory_order_relaxed);
  total_.Reset();
  cache_lookup_.Reset();
  compile_.Reset();
  bind_.Reset();
  estimate_.Reset();
  {
    std::lock_guard<std::mutex> lock(slow_mu_);
    slow_.clear();
    // The floor lives and dies with the log: clearing one without the
    // other would stall admission until a request beat the stale floor.
    slow_floor_.store(0, std::memory_order_relaxed);
  }
}

namespace {

ServiceStats::StageStats StageFromHistogram(const char* stage,
                                            const obs::Histogram& h) {
  const obs::MetricsSnapshot::HistogramEntry entry =
      obs::MetricsSnapshot::SnapshotHistogram(stage, h);
  ServiceStats::StageStats s;
  s.stage = stage;
  s.count = entry.count;
  s.sum_ns = entry.sum;
  s.p50_ns = entry.Quantile(0.50);
  s.p95_ns = entry.Quantile(0.95);
  s.p99_ns = entry.Quantile(0.99);
  return s;
}

}  // namespace

ServiceStats ServiceTelemetry::Snapshot() const {
  ServiceStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.ok = ok_.load(std::memory_order_relaxed);
  stats.errors = errors_.load(std::memory_order_relaxed);
  stats.deadline_exceeded = deadline_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kNumCacheClasses; ++i) {
    stats.by_class[i] = by_class_[i].load(std::memory_order_relaxed);
  }
  stats.stages.push_back(StageFromHistogram("total", total_));
  stats.stages.push_back(StageFromHistogram("cache_lookup", cache_lookup_));
  stats.stages.push_back(StageFromHistogram("compile", compile_));
  stats.stages.push_back(StageFromHistogram("bind", bind_));
  stats.stages.push_back(StageFromHistogram("estimate", estimate_));
  {
    std::lock_guard<std::mutex> lock(slow_mu_);
    stats.slow_queries = slow_;
  }
  return stats;
}

}  // namespace serve
}  // namespace pqe
