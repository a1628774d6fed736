#ifndef PQE_SERVE_TELEMETRY_H_
#define PQE_SERVE_TELEMETRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace pqe {
namespace serve {

/// How much of the prepared pipeline a request actually ran, named by the
/// deepest stage that did real work. Doubles as the cache-effectiveness
/// taxonomy: a healthy steady-state workload is mostly kAnswerMemo /
/// kWarmBind, with kColdCompile only on first sight of a (query, facts)
/// pair.
enum class CacheClass {
  kAnswerMemo,    // bind and config both warm: answer served from the memo
  kWarmBind,      // skeleton + bind reused; only the sampler ran
  kDeltaRebind,   // skeleton reused; labels drifted but the bind was patched
                  // in place from a prior labelling (delta rebind)
  kRebind,        // skeleton reused; labels drifted, gadgets re-expanded
  kColdCompile,   // skeleton compiled this request (deepest work)
  kDelegated,     // non-prepared route (safe plan, enumeration, lineage, ...)
};

inline constexpr size_t kNumCacheClasses = 6;

const char* CacheClassName(CacheClass c);

/// Everything the service learns about one request, populated inside
/// PqeService::EvaluateOne. Stage timings are steady_clock measurements, so
/// they exist even in PQE_ENABLE_TRACING=0 builds; stages a request did not
/// run stay 0.
struct RequestTelemetry {
  uint64_t request_id = 0;
  CacheClass cache_class = CacheClass::kDelegated;
  StatusCode status = StatusCode::kOk;
  bool deadline_exceeded = false;

  uint64_t total_ns = 0;
  uint64_t cache_lookup_ns = 0;  // PreparedCache probe (minus compile time)
  uint64_t compile_ns = 0;       // skeleton compile, when this request paid it
  uint64_t bind_ns = 0;          // probability bind (gadget expansion)
  uint64_t estimate_ns = 0;      // CountNFA/CountNFTA sampling

  uint64_t samples = 0;   // rejection-sampling attempts of the answer
  uint64_t progress = 0;  // strata finished before completion or expiry

  /// One-line description for the slow-query log: the stage breakdown, plus
  /// a trace excerpt when the request collected one.
  std::string span_excerpt;
};

/// A point-in-time aggregate of every request the service has served.
struct ServiceStats {
  uint64_t requests = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;  // non-OK, non-deadline statuses
  uint64_t deadline_exceeded = 0;
  /// Requests per CacheClass, indexed by the enum's value.
  std::array<uint64_t, kNumCacheClasses> by_class{};

  /// Latency distribution of one pipeline stage, quantiles extracted from
  /// the log2 histogram buckets (obs::MetricsSnapshot::HistogramEntry).
  struct StageStats {
    std::string stage;  // "total", "cache_lookup", "compile", "bind", "estimate"
    uint64_t count = 0;   // requests that ran the stage
    uint64_t sum_ns = 0;
    double p50_ns = 0.0;
    double p95_ns = 0.0;
    double p99_ns = 0.0;
  };
  std::vector<StageStats> stages;

  struct SlowQuery {
    uint64_t request_id = 0;
    uint64_t total_ns = 0;
    CacheClass cache_class = CacheClass::kDelegated;
    std::string span_excerpt;
  };
  /// The slowest requests seen, slowest first, bounded by the service's
  /// slow_log_capacity.
  std::vector<SlowQuery> slow_queries;

  const StageStats* FindStage(std::string_view stage) const;

  /// JSON rendering for the CLI and dashboards:
  /// {"service_stats": {"requests": ..., "by_class": {...},
  ///  "stages": {name: {count, sum_ns, p50_ns, p95_ns, p99_ns}},
  ///  "slow_queries": [...]}}.
  std::string ToJson() const;
};

/// The lock-cheap aggregation behind PqeService::StatsSnapshot(). Record()
/// is a handful of relaxed atomic adds plus histogram observes; the mutex is
/// only taken when a request is slow enough to enter the bounded slow-query
/// log (an atomic floor check skips it for the fast majority). Snapshot()
/// follows the same relaxed contract as obs::MetricRegistry — see the
/// contract note there.
class ServiceTelemetry {
 public:
  explicit ServiceTelemetry(size_t slow_log_capacity);

  ServiceTelemetry(const ServiceTelemetry&) = delete;
  ServiceTelemetry& operator=(const ServiceTelemetry&) = delete;

  /// Aggregates one request. `excerpt`, when set, formats the request's
  /// slow-log line (RequestTelemetry::span_excerpt); it runs only for a
  /// request that passes the slow log's admission floor.
  void Record(RequestTelemetry t,
              const std::function<std::string(const RequestTelemetry&)>&
                  excerpt = nullptr);
  ServiceStats Snapshot() const;

  /// Zeroes every aggregate: counts, stage histograms, and the slow-query
  /// log TOGETHER WITH its admission floor. The floor must fall with the
  /// log — a floor left at the old tail would silently reject every
  /// post-reset request faster than the pre-reset slowest, leaving the
  /// fresh log empty forever. Safe to interleave with concurrent Record()
  /// calls under the relaxed-atomics contract (see obs::MetricRegistry);
  /// quiesce first when an exact cut matters.
  void Reset();

 private:
  const size_t slow_capacity_;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> deadline_{0};
  std::array<std::atomic<uint64_t>, kNumCacheClasses> by_class_{};

  obs::Histogram total_;
  obs::Histogram cache_lookup_;
  obs::Histogram compile_;
  obs::Histogram bind_;
  obs::Histogram estimate_;

  // Smallest total_ns currently held by a full slow log; requests at or
  // below it can't enter and skip the mutex entirely.
  std::atomic<uint64_t> slow_floor_{0};
  mutable std::mutex slow_mu_;
  std::vector<ServiceStats::SlowQuery> slow_;  // sorted slowest-first
};

}  // namespace serve
}  // namespace pqe

#endif  // PQE_SERVE_TELEMETRY_H_
