#ifndef PQE_COUNTING_CONFIG_H_
#define PQE_COUNTING_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/cancel.h"
#include "util/extfloat.h"
#include "util/result.h"

namespace pqe {

/// Sampling-kernel selection for the counting core and the lineage
/// estimators (EstimatorConfig / KarpLubyConfig / MonteCarloConfig
/// `kernel_mode`). The two-tier determinism contract
/// (docs/performance.md "Kernel modes"):
enum class KernelMode : uint8_t {
  /// Scalar draws: rejection-sampled bounded picks, cumulative-table
  /// pickers, one RNG word at a time. Bit-identical across thread counts
  /// and versions — the golden path every capture/replay oracle runs on.
  kExact = 0,
  /// Batched SoA kernels: O(1) alias-table picks, block-generated RNG,
  /// multiply-shift bounded draws over contiguous reusable arenas.
  /// Statistically equivalent to kExact (χ²- and exact-oracle-gated in
  /// fast_kernels_test) and fixed-seed reproducible within a build, but
  /// not bit-identical to kExact or across versions.
  kFast = 1,
};

const char* KernelModeToString(KernelMode mode);
Result<KernelMode> KernelModeFromString(std::string_view name);

/// Floor of the auto-sized per-stratum sample pool
/// (EstimatorConfig::ResolvePoolSize).
inline constexpr size_t kMinPoolSize = 48;

/// Rejection-sampling attempt budget of one overlapping symbol group:
/// kAttemptFactor attempts per pooled sample wanted, plus a small constant.
inline constexpr size_t kAttemptFactor = 24;
inline constexpr size_t MaxRejectionAttempts(size_t pool_target) {
  return kAttemptFactor * pool_target + 64;
}

/// Tuning knobs for the CountNFA / CountNFTA estimators.
///
/// The implementations follow the Arenas–Croquevielle–Jayaram–Riveros
/// framework: per-stratum cardinality estimates plus uniform sample pools,
/// combined with Karp–Luby union estimation (canonical-witness rejection).
/// The theoretical polynomial sample bounds of the original papers are far
/// too large to run (as the paper's Section 6 concedes); `pool_size` (or the
/// auto-sizing rule) trades accuracy for time the way any practical FPRAS
/// implementation must. The estimator's guarantee degrades gracefully: more
/// samples → tighter (1±ε).
struct EstimatorConfig {
  /// Target relative error ε ∈ (0, 1).
  double epsilon = 0.2;
  /// RNG seed; all randomness derives from it (runs are reproducible).
  uint64_t seed = 0x5eed;
  /// Per-stratum sample pool size. 0 = auto: ~8·n/ε², clamped to
  /// [kMinPoolSize, max_pool_size].
  size_t pool_size = 0;
  /// Practical cap on the auto-sized pool (0 = uncapped "theory mode").
  size_t max_pool_size = 768;
  /// Median-of-R amplification: the counter runs `repetitions` independent
  /// estimates (seeds derived from `seed`) and returns the median — the
  /// standard FPRAS confidence boost. 1 = single run.
  size_t repetitions = 1;
  /// Worker threads for the parallel layers (the median-of-R repetitions
  /// run on separate workers). 0 = auto: $PQE_THREADS when set, else 1
  /// (serial). Estimates and stats are bit-identical for every value —
  /// seeds derive from (seed, repetition), merges are order-fixed (see
  /// docs/parallelism.md).
  size_t num_threads = 0;
  /// Ablation switch: disable the backward-usefulness pruning of strata
  /// (forward feasibility is load-bearing and always on). With pruning off,
  /// every (state, size) stratum with a non-empty language is processed,
  /// even those that cannot occur inside an accepted object of size n.
  bool disable_backward_pruning = false;
  /// Ablation switch: fall back to the pre-optimization hot path — per-draw
  /// PickWeightedIndex (no reusable pickers) and materialize-then-simulate
  /// membership checks (no run-state memo). Draw-for-draw identical to the
  /// cached path by construction (docs/performance.md), so estimates match
  /// bit for bit; bench_counting_hotpath uses it as the in-binary baseline.
  bool disable_hotpath_caches = false;
  /// Sampling-kernel tier (see KernelMode). kFast implies the cached hot
  /// path; it is independent of `disable_hotpath_caches`, which only
  /// ablates the kExact tier.
  KernelMode kernel_mode = KernelMode::kExact;
  /// Cooperative cancellation (optional, not owned; must outlive the run).
  /// The counters poll the token once per processed stratum and every few
  /// hundred rejection attempts; when it expires they abort with
  /// StatusCode::kDeadlineExceeded instead of completing the sweep, and
  /// record per-stratum progress on the token (see util/cancel.h). nullptr
  /// (the default) never cancels. The token is polled by every median-of-R
  /// repetition, so a run aborts promptly at any thread count.
  const CancelToken* cancel = nullptr;

  /// Resolves the pool size for a run of target size n.
  size_t ResolvePoolSize(size_t n) const;
};

/// The single source of truth for CountStats' fields. Every serializer
/// (ToString, obs::StatsToJson, trace attributes) iterates this list via
/// ForEachField, so a field added here is exported everywhere at once — and
/// the static_assert below makes it impossible to add a field to the struct
/// without adding it here.
#define PQE_COUNT_STATS_FIELDS(X) \
  X(strata_total)                 \
  X(strata_live)                  \
  X(pool_entries)                 \
  X(attempts)                     \
  X(accepted)                     \
  X(forced_samples)               \
  X(membership_checks)            \
  X(picker_builds)                \
  X(alias_builds)                 \
  X(batch_draws)                  \
  X(runstates_memo_hits)          \
  X(runstates_memo_misses)        \
  X(runstates_steps)

/// Run statistics reported by the counters (for benchmarks and diagnostics).
struct CountStats {
  size_t strata_total = 0;      // all (state, size) strata
  size_t strata_live = 0;       // strata surviving feasibility pruning
  size_t pool_entries = 0;      // samples stored across all pools
  size_t attempts = 0;          // rejection-sampling attempts
  size_t accepted = 0;          // accepted (canonical) samples
  size_t forced_samples = 0;    // zero-accept fallbacks (should be rare)
  size_t membership_checks = 0; // exact membership oracle invocations
  size_t picker_builds = 0;     // WeightedPicker cumulative-table builds
  size_t alias_builds = 0;      // AliasPicker table builds (fast kernels)
  size_t batch_draws = 0;       // block-RNG batches drawn (fast kernels)
  size_t runstates_memo_hits = 0;    // membership answered from the memo
  size_t runstates_memo_misses = 0;  // membership computed and memoized
  size_t runstates_steps = 0;  // run-state sets computed: distinct lazy-DFA
                               // steps (CountNFA), distinct (symbol, child
                               // tuple) keys (CountNFTA)

  /// Visits (name, value) for every field, in declaration order.
  template <typename Fn>
  void ForEachField(Fn&& fn) const {
#define PQE_COUNT_STATS_VISIT(field) fn(#field, uint64_t{field});
    PQE_COUNT_STATS_FIELDS(PQE_COUNT_STATS_VISIT)
#undef PQE_COUNT_STATS_VISIT
  }

  /// "field=value" pairs for every field (via ForEachField).
  std::string ToString() const;
};

namespace internal {
#define PQE_COUNT_STATS_PLUS_ONE(field) +1
inline constexpr size_t kCountStatsFieldCount =
    0 PQE_COUNT_STATS_FIELDS(PQE_COUNT_STATS_PLUS_ONE);
#undef PQE_COUNT_STATS_PLUS_ONE
}  // namespace internal

// Serialization-completeness guard: adding a size_t field to CountStats
// without listing it in PQE_COUNT_STATS_FIELDS fails this assert, so a field
// can never be silently dropped from ToString()/JSON export.
static_assert(sizeof(CountStats) ==
                  internal::kCountStatsFieldCount * sizeof(size_t),
              "CountStats field added without updating "
              "PQE_COUNT_STATS_FIELDS (ToString/JSON export would drop it)");

/// An approximate count with its run statistics.
struct CountEstimate {
  ExtFloat value;
  CountStats stats;
};

namespace obs {
class ScopedSpan;
}  // namespace obs

/// Observability hook shared by CountNFA/CountNFTA: attaches every
/// CountStats field (plus the derived canonical_rejections, the
/// `hotpath` = "cached"/"legacy" mode marker and the `kernels` =
/// "exact"/"fast" tier) to `span` and folds the run into the global metric
/// registry under `prefix` (e.g. "pqe.count_nfta"), plus the cross-counter
/// `counting.picker_builds` / `counting.alias_builds` /
/// `counting.batch_draws` / `counting.runstates_memo_{hits,misses}` /
/// `counting.runstates_steps` hot-path counters. One call per counter run,
/// not per sample.
void RecordCountRun(const char* prefix, const CountStats& stats,
                    bool hotpath_cached, KernelMode kernel_mode,
                    obs::ScopedSpan* span);

}  // namespace pqe

#endif  // PQE_COUNTING_CONFIG_H_
