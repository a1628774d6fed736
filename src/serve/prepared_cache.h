#ifndef PQE_SERVE_PREPARED_CACHE_H_
#define PQE_SERVE_PREPARED_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/ur_construction.h"
#include "cq/query.h"
#include "pdb/database.h"
#include "serve/prepared_query.h"
#include "util/result.h"

namespace pqe {
namespace serve {

/// A bounded, thread-safe LRU cache of PreparedQuery objects, keyed by the
/// *content* of the (query, database, max_width) triple — not by object
/// identity — so two requests carrying equal queries over equal fact sets
/// share one compiled skeleton no matter which objects they hold.
///
/// Concurrency: a key's slot is inserted under the cache lock, but the
/// (possibly expensive) compile runs outside it under the slot's own
/// once-flag — concurrent misses on the same key block on one build instead
/// of compiling in parallel, and misses on different keys never serialize.
/// Eviction drops the cache's reference only; in-flight evaluations keep
/// their PreparedQuery alive through shared_ptr.
class PreparedCache {
 public:
  /// `capacity` = maximum number of prepared entries retained (≥ 1).
  /// `bind_cache_capacity` = per-entry bound-labelling LRU depth, forwarded
  /// to PreparedQuery::Prepare.
  explicit PreparedCache(size_t capacity, size_t bind_cache_capacity = 4);

  PreparedCache(const PreparedCache&) = delete;
  PreparedCache& operator=(const PreparedCache&) = delete;

  /// Per-call outcome for telemetry. `hit` is false for the caller whose
  /// probe inserted the slot; `compile_ns` is the skeleton compile time that
  /// caller paid (0 on hits — a hit may still briefly block on another
  /// caller's in-flight compile, which shows up as lookup time).
  struct LookupResult {
    bool hit = false;
    uint64_t compile_ns = 0;
  };

  /// Returns the cached PreparedQuery for the triple's content, compiling
  /// and inserting it on miss. A failed compile is returned to every caller
  /// of that slot. A NotSupported failure depends only on the content key,
  /// so it stays cached (and counts hits); any other failure is not
  /// retained (the next request retries).
  Result<std::shared_ptr<const PreparedQuery>> GetOrPrepare(
      const ConjunctiveQuery& query, const Database& db,
      const UrConstructionOptions& options, LookupResult* lookup = nullptr);

  /// Regular-path-query companion of GetOrPrepare: same cache, same slots,
  /// keyed by RpqContentKey. Compiles through PreparedQuery::PrepareRpq on
  /// miss.
  Result<std::shared_ptr<const PreparedQuery>> GetOrPrepareRpq(
      const rpq::RpqQuery& query, const Database& db,
      LookupResult* lookup = nullptr);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };
  Stats stats() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }

  /// Every successfully prepared query currently retained, MRU first.
  /// In-flight compiles are skipped (their slots aren't ready yet) — the
  /// caller that triggered the compile will see its own entry. Used by
  /// PqeService::ApplyUpdate to push a delta to every resident query.
  std::vector<std::shared_ptr<const PreparedQuery>> Snapshot() const;

  /// The content key: FNV-1a over the rendered query, the fact count, the
  /// database's fact fingerprint (Database::FactsFingerprint — every fact's
  /// rendering in FactId order, maintained by AddFact, so the probe costs
  /// O(|query|) rather than O(|D|)), and the width budget. 64-bit
  /// fingerprints, so distinct workloads collide with negligible
  /// probability; a collision would serve the colliding key the other key's
  /// skeleton.
  static uint64_t ContentKey(const ConjunctiveQuery& query,
                             const Database& db, size_t max_width);

  /// The RPQ content key: FNV-1a over an "rpq" tag, the canonical regex
  /// rendering (RpqQuery::Canonical — deterministic, so equal regexes agree
  /// no matter how they were spelled), the fact count and the fact
  /// fingerprint. No width term: the string route has no decomposition.
  static uint64_t RpqContentKey(const rpq::RpqQuery& query, const Database& db);

 private:
  /// The shared probe/insert/compile body: `compile` runs under the slot's
  /// once-flag on miss.
  Result<std::shared_ptr<const PreparedQuery>> GetOrPrepareImpl(
      uint64_t key,
      const std::function<Result<std::shared_ptr<const PreparedQuery>>()>&
          compile,
      LookupResult* lookup);
  struct Slot {
    std::once_flag once;
    // Written once under `once`, then read-only. `ready` is release-stored
    // after the build so Snapshot() can read `prepared` without touching
    // the once-flag.
    std::shared_ptr<const PreparedQuery> prepared;
    Status status = Status::OK();
    std::atomic<bool> ready{false};
  };

  const size_t capacity_;
  const size_t bind_cache_capacity_;

  mutable std::mutex mu_;
  // MRU-first recency list; the map points into it for O(1) touch/evict.
  std::list<std::pair<uint64_t, std::shared_ptr<Slot>>> lru_;
  std::unordered_map<uint64_t, decltype(lru_)::iterator> index_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace serve
}  // namespace pqe

#endif  // PQE_SERVE_PREPARED_CACHE_H_
