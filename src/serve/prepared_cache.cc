#include "serve/prepared_cache.h"

#include <chrono>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "rpq/regex.h"

namespace pqe {
namespace serve {

namespace {

void MixBytes(uint64_t* h, const std::string& s) {
  for (unsigned char c : s) {
    *h ^= c;
    *h *= 1099511628211ull;
  }
  // Delimit fields so concatenations can't alias across boundaries.
  *h ^= 0xffu;
  *h *= 1099511628211ull;
}

void MixU64(uint64_t* h, uint64_t v) {
  *h ^= v;
  *h *= 1099511628211ull;
}

}  // namespace

uint64_t PreparedCache::ContentKey(const ConjunctiveQuery& query,
                                   const Database& db, size_t max_width) {
  uint64_t h = 1469598103934665603ull;
  MixBytes(&h, query.ToString(db.schema()));
  MixU64(&h, db.NumFacts());
  MixU64(&h, db.FactsFingerprint());
  MixU64(&h, max_width);
  return h;
}

uint64_t PreparedCache::RpqContentKey(const rpq::RpqQuery& query,
                                      const Database& db) {
  uint64_t h = 1469598103934665603ull;
  // The tag keeps an RPQ and a CQ that happen to render identically from
  // colliding by construction.
  MixBytes(&h, "rpq");
  MixBytes(&h, query.Canonical());
  MixU64(&h, db.NumFacts());
  MixU64(&h, db.FactsFingerprint());
  return h;
}

PreparedCache::PreparedCache(size_t capacity, size_t bind_cache_capacity)
    : capacity_(capacity < 1 ? 1 : capacity),
      bind_cache_capacity_(bind_cache_capacity < 1 ? 1
                                                   : bind_cache_capacity) {}

Result<std::shared_ptr<const PreparedQuery>> PreparedCache::GetOrPrepare(
    const ConjunctiveQuery& query, const Database& db,
    const UrConstructionOptions& options, LookupResult* lookup) {
  return GetOrPrepareImpl(
      ContentKey(query, db, options.max_width),
      [&]() {
        return PreparedQuery::Prepare(query, db, options,
                                      bind_cache_capacity_);
      },
      lookup);
}

Result<std::shared_ptr<const PreparedQuery>> PreparedCache::GetOrPrepareRpq(
    const rpq::RpqQuery& query, const Database& db, LookupResult* lookup) {
  return GetOrPrepareImpl(
      RpqContentKey(query, db),
      [&]() {
        return PreparedQuery::PrepareRpq(query, db, bind_cache_capacity_);
      },
      lookup);
}

Result<std::shared_ptr<const PreparedQuery>> PreparedCache::GetOrPrepareImpl(
    uint64_t key,
    const std::function<Result<std::shared_ptr<const PreparedQuery>>()>&
        compile,
    LookupResult* lookup) {
  std::shared_ptr<Slot> slot;
  bool inserted = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      // Touch: move to the MRU end.
      lru_.splice(lru_.begin(), lru_, it->second);
      it->second = lru_.begin();
      slot = it->second->second;
    } else {
      slot = std::make_shared<Slot>();
      lru_.emplace_front(key, slot);
      index_[key] = lru_.begin();
      inserted = true;
      while (lru_.size() > capacity_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
        obs::MetricRegistry::Global()
            .GetCounter("serve.cache_evictions")
            .Increment();
      }
    }
  }
  if (inserted) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    obs::MetricRegistry::Global().GetCounter("serve.cache_misses").Increment();
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
    obs::MetricRegistry::Global().GetCounter("serve.cache_hits").Increment();
  }
  if (lookup != nullptr) lookup->hit = !inserted;

  // Compile outside the cache lock; concurrent requests for this key all
  // block here and share the one build.
  std::call_once(slot->once, [&]() {
    const auto compile_start = std::chrono::steady_clock::now();
    auto prepared = compile();
    if (prepared.ok()) {
      slot->prepared = std::move(*prepared);
    } else {
      slot->status = prepared.status();
    }
    slot->ready.store(true, std::memory_order_release);
    if (lookup != nullptr) {
      lookup->compile_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - compile_start)
              .count());
    }
  });
  if (!slot->status.ok()) {
    // Don't retain failures: drop the slot (if it's still ours) so a later
    // request retries instead of replaying a stale error forever.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end() && it->second->second == slot) {
      lru_.erase(it->second);
      index_.erase(it);
    }
    return slot->status;
  }
  return slot->prepared;
}

PreparedCache::Stats PreparedCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

size_t PreparedCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::vector<std::shared_ptr<const PreparedQuery>> PreparedCache::Snapshot()
    const {
  std::vector<std::shared_ptr<const PreparedQuery>> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(lru_.size());
  for (const auto& entry : lru_) {
    const Slot& slot = *entry.second;
    if (!slot.ready.load(std::memory_order_acquire)) continue;
    if (slot.prepared != nullptr) out.push_back(slot.prepared);
  }
  return out;
}

}  // namespace serve
}  // namespace pqe
