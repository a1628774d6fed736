#ifndef PQE_COUNTING_SUBSET_INTERN_H_
#define PQE_COUNTING_SUBSET_INTERN_H_

// The interning kernel behind both counters' membership oracles (CountNFA's
// lazy subset DFA, CountNFTA's interned run-state sets): SetInterner gives
// every distinct sorted run-state set a dense 32-bit subset id, and
// PackedTable maps a packed 64-bit key to a 32-bit value. Both are flat
// open-addressing arrays with linear probing and Fibonacci hashing, doubled
// at half load; a counter owns its tables for one run, so nothing here is
// shared across threads.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "automata/nfa.h"
#include "util/check.h"
#include "util/span.h"

namespace pqe {

// A run [off, off + len) of one of a counter's arenas.
struct ArenaRun {
  uint32_t off = 0;
  uint32_t len = 0;
};

namespace internal {

// Fibonacci hashing: the top (64 - shift) bits of key · 2^64/φ, the home
// bucket of `key` in a power-of-two open-addressing table.
inline size_t HashBucket(uint64_t key, unsigned shift) {
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift);
}

// Buckets an interning table starts with (a power of two).
inline constexpr unsigned kTableLog2 = 8;

}  // namespace internal

// A map from non-zero 64-bit keys to 32-bit values (0 marks an empty
// bucket, so callers pack keys whose high or low half is a non-zero id).
class PackedTable {
 public:
  PackedTable() : table_(size_t{1} << internal::kTableLog2) {}

  // The value stored under `key`, or nullptr.
  const uint32_t* Find(uint64_t key) const {
    const size_t mask = table_.size() - 1;
    for (size_t b = internal::HashBucket(key, shift_); table_[b].key != 0;
         b = (b + 1) & mask) {
      if (table_[b].key == key) return &table_[b].value;
    }
    return nullptr;
  }

  // Stores `value` under `key`, which must be non-zero and absent.
  void Insert(uint64_t key, uint32_t value) {
    Place(Entry{key, value});
    if (2 * ++count_ > table_.size()) {
      const std::vector<Entry> old = std::move(table_);
      table_.assign(old.size() * 2, Entry{});
      --shift_;
      for (const Entry& e : old) {
        if (e.key != 0) Place(e);
      }
    }
  }

 private:
  struct Entry {
    uint64_t key = 0;
    uint32_t value = 0;
  };

  void Place(const Entry& e) {
    const size_t mask = table_.size() - 1;
    size_t b = internal::HashBucket(e.key, shift_);
    while (table_[b].key != 0) b = (b + 1) & mask;
    table_[b] = e;
  }

  std::vector<Entry> table_;
  size_t count_ = 0;
  unsigned shift_ = 64 - internal::kTableLog2;  // 64 - log2(table_.size())
};

// Interned sorted state sets, back to back in one arena under dense subset
// ids starting at 1 (id 0 is never issued, so callers can use it as a "not
// computed" marker).
class SetInterner {
 public:
  SetInterner()
      : slot_(1), hash_(1, 0), table_(size_t{1} << internal::kTableLog2, 0) {}

  Span<StateId> View(uint32_t id) const {
    const ArenaRun s = slot_[id];
    return Span<StateId>(arena_.data() + s.off, s.len);
  }

  // The id of the sorted set `states`, appended to the arena if new.
  uint32_t Intern(const std::vector<StateId>& states) {
    uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the state ids
    for (StateId s : states) h = (h ^ s) * 0x100000001b3ull;
    const size_t mask = table_.size() - 1;
    size_t b = internal::HashBucket(h, shift_);
    for (; table_[b] != 0; b = (b + 1) & mask) {
      const uint32_t id = table_[b];
      if (hash_[id] != h) continue;
      const Span<StateId> known = View(id);
      if (std::equal(known.begin(), known.end(), states.begin(),
                     states.end())) {
        return id;
      }
    }
    PQE_CHECK(slot_.size() < UINT32_MAX);
    PQE_CHECK(arena_.size() + states.size() <= UINT32_MAX);
    const uint32_t id = static_cast<uint32_t>(slot_.size());
    slot_.push_back(ArenaRun{static_cast<uint32_t>(arena_.size()),
                         static_cast<uint32_t>(states.size())});
    hash_.push_back(h);
    arena_.insert(arena_.end(), states.begin(), states.end());
    table_[b] = id;
    if (2 * (slot_.size() - 1) > table_.size()) Grow();
    return id;
  }

 private:
  void Grow() {
    table_.assign(table_.size() * 2, 0);
    --shift_;
    const size_t mask = table_.size() - 1;
    for (uint32_t id = 1; id < slot_.size(); ++id) {
      size_t b = internal::HashBucket(hash_[id], shift_);
      while (table_[b] != 0) b = (b + 1) & mask;
      table_[b] = id;
    }
  }

  std::vector<StateId> arena_;
  std::vector<ArenaRun> slot_;  // [subset id]
  std::vector<uint64_t> hash_;  // [subset id]
  std::vector<uint32_t> table_;  // subset ids; 0 = empty bucket
  unsigned shift_ = 64 - internal::kTableLog2;  // 64 - log2(table_.size())
};

}  // namespace pqe

#endif  // PQE_COUNTING_SUBSET_INTERN_H_
