#ifndef PQE_COUNTING_FLAT_BITSET_H_
#define PQE_COUNTING_FLAT_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pqe {

/// A fixed-size bitset in one flat word array. The counters lay their
/// (stratum × size) feasibility tables out row-major in one of these
/// instead of a vector of per-row vector<bool>s.
class FlatBitset {
 public:
  /// Resets to `bits` cleared bits.
  void Assign(size_t bits) { words_.assign((bits + 63) / 64, 0); }

  bool Test(size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1u; }
  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }

  /// Number of set bits.
  size_t Count() const {
    size_t n = 0;
    for (uint64_t w : words_) n += static_cast<size_t>(__builtin_popcountll(w));
    return n;
  }

  /// this &= other (equal sizes).
  void AndWith(const FlatBitset& other) {
    for (size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
  }

 private:
  std::vector<uint64_t> words_;
};

}  // namespace pqe

#endif  // PQE_COUNTING_FLAT_BITSET_H_
