#ifndef PQE_AUTOMATA_MULTIPLIER_NFTA_H_
#define PQE_AUTOMATA_MULTIPLIER_NFTA_H_

#include <cstdint>
#include <vector>

#include "automata/nfta.h"
#include "util/result.h"

namespace pqe {

/// The value-stable ("slotted") translation layout produced by
/// MultiplierNfta::ToNftaStable. The translated automaton's shape — states,
/// rule count, per-rule (from, symbol) and arena reserves — depends only on
/// the slot widths, never on the multiplier values; the values live purely
/// in rule targets that PatchStableNftaSlot can rewrite in place. This is
/// what lets a probability bind be patched per-fact instead of recompiled
/// (core/pqe.h delta rebinds).
struct StableNftaLayout {
  SymbolId bit0 = 0;
  SymbolId bit1 = 0;
  /// Global dead state: comparator branches that would exceed the bound (and
  /// entry rules of multiplier-0 slots) target it. It has no rules, so the
  /// counting layers' forward/backward liveness pruning discards those
  /// branches — stable automata must not be Trim()ed.
  StateId sink = 0;
  struct Slot {
    uint32_t entry_idx = 0;  ///< transition index of the slot's entry rule
    uint32_t width = 0;      ///< comparator width k in bits
    StateId eq0 = 0;         ///< eq[i] = eq0 + i (valid when k > 0)
    StateId lt1 = 0;         ///< lt[i] = lt1 + (i - 1) (valid when k > 1)
    uint32_t exit_off = 0;   ///< offset into exit_children
    uint32_t exit_len = 0;   ///< arity of the original transition
  };
  std::vector<Slot> slots;  ///< one per multiplier transition, in order
  std::vector<StateId> exit_children;  ///< concatenated original children
};

/// Rewrites slot `slot_idx` of a ToNftaStable-produced automaton so that it
/// encodes `multiplier` (requires GadgetDepth(max(multiplier, 1)) <= the
/// slot's width). This is the canonical writer of value-dependent targets —
/// ToNftaStable itself calls it with the build-time multipliers — so a
/// patched automaton is bit-identical to a fresh translation by
/// construction. Only the run-state index is invalidated (structure keyed on
/// (from, symbol) never changes), so warm CSR adjacency survives the patch.
void PatchStableNftaSlot(Nfta* nfta, const StableNftaLayout& layout,
                         size_t slot_idx, uint64_t multiplier);

/// A (top-down) NFTA with multipliers T^c (Definition 2): each transition
/// carries a positive integer n ("multiplier"); taking the transition must
/// multiply the number of accepted trees by n. Semantics are defined by
/// translation to an ordinary NFTA (ToNftaStable) via the binary-comparator
/// gadget of Section 5.1: below the transition's node a unary path of
/// k = ⌊log₂(n−1)⌋ + 1 bit-labelled nodes spells a binary string, and the
/// gadget accepts exactly the n strings with value ≤ n − 1. Its states are
/// eq_i ("the first i bits equal n − 1's prefix", i = 0..k−1) and lt_i
/// ("already strictly below", i = 1..k−1).
class MultiplierNfta {
 public:
  struct Transition {
    StateId from;
    SymbolId symbol;
    // n ∈ N. 0 means the transition is impossible (contributes no trees):
    // its slot's entry rule leads into the translation's dead sink.
    uint64_t multiplier = 1;
    // Comparator width in bits; >= GadgetDepth(max(multiplier, 1)). Widths
    // beyond the minimum pad with leading zeros (the comparator still
    // accepts exactly `multiplier` strings) so that callers can equalize the
    // tree-size contribution across transitions — the PQE reduction needs
    // the positive and negative branch of a fact to add the same number of
    // nodes.
    uint64_t width = 0;
    std::vector<StateId> children;
  };

  MultiplierNfta() = default;

  /// Initializes states/alphabet/initial state from an ordinary NFTA's
  /// shape; transitions are added separately (with multipliers).
  static MultiplierNfta FromSkeleton(const Nfta& base);

  StateId AddState();
  void EnsureAlphabetSize(size_t size);
  void SetInitialState(StateId s);
  /// multiplier 0 means the transition is impossible (see
  /// Transition::multiplier). `width` is the comparator width in
  /// bits: 0 = use the minimal GadgetDepth(max(multiplier, 1)); otherwise
  /// must be >= that. A width of w adds exactly w unary nodes below the
  /// transition's node.
  Status AddTransition(StateId from, SymbolId symbol, uint64_t multiplier,
                       std::vector<StateId> children, uint64_t width = 0);

  size_t NumStates() const { return num_states_; }
  size_t NumTransitions() const { return transitions_.size(); }
  size_t AlphabetSize() const { return alphabet_size_; }
  StateId initial_state() const { return initial_; }
  const std::vector<Transition>& transitions() const { return transitions_; }

  /// SymbolIds of the two bit symbols appended by the translation.
  SymbolId BitSymbol(int bit) const;

  /// Extra tree nodes induced by a multiplier n: u(n) = 0 if n == 1, else
  /// ⌊log₂(n−1)⌋ + 1 (Section 5.2's u(w_i)).
  static uint64_t GadgetDepth(uint64_t multiplier);

  /// The translation of Section 5.1 to an ordinary NFTA over the alphabet
  /// Σ ∪ {0, 1} (see BitSymbol). Per Remark 2 this is polynomial in |T^c|;
  /// the per-transition gadget adds O(width) states. It is value-stable:
  /// every transition — multiplier 0 included — compiles to a fixed-shape
  /// slot (entry rule + width-k
  /// comparator with a fixed per-level rule order, dead branches kept as
  /// rules into a shared sink) whose targets alone encode the multiplier.
  /// `*layout` records where each slot lives so PatchStableNftaSlot can
  /// later re-encode it for a new multiplier in place. The result must not
  /// be Trim()ed (see StableNftaLayout::sink).
  Result<Nfta> ToNftaStable(StableNftaLayout* layout) const;

 private:
  size_t num_states_ = 0;
  size_t alphabet_size_ = 0;
  StateId initial_ = 0;
  std::vector<Transition> transitions_;
};

}  // namespace pqe

#endif  // PQE_AUTOMATA_MULTIPLIER_NFTA_H_
