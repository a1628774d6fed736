#include "automata/multiplier_nfta.h"

#include <algorithm>

#include "util/check.h"

namespace pqe {

MultiplierNfta MultiplierNfta::FromSkeleton(const Nfta& base) {
  MultiplierNfta out;
  out.num_states_ = base.NumStates();
  out.alphabet_size_ = base.AlphabetSize();
  out.initial_ = base.initial_state();
  return out;
}

StateId MultiplierNfta::AddState() {
  return static_cast<StateId>(num_states_++);
}

void MultiplierNfta::EnsureAlphabetSize(size_t size) {
  alphabet_size_ = std::max(alphabet_size_, size);
}

void MultiplierNfta::SetInitialState(StateId s) {
  PQE_CHECK(s < num_states_);
  initial_ = s;
}

Status MultiplierNfta::AddTransition(StateId from, SymbolId symbol,
                                     uint64_t multiplier,
                                     std::vector<StateId> children,
                                     uint64_t width) {
  if (from >= num_states_) {
    return Status::InvalidArgument("transition from unknown state");
  }
  for (StateId c : children) {
    if (c >= num_states_) {
      return Status::InvalidArgument("transition to unknown state");
    }
  }
  const uint64_t min_width = GadgetDepth(std::max<uint64_t>(multiplier, 1));
  if (width == 0) width = min_width;
  if (width < min_width) {
    return Status::InvalidArgument(
        "comparator width too small for multiplier");
  }
  EnsureAlphabetSize(static_cast<size_t>(symbol) + 1);
  transitions_.push_back(
      Transition{from, symbol, multiplier, width, std::move(children)});
  return Status::OK();
}

SymbolId MultiplierNfta::BitSymbol(int bit) const {
  PQE_CHECK(bit == 0 || bit == 1);
  return static_cast<SymbolId>(alphabet_size_ + static_cast<size_t>(bit));
}

uint64_t MultiplierNfta::GadgetDepth(uint64_t multiplier) {
  PQE_CHECK(multiplier >= 1);
  if (multiplier == 1) return 0;
  uint64_t bound = multiplier - 1;
  uint64_t k = 0;
  while (bound) {
    ++k;
    bound >>= 1;
  }
  return k;  // ⌊log₂(n−1)⌋ + 1
}

Result<Nfta> MultiplierNfta::ToNftaStable(StableNftaLayout* layout) const {
  PQE_CHECK(layout != nullptr);
  *layout = StableNftaLayout{};
  Nfta out;
  const SymbolId bit0 = BitSymbol(0);
  const SymbolId bit1 = BitSymbol(1);
  out.EnsureAlphabetSize(alphabet_size_ + 2);
  for (size_t s = 0; s < num_states_; ++s) out.AddState();
  out.SetInitialState(initial_);
  layout->bit0 = bit0;
  layout->bit1 = bit1;
  layout->sink = out.AddState();

  layout->slots.reserve(transitions_.size());
  for (const Transition& t : transitions_) {
    StableNftaLayout::Slot slot;
    slot.width = static_cast<uint32_t>(t.width);
    slot.exit_off = static_cast<uint32_t>(layout->exit_children.size());
    slot.exit_len = static_cast<uint32_t>(t.children.size());
    layout->exit_children.insert(layout->exit_children.end(),
                                 t.children.begin(), t.children.end());
    const uint64_t k = t.width;
    if (k > 0) {
      slot.eq0 = out.AddState();
      for (uint64_t i = 1; i < k; ++i) out.AddState();  // eq[1..k)
      if (k > 1) {
        slot.lt1 = out.AddState();
        for (uint64_t i = 2; i < k; ++i) out.AddState();  // lt[2..k)
      }
    }
    const StateId sink = layout->sink;
    const Span<StateId> hole(&sink, 1);
    // Reserves cover every value the slot can later encode: rules that may
    // be patched to the exit children need the exit arity (clamped to 1 so
    // the {sink} placeholder fits).
    const size_t exit_reserve = std::max<size_t>(slot.exit_len, 1);
    slot.entry_idx = static_cast<uint32_t>(out.NumTransitions());
    out.AddTransitionPadded(t.from, t.symbol, hole,
                            k == 0 ? exit_reserve : 1);
    for (uint64_t i = 0; i < k; ++i) {
      const bool last = (i + 1 == k);
      const size_t eq_reserve = last ? exit_reserve : 1;
      const StateId eqi = static_cast<StateId>(slot.eq0 + i);
      // eq rules are value-dependent (patched below); the bit1-then-bit0
      // order is fixed regardless of the bound's bit at this level.
      out.AddTransitionPadded(eqi, bit1, hole, eq_reserve);
      out.AddTransitionPadded(eqi, bit0, hole, eq_reserve);
      if (i >= 1) {
        // lt rules ("already strictly below" accepts both bits) are
        // value-independent: written once with final targets, never patched.
        const StateId lti = static_cast<StateId>(slot.lt1 + (i - 1));
        if (last) {
          const Span<StateId> exit(
              layout->exit_children.data() + slot.exit_off, slot.exit_len);
          out.AddTransitionPadded(lti, bit0, exit, exit_reserve);
          out.AddTransitionPadded(lti, bit1, exit, exit_reserve);
        } else {
          const StateId lt_next = static_cast<StateId>(slot.lt1 + i);
          const Span<StateId> next(&lt_next, 1);
          out.AddTransitionPadded(lti, bit0, next, 1);
          out.AddTransitionPadded(lti, bit1, next, 1);
        }
      }
    }
    layout->slots.push_back(slot);
  }
  // Write the value-dependent targets through the canonical writer so that
  // freshly translated and patched automata are identical by construction.
  for (size_t i = 0; i < transitions_.size(); ++i) {
    PatchStableNftaSlot(&out, *layout, i, transitions_[i].multiplier);
  }
  return out;
}

void PatchStableNftaSlot(Nfta* nfta, const StableNftaLayout& layout,
                         size_t slot_idx, uint64_t multiplier) {
  PQE_CHECK(nfta != nullptr);
  PQE_CHECK(slot_idx < layout.slots.size());
  const StableNftaLayout::Slot& slot = layout.slots[slot_idx];
  const uint64_t k = slot.width;
  PQE_CHECK(MultiplierNfta::GadgetDepth(std::max<uint64_t>(multiplier, 1)) <=
            k);
  const StateId sink = layout.sink;
  const Span<StateId> hole(&sink, 1);
  const Span<StateId> exit(layout.exit_children.data() + slot.exit_off,
                           slot.exit_len);
  // Entry: a multiplier of 0 accepts nothing — route into the dead sink.
  // Width-0 slots (denominator 1) exit straight from the entry rule.
  if (multiplier == 0) {
    nfta->RewriteChildrenInPlace(slot.entry_idx, hole);
  } else if (k == 0) {
    nfta->RewriteChildrenInPlace(slot.entry_idx, exit);
  } else {
    const StateId eq0 = slot.eq0;
    nfta->RewriteChildrenInPlace(slot.entry_idx, Span<StateId>(&eq0, 1));
  }
  // Comparator targets for bound B = multiplier − 1. For multiplier 0 the
  // gadget is unreachable; its targets are still written for B = 0 so the
  // encoding of every multiplier value is unique and canonical.
  const uint64_t bound = multiplier == 0 ? 0 : multiplier - 1;
  for (uint64_t i = 0; i < k; ++i) {
    const bool last = (i + 1 == k);
    const uint64_t pos = k - 1 - i;
    const int b = pos >= 64 ? 0 : static_cast<int>((bound >> pos) & 1);
    // Per-slot rule order: entry, then 2 eq rules at level 0, then 4 rules
    // (2 eq + 2 lt) per later level.
    const uint32_t eq_bit1 =
        slot.entry_idx + 1 +
        (i == 0 ? 0u : 2u + 4u * (static_cast<uint32_t>(i) - 1));
    const uint32_t eq_bit0 = eq_bit1 + 1;
    const StateId eq_next_s = static_cast<StateId>(slot.eq0 + i + 1);
    const StateId lt_next_s = static_cast<StateId>(slot.lt1 + i);
    const Span<StateId> eq_next =
        last ? exit : Span<StateId>(&eq_next_s, 1);
    const Span<StateId> lt_next =
        last ? exit : Span<StateId>(&lt_next_s, 1);
    if (b == 1) {
      nfta->RewriteChildrenInPlace(eq_bit1, eq_next);
      nfta->RewriteChildrenInPlace(eq_bit0, lt_next);
    } else {
      // Reading 1 from the eq track would exceed the bound: dead branch.
      nfta->RewriteChildrenInPlace(eq_bit1, hole);
      nfta->RewriteChildrenInPlace(eq_bit0, eq_next);
    }
  }
}

}  // namespace pqe
