#include "automata/multiplier_nfa.h"

#include <algorithm>

#include "automata/multiplier_nfta.h"  // shared GadgetDepth semantics
#include "util/check.h"

namespace pqe {

MultiplierNfa MultiplierNfa::FromSkeleton(const Nfa& base) {
  MultiplierNfa out;
  out.num_states_ = base.NumStates();
  out.alphabet_size_ = base.AlphabetSize();
  for (StateId s = 0; s < base.NumStates(); ++s) {
    if (base.IsInitial(s)) out.initial_.push_back(s);
    if (base.IsAccepting(s)) out.accepting_.push_back(s);
  }
  return out;
}

StateId MultiplierNfa::AddState() {
  return static_cast<StateId>(num_states_++);
}

void MultiplierNfa::EnsureAlphabetSize(size_t size) {
  alphabet_size_ = std::max(alphabet_size_, size);
}

void MultiplierNfa::MarkInitial(StateId s) {
  PQE_CHECK(s < num_states_);
  initial_.push_back(s);
}

void MultiplierNfa::MarkAccepting(StateId s) {
  PQE_CHECK(s < num_states_);
  accepting_.push_back(s);
}

Status MultiplierNfa::AddTransition(StateId from, SymbolId symbol,
                                    uint64_t multiplier, StateId to,
                                    uint64_t width) {
  if (from >= num_states_ || to >= num_states_) {
    return Status::InvalidArgument("transition endpoint unknown");
  }
  const uint64_t min_width = GadgetDepth(std::max<uint64_t>(multiplier, 1));
  if (width == 0) width = min_width;
  if (width < min_width) {
    return Status::InvalidArgument("comparator width too small");
  }
  EnsureAlphabetSize(static_cast<size_t>(symbol) + 1);
  transitions_.push_back(Transition{from, symbol, multiplier, width, to});
  return Status::OK();
}

SymbolId MultiplierNfa::BitSymbol(int bit) const {
  PQE_CHECK(bit == 0 || bit == 1);
  return static_cast<SymbolId>(alphabet_size_ + static_cast<size_t>(bit));
}

uint64_t MultiplierNfa::GadgetDepth(uint64_t multiplier) {
  return MultiplierNfta::GadgetDepth(multiplier);
}

Result<Nfa> MultiplierNfa::ToNfaStable(StableNfaLayout* layout) const {
  PQE_CHECK(layout != nullptr);
  *layout = StableNfaLayout{};
  Nfa out;
  const SymbolId bit0 = BitSymbol(0);
  const SymbolId bit1 = BitSymbol(1);
  out.EnsureAlphabetSize(alphabet_size_ + 2);
  for (size_t s = 0; s < num_states_; ++s) out.AddState();
  for (StateId s : initial_) out.MarkInitial(s);
  for (StateId s : accepting_) out.MarkAccepting(s);
  layout->bit0 = bit0;
  layout->bit1 = bit1;
  layout->sink = out.AddState();

  layout->slots.reserve(transitions_.size());
  for (const Transition& t : transitions_) {
    StableNfaLayout::Slot slot;
    slot.width = static_cast<uint32_t>(t.width);
    slot.exit = t.to;
    const uint64_t k = t.width;
    if (k > 0) {
      slot.eq0 = out.AddState();
      for (uint64_t i = 1; i < k; ++i) out.AddState();  // eq[1..k)
      if (k > 1) {
        slot.lt1 = out.AddState();
        for (uint64_t i = 2; i < k; ++i) out.AddState();  // lt[2..k)
      }
    }
    slot.entry_idx = static_cast<uint32_t>(out.NumTransitions());
    // Value-dependent targets are placeholders (the sink) until the
    // canonical writer below patches them; value-independent lt edges get
    // their final targets immediately and are never touched again.
    out.AddTransition(t.from, t.symbol, layout->sink);
    for (uint64_t i = 0; i < k; ++i) {
      const bool last = (i + 1 == k);
      const StateId eqi = static_cast<StateId>(slot.eq0 + i);
      out.AddTransition(eqi, bit1, layout->sink);
      out.AddTransition(eqi, bit0, layout->sink);
      if (i >= 1) {
        const StateId lti = static_cast<StateId>(slot.lt1 + (i - 1));
        const StateId lt_next =
            last ? t.to : static_cast<StateId>(slot.lt1 + i);
        out.AddTransition(lti, bit0, lt_next);
        out.AddTransition(lti, bit1, lt_next);
      }
    }
    layout->slots.push_back(slot);
  }
  for (size_t i = 0; i < transitions_.size(); ++i) {
    PatchStableNfaSlot(&out, *layout, i, transitions_[i].multiplier);
  }
  return out;
}

void PatchStableNfaSlot(Nfa* nfa, const StableNfaLayout& layout,
                        size_t slot_idx, uint64_t multiplier) {
  PQE_CHECK(nfa != nullptr);
  PQE_CHECK(slot_idx < layout.slots.size());
  const StableNfaLayout::Slot& slot = layout.slots[slot_idx];
  const uint64_t k = slot.width;
  PQE_CHECK(MultiplierNfa::GadgetDepth(std::max<uint64_t>(multiplier, 1)) <=
            k);
  if (multiplier == 0) {
    nfa->SetTransitionTarget(slot.entry_idx, layout.sink);
  } else if (k == 0) {
    nfa->SetTransitionTarget(slot.entry_idx, slot.exit);
  } else {
    nfa->SetTransitionTarget(slot.entry_idx, slot.eq0);
  }
  // Comparator targets for bound B = multiplier − 1 (B = 0 for multiplier 0,
  // whose gadget is unreachable but stays canonically encoded).
  const uint64_t bound = multiplier == 0 ? 0 : multiplier - 1;
  for (uint64_t i = 0; i < k; ++i) {
    const bool last = (i + 1 == k);
    const uint64_t pos = k - 1 - i;
    const int b = pos >= 64 ? 0 : static_cast<int>((bound >> pos) & 1);
    // Per-slot edge order: entry, then 2 eq edges at level 0, then 4 edges
    // (2 eq + 2 lt) per later level.
    const uint32_t eq_bit1 =
        slot.entry_idx + 1 +
        (i == 0 ? 0u : 2u + 4u * (static_cast<uint32_t>(i) - 1));
    const uint32_t eq_bit0 = eq_bit1 + 1;
    const StateId eq_next =
        last ? slot.exit : static_cast<StateId>(slot.eq0 + i + 1);
    const StateId lt_next =
        last ? slot.exit : static_cast<StateId>(slot.lt1 + i);
    if (b == 1) {
      nfa->SetTransitionTarget(eq_bit1, eq_next);
      nfa->SetTransitionTarget(eq_bit0, lt_next);
    } else {
      // Reading 1 from the eq track would exceed the bound: dead branch.
      nfa->SetTransitionTarget(eq_bit1, layout.sink);
      nfa->SetTransitionTarget(eq_bit0, eq_next);
    }
  }
}

}  // namespace pqe
