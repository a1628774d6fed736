#include "core/pqe.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "automata/augmented_nfta.h"  // literal encoding helpers
#include "automata/multiplier_nfta.h"
#include "core/projection.h"
#include "counting/count_nfta.h"
#include "counting/exact.h"
#include "obs/trace.h"
#include "util/check.h"

namespace pqe {

Result<PqeSkeleton> BuildPqeSkeleton(const ConjunctiveQuery& query,
                                     const Database& db,
                                     const UrConstructionOptions& options) {
  PQE_TRACE_SPAN_VAR(span, "pqe.build_skeleton");
  span.AttrUint("facts", db.NumFacts());
  PqeSkeleton out;
  // Theorem 1's WLOG: facts over relations outside Q marginalize to 1 and
  // are dropped before the automaton (and later the denominator d) is built.
  PQE_ASSIGN_OR_RETURN(ProjectedDatabase proj, ProjectDatabase(db, query));
  out.original_fact = std::move(proj.original_fact);
  out.dropped_facts = proj.dropped_facts;
  PQE_ASSIGN_OR_RETURN(out.ur, BuildUrAutomaton(query, proj.db, options));
  // BuildUrAutomaton projects again internally; it is a no-op here, and the
  // projected FactIds used as symbols line up with proj.db's FactIds.
  span.AttrUint("tree_size", out.ur.tree_size);
  return out;
}

Result<BoundPqeAutomaton> BindPqeAutomaton(
    const PqeSkeleton& skeleton, const std::vector<Probability>& probs) {
  PQE_TRACE_SPAN_VAR(span, "pqe.bind");
  span.AttrUint("facts", probs.size());
  const Nfta& base = skeleton.ur.nfta;
  BoundPqeAutomaton out;
  MultiplierNfta mult = MultiplierNfta::FromSkeleton(base);

  // Per-fact gadget widths and the common denominator d. The width is
  // GadgetDepth(d_i): it covers every multiplier the fact can take
  // (0..d_i), so the translated automaton's shape depends only on the
  // denominators — never the numerators — which is what lets
  // RebindPqeAutomaton patch a new labelling into a clone in place.
  auto layout = std::make_shared<PqeBindLayout>();
  std::vector<uint64_t> width(probs.size(), 0);
  out.denominator = BigUint(1);
  layout->fact_den.resize(probs.size());
  for (FactId f = 0; f < probs.size(); ++f) {
    const Probability p = probs[f];
    if (p.den < 1 || p.num > p.den) {
      return Status::InvalidArgument(
          "BindPqeAutomaton: fact probability not a rational in [0, 1]");
    }
    width[f] = MultiplierNfta::GadgetDepth(std::max<uint64_t>(p.den, 1));
    layout->fact_den[f] = p.den;
    out.denominator = out.denominator.MulU64(p.den);
  }

  // Every transition of the translated Proposition 1 automaton consumes one
  // fact literal; attach w_i to positive literals and d_i − w_i to negative
  // ones. Impossible (multiplier 0) branches are kept as slots — the stable
  // translation routes them into its sink — so that a later delta can
  // resurrect them by patching (p→0 and 0→p updates stay patchable).
  for (const Nfta::Transition& t : base.transitions()) {
    PQE_CHECK(t.symbol != Nfta::kLambdaSymbol);
    const FactId f = LiteralBase(t.symbol);
    if (f >= probs.size()) {
      return Status::InvalidArgument(
          "BindPqeAutomaton: probability vector does not cover the "
          "skeleton's projected facts");
    }
    const Probability p = probs[f];
    const bool negative = IsNegativeLiteral(t.symbol);
    const uint64_t multiplier = negative ? (p.den - p.num) : p.num;
    layout->slot_negative.push_back(negative ? 1 : 0);
    layout->slot_fact.push_back(f);
    PQE_RETURN_IF_ERROR(mult.AddTransition(
        t.from, t.symbol, multiplier, t.children.ToVector(), width[f]));
  }

  // fact → slot CSR (counting sort, stable in slot order).
  layout->fact_offsets.assign(probs.size() + 1, 0);
  for (FactId f : layout->slot_fact) ++layout->fact_offsets[f + 1];
  for (size_t f = 0; f < probs.size(); ++f) {
    layout->fact_offsets[f + 1] += layout->fact_offsets[f];
  }
  layout->fact_slots.resize(layout->slot_fact.size());
  {
    std::vector<uint32_t> cursor(layout->fact_offsets.begin(),
                                 layout->fact_offsets.end() - 1);
    for (uint32_t s = 0; s < layout->slot_fact.size(); ++s) {
      layout->fact_slots[cursor[layout->slot_fact[s]]++] = s;
    }
  }

  // k = |D'| + Σ width_i: each fact contributes its literal node plus a
  // fixed number of comparator nodes regardless of presence/absence.
  out.tree_size = skeleton.ur.tree_size;
  for (FactId f = 0; f < probs.size(); ++f) {
    out.tree_size += static_cast<size_t>(width[f]);
  }

  {
    PQE_TRACE_SPAN_VAR(mult_span, "pqe.multiplier_translate");
    PQE_ASSIGN_OR_RETURN(out.weighted, mult.ToNftaStable(&layout->stable));
    // No Trim: the stable layout's dead branches (sink rules) are what keep
    // the shape value-independent; the counting layers' forward/backward
    // liveness pruning discards them at estimation time.
    mult_span.AttrUint("nfta_states", out.weighted.NumStates());
    mult_span.AttrUint("nfta_transitions", out.weighted.NumTransitions());
  }
  out.layout = std::move(layout);
  span.AttrUint("tree_size", out.tree_size);
  return out;
}

Result<BoundPqeAutomaton> RebindPqeAutomaton(
    const BoundPqeAutomaton& prior, const std::vector<Probability>& old_probs,
    const std::vector<Probability>& new_probs, size_t* patched_slots) {
  PQE_TRACE_SPAN_VAR(span, "pqe.delta_rebind");
  if (patched_slots != nullptr) *patched_slots = 0;
  if (prior.layout == nullptr) {
    return Status::InvalidArgument(
        "RebindPqeAutomaton: prior bind carries no layout");
  }
  const PqeBindLayout& layout = *prior.layout;
  if (old_probs.size() != layout.fact_den.size() ||
      new_probs.size() != layout.fact_den.size()) {
    return Status::InvalidArgument(
        "RebindPqeAutomaton: probability vector size mismatch");
  }
  // Validate before touching anything, so a failed rebind has no effects.
  for (FactId f = 0; f < new_probs.size(); ++f) {
    const Probability op = old_probs[f];
    const Probability np = new_probs[f];
    if (np.num == op.num && np.den == op.den) continue;
    if (np.den != layout.fact_den[f]) {
      return Status::InvalidArgument(
          "RebindPqeAutomaton: fact denominator changed — gadget widths "
          "differ, full rebind required");
    }
    if (np.num > np.den) {
      return Status::InvalidArgument(
          "RebindPqeAutomaton: fact probability not a rational in [0, 1]");
    }
  }
  BoundPqeAutomaton out;
  // Deep copy: the Nfta copy rebases child spans and keeps the warm CSR
  // adjacency; patching below only invalidates the run-state index.
  out.weighted = prior.weighted;
  out.tree_size = prior.tree_size;
  out.denominator = prior.denominator;  // dens unchanged ⇒ d unchanged
  out.layout = prior.layout;
  size_t patched = 0;
  for (FactId f = 0; f < new_probs.size(); ++f) {
    const Probability op = old_probs[f];
    const Probability np = new_probs[f];
    if (np.num == op.num && np.den == op.den) continue;
    for (uint32_t i = layout.fact_offsets[f]; i < layout.fact_offsets[f + 1];
         ++i) {
      const uint32_t slot = layout.fact_slots[i];
      const uint64_t multiplier =
          layout.slot_negative[slot] ? (np.den - np.num) : np.num;
      PatchStableNftaSlot(&out.weighted, layout.stable, slot, multiplier);
      ++patched;
    }
  }
  if (patched_slots != nullptr) *patched_slots = patched;
  span.AttrUint("patched_slots", patched);
  return out;
}

Result<PqeAutomaton> BuildPqeAutomaton(const ConjunctiveQuery& query,
                                       const ProbabilisticDatabase& pdb,
                                       const UrConstructionOptions& options) {
  PQE_TRACE_SPAN_VAR(span, "pqe.build_automaton");
  span.AttrUint("facts", pdb.NumFacts());
  // The cold path is the skeleton/bind composition, so a warm rebind of a
  // cached skeleton (src/serve/) is bit-identical to this by construction.
  PQE_ASSIGN_OR_RETURN(PqeSkeleton skeleton,
                       BuildPqeSkeleton(query, pdb.database(), options));
  PQE_ASSIGN_OR_RETURN(
      std::vector<Probability> probs,
      ProjectedFactProbabilities(skeleton.original_fact, pdb));
  PQE_ASSIGN_OR_RETURN(BoundPqeAutomaton bound,
                       BindPqeAutomaton(skeleton, probs));
  PqeAutomaton out;
  out.ur = std::move(skeleton.ur);
  out.weighted = std::move(bound.weighted);
  out.tree_size = bound.tree_size;
  out.denominator = std::move(bound.denominator);
  span.AttrUint("tree_size", out.tree_size);
  return out;
}

Result<PqeEstimateResult> PqeEstimate(const ConjunctiveQuery& query,
                                      const ProbabilisticDatabase& pdb,
                                      const EstimatorConfig& config,
                                      const UrConstructionOptions& options) {
  PQE_TRACE_SPAN_VAR(span, "pqe.estimate");
  PQE_ASSIGN_OR_RETURN(PqeAutomaton automaton,
                       BuildPqeAutomaton(query, pdb, options));
  PqeEstimateResult out;
  out.tree_size = automaton.tree_size;
  out.nfta_states = automaton.weighted.NumStates();
  out.nfta_transitions = automaton.weighted.NumTransitions();
  out.decomposition_width = automaton.ur.hd.Width();
  PQE_ASSIGN_OR_RETURN(
      CountEstimate count,
      CountNftaTrees(automaton.weighted, automaton.tree_size, config));
  out.stats = count.stats;
  out.tree_count = count.value;
  // Pr_H(Q) = d⁻¹ · |L_k(T')|.
  out.probability = ProbabilityFromCount(count.value, automaton.denominator,
                                         &out.log2_probability);
  return out;
}

double ProbabilityFromCount(const ExtFloat& count, const BigUint& denominator,
                            double* log2_probability) {
  const double log2_p =
      count.Log2() - ExtFloat::FromBigUint(denominator).Log2();
  if (log2_probability != nullptr) *log2_probability = log2_p;
  return std::min(std::exp2(log2_p), 1.0);
}

Result<BigRational> PqeExactViaAutomaton(const ConjunctiveQuery& query,
                                         const ProbabilisticDatabase& pdb,
                                         const UrConstructionOptions& options) {
  PQE_ASSIGN_OR_RETURN(PqeAutomaton automaton,
                       BuildPqeAutomaton(query, pdb, options));
  PQE_ASSIGN_OR_RETURN(
      BigUint count,
      ExactCountNftaTrees(automaton.weighted, automaton.tree_size));
  return BigRational(std::move(count), automaton.denominator);
}

}  // namespace pqe
