// Tests for the counting-core hot path (docs/performance.md): the reusable
// WeightedPicker must be draw-identical to the one-shot PickWeightedIndex,
// the CSR-flattened automata accessors must agree with a naive recomputation
// of the old per-object layouts, Nfta copies must rebase their child-arena
// spans, and the exact-tier estimators (pickers + interned run-state sets)
// must reproduce committed golden estimates and draw stats bit for bit over
// dozens of randomized automata, as must the whole tree- and string-route
// pipelines on one cell each.

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "automata/nfa.h"
#include "automata/nfta.h"
#include "automata/tree.h"
#include "core/path_pqe.h"
#include "core/pqe.h"
#include "counting/count_nfa.h"
#include "counting/count_nfta.h"
#include "counting/exact.h"
#include "counting/weighted_pick.h"
#include "cq/builders.h"
#include "util/extfloat.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace pqe {
namespace {

// --- WeightedPicker ------------------------------------------------------

TEST(WeightedPickerTest, DrawIdenticalToPickWeightedIndex) {
  // Mixed-magnitude weights (spread over hundreds of binary orders): both
  // samplers renormalize by the max, so the scaled tables must match.
  Rng setup(0x12345);
  for (int round = 0; round < 50; ++round) {
    const size_t n = 1 + setup.NextBounded(12);
    std::vector<ExtFloat> weights(n);
    bool any_nonzero = false;
    for (size_t i = 0; i < n; ++i) {
      if (setup.NextBounded(5) == 0) continue;  // leave some weights zero
      ExtFloat w = ExtFloat::FromUint64(1 + setup.NextBounded(1000));
      // Push some weights far up/down the exponent range.
      const size_t boosts = setup.NextBounded(4);
      for (size_t b = 0; b < boosts; ++b) {
        w = setup.NextBounded(2) == 0 ? w.Mul(w) : w.Scale(1e-30);
      }
      weights[i] = w;
      any_nonzero = true;
    }
    if (!any_nonzero) weights[0] = ExtFloat::FromUint64(7);
    WeightedPicker picker(weights);
    // Same seed → same NextDouble stream → the indices must coincide draw
    // for draw.
    Rng rng_a(round * 31 + 1);
    Rng rng_b(round * 31 + 1);
    for (int draw = 0; draw < 200; ++draw) {
      ASSERT_EQ(picker.Pick(&rng_a), PickWeightedIndex(&rng_b, weights))
          << "round=" << round << " draw=" << draw;
    }
  }
}

TEST(WeightedPickerTest, SingleElement) {
  WeightedPicker picker(std::vector<ExtFloat>{ExtFloat::FromUint64(5)});
  Rng rng(1);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(picker.Pick(&rng), 0u);
}

TEST(WeightedPickerTest, ZeroWeightsNeverPicked) {
  std::vector<ExtFloat> weights(5);
  weights[1] = ExtFloat::FromUint64(3);
  weights[3] = ExtFloat::FromUint64(1);
  WeightedPicker picker(weights);
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const size_t pick = picker.Pick(&rng);
    EXPECT_TRUE(pick == 1 || pick == 3);
  }
}

TEST(WeightedPickerTest, ChiSquaredSanity) {
  // Empirical frequencies of a 4-point distribution must match the weight
  // proportions. χ² with 3 degrees of freedom: P(X > 16.27) = 0.001.
  const std::vector<uint64_t> raw = {1, 2, 3, 10};
  std::vector<ExtFloat> weights;
  for (uint64_t w : raw) weights.push_back(ExtFloat::FromUint64(w));
  WeightedPicker picker(weights);
  Rng rng(0xc41);
  const size_t kDraws = 40000;
  std::vector<size_t> counts(raw.size(), 0);
  for (size_t i = 0; i < kDraws; ++i) ++counts[picker.Pick(&rng)];
  const double total = 16.0;
  double chi2 = 0.0;
  for (size_t i = 0; i < raw.size(); ++i) {
    const double expected = kDraws * static_cast<double>(raw[i]) / total;
    const double d = static_cast<double>(counts[i]) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 16.27) << "draw frequencies off: " << counts[0] << " "
                         << counts[1] << " " << counts[2] << " " << counts[3];
}

TEST(WeightedPickerTest, TryBuildRejectsEmptyAndAllZero) {
  WeightedPicker picker;
  Status empty = picker.TryBuild({}, "stratum 3 in-group");
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(empty.message().find("stratum 3 in-group"), std::string::npos);
  EXPECT_NE(empty.message().find("empty weight table"), std::string::npos);
  EXPECT_TRUE(picker.empty());

  Status zeros = picker.TryBuild(std::vector<ExtFloat>(4),
                                 "mixture group table");
  EXPECT_EQ(zeros.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(zeros.message().find("mixture group table"), std::string::npos);
  EXPECT_NE(zeros.message().find("all 4 weights are zero"),
            std::string::npos);
  EXPECT_TRUE(picker.empty());

  // A good build after a failed one works and clears the error state.
  EXPECT_TRUE(picker
                  .TryBuild({ExtFloat::FromUint64(2)}, "retry")
                  .ok());
  EXPECT_EQ(picker.size(), 1u);
}

TEST(AliasPickerTest, TryBuildRejectsEmptyAndAllZero) {
  AliasPicker picker;
  Status empty = picker.TryBuild({}, "clause table");
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(empty.message().find("clause table"), std::string::npos);

  Status zeros = picker.TryBuild(std::vector<ExtFloat>(7), "tau group");
  EXPECT_EQ(zeros.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(zeros.message().find("all 7 weights are zero"),
            std::string::npos);
  EXPECT_TRUE(picker.empty());
}

// χ² of AliasPicker draw frequencies against the weight proportions. With
// k−1 degrees of freedom the 0.001 critical value is ≈ df + 4·√(2·df) for
// the table sizes used here; a fixed seed keeps the check deterministic.
double AliasChi2(const std::vector<uint64_t>& raw, size_t draws,
                 uint64_t seed) {
  std::vector<ExtFloat> weights;
  double total = 0.0;
  for (uint64_t w : raw) {
    weights.push_back(ExtFloat::FromUint64(w));
    total += static_cast<double>(w);
  }
  AliasPicker picker(weights);
  Rng rng(seed);
  std::vector<size_t> counts(raw.size(), 0);
  for (size_t i = 0; i < draws; ++i) ++counts[picker.Pick(&rng)];
  double chi2 = 0.0;
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] == 0) {
      EXPECT_EQ(counts[i], 0u) << "zero-weight index " << i << " drawn";
      continue;
    }
    const double expected = draws * static_cast<double>(raw[i]) / total;
    const double d = static_cast<double>(counts[i]) - expected;
    chi2 += d * d / expected;
  }
  return chi2;
}

TEST(AliasPickerTest, ChiSquaredMatchesProportions) {
  // 3 df: P(X > 16.27) = 0.001.
  EXPECT_LT(AliasChi2({1, 2, 3, 10}, 40000, 0xa11a5), 16.27);
}

TEST(AliasPickerTest, SingleNonzeroColumn) {
  // Degenerate table: only index 2 can ever come back, zero columns never.
  EXPECT_LT(AliasChi2({0, 0, 5, 0}, 5000, 0x51), 1e-9);
}

TEST(AliasPickerTest, AllEqualWeights) {
  // 7 df: P(X > 24.32) = 0.001.
  EXPECT_LT(AliasChi2({3, 3, 3, 3, 3, 3, 3, 3}, 80000, 0xe0), 24.32);
}

TEST(AliasPickerTest, MillionToOneSkew) {
  // Expected rare-index count is ~2 over 2M draws — too thin for χ², so
  // bound the rare count directly (Poisson(2): P(X > 30) is astronomically
  // small) and require the heavy column to absorb the rest.
  std::vector<ExtFloat> weights = {ExtFloat::FromUint64(1000000),
                                   ExtFloat::FromUint64(1)};
  AliasPicker picker(weights);
  Rng rng(0x5e3);
  const size_t kDraws = 2000000;
  size_t rare = 0;
  for (size_t i = 0; i < kDraws; ++i) {
    const size_t pick = picker.Pick(&rng);
    ASSERT_LT(pick, 2u);
    if (pick == 1) ++rare;
  }
  EXPECT_GT(rare, 0u);
  EXPECT_LE(rare, 30u);
}

TEST(AliasPickerTest, LargeTable) {
  // > 10⁴ entries with uniform weights; 64 draws per column on average.
  // df = 16383: critical ≈ df + 4·√(2·df) ≈ 17107.
  const size_t n = 16384;
  std::vector<uint64_t> raw(n, 1);
  EXPECT_LT(AliasChi2(raw, n * 64, 0xb16), 17107.0);
}

TEST(AliasPickerTest, ExtremeExponentsRenormalized) {
  // Weights hundreds of binary orders apart must not overflow the doubles
  // in the table: the dominant weight takes essentially all draws.
  ExtFloat huge = ExtFloat::FromUint64(1000);
  for (int i = 0; i < 40; ++i) huge = huge.Mul(huge);  // ~2^(10240)
  std::vector<ExtFloat> weights = {ExtFloat::FromUint64(3), huge};
  AliasPicker picker(weights);
  Rng rng(0xd0e);
  for (int i = 0; i < 2000; ++i) ASSERT_EQ(picker.Pick(&rng), 1u);
}

TEST(IndexDrawerTest, CachedModeDrawIdenticalAndCounted) {
  std::vector<ExtFloat> weights = {ExtFloat::FromUint64(5),
                                   ExtFloat::FromUint64(1)};
  CountStats stats;
  IndexDrawer drawer;
  drawer.Prepare(IndexDrawer::Mode::kCached, weights, &stats);
  EXPECT_EQ(stats.picker_builds, 1u);
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(drawer.Draw(&a), PickWeightedIndex(&b, weights));
  }
}

TEST(IndexDrawerTest, AliasModeCountsBuildsAndRespectsSupport) {
  std::vector<ExtFloat> weights(3);
  weights[1] = ExtFloat::FromUint64(9);
  CountStats stats;
  IndexDrawer drawer;
  drawer.Prepare(IndexDrawer::Mode::kAlias, weights, &stats);
  EXPECT_EQ(stats.alias_builds, 1u);
  EXPECT_EQ(stats.picker_builds, 0u);
  Rng rng(11);
  for (int i = 0; i < 200; ++i) ASSERT_EQ(drawer.Draw(&rng), 1u);
}

TEST(WeightedPickerTest, RebuildReuses) {
  WeightedPicker picker;
  picker.Build({ExtFloat::FromUint64(1), ExtFloat::FromUint64(1)});
  EXPECT_EQ(picker.size(), 2u);
  picker.Build({ExtFloat::FromUint64(4)});
  EXPECT_EQ(picker.size(), 1u);
  Rng rng(5);
  EXPECT_EQ(picker.Pick(&rng), 0u);
}

// --- CSR accessor equivalence --------------------------------------------

Nfa RandomNfa(Rng* rng, size_t states, size_t alphabet, size_t transitions) {
  Nfa a;
  for (size_t i = 0; i < states; ++i) a.AddState();
  a.EnsureAlphabetSize(alphabet);
  a.MarkInitial(0);
  for (size_t i = 0; i < transitions; ++i) {
    a.AddTransition(static_cast<StateId>(rng->NextBounded(states)),
                    static_cast<SymbolId>(rng->NextBounded(alphabet)),
                    static_cast<StateId>(rng->NextBounded(states)));
  }
  for (size_t i = 0; i < 1 + states / 3; ++i) {
    a.MarkInitial(static_cast<StateId>(rng->NextBounded(states)));
    a.MarkAccepting(static_cast<StateId>(rng->NextBounded(states)));
  }
  return a;
}

Nfta RandomNfta(Rng* rng, size_t states, size_t alphabet,
                size_t transitions) {
  Nfta t;
  for (size_t i = 0; i < states; ++i) t.AddState();
  t.EnsureAlphabetSize(alphabet);
  t.SetInitialState(0);
  for (size_t q = 0; q < states; ++q) {
    t.AddTransition(static_cast<StateId>(q),
                    static_cast<SymbolId>(rng->NextBounded(alphabet)), {});
  }
  for (size_t i = 0; i < transitions; ++i) {
    const size_t arity = 1 + rng->NextBounded(3);
    std::vector<StateId> children;
    for (size_t j = 0; j < arity; ++j) {
      children.push_back(static_cast<StateId>(rng->NextBounded(states)));
    }
    t.AddTransition(static_cast<StateId>(rng->NextBounded(states)),
                    static_cast<SymbolId>(rng->NextBounded(alphabet)),
                    std::move(children));
  }
  return t;
}

TEST(CsrEquivalenceTest, NfaAdjacencyMatchesNaive) {
  Rng rng(0xabc);
  for (int round = 0; round < 25; ++round) {
    const size_t S = 2 + rng.NextBounded(8);
    Nfa a = RandomNfa(&rng, S, 2 + rng.NextBounded(3),
                      3 + rng.NextBounded(20));
    for (StateId s = 0; s < S; ++s) {
      std::vector<uint32_t> out_naive, in_naive;
      for (uint32_t i = 0; i < a.transitions().size(); ++i) {
        if (a.transitions()[i].from == s) out_naive.push_back(i);
        if (a.transitions()[i].to == s) in_naive.push_back(i);
      }
      EXPECT_TRUE(a.OutTransitions(s) == out_naive) << "state " << s;
      EXPECT_TRUE(a.InTransitions(s) == in_naive) << "state " << s;
    }
  }
}

TEST(CsrEquivalenceTest, NftaIndexesMatchNaive) {
  Rng rng(0xdef);
  for (int round = 0; round < 25; ++round) {
    const size_t S = 2 + rng.NextBounded(8);
    const size_t A = 2 + rng.NextBounded(3);
    Nfta t = RandomNfta(&rng, S, A, 3 + rng.NextBounded(20));
    const auto& trans = t.transitions();
    for (StateId s = 0; s < S; ++s) {
      std::vector<uint32_t> naive;
      for (uint32_t i = 0; i < trans.size(); ++i) {
        if (trans[i].from == s) naive.push_back(i);
      }
      EXPECT_TRUE(t.OutTransitions(s) == naive) << "state " << s;
    }
    for (SymbolId sym = 0; sym < A; ++sym) {
      std::vector<uint32_t> by_symbol, leaves;
      for (uint32_t i = 0; i < trans.size(); ++i) {
        if (trans[i].symbol != sym) continue;
        by_symbol.push_back(i);
        if (trans[i].children.empty()) leaves.push_back(i);
      }
      EXPECT_TRUE(t.TransitionsWithSymbol(sym) == by_symbol)
          << "symbol " << sym;
      EXPECT_TRUE(t.LeafTransitions(sym) == leaves) << "symbol " << sym;
      for (StateId c0 = 0; c0 < S; ++c0) {
        std::vector<uint32_t> nonleaf;
        for (uint32_t i = 0; i < trans.size(); ++i) {
          if (trans[i].symbol == sym && !trans[i].children.empty() &&
              trans[i].children[0] == c0) {
            nonleaf.push_back(i);
          }
        }
        EXPECT_TRUE(t.TransitionsWithSymbolChild0(sym, c0) == nonleaf)
            << "symbol " << sym << " child0 " << c0;
      }
    }
  }
}

TEST(CsrEquivalenceTest, NftaCopyRebasesChildren) {
  Rng rng(7);
  Nfta original = RandomNfta(&rng, 5, 2, 12);
  std::vector<std::vector<StateId>> expected;
  for (const Nfta::Transition& t : original.transitions()) {
    expected.push_back(t.children.ToVector());
  }
  Nfta copy = original;
  // Mutating (and reallocating) the original's arena must not disturb the
  // copy's spans.
  for (int i = 0; i < 50; ++i) {
    original.AddTransition(0, 0, {1, 2, 3, 4, 0, 1, 2});
  }
  ASSERT_EQ(copy.NumTransitions(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(copy.transitions()[i].children == expected[i]) << "t " << i;
  }
  // And the copy's own growth must rebase its (independent) arena.
  copy.AddTransition(1, 1, {0, 0, 0, 0, 0, 0, 0, 0});
  EXPECT_TRUE(copy.transitions()[0].children == expected[0]);
}

TEST(CsrEquivalenceTest, NftaSelfAliasedAddTransition) {
  // Feeding a transition's own children span back into AddTransitionView
  // must copy before the arena reallocates under it.
  Nfta t;
  StateId q = t.AddState();
  t.SetInitialState(q);
  t.AddTransition(q, 0, {q, q, q});
  for (int i = 0; i < 40; ++i) {
    t.AddTransitionView(q, 1, t.transitions()[0].children);
  }
  for (const Nfta::Transition& tr : t.transitions()) {
    ASSERT_EQ(tr.children.size(), 3u);
    for (StateId c : tr.children) EXPECT_EQ(c, q);
  }
}

// --- Exact-tier goldens ----------------------------------------------------

EstimatorConfig HotpathConfig(uint64_t seed) {
  EstimatorConfig cfg;
  cfg.epsilon = 0.3;
  cfg.seed = seed;
  cfg.pool_size = 48;
  return cfg;
}

// KernelMode::kExact promises estimates bit-identical across thread counts
// and versions; these committed goldens check that promise. Each entry is
// one run's estimate, exactly (a hex-float literal: every value here fits a
// double), and the stats its draws determine. They were recorded from the
// counters' original materialize-and-simulate membership oracle and
// cross-checked against the interned run-state sets, which consume the same
// RNG stream and must make the same canonical decisions: a single divergent
// membership answer anywhere changes an acceptance count and fails here.
struct Golden {
  double value;
  CountStats draws;  // strata_total .. membership_checks; the rest 0
};

// The stats a run's draws determine: the cached tier's own bookkeeping
// (picker builds, run-state memo hits and misses, steps) is zeroed.
CountStats Draws(CountStats stats) {
  stats.picker_builds = 0;
  stats.runstates_memo_hits = 0;
  stats.runstates_memo_misses = 0;
  stats.runstates_steps = 0;
  return stats;
}

void ExpectGolden(const CountEstimate& est, const Golden& golden,
                  uint64_t seed) {
  EXPECT_TRUE(est.value == ExtFloat::FromDouble(golden.value))
      << "seed " << seed << ": " << est.value.ToString() << " vs golden "
      << ExtFloat::FromDouble(golden.value).ToString();
  EXPECT_EQ(Draws(est.stats).ToString(), golden.draws.ToString())
      << "seed " << seed;
}

// CountNftaTrees on RandomNfta(&Rng(0x9e1), ...) cases, seeds 1..30.
constexpr Golden kRandomNftaGolden[] = {
    {0x0p+0, {70, 0, 0, 0, 0, 0, 0}},  // 1: n 4
    {0x1.2p+4, {104, 30, 1440, 0, 0, 0, 0}},  // 2: n 8
    {0x0p+0, {58, 0, 0, 0, 0, 0, 0}},  // 3: n 3
    {0x0p+0, {127, 0, 0, 0, 0, 0, 0}},  // 4: n 6
    {0x0p+0, {129, 0, 0, 0, 0, 0, 0}},  // 5: n 8
    {0x1.6p+5, {196, 50, 2400, 240, 240, 0, 240}},  // 6: n 7
    {0x0p+0, {211, 0, 0, 0, 0, 0, 0}},  // 7: n 6
    {0x1.6p+3, {135, 43, 2064, 240, 240, 0, 240}},  // 8: n 6
    {0x1p+3, {114, 25, 1200, 54, 48, 0, 54}},  // 9: n 8
    {0x1p+2, {189, 19, 912, 48, 48, 0, 48}},  // 10: n 4
    {0x1.f999999999999p+4, {259, 63, 3024, 320, 288, 0, 320}},  // 11: n 7
    {0x1p+2, {170, 24, 1152, 0, 0, 0, 0}},  // 12: n 6
    {0x0p+0, {84, 0, 0, 0, 0, 0, 0}},  // 13: n 7
    {0x1p+0, {80, 11, 528, 0, 0, 0, 0}},  // 14: n 6
    {0x1.f5c28f5c28f5cp+0, {94, 10, 480, 100, 48, 0, 100}},  // 15: n 3
    {0x1p+0, {142, 15, 720, 0, 0, 0, 0}},  // 16: n 8
    {0x1.97241d8deb8c5p+2, {136, 21, 1008, 132, 96, 0, 132}},  // 17: n 4
    {0x1.1d041dae0a6ebp+7, {172, 72, 3456, 750, 576, 0, 750}},  // 18: n 5
    {0x1.a73cc725bfc13p+3, {125, 43, 2064, 177, 96, 0, 177}},  // 19: n 7
    {0x1p+2, {186, 18, 864, 96, 96, 0, 96}},  // 20: n 5
    {0x1.a4cac1ae5f4d6p+7, {158, 83, 3984, 1042, 768, 0, 1042}},  // 21: n 7
    {0x1p+1, {56, 13, 624, 96, 48, 0, 96}},  // 22: n 5
    {0x1.8p+3, {68, 19, 912, 48, 48, 0, 48}},  // 23: n 6
    {0x1.8p+4, {110, 46, 2208, 96, 96, 0, 96}},  // 24: n 6
    {0x0p+0, {50, 0, 0, 0, 0, 0, 0}},  // 25: n 4
    {0x1.eba2e8ba2e8bap+4, {211, 58, 2784, 295, 288, 0, 295}},  // 26: n 7
    {0x0p+0, {175, 0, 0, 0, 0, 0, 0}},  // 27: n 5
    {0x1p+0, {57, 7, 336, 0, 0, 0, 0}},  // 28: n 4
    {0x1.8p+1, {111, 14, 672, 0, 0, 0, 0}},  // 29: n 5
    {0x1.314d0fba6683dp+11, {160, 103, 4944, 1643, 1152, 0, 1643}},  // 30: n 8
};

// This is also the memo-correctness test for random automata: the cached
// tier answers every membership check through the run-state memo.
TEST(HotpathEquivalenceTest, CountNftaCachedMatchesGolden) {
  Rng rng(0x9e1);
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Nfta t = RandomNfta(&rng, 2 + rng.NextBounded(5), 2,
                        4 + rng.NextBounded(12));
    const size_t n = 3 + rng.NextBounded(6);
    auto cached = CountNftaTrees(t, n, HotpathConfig(seed));
    ASSERT_TRUE(cached.ok());
    ExpectGolden(*cached, kRandomNftaGolden[seed - 1], seed);
    if (cached->stats.membership_checks > 0) {
      EXPECT_GT(cached->stats.runstates_memo_hits +
                    cached->stats.runstates_memo_misses,
                0u);
    }
  }
}

// An automaton whose ambiguity survives size stratification: two same-symbol
// same-arity transitions out of the root state stay live at every size, so
// the Karp–Luby canonical-witness loop (and the run-state memo behind it)
// runs in every root stratum. The child languages overlap on the 0-leaf.
Nfta AmbiguousCombNfta() {
  Nfta t;
  StateId q0 = t.AddState();
  StateId a = t.AddState();
  StateId b = t.AddState();
  t.SetInitialState(q0);
  t.AddTransition(a, 0, {});
  t.AddTransition(b, 0, {});
  t.AddTransition(a, 1, {});
  t.AddTransition(q0, 2, {a, q0});
  t.AddTransition(q0, 2, {b, q0});
  t.AddTransition(q0, 0, {});
  return t;
}

// CountNftaTrees(AmbiguousCombNfta(), 15, ...), seeds 1..5.
constexpr Golden kAmbiguousCombGolden[] = {
    {0x1.f5621fb3f5a9ap+6, {109, 26, 1248, 507, 336, 0, 507}},  // 1
    {0x1.66d23df7d82b5p+7, {109, 26, 1248, 482, 336, 0, 482}},  // 2
    {0x1.225dac9b1ff7cp+7, {109, 26, 1248, 497, 336, 0, 497}},  // 3
    {0x1.28fb9d3ffce07p+7, {109, 26, 1248, 495, 336, 0, 495}},  // 4
    {0x1.4b83a56c407ebp+7, {109, 26, 1248, 486, 336, 0, 486}},  // 5
};

TEST(HotpathEquivalenceTest, CountNftaAmbiguousAutomaton) {
  Nfta t = AmbiguousCombNfta();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    auto cached = CountNftaTrees(t, 15, HotpathConfig(seed));
    ASSERT_TRUE(cached.ok());
    ExpectGolden(*cached, kAmbiguousCombGolden[seed - 1], seed);
    EXPECT_GT(cached->stats.membership_checks, 0u);
    EXPECT_GT(cached->stats.runstates_memo_hits, 0u);
    EXPECT_GT(cached->stats.picker_builds, 0u);
  }
}

// CountNfaStrings on RandomNfa(&Rng(0x5ca1e), ...) cases, seeds 1..25.
constexpr Golden kRandomNfaGolden[] = {
    {0x1.386b96727fc7cp+7, {16, 15, 624, 4406, 912, 0, 4406}},  // 1: n 7
    {0x1.a7b27da59f046p+2, {35, 21, 816, 553, 288, 0, 553}},  // 2: n 4
    {0x0p+0, {18, 0, 0, 0, 0, 0, 0}},  // 3: n 5
    {0x1p+0, {48, 8, 336, 0, 0, 0, 0}},  // 4: n 7
    {0x1.2c6f04ba393d7p+7, {45, 35, 1584, 800, 576, 0, 800}},  // 5: n 8
    {0x1p+1, {28, 14, 576, 48, 48, 0, 48}},  // 6: n 6
    {0x1.f7ed5773a4553p+4, {18, 17, 672, 4418, 1392, 0, 4418}},  // 7: n 5
    {0x1.85a9a519b84c5p+4, {15, 14, 528, 3284, 912, 0, 3284}},  // 8: n 4
    {0x0p+0, {21, 0, 0, 0, 0, 0, 0}},  // 9: n 6
    {0x1.275ea223a17dfp+8, {36, 32, 1440, 4972, 1968, 0, 4972}},  // 10: n 8
    {0x1.a410262f69388p+3, {10, 8, 336, 1772, 576, 0, 1772}},  // 11: n 4
    {0x1.14b20191e9badp+5, {30, 24, 1008, 1410, 768, 0, 1410}},  // 12: n 5
    {0x0p+0, {42, 0, 0, 0, 0, 0, 0}},  // 13: n 5
    {0x1.374a3b8ddbd22p+6, {28, 23, 1008, 3248, 1200, 0, 3248}},  // 14: n 6
    {0x1.d9c4a92f1a157p-1, {14, 13, 528, 1078, 528, 0, 1078}},  // 15: n 6
    {0x1.7eb69d14ca865p+2, {49, 23, 960, 797, 432, 0, 797}},  // 16: n 6
    {0x1.fddc990881f74p-1, {12, 11, 432, 1861, 432, 0, 1861}},  // 17: n 5
    {0x1p+0, {54, 9, 384, 0, 0, 0, 0}},  // 18: n 8
    {0x0p+0, {18, 0, 0, 0, 0, 0, 0}},  // 19: n 5
    {0x1.0d79435e50d79p+3, {20, 10, 432, 153, 144, 0, 153}},  // 20: n 4
    {0x1.1306a9936a9b2p+0, {12, 10, 432, 3061, 432, 0, 3061}},  // 21: n 5
    {0x1.0e10e10e10e11p+0, {63, 10, 432, 91, 48, 0, 91}},  // 22: n 8
    {0x1.68c2ef1ec24ep-1, {36, 17, 672, 1565, 528, 0, 1565}},  // 23: n 5
    {0x1.03b88ee23b88fp+2, {42, 16, 624, 326, 240, 0, 326}},  // 24: n 5
    {0x1p+0, {42, 6, 240, 0, 0, 0, 0}},  // 25: n 5
};

TEST(HotpathEquivalenceTest, CountNfaCachedMatchesGolden) {
  Rng rng(0x5ca1e);
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    const size_t S = 2 + rng.NextBounded(6);
    // A small alphabet forces same-symbol in-transition groups (ambiguity).
    Nfa a = RandomNfa(&rng, S, 1 + rng.NextBounded(2),
                      4 + rng.NextBounded(16));
    const size_t n = 4 + rng.NextBounded(5);
    auto cached = CountNfaStrings(a, n, HotpathConfig(seed));
    ASSERT_TRUE(cached.ok());
    ExpectGolden(*cached, kRandomNfaGolden[seed - 1], seed);
  }
}

// CountNfaStrings on RandomNfa(&Rng(0xa7e7a), ...) cases, seeds 1..6
// (n = 36, 26, 27, 31, 24, 34).
constexpr Golden kLongWordsGolden[] = {
    {0x1.1ec026d9dd527p+36, {370, 355, 16848, 62703, 26448, 0, 62703}},
    {0x1.5cf8fc1dc7047p+26, {189, 178, 8400, 21615, 9264, 0, 21615}},
    {0x1.1123191aaf6ffp+20, {224, 186, 8784, 18021, 9888, 0, 18021}},
    {0x1.b18d83c63d206p+31, {288, 213, 10080, 21271, 9888, 0, 21271}},
    {0x1.186b10cf68387p+24, {200, 188, 8880, 35632, 12816, 0, 35632}},
    {0x1.3757872bb3a07p+34, {385, 366, 17376, 58954, 21552, 0, 58954}},
};

// Long words over a two-letter alphabet: many same-symbol in-transition
// groups, so the Karp–Luby loop and the run-state memo run in most strata,
// and ref chains dozens of links deep. The memo arena holds tens of
// thousands of sets by the end of a run, so it reallocates many times, and
// every append happens while a chain replay is in progress — the replay
// must re-take its predecessor view after each append. Any stale view
// changes a membership answer, and with it the estimate.
TEST(HotpathEquivalenceTest, CountNfaArenaLongWordsMatchGoldenAndThreads) {
  Rng rng(0xa7e7a);
  size_t total_misses = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const size_t S = 6 + rng.NextBounded(6);
    Nfa a = RandomNfa(&rng, S, 2, 3 * S + rng.NextBounded(2 * S));
    const size_t n = 24 + rng.NextBounded(16);
    auto cached = CountNfaStrings(a, n, HotpathConfig(seed));
    ASSERT_TRUE(cached.ok());
    ExpectGolden(*cached, kLongWordsGolden[seed - 1], seed);
    total_misses += cached->stats.runstates_memo_misses;

    // The fast tier's median-of-R: the same answer and stats at 1 and 4
    // threads (per-rep counters, fixed-order merge).
    EstimatorConfig fast = HotpathConfig(seed);
    fast.kernel_mode = KernelMode::kFast;
    fast.repetitions = 4;
    fast.num_threads = 1;
    auto fast1 = CountNfaStrings(a, n, fast);
    fast.num_threads = 4;
    auto fast4 = CountNfaStrings(a, n, fast);
    ASSERT_TRUE(fast1.ok() && fast4.ok());
    EXPECT_TRUE(fast1->value == fast4->value) << "seed " << seed;
    EXPECT_EQ(fast1->stats.attempts, fast4->stats.attempts);
    EXPECT_EQ(fast1->stats.runstates_memo_misses,
              fast4->stats.runstates_memo_misses);
  }
  // The regime the test is for: memos of about 10^4 sets per run, so the
  // arena doubles a dozen times or more in every run, each time inside a
  // replay (ASan builds turn a stale view into a hard failure).
  EXPECT_GT(total_misses, size_t{6} << 12);
}

// "Contains 0,1,0" over {0, 1}: state 0 loops on both symbols and guesses
// where the pattern starts, so most strings have several runs and both
// same-symbol groups into the loops of states 0 and 3 are ambiguous. The
// run-state sets are subsets of four states, so over long words the lazy
// subset DFA behind the run-state memo takes about a dozen (subset, symbol)
// steps against thousands of per-sample memo misses.
Nfa ContainsPatternNfa() {
  Nfa a;
  for (int i = 0; i < 4; ++i) a.AddState();
  a.MarkInitial(0);
  a.MarkAccepting(2);
  a.MarkAccepting(3);
  a.AddTransition(0, 0, 0);
  a.AddTransition(0, 1, 0);
  a.AddTransition(0, 0, 1);
  a.AddTransition(1, 1, 2);
  a.AddTransition(2, 0, 3);
  a.AddTransition(3, 0, 3);
  a.AddTransition(3, 1, 3);
  a.AddTransition(2, 1, 0);
  return a;
}

// CountNfaStrings(ContainsPatternNfa(), 40, ...), seeds 1..4.
constexpr Golden kContainsPatternGolden[] = {
    {0x1.3a2321d9343cdp+40, {164, 155, 7392, 4391, 3552, 0, 4391}},  // 1
    {0x1.4b231bc8d28ap+40, {164, 155, 7392, 4428, 3552, 0, 4428}},  // 2
    {0x1.550dda6cf3939p+40, {164, 155, 7392, 4397, 3552, 0, 4397}},  // 3
    {0x1.1c38b338caabp+40, {164, 155, 7392, 4405, 3552, 0, 4405}},  // 4
};

// The interned-subset memo must answer exactly what a from-scratch
// simulation of each sampled prefix answers, so the estimate and every
// draw-determined stat match the goldens, with far fewer subset steps than
// memo misses.
TEST(HotpathEquivalenceTest, CountNfaSubsetMemoMatchesGolden) {
  const Nfa a = ContainsPatternNfa();
  const size_t n = 40;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    auto cached = CountNfaStrings(a, n, HotpathConfig(seed));
    ASSERT_TRUE(cached.ok());
    ExpectGolden(*cached, kContainsPatternGolden[seed - 1], seed);
    EXPECT_GT(cached->stats.runstates_memo_hits, 0u);
    EXPECT_GT(cached->stats.runstates_steps, 0u);
    EXPECT_LT(cached->stats.runstates_steps,
              cached->stats.runstates_memo_misses);

    // Each kernel tier's median-of-R: the same answer and stats at 1 and 4
    // threads.
    for (KernelMode mode : {KernelMode::kExact, KernelMode::kFast}) {
      EstimatorConfig cfg = HotpathConfig(seed);
      cfg.kernel_mode = mode;
      cfg.repetitions = 4;
      cfg.num_threads = 1;
      auto serial = CountNfaStrings(a, n, cfg);
      cfg.num_threads = 4;
      auto parallel = CountNfaStrings(a, n, cfg);
      ASSERT_TRUE(serial.ok() && parallel.ok());
      EXPECT_TRUE(serial->value == parallel->value)
          << KernelModeToString(mode) << ", seed " << seed;
      EXPECT_EQ(serial->stats.ToString(), parallel->stats.ToString())
          << KernelModeToString(mode) << ", seed " << seed;
      EXPECT_LT(serial->stats.runstates_steps,
                serial->stats.runstates_memo_misses);
    }
  }
}

// Arity-1, -2 and -3 rules, each of the root's internal symbols shared by
// two of its transitions, over child states x and y whose languages overlap
// (both accept the 0-leaf and the unary trees over it). Run-state sets are subsets of three
// states, so thousands of pooled trees share a handful of child-set tuples,
// and the interned kernel computes each set once per (symbol, tuple) key.
Nfta SharedTupleNfta() {
  Nfta t;
  const StateId r = t.AddState();
  const StateId x = t.AddState();
  const StateId y = t.AddState();
  t.SetInitialState(r);
  t.AddTransition(x, 0, {});
  t.AddTransition(y, 0, {});
  t.AddTransition(y, 1, {});
  t.AddTransition(x, 2, {x});
  t.AddTransition(y, 2, {x});
  t.AddTransition(y, 2, {y});
  t.AddTransition(r, 0, {});
  t.AddTransition(r, 2, {x});
  t.AddTransition(r, 2, {y});
  t.AddTransition(r, 3, {x, r});
  t.AddTransition(r, 3, {y, r});
  t.AddTransition(r, 4, {x, r, y});
  t.AddTransition(r, 4, {y, r, x});
  return t;
}

// CountNftaTrees(SharedTupleNfta(), 13, ...), seeds 1..4.
constexpr Golden kSharedTupleGolden[] = {
    {0x1.4fd399a82cb1ep+15, {249, 191, 9168, 2957, 1968, 0, 2957}},  // 1
    {0x1.5485250cf59e1p+15, {249, 191, 9168, 2800, 1968, 0, 2800}},  // 2
    {0x1.0227920183329p+16, {249, 191, 9168, 3008, 1968, 0, 3008}},  // 3
    {0x1.b31fbb683e8ccp+15, {249, 191, 9168, 2791, 1968, 0, 2791}},  // 4
};

// The interned run-state sets must answer exactly what a from-scratch
// recursion over each sampled tree answers, so the estimate and every
// draw-determined stat match the goldens; the kernel computes fewer sets
// than it memoizes slots. (AmbiguousCombNfta at n = 15 shares its seeds
// 1..4 with CountNftaAmbiguousAutomaton.)
TEST(HotpathEquivalenceTest, CountNftaInternedMembershipMatchesGolden) {
  struct Case {
    Nfta t;
    size_t n;
    const Golden* golden;
  };
  const Case cases[] = {{SharedTupleNfta(), 13, kSharedTupleGolden},
                        {AmbiguousCombNfta(), 15, kAmbiguousCombGolden}};
  for (const auto& [t, n, golden] : cases) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      auto cached = CountNftaTrees(t, n, HotpathConfig(seed));
      ASSERT_TRUE(cached.ok());
      ExpectGolden(*cached, golden[seed - 1], seed);
      EXPECT_GT(cached->stats.membership_checks, 0u);
      EXPECT_GT(cached->stats.runstates_memo_hits, 0u);
      EXPECT_GT(cached->stats.runstates_steps, 0u);
      EXPECT_LT(cached->stats.runstates_steps,
                cached->stats.runstates_memo_misses);

      // Each kernel tier's median-of-R: the same answer and stats at 1 and
      // 4 threads.
      for (KernelMode mode : {KernelMode::kExact, KernelMode::kFast}) {
        EstimatorConfig cfg = HotpathConfig(seed);
        cfg.kernel_mode = mode;
        cfg.repetitions = 4;
        cfg.num_threads = 1;
        auto serial = CountNftaTrees(t, n, cfg);
        cfg.num_threads = 4;
        auto parallel = CountNftaTrees(t, n, cfg);
        ASSERT_TRUE(serial.ok() && parallel.ok());
        EXPECT_TRUE(serial->value == parallel->value)
            << KernelModeToString(mode) << ", seed " << seed;
        EXPECT_EQ(serial->stats.ToString(), parallel->stats.ToString())
            << KernelModeToString(mode) << ", seed " << seed;
        EXPECT_LT(serial->stats.runstates_steps,
                  serial->stats.runstates_memo_misses);
      }
    }
  }
}

// An unambiguous NFTA (a distinct symbol per transition), so every symbol
// group is a singleton and every tier returns the exact count. State A has
// two live sizes, {1, 3}; state Q is live at sizes 2, 3 and 4, and at size
// 3 (reached through v(B)) it looks up A's full forest at size 2, which
// falls between A's two live sizes — a dense-id lookup miss inside a run.
// A wrong id there would add a non-zero weight and change the count.
TEST(HotpathEquivalenceTest, CountNftaDenseIdLookupMissesBetweenLiveSizes) {
  Nfta t;
  const StateId root = t.AddState();
  const StateId q = t.AddState();
  const StateId a = t.AddState();
  const StateId b = t.AddState();
  const StateId leaf = t.AddState();
  t.SetInitialState(root);
  t.AddTransition(leaf, 0, {});
  t.AddTransition(a, 1, {});               // A: size 1
  t.AddTransition(a, 2, {leaf, leaf});     // A: size 3
  t.AddTransition(b, 3, {leaf});           // B: size 2
  t.AddTransition(q, 4, {a});              // Q: sizes 2, 4
  t.AddTransition(q, 5, {b});              // Q: size 3
  t.AddTransition(root, 6, {q, q});        // root: 1 + (2,4) / (4,2) / (3,3)
  const size_t n = 7;
  auto exact = ExactCountNftaTrees(t, n);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->ToDecimalString(), "3");
  const ExtFloat three = ExtFloat::FromUint64(3);
  auto est = CountNftaTrees(t, n, HotpathConfig(5));
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(est->value == three) << est->value.ToString();
  EstimatorConfig fast = HotpathConfig(5);
  fast.kernel_mode = KernelMode::kFast;
  auto fast_est = CountNftaTrees(t, n, fast);
  ASSERT_TRUE(fast_est.ok());
  EXPECT_TRUE(fast_est->value == three) << fast_est->value.ToString();
  // Samples come from the root stratum's pool through the dense ids; each
  // must be an accepted tree of size n.
  auto sampled = CountAndSampleNftaTrees(t, n, HotpathConfig(9), 12);
  ASSERT_TRUE(sampled.ok());
  ASSERT_EQ(sampled->samples.size(), 12u);
  for (const LabeledTree& tree : sampled->samples) {
    EXPECT_EQ(tree.size(), n);
    EXPECT_TRUE(t.Accepts(tree));
  }
}

TEST(HotpathEquivalenceTest, MedianOfRWithCaches) {
  // The parallel median-of-R path (with adjacency warmed for the workers)
  // must match its golden too, including the aggregated stats.
  Nfta t = AmbiguousCombNfta();
  EstimatorConfig cfg = HotpathConfig(0xfeed);
  cfg.repetitions = 5;
  cfg.num_threads = 4;
  auto cached = CountNftaTrees(t, 13, cfg);
  ASSERT_TRUE(cached.ok());
  const Golden golden = {0x1.0fcbfdf9355a1p+6,
                         {95, 23, 5520, 2155, 1440, 0, 2155}};
  ExpectGolden(*cached, golden, 0xfeed);
  EXPECT_GT(cached->stats.picker_builds, 0u);
  EXPECT_GT(cached->stats.runstates_memo_hits, 0u);
}

TEST(HotpathEquivalenceTest, CachedEstimateTracksExactCount) {
  // Accuracy spot check: the cached estimator stays within a loose band of
  // the exact DP count on the ambiguous automaton (Catalan-like counts).
  Nfta t;
  StateId q = t.AddState();
  t.SetInitialState(q);
  t.AddTransition(q, 0, {q, q});
  t.AddTransition(q, 0, {});
  t.AddTransition(q, 1, {});
  const size_t n = 11;
  auto exact = ExactCountNftaTrees(t, n);
  ASSERT_TRUE(exact.ok());
  const double exact_log2 = ExtFloat::FromBigUint(*exact).Log2();
  EstimatorConfig cfg = HotpathConfig(0x7e57);
  cfg.pool_size = 96;
  auto est = CountNftaTrees(t, n, cfg);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est->value.Log2(), exact_log2, 0.6);
}

// --- Whole-pipeline goldens -----------------------------------------------
//
// One cell per route, end to end (skeleton → bind → count), at the
// bench_counting_hotpath configurations: the tree route's E4 cell e4.w2
// (PqeEstimate, CountNFTA) and the string route's path cell path.l3
// (PathPqeEstimate, CountNFA). Each pins log2_probability's bits and the
// counter's draw-determined stats, recorded like the tables above.

ProbabilisticDatabase LayeredPdb(const QueryInstance& qi, uint32_t width,
                                 double density, uint64_t graph_seed,
                                 uint64_t prob_seed) {
  LayeredGraphOptions opt;
  opt.width = width;
  opt.density = density;
  opt.seed = graph_seed;
  ProbabilityModel pm;
  pm.max_denominator = 8;
  pm.seed = prob_seed;
  return AttachProbabilities(MakeLayeredPathDatabase(qi, opt).MoveValue(),
                             pm);
}

EstimatorConfig PipelineConfig(uint64_t seed, size_t pool_size) {
  EstimatorConfig cfg;
  cfg.epsilon = 0.25;
  cfg.seed = seed;
  cfg.pool_size = pool_size;
  cfg.repetitions = 3;
  cfg.num_threads = 1;
  return cfg;
}

TEST(PipelineGoldenTest, TreeRouteE4W2) {
  auto qi = MakePathQuery(4).MoveValue();
  const ProbabilisticDatabase pdb = LayeredPdb(qi, 2, 0.6, 2, 4);
  auto est = PqeEstimate(qi.query, pdb, PipelineConfig(11, 96));
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  EXPECT_EQ(est->log2_probability, -0x1.6dc407e9110fcp+1);
  const CountStats golden{12688, 298, 85824, 1035, 864, 0, 1035};
  EXPECT_EQ(Draws(est->stats).ToString(), golden.ToString());
}

TEST(PipelineGoldenTest, StringRoutePathL3) {
  auto qi = MakePathQuery(3).MoveValue();
  const ProbabilisticDatabase pdb = LayeredPdb(qi, 3, 0.7, 3, 8);
  auto est = PathPqeEstimate(qi.query, pdb, PipelineConfig(23, 64));
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  EXPECT_EQ(est->log2_probability, -0x1.3f84a6a2488p-3);
  const CountStats golden{87570, 1003, 191040, 37219, 35136, 0, 37219};
  EXPECT_EQ(Draws(est->stats).ToString(), golden.ToString());
}

}  // namespace
}  // namespace pqe
