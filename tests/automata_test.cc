// Unit tests for the automata module: NFA, labelled trees, NFTA (+λ),
// augmented NFTAs (Section 4.1) and NFTAs with multipliers (Section 5.1).

#include <gtest/gtest.h>

#include "automata/augmented_nfta.h"
#include "automata/multiplier_nfta.h"
#include "automata/nfa.h"
#include "automata/nfta.h"
#include "automata/tree.h"
#include "counting/exact.h"

namespace pqe {
namespace {

// --------------------------------------------------------------------- NFA

// (ab)* ending in b, as a 2-state NFA over {a=0, b=1}.
Nfa AlternatingNfa() {
  Nfa nfa;
  StateId s0 = nfa.AddState();
  StateId s1 = nfa.AddState();
  nfa.MarkInitial(s0);
  nfa.MarkAccepting(s1);
  nfa.AddTransition(s0, 0, s1);
  nfa.AddTransition(s1, 1, s0);
  return nfa;
}

TEST(NfaTest, AcceptsAndRejects) {
  Nfa nfa = AlternatingNfa();
  EXPECT_TRUE(nfa.Accepts({0}));
  EXPECT_FALSE(nfa.Accepts({1}));
  EXPECT_FALSE(nfa.Accepts({0, 1}));
  EXPECT_TRUE(nfa.Accepts({0, 1, 0}));
  EXPECT_FALSE(nfa.Accepts({}));
}

TEST(NfaTest, StatesAfterSubsetSimulation) {
  Nfa nfa = AlternatingNfa();
  auto states = nfa.StatesAfter({0});
  EXPECT_FALSE(states[0]);
  EXPECT_TRUE(states[1]);
}

TEST(NfaTest, TrimRemovesUselessStates) {
  Nfa nfa = AlternatingNfa();
  StateId dead = nfa.AddState();          // unreachable
  nfa.AddTransition(dead, 0, dead);
  StateId trap = nfa.AddState();          // reachable, not co-reachable
  nfa.AddTransition(0, 1, trap);
  EXPECT_EQ(nfa.NumStates(), 4u);
  nfa.Trim();
  EXPECT_EQ(nfa.NumStates(), 2u);
  EXPECT_TRUE(nfa.Accepts({0, 1, 0}));
}

TEST(NfaTest, MultipleInitialStates) {
  Nfa nfa;
  StateId a = nfa.AddState();
  StateId b = nfa.AddState();
  StateId f = nfa.AddState();
  nfa.MarkInitial(a);
  nfa.MarkInitial(b);
  nfa.MarkAccepting(f);
  nfa.AddTransition(a, 0, f);
  nfa.AddTransition(b, 1, f);
  EXPECT_TRUE(nfa.Accepts({0}));
  EXPECT_TRUE(nfa.Accepts({1}));
  EXPECT_EQ(nfa.initial_states().size(), 2u);
}

// ------------------------------------------------------------ LabeledTree

TEST(LabeledTreeTest, BuildAndSerialize) {
  LabeledTree t(5);
  uint32_t c1 = t.AddChild(t.root(), 1);
  t.AddChild(t.root(), 2);
  t.AddChild(c1, 3);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.Serialize(), "(5 (1 (3)) (2))");
}

TEST(LabeledTreeTest, GraftCopiesSubtree) {
  LabeledTree sub(7);
  sub.AddChild(sub.root(), 8);
  LabeledTree t(1);
  t.GraftChild(t.root(), sub);
  t.GraftChild(t.root(), sub);
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.Serialize(), "(1 (7 (8)) (7 (8)))");
}

TEST(LabeledTreeTest, EqualityIsStructural) {
  LabeledTree a(1);
  a.AddChild(a.root(), 2);
  LabeledTree b(1);
  b.AddChild(b.root(), 2);
  LabeledTree c(1);
  c.AddChild(c.root(), 3);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

// ------------------------------------------------------------------- NFTA

// Accepts trees shaped f(a, b) with f=0, a=1, b=2.
Nfta TinyNfta() {
  Nfta t;
  StateId q0 = t.AddState();
  StateId qa = t.AddState();
  StateId qb = t.AddState();
  t.SetInitialState(q0);
  t.AddTransition(q0, 0, {qa, qb});
  t.AddTransition(qa, 1, {});
  t.AddTransition(qb, 2, {});
  return t;
}

TEST(NftaTest, AcceptsExpectedTrees) {
  Nfta t = TinyNfta();
  LabeledTree good(0);
  good.AddChild(good.root(), 1);
  good.AddChild(good.root(), 2);
  EXPECT_TRUE(t.Accepts(good));

  LabeledTree swapped(0);
  swapped.AddChild(swapped.root(), 2);
  swapped.AddChild(swapped.root(), 1);
  EXPECT_FALSE(t.Accepts(swapped));

  LabeledTree leaf(1);
  EXPECT_FALSE(t.Accepts(leaf));
  EXPECT_TRUE(t.AcceptsFrom(1, leaf));
}

TEST(NftaTest, LambdaEliminationForestSplice) {
  // q0 --f--> (m); m --λ--> (qa qb): after elimination q0 --f--> (qa qb).
  Nfta t;
  StateId q0 = t.AddState();
  StateId m = t.AddState();
  StateId qa = t.AddState();
  StateId qb = t.AddState();
  t.SetInitialState(q0);
  t.AddTransition(q0, 0, {m});
  t.AddTransition(m, Nfta::kLambdaSymbol, {qa, qb});
  t.AddTransition(qa, 1, {});
  t.AddTransition(qb, 2, {});
  ASSERT_TRUE(t.EliminateLambda().ok());
  EXPECT_FALSE(t.HasLambdaTransitions());
  LabeledTree good(0);
  good.AddChild(good.root(), 1);
  good.AddChild(good.root(), 2);
  EXPECT_TRUE(t.Accepts(good));
}

TEST(NftaTest, LambdaEliminationEmptyForest) {
  // m expands to the empty forest: f's child list drops it.
  Nfta t;
  StateId q0 = t.AddState();
  StateId m = t.AddState();
  StateId qa = t.AddState();
  t.SetInitialState(q0);
  t.AddTransition(q0, 0, {qa, m});
  t.AddTransition(m, Nfta::kLambdaSymbol, {});
  t.AddTransition(qa, 1, {});
  ASSERT_TRUE(t.EliminateLambda().ok());
  LabeledTree good(0);
  good.AddChild(good.root(), 1);
  EXPECT_TRUE(t.Accepts(good));
}

TEST(NftaTest, LambdaEliminationInitialChain) {
  // s_init --λ--> r, r --a--> (): the initial state absorbs r's rule.
  Nfta t;
  StateId s = t.AddState();
  StateId r = t.AddState();
  t.SetInitialState(s);
  t.AddTransition(s, Nfta::kLambdaSymbol, {r});
  t.AddTransition(r, 0, {});
  ASSERT_TRUE(t.EliminateLambda().ok());
  LabeledTree leaf(0);
  EXPECT_TRUE(t.Accepts(leaf));
}

TEST(NftaTest, TrimRemovesNonProductive) {
  Nfta t = TinyNfta();
  StateId sink = t.AddState();  // no transitions: non-productive
  t.AddTransition(0, 0, {sink, sink});
  const size_t before = t.NumTransitions();
  t.Trim();
  EXPECT_LT(t.NumTransitions(), before);
  LabeledTree good(0);
  good.AddChild(good.root(), 1);
  good.AddChild(good.root(), 2);
  EXPECT_TRUE(t.Accepts(good));
}

// --------------------------------------------------------- Augmented NFTA

TEST(AugmentedNftaTest, StringAnnotationThreadsStates) {
  // One transition annotated "a b" (no ?): accepts the path a(b).
  AugmentedNfta aug;
  StateId s = aug.AddState();
  aug.SetInitialState(s);
  aug.AddTransition(s, {{0, false}, {1, false}}, {});
  auto nfta = aug.ToNfta();
  ASSERT_TRUE(nfta.ok());
  LabeledTree t(PositiveLiteral(0));
  t.AddChild(t.root(), PositiveLiteral(1));
  EXPECT_TRUE(nfta->Accepts(t));
  // Exactly one tree of size 2 accepted.
  EXPECT_EQ(ExactCountNftaTrees(*nfta, 2)->ToDecimalString(), "1");
}

TEST(AugmentedNftaTest, QuestionMarkDoublesChoices) {
  // "a? b?" accepts 4 trees of size 2 (each literal positive or negative).
  AugmentedNfta aug;
  StateId s = aug.AddState();
  aug.SetInitialState(s);
  aug.AddTransition(s, {{0, true}, {1, true}}, {});
  auto nfta = aug.ToNfta();
  ASSERT_TRUE(nfta.ok());
  EXPECT_EQ(ExactCountNftaTrees(*nfta, 2)->ToDecimalString(), "4");
  LabeledTree t(NegativeLiteral(0));
  t.AddChild(t.root(), NegativeLiteral(1));
  EXPECT_TRUE(nfta->Accepts(t));
}

TEST(AugmentedNftaTest, SizeMeasurePolynomial) {
  AugmentedNfta aug;
  StateId s = aug.AddState();
  aug.SetInitialState(s);
  aug.AddTransition(s, {{0, true}, {1, false}, {2, true}}, {});
  // Remark 1: translation is polynomial; here 3 symbols → <= 5 transitions.
  auto nfta = aug.ToNfta();
  ASSERT_TRUE(nfta.ok());
  EXPECT_LE(nfta->NumTransitions(), 5u);
  EXPECT_GT(aug.SizeMeasure(), 0u);
}

// -------------------------------------------------------- Multiplier NFTA

// A single leaf transition with multiplier n must accept exactly n trees
// (of the padded size).
TEST(MultiplierNftaTest, GadgetMultipliesExactly) {
  for (uint64_t n = 1; n <= 24; ++n) {
    MultiplierNfta m;
    StateId s = m.AddState();
    m.SetInitialState(s);
    m.EnsureAlphabetSize(1);
    ASSERT_TRUE(m.AddTransition(s, 0, n, {}).ok());
    StableNftaLayout layout;
    auto nfta = m.ToNftaStable(&layout);
    ASSERT_TRUE(nfta.ok());
    const size_t size = 1 + MultiplierNfta::GadgetDepth(n);
    auto count = ExactCountNftaTrees(*nfta, size);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count->ToDecimalString(), std::to_string(n)) << "n=" << n;
  }
}

TEST(MultiplierNftaTest, PaddedWidthKeepsCount) {
  for (uint64_t n : {1ull, 2ull, 3ull, 5ull, 6ull}) {
    MultiplierNfta m;
    StateId s = m.AddState();
    m.SetInitialState(s);
    m.EnsureAlphabetSize(1);
    const uint64_t width = 6;  // padded well beyond the minimum
    ASSERT_TRUE(m.AddTransition(s, 0, n, {}, width).ok());
    StableNftaLayout layout;
    auto nfta = m.ToNftaStable(&layout);
    ASSERT_TRUE(nfta.ok());
    auto count = ExactCountNftaTrees(*nfta, 1 + width);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count->ToDecimalString(), std::to_string(n)) << "n=" << n;
    // No trees at other sizes.
    EXPECT_EQ(ExactCountNftaTrees(*nfta, width)->ToDecimalString(), "0");
  }
}

TEST(MultiplierNftaTest, GadgetDepthIsLogarithmic) {
  EXPECT_EQ(MultiplierNfta::GadgetDepth(1), 0u);
  EXPECT_EQ(MultiplierNfta::GadgetDepth(2), 1u);
  EXPECT_EQ(MultiplierNfta::GadgetDepth(3), 2u);
  EXPECT_EQ(MultiplierNfta::GadgetDepth(5), 3u);
  EXPECT_EQ(MultiplierNfta::GadgetDepth(1025), 11u);
  EXPECT_EQ(MultiplierNfta::GadgetDepth(513), 10u);
}

TEST(MultiplierNftaTest, RejectsBadArguments) {
  MultiplierNfta m;
  StateId s = m.AddState();
  m.SetInitialState(s);
  EXPECT_FALSE(m.AddTransition(s, 0, 8, {}, 2).ok());      // width too small
  EXPECT_FALSE(m.AddTransition(s + 7, 0, 1, {}).ok());     // unknown state
  // Multiplier 0 (an impossible transition) is representable.
  EXPECT_TRUE(m.AddTransition(s, 0, 0, {}).ok());
  StableNftaLayout layout;
  EXPECT_TRUE(m.ToNftaStable(&layout).ok());
}

TEST(MultiplierNftaTest, ComposesThroughChildren) {
  // root --f(n=3)--> (leaf with n=2): total trees = 6.
  MultiplierNfta m;
  StateId root = m.AddState();
  StateId leaf = m.AddState();
  m.SetInitialState(root);
  m.EnsureAlphabetSize(2);
  ASSERT_TRUE(m.AddTransition(root, 0, 3, {leaf}).ok());
  ASSERT_TRUE(m.AddTransition(leaf, 1, 2, {}).ok());
  StableNftaLayout layout;
  auto nfta = m.ToNftaStable(&layout);
  ASSERT_TRUE(nfta.ok());
  const size_t size = 2 + MultiplierNfta::GadgetDepth(3) +
                      MultiplierNfta::GadgetDepth(2);
  EXPECT_EQ(ExactCountNftaTrees(*nfta, size)->ToDecimalString(), "6");
}

}  // namespace
}  // namespace pqe
