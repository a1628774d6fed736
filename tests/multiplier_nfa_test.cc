// Tests for the string-side multiplier gadget (MultiplierNfa): exact
// multiplication of accepted-string counts, padded widths, and composition
// along chains — mirroring the MultiplierNfta tests on strings.

#include <gtest/gtest.h>

#include "automata/multiplier_nfa.h"
#include "counting/exact.h"

namespace pqe {
namespace {

// One transition s --a--> t(accepting) with multiplier n accepts exactly n
// strings of length 1 + GadgetDepth(n).
TEST(MultiplierNfaTest, GadgetMultipliesExactly) {
  for (uint64_t n = 1; n <= 24; ++n) {
    MultiplierNfa m;
    StateId s = m.AddState();
    StateId t = m.AddState();
    m.MarkInitial(s);
    m.MarkAccepting(t);
    m.EnsureAlphabetSize(1);
    ASSERT_TRUE(m.AddTransition(s, 0, n, t).ok());
    StableNfaLayout layout;
    auto nfa = m.ToNfaStable(&layout);
    ASSERT_TRUE(nfa.ok());
    const size_t len = 1 + MultiplierNfa::GadgetDepth(n);
    auto count = ExactCountNfaStrings(*nfa, len);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count->ToDecimalString(), std::to_string(n)) << "n=" << n;
  }
}

TEST(MultiplierNfaTest, PaddedWidthKeepsCount) {
  for (uint64_t n : {1ull, 2ull, 5ull, 7ull}) {
    MultiplierNfa m;
    StateId s = m.AddState();
    StateId t = m.AddState();
    m.MarkInitial(s);
    m.MarkAccepting(t);
    m.EnsureAlphabetSize(1);
    const uint64_t width = 5;
    ASSERT_TRUE(m.AddTransition(s, 0, n, t, width).ok());
    StableNfaLayout layout;
    auto nfa = m.ToNfaStable(&layout).MoveValue();
    EXPECT_EQ(ExactCountNfaStrings(nfa, 1 + width)->ToDecimalString(),
              std::to_string(n))
        << "n=" << n;
    // Nothing accepted at other lengths.
    EXPECT_EQ(ExactCountNfaStrings(nfa, width)->ToDecimalString(), "0");
  }
}

TEST(MultiplierNfaTest, ChainMultipliersCompose) {
  // s --a(n=3)--> u --b(n=4)--> t: 12 strings at the combined length.
  MultiplierNfa m;
  StateId s = m.AddState();
  StateId u = m.AddState();
  StateId t = m.AddState();
  m.MarkInitial(s);
  m.MarkAccepting(t);
  m.EnsureAlphabetSize(2);
  ASSERT_TRUE(m.AddTransition(s, 0, 3, u).ok());
  ASSERT_TRUE(m.AddTransition(u, 1, 4, t).ok());
  StableNfaLayout layout;
  auto nfa = m.ToNfaStable(&layout).MoveValue();
  const size_t len = 2 + MultiplierNfa::GadgetDepth(3) +
                     MultiplierNfa::GadgetDepth(4);
  EXPECT_EQ(ExactCountNfaStrings(nfa, len)->ToDecimalString(), "12");
}

TEST(MultiplierNfaTest, SkeletonPreservesShape) {
  Nfa base;
  StateId a = base.AddState();
  StateId b = base.AddState();
  base.MarkInitial(a);
  base.MarkAccepting(b);
  base.AddTransition(a, 0, b);
  MultiplierNfa m = MultiplierNfa::FromSkeleton(base);
  EXPECT_EQ(m.NumStates(), 2u);
  ASSERT_TRUE(m.AddTransition(a, 0, 2, b).ok());
  StableNfaLayout layout;
  auto nfa = m.ToNfaStable(&layout).MoveValue();
  EXPECT_EQ(ExactCountNfaStrings(nfa, 2)->ToDecimalString(), "2");
}

TEST(MultiplierNfaTest, RejectsBadArguments) {
  MultiplierNfa m;
  StateId s = m.AddState();
  m.MarkInitial(s);
  EXPECT_FALSE(m.AddTransition(s, 0, 8, s, 2).ok());    // width too small
  EXPECT_FALSE(m.AddTransition(s, 0, 1, s + 9).ok());   // unknown state
  // Multiplier 0 (an impossible transition) is representable.
  EXPECT_TRUE(m.AddTransition(s, 0, 0, s).ok());
  StableNfaLayout layout;
  EXPECT_TRUE(m.ToNfaStable(&layout).ok());
}

}  // namespace
}  // namespace pqe
