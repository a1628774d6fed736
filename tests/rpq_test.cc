// Tests for the RPQ subsystem (docs/rpq.md): the regex parser (round-trip,
// precedence, error positions), the compiled query NFA, the product
// skeleton's exactness against world enumeration, the lineage fallback for
// non-scan-orderable instances, the engine cascade, and the serving route's
// bit-identity with the one-shot engine.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/engine.h"
#include "rpq/automaton.h"
#include "rpq/eval.h"
#include "rpq/product.h"
#include "rpq/regex.h"
#include "serve/service.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace pqe {
namespace {

using rpq::RpqQuery;

std::string Canon(const std::string& text) {
  auto q = RpqQuery::Parse(text);
  EXPECT_TRUE(q.ok()) << text << ": " << q.status().ToString();
  return q.ok() ? q->Canonical() : "<parse error>";
}

// --- Parser ---------------------------------------------------------------

TEST(RpqParseTest, CanonicalRoundTripsThroughParse) {
  for (const char* text :
       {"a", "a/b/c", "a|b|c", "a|b/c", "(a|b)/c", "a*", "a+?", "(a/b)*",
        "^a", "a/(a|b)*/a", "(a|^b)+/c?", "_x1/Y_2"}) {
    const std::string once = Canon(text);
    EXPECT_EQ(Canon(once), once) << "not a fixed point: " << text;
  }
}

TEST(RpqParseTest, WhitespaceIsInsignificant) {
  EXPECT_EQ(Canon("  a |  b / c "), Canon("a|b/c"));
  EXPECT_EQ(Canon("( a | b ) *"), Canon("(a|b)*"));
}

TEST(RpqParseTest, AlternationBindsLooserThanConcat) {
  auto q = RpqQuery::Parse("a|b/c").MoveValue();
  ASSERT_EQ(q.root().kind, rpq::RegexKind::kAlt);
  ASSERT_EQ(q.root().children.size(), 2u);
  EXPECT_EQ(q.root().children[0]->kind, rpq::RegexKind::kLabel);
  EXPECT_EQ(q.root().children[1]->kind, rpq::RegexKind::kConcat);
  // And the canonical form needs no parentheses to say so.
  EXPECT_EQ(q.Canonical(), "a|b/c");
  EXPECT_EQ(Canon("(a|b)/c"), "(a|b)/c");
}

TEST(RpqParseTest, PostfixBindsTightest) {
  auto q = RpqQuery::Parse("a/b*").MoveValue();
  ASSERT_EQ(q.root().kind, rpq::RegexKind::kConcat);
  EXPECT_EQ(q.root().children[1]->kind, rpq::RegexKind::kStar);
  EXPECT_EQ(Canon("(a/b)*"), "(a/b)*");  // parens preserved when needed
}

TEST(RpqParseTest, InverseDistributesToLabels) {
  // ^ over a concatenation reverses it; over | * + ? it distributes. The
  // parsed tree carries inversion on labels only.
  EXPECT_EQ(Canon("^(a/b)"), Canon("^b/^a"));
  EXPECT_EQ(Canon("^(a|b)"), Canon("^a|^b"));
  EXPECT_EQ(Canon("^(a*)"), Canon("(^a)*"));
  EXPECT_EQ(Canon("^^a"), "a");
}

TEST(RpqParseTest, ErrorsNameTheColumn) {
  struct Case {
    const char* text;
    const char* fragment;
  };
  for (const Case& c : {Case{"", "empty regular path query"},
                        Case{"a//b", "at column 3"},
                        Case{"(a/b", "expected ')' at column 5"},
                        Case{"a)", "unexpected ')' at column 2"},
                        Case{"|a", "at column 1"},
                        Case{"a b", "unexpected 'b' at column 3"}}) {
    auto q = RpqQuery::Parse(c.text);
    ASSERT_FALSE(q.ok()) << c.text;
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(q.status().message().find(c.fragment), std::string::npos)
        << c.text << " -> " << q.status().ToString();
  }
}

TEST(RpqParseTest, DeepNestingIsATypedErrorNotACrash) {
  // Past 256 levels of '(' or '^' the parser stops with a typed error naming
  // the column of the first '(' / '^' over the limit; unbounded recursion
  // here (and in the passes over the parsed tree) would overflow the stack.
  const std::string deep =
      std::string(10000, '(') + "Follows" + std::string(10000, ')');
  auto q = RpqQuery::Parse(deep);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(q.status().message().find("nesting deeper than 256 at column 257"),
            std::string::npos)
      << q.status().ToString();

  auto inverses = RpqQuery::Parse(std::string(10000, '^') + "a");
  ASSERT_FALSE(inverses.ok());
  EXPECT_EQ(inverses.status().code(), StatusCode::kInvalidArgument);

  // Exactly at the limit still parses.
  auto at_limit = RpqQuery::Parse(std::string(256, '(') + "a/b" +
                                  std::string(256, ')'));
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  EXPECT_EQ(at_limit->Canonical(), "a/b");
}

TEST(RpqParseTest, StackedPostfixOperatorsFold) {
  // A run of stars folds to one at parse time: same tree, same automaton,
  // instead of one ε-closure layer per star.
  auto stars = RpqQuery::Parse("Follows" + std::string(4000, '*'));
  ASSERT_TRUE(stars.ok()) << stars.status().ToString();
  auto one = RpqQuery::Parse("Follows*").MoveValue();
  EXPECT_EQ(stars->Canonical(), one.Canonical());
  EXPECT_EQ(rpq::CompileRegex(*stars)->num_states,
            rpq::CompileRegex(one)->num_states);

  struct Case {
    const char* text;
    const char* folded;
  };
  for (const Case& c :
       {Case{"a**", "a*"}, Case{"a++", "a+"}, Case{"a??", "a?"},
        Case{"a*+", "a*"}, Case{"a+*", "a*"}, Case{"a*?", "a*"},
        Case{"a?*", "a*"}, Case{"a+?", "a*"}, Case{"a?+", "a*"},
        Case{"((a*)*)", "a*"}, Case{"(a/b)+ ?", "(a/b)*"},
        Case{"^(a+)*", "^a*"}}) {
    EXPECT_EQ(Canon(c.text), c.folded) << c.text;
  }
}

TEST(RpqParseTest, LabelsAndLinearChain) {
  auto q = RpqQuery::Parse("a/b/a").MoveValue();
  EXPECT_EQ(q.Labels(), (std::vector<std::string>{"a", "b"}));
  std::vector<std::string> chain;
  EXPECT_TRUE(q.IsLinearChain(&chain));
  EXPECT_EQ(chain, (std::vector<std::string>{"a", "b", "a"}));
  EXPECT_FALSE(RpqQuery::Parse("a/b*").MoveValue().IsLinearChain());
  EXPECT_FALSE(RpqQuery::Parse("a|b").MoveValue().IsLinearChain());
  EXPECT_FALSE(RpqQuery::Parse("a/^b").MoveValue().IsLinearChain());
}

// --- Query NFA ------------------------------------------------------------

TEST(RpqAutomatonTest, CompiledNfaAcceptsTheRegexLanguage) {
  auto q = RpqQuery::Parse("a/(a|b)*/a").MoveValue();
  auto nfa = rpq::CompileRegex(q).MoveValue();
  ASSERT_EQ(nfa.labels.size(), 2u);  // a, b in first-occurrence order
  EXPECT_EQ(nfa.labels[0], "a");
  EXPECT_FALSE(nfa.accepts_epsilon);
  const uint32_t A = 0;
  const uint32_t B = 1;
  auto accepts = [&](std::vector<std::pair<uint32_t, bool>> steps) {
    return rpq::AcceptsSteps(nfa, steps);
  };
  EXPECT_TRUE(accepts({{A, false}, {A, false}}));
  EXPECT_TRUE(accepts({{A, false}, {B, false}, {A, false}}));
  EXPECT_FALSE(accepts({{A, false}}));
  EXPECT_FALSE(accepts({{A, false}, {B, false}}));
  EXPECT_FALSE(accepts({{B, false}, {A, false}}));
  EXPECT_FALSE(accepts({}));
}

TEST(RpqAutomatonTest, EpsilonAndInverseSteps) {
  auto star = rpq::CompileRegex(RpqQuery::Parse("a*").MoveValue()).MoveValue();
  EXPECT_TRUE(star.accepts_epsilon);
  EXPECT_TRUE(rpq::AcceptsSteps(star, {}));

  auto two = rpq::CompileRegex(RpqQuery::Parse("a/^a").MoveValue())
                 .MoveValue();
  EXPECT_TRUE(rpq::AcceptsSteps(two, {{0, false}, {0, true}}));
  EXPECT_FALSE(rpq::AcceptsSteps(two, {{0, false}, {0, false}}));
}

TEST(RpqAutomatonTest, CompilationIsDeterministic) {
  // The serving content key hashes the canonical text, so equal canonical
  // regexes must compile to identical automata.
  auto a = rpq::CompileRegex(RpqQuery::Parse("(a|b)+/c").MoveValue())
               .MoveValue();
  auto b = rpq::CompileRegex(RpqQuery::Parse("( a | b ) + / c").MoveValue())
               .MoveValue();
  EXPECT_EQ(a.num_states, b.num_states);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.accepting, b.accepting);
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].from, b.edges[i].from);
    EXPECT_EQ(a.edges[i].label, b.edges[i].label);
    EXPECT_EQ(a.edges[i].inverse, b.edges[i].inverse);
    EXPECT_EQ(a.edges[i].to, b.edges[i].to);
  }
}

// --- Skeleton exactness ---------------------------------------------------

ProbabilisticDatabase SmallKg(uint32_t layers, uint32_t width, uint64_t seed,
                              double density = 0.6) {
  KgReachabilityOptions kopt;
  kopt.layers = layers;
  kopt.width = width;
  kopt.density = density;
  kopt.seed = seed;
  auto db = MakeKgReachabilityDatabase(kopt).MoveValue();
  ProbabilityModel pm;
  pm.max_denominator = 8;
  pm.seed = seed + 1;
  return AttachProbabilities(std::move(db), pm);
}

// The skeleton route's exact count must equal brute-force world enumeration
// — star, alternation, optional, and self-join shapes included. This is the
// RPQ analogue of the Section 3 bijection test.
TEST(RpqSkeletonTest, ExactCountMatchesWorldEnumeration) {
  for (const char* text :
       {"a/b", "a/a", "a/(a|b)*/a", "(a|b)+", "a?/b", "a/b?/a*"}) {
    for (uint64_t seed : {3u, 5u, 9u}) {
      ProbabilisticDatabase pdb = SmallKg(3, 2, seed);
      auto q = RpqQuery::Parse(text).MoveValue();
      auto truth = rpq::ExactRpqProbabilityByEnumeration(q, pdb);
      ASSERT_TRUE(truth.ok()) << truth.status().ToString();
      auto via_skeleton = rpq::RpqExact(q, pdb);
      ASSERT_TRUE(via_skeleton.ok())
          << text << " seed=" << seed << ": "
          << via_skeleton.status().ToString();
      // Compare() cross-multiplies: the two routes reduce differently.
      EXPECT_EQ(via_skeleton->Compare(*truth), 0)
          << text << " seed=" << seed << ": skeleton "
          << via_skeleton->ToString() << " vs enumeration "
          << truth->ToString();
    }
  }
}

TEST(RpqSkeletonTest, TriviallyTrueRegexHasProbabilityOne) {
  ProbabilisticDatabase pdb = SmallKg(2, 2, 1);
  auto q = RpqQuery::Parse("a*").MoveValue();
  EXPECT_EQ(rpq::RpqExact(q, pdb)->Compare(BigRational::One()), 0);
  EXPECT_EQ(rpq::ExactRpqProbabilityByEnumeration(q, pdb)->Compare(
                BigRational::One()),
            0);
}

// Folding a stacked operator pair must not change the query's language:
// each pair answers the same as its folded form and as an equivalent regex
// written without stacking.
TEST(RpqSkeletonTest, FoldedPostfixPairsKeepTheirProbability) {
  struct Case {
    const char* pair;
    const char* folded;
    const char* unstacked;  // same language, no postfix-on-postfix
  };
  const char* kStarEquivalent = "a/a|a/b/b*/a";
  for (const Case& c :
       {Case{"**", "*", kStarEquivalent}, Case{"++", "+", "a/b/b*/a"},
        Case{"??", "?", "a/a|a/b/a"}, Case{"*+", "*", kStarEquivalent},
        Case{"+*", "*", kStarEquivalent}, Case{"*?", "*", kStarEquivalent},
        Case{"?*", "*", kStarEquivalent}, Case{"+?", "*", kStarEquivalent},
        Case{"?+", "*", kStarEquivalent}}) {
    for (uint64_t seed : {3u, 7u}) {
      ProbabilisticDatabase pdb = SmallKg(3, 2, seed);
      auto value = [&](const std::string& text) {
        auto q = RpqQuery::Parse(text).MoveValue();
        return rpq::ExactRpqProbabilityByEnumeration(q, pdb).MoveValue();
      };
      const BigRational stacked = value(std::string("a/b") + c.pair + "/a");
      EXPECT_EQ(
          stacked.Compare(value(std::string("a/b") + c.folded + "/a")), 0)
          << c.pair << " seed=" << seed;
      EXPECT_EQ(stacked.Compare(value(c.unstacked)), 0)
          << c.pair << " seed=" << seed;
    }
  }
}

TEST(RpqSkeletonTest, CyclicInstanceIsNotScanOrderable) {
  // A self-loop under a+ asks a walk to consume one fact twice: no scan
  // order exists and the skeleton route reports NotSupported.
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("a", 2).ok());
  Database db(schema);
  ASSERT_TRUE(db.AddFactByName("a", {"v", "v"}).ok());
  ASSERT_TRUE(db.AddFactByName("a", {"v", "w"}).ok());
  auto q = RpqQuery::Parse("a+").MoveValue();
  EXPECT_EQ(rpq::BuildRpqSkeleton(q, db).status().code(),
            StatusCode::kNotSupported);
}

TEST(RpqSkeletonTest, UnknownLabelIsInvalid) {
  ProbabilisticDatabase pdb = SmallKg(2, 2, 1);
  auto q = RpqQuery::Parse("a/zz").MoveValue();
  EXPECT_EQ(rpq::BuildRpqSkeleton(q, pdb.database()).status().code(),
            StatusCode::kInvalidArgument);
}

// --- Lineage fallback -----------------------------------------------------

// 2RPQ inverse steps pair facts of one layer in both orders, so the scan
// order fails; the lineage route must still agree with enumeration.
TEST(RpqLineageTest, InverseRegexMatchesEnumerationViaLineage) {
  for (uint64_t seed : {2u, 4u}) {
    ProbabilisticDatabase pdb = SmallKg(2, 3, seed, /*density=*/0.8);
    auto q = RpqQuery::Parse("a/^a").MoveValue();
    auto product = rpq::BuildRpqProduct(q, pdb.database());
    ASSERT_TRUE(product.ok());
    auto lineage = rpq::BuildRpqLineage(*product, /*max_clauses=*/10'000);
    ASSERT_TRUE(lineage.ok()) << lineage.status().ToString();

    auto truth = rpq::ExactRpqProbabilityByEnumeration(q, pdb);
    ASSERT_TRUE(truth.ok());

    // Route through the engine: kAuto over a >threshold instance cascades
    // kFpras -> NotSupported -> exact lineage.
    auto opts = PqeEngine::Options::Builder()
                    .Method(PqeMethod::kAuto)
                    .EnumerationThreshold(0)
                    .NumThreads(1)
                    .Build();
    ASSERT_TRUE(opts.ok());
    PqeEngine engine(*opts);
    EvalResponse resp =
        engine.EvaluateRequest(EvalRequest::ForRpq(q, pdb));
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_TRUE(resp.answer.is_exact);
    EXPECT_NEAR(resp.answer.probability, truth->ToDouble(), 1e-12)
        << "seed=" << seed;
  }
}

TEST(RpqLineageTest, ForcedFprasOnCyclicInstanceReportsNotSupported) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("a", 2).ok());
  Database db(schema);
  ASSERT_TRUE(db.AddFactByName("a", {"v", "v"}).ok());
  std::vector<Probability> probs{Probability::Half()};
  auto pdb = ProbabilisticDatabase::Make(std::move(db), std::move(probs))
                 .MoveValue();
  auto q = RpqQuery::Parse("a+").MoveValue();
  auto opts = PqeEngine::Options::Builder()
                  .Method(PqeMethod::kFpras)
                  .NumThreads(1)
                  .Build();
  ASSERT_TRUE(opts.ok());
  PqeEngine engine(*opts);
  EvalResponse resp = engine.EvaluateRequest(EvalRequest::ForRpq(q, pdb));
  EXPECT_EQ(resp.status.code(), StatusCode::kNotSupported);
}

// --- Engine cascade -------------------------------------------------------

TEST(RpqEngineTest, AutoResolvesSmallInstancesExactly) {
  ProbabilisticDatabase pdb = SmallKg(2, 2, 6);
  auto q = RpqQuery::Parse("(a|b)+").MoveValue();
  PqeEngine engine;  // defaults: kAuto, threshold 16
  EvalResponse resp = engine.EvaluateRequest(EvalRequest::ForRpq(q, pdb));
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.answer.method_used, PqeMethod::kEnumeration);
  auto truth = rpq::ExactRpqProbabilityByEnumeration(q, pdb);
  ASSERT_TRUE(truth.ok());
  EXPECT_NEAR(resp.answer.probability, truth->ToDouble(), 1e-12);
}

TEST(RpqEngineTest, UnsupportedMethodsAreTyped) {
  ProbabilisticDatabase pdb = SmallKg(2, 2, 6);
  auto q = RpqQuery::Parse("a/b").MoveValue();
  for (PqeMethod m : {PqeMethod::kSafePlan, PqeMethod::kMonteCarlo}) {
    auto opts = PqeEngine::Options::Builder().Method(m).Build();
    ASSERT_TRUE(opts.ok());
    PqeEngine engine(*opts);
    EvalResponse resp = engine.EvaluateRequest(EvalRequest::ForRpq(q, pdb));
    EXPECT_EQ(resp.status.code(), StatusCode::kNotSupported)
        << PqeMethodToString(m);
  }
}

TEST(RpqEngineTest, FprasIsDeterministicAcrossThreadCounts) {
  ProbabilisticDatabase pdb = SmallKg(3, 3, 8);
  auto q = RpqQuery::Parse("a/(a|b)*/a").MoveValue();
  double first = -1.0;
  for (size_t threads : {1u, 2u, 4u}) {
    auto opts = PqeEngine::Options::Builder()
                    .Method(PqeMethod::kFpras)
                    .Epsilon(0.3)
                    .Seed(0xabc)
                    .PoolSize(32)
                    .Repetitions(3)
                    .NumThreads(threads)
                    .Build();
    ASSERT_TRUE(opts.ok());
    PqeEngine engine(*opts);
    EvalResponse resp = engine.EvaluateRequest(EvalRequest::ForRpq(q, pdb));
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    if (first < 0.0) {
      first = resp.answer.probability;
    } else {
      EXPECT_EQ(std::memcmp(&resp.answer.probability, &first, sizeof(double)),
                0)
          << "threads=" << threads;
    }
  }
}

// --- Serving route --------------------------------------------------------

TEST(RpqServeTest, PreparedAnswersAreBitIdenticalToEngine) {
  ProbabilisticDatabase pdb = SmallKg(3, 3, 12);
  auto q = RpqQuery::Parse("a/(a|b)*/a").MoveValue();
  auto opts = PqeEngine::Options::Builder()
                  .Method(PqeMethod::kFpras)
                  .Epsilon(0.3)
                  .Seed(0x5e12)
                  .PoolSize(32)
                  .Repetitions(1)
                  .NumThreads(1)
                  .Build();
  ASSERT_TRUE(opts.ok());

  PqeEngine engine(*opts);
  serve::PqeService::Options sopt;
  sopt.engine = *opts;
  sopt.num_threads = 1;
  serve::PqeService service(sopt);

  std::vector<EvalRequest> reqs;
  for (size_t i = 0; i < 6; ++i) {
    EvalRequest r = EvalRequest::ForRpq(q, pdb);
    r.request_id = i + 1;
    r.seed = 0x7777 + i;
    reqs.push_back(r);
  }
  const std::vector<EvalResponse> served = service.EvaluateBatch(reqs);
  ASSERT_EQ(served.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_TRUE(served[i].status.ok()) << served[i].status.ToString();
    const EvalResponse direct = engine.EvaluateRequest(reqs[i]);
    ASSERT_TRUE(direct.status.ok());
    EXPECT_EQ(std::memcmp(&served[i].answer.probability,
                          &direct.answer.probability, sizeof(double)),
              0)
        << "request " << i;
  }
  // One prepared compile served the whole batch.
  EXPECT_EQ(service.cache().stats().misses, 1u);
  EXPECT_EQ(service.cache().stats().hits, reqs.size() - 1);
}

TEST(RpqServeTest, AutoFallsBackToLineageWhenNotScanOrderable) {
  // Cyclic instance + kAuto: the prepared compile reports NotSupported and
  // the engine's kAuto cascade resolves the request through lineage, so the
  // service counts it as delegated work. The cache keeps the NotSupported
  // outcome, so only the first of three requests compiles.
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("a", 2).ok());
  Database db(schema);
  ASSERT_TRUE(db.AddFactByName("a", {"v", "v"}).ok());
  ASSERT_TRUE(db.AddFactByName("a", {"v", "w"}).ok());
  ASSERT_TRUE(db.AddFactByName("a", {"w", "v"}).ok());
  std::vector<Probability> probs(3, Probability::Half());
  auto pdb = ProbabilisticDatabase::Make(std::move(db), std::move(probs))
                 .MoveValue();
  auto q = RpqQuery::Parse("a+").MoveValue();

  serve::PqeService::Options sopt;
  auto opts = PqeEngine::Options::Builder()
                  .Method(PqeMethod::kAuto)
                  .EnumerationThreshold(0)
                  .NumThreads(1)
                  .Build();
  ASSERT_TRUE(opts.ok());
  sopt.engine = *opts;
  sopt.num_threads = 1;
  serve::PqeService service(sopt);
  auto truth = rpq::ExactRpqProbabilityByEnumeration(q, pdb);
  ASSERT_TRUE(truth.ok());
  for (uint64_t id = 1; id <= 3; ++id) {
    EvalRequest r = EvalRequest::ForRpq(q, pdb);
    r.request_id = id;
    const std::vector<EvalResponse> resp = service.EvaluateBatch({r});
    ASSERT_EQ(resp.size(), 1u);
    ASSERT_TRUE(resp[0].status.ok()) << resp[0].status.ToString();
    EXPECT_NEAR(resp[0].answer.probability, truth->ToDouble(), 1e-12);
    // The cold engine, at the seed the service derived for this id, returns
    // the same bits.
    EvalRequest cold = r;
    cold.seed = Rng::DeriveSeed(opts->seed, r.request_id);
    const EvalResponse direct = PqeEngine(*opts).EvaluateRequest(cold);
    ASSERT_TRUE(direct.status.ok()) << direct.status.ToString();
    EXPECT_EQ(std::memcmp(&resp[0].answer.probability,
                          &direct.answer.probability, sizeof(double)),
              0)
        << "request " << id;
  }

  const serve::ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.by_class[static_cast<size_t>(serve::CacheClass::kDelegated)],
            3u);
  EXPECT_EQ(service.cache().stats().misses, 1u);
  EXPECT_EQ(service.cache().stats().hits, 2u);
}

}  // namespace
}  // namespace pqe
