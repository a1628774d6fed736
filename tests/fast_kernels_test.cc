// Tests for the batched fast sampling kernels (docs/performance.md, "Kernel
// modes"): block RNG generation must reproduce the scalar stream word for
// word, AliasPicker draws must match the weight proportions (χ²), and the
// kernel_mode=fast tier of every sampling layer (CountNFA, CountNFTA,
// Karp–Luby, Monte Carlo, the engine) must stay inside the accuracy band of
// an exact oracle while being fixed-seed reproducible and thread-count
// invariant. kernel_mode=exact must remain bit-identical to the default
// configuration — the fast tier must not perturb the golden path.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "automata/nfa.h"
#include "automata/nfta.h"
#include "core/engine.h"
#include "counting/count_nfa.h"
#include "counting/count_nfta.h"
#include "counting/exact.h"
#include "counting/weighted_pick.h"
#include "cq/builders.h"
#include "lineage/karp_luby.h"
#include "lineage/lineage.h"
#include "lineage/monte_carlo.h"
#include "util/extfloat.h"
#include "util/rng.h"
#include "util/span.h"
#include "workload/generators.h"

namespace pqe {
namespace {

// --- Block RNG -----------------------------------------------------------

TEST(RngBlockTest, FillBlockMatchesScalarNext) {
  for (uint64_t seed : {0ull, 1ull, 0x5eedull, 0xffffffffffffffffull}) {
    Rng block_rng(seed);
    Rng scalar_rng(seed);
    // Odd sizes + back-to-back blocks: the state hand-off between blocks
    // must be seamless.
    std::vector<uint64_t> words(257);
    block_rng.FillBlock(words.data(), words.size());
    for (size_t i = 0; i < words.size(); ++i) {
      ASSERT_EQ(words[i], scalar_rng.Next()) << "seed " << seed << " i " << i;
    }
    block_rng.FillBlock(words.data(), 3);
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_EQ(words[i], scalar_rng.Next()) << "second block i " << i;
    }
    // And the scalar stream continues from where the blocks left off.
    ASSERT_EQ(block_rng.Next(), scalar_rng.Next());
  }
}

TEST(RngBlockTest, DoubleBlockMatchesNextDouble) {
  Rng block_rng(0xb10c);
  Rng scalar_rng(0xb10c);
  std::vector<uint64_t> words(100);
  block_rng.FillBlock(words.data(), words.size());
  DoubleBlock doubles{Span<uint64_t>(words)};
  ASSERT_EQ(doubles.size(), words.size());
  for (size_t i = 0; i < doubles.size(); ++i) {
    const double d = doubles[i];
    ASSERT_EQ(d, scalar_rng.NextDouble()) << "i " << i;
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(RngBlockTest, BoundedFromWordInRangeAndRoughlyUniform) {
  Rng rng(0x60d);
  const uint64_t kBound = 8;
  const size_t kDraws = 80000;
  std::vector<size_t> counts(kBound, 0);
  for (size_t i = 0; i < kDraws; ++i) {
    const uint64_t v = Rng::BoundedFromWord(rng.Next(), kBound);
    ASSERT_LT(v, kBound);
    ++counts[v];
  }
  // χ² with 7 df: P(X > 24.32) = 0.001.
  const double expected = static_cast<double>(kDraws) / kBound;
  double chi2 = 0.0;
  for (size_t c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 24.32);
  // Edge words.
  EXPECT_EQ(Rng::BoundedFromWord(0, 17), 0u);
  EXPECT_EQ(Rng::BoundedFromWord(~0ull, 17), 16u);
  EXPECT_EQ(Rng::BoundedFromWord(~0ull, 1), 0u);
}

// --- AliasPicker vs exact proportions ------------------------------------

TEST(FastKernelsTest, AliasChiSquaredOnRandomTables) {
  // Randomized weight tables: the empirical draw frequencies must match the
  // exact proportions. Critical value ≈ df + 4·√(2·df) (≈ 0.0002 tail for
  // these df) keeps the fixed-seed check deterministic and tight.
  Rng setup(0x7ab1e);
  for (int round = 0; round < 10; ++round) {
    const size_t n = 2 + setup.NextBounded(14);
    std::vector<ExtFloat> weights(n);
    std::vector<double> raw(n, 0.0);
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t w = setup.NextBounded(50);  // zeros allowed
      weights[i] = ExtFloat::FromUint64(w);
      raw[i] = static_cast<double>(w);
      total += raw[i];
    }
    if (total == 0.0) {
      weights[0] = ExtFloat::FromUint64(1);
      raw[0] = 1.0;
      total = 1.0;
    }
    AliasPicker picker(weights);
    Rng rng(round * 977 + 5);
    const size_t kDraws = 60000;
    std::vector<size_t> counts(n, 0);
    for (size_t i = 0; i < kDraws; ++i) ++counts[picker.Pick(&rng)];
    double chi2 = 0.0;
    size_t df = 0;
    for (size_t i = 0; i < n; ++i) {
      if (raw[i] == 0.0) {
        ASSERT_EQ(counts[i], 0u) << "round " << round << " zero index " << i;
        continue;
      }
      ++df;
      const double expected = kDraws * raw[i] / total;
      const double d = static_cast<double>(counts[i]) - expected;
      chi2 += d * d / expected;
    }
    if (df > 1) {
      const double crit =
          static_cast<double>(df - 1) +
          4.0 * std::sqrt(2.0 * static_cast<double>(df - 1));
      EXPECT_LT(chi2, crit) << "round " << round << " df " << df - 1;
    }
  }
}

// --- Counting-core fast tier vs exact oracles ----------------------------

// Strings over {a, b} containing at least one 'a', accepted ambiguously
// (every 'a' position spawns a run): |L_n| = 2^n − 1.
Nfa AtLeastOneANfa() {
  Nfa a;
  StateId q0 = a.AddState();
  StateId q1 = a.AddState();
  a.EnsureAlphabetSize(2);
  a.MarkInitial(q0);
  a.MarkAccepting(q1);
  a.AddTransition(q0, 0, q0);
  a.AddTransition(q0, 1, q0);
  a.AddTransition(q0, 0, q1);
  a.AddTransition(q1, 0, q1);
  a.AddTransition(q1, 1, q1);
  return a;
}

// Binary trees with two leaf colors, counted ambiguously (Catalan-like).
Nfta CatalanNfta() {
  Nfta t;
  StateId q = t.AddState();
  t.SetInitialState(q);
  t.AddTransition(q, 0, {q, q});
  t.AddTransition(q, 0, {});
  t.AddTransition(q, 1, {});
  return t;
}

EstimatorConfig KernelConfig(uint64_t seed, KernelMode mode) {
  EstimatorConfig cfg;
  cfg.epsilon = 0.3;
  cfg.seed = seed;
  cfg.pool_size = 96;
  cfg.kernel_mode = mode;
  return cfg;
}

TEST(FastKernelsTest, CountNfaFastTracksExactOracle) {
  Nfa a = AtLeastOneANfa();
  const size_t n = 12;
  auto exact = ExactCountNfaStrings(a, n);
  ASSERT_TRUE(exact.ok());
  const double exact_log2 = ExtFloat::FromBigUint(*exact).Log2();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    auto fast = CountNfaStrings(a, n, KernelConfig(seed, KernelMode::kFast));
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    EXPECT_NEAR(fast->value.Log2(), exact_log2, 0.6) << "seed " << seed;
    EXPECT_GT(fast->stats.alias_builds, 0u);
    EXPECT_GT(fast->stats.batch_draws, 0u);
    // The fast tier routes every table through the alias picker.
    EXPECT_EQ(fast->stats.picker_builds, 0u);
  }
}

TEST(FastKernelsTest, CountNftaFastTracksExactOracle) {
  Nfta t = CatalanNfta();
  const size_t n = 11;
  auto exact = ExactCountNftaTrees(t, n);
  ASSERT_TRUE(exact.ok());
  const double exact_log2 = ExtFloat::FromBigUint(*exact).Log2();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    auto fast = CountNftaTrees(t, n, KernelConfig(seed, KernelMode::kFast));
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    EXPECT_NEAR(fast->value.Log2(), exact_log2, 0.6) << "seed " << seed;
    EXPECT_GT(fast->stats.alias_builds, 0u);
    EXPECT_GT(fast->stats.batch_draws, 0u);
    EXPECT_EQ(fast->stats.picker_builds, 0u);
  }
}

TEST(FastKernelsTest, FastModeFixedSeedReproducible) {
  Nfta t = CatalanNfta();
  auto a = CountNftaTrees(t, 11, KernelConfig(0xf00, KernelMode::kFast));
  auto b = CountNftaTrees(t, 11, KernelConfig(0xf00, KernelMode::kFast));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->value == b->value)
      << a->value.ToString() << " vs " << b->value.ToString();
  EXPECT_EQ(a->stats.attempts, b->stats.attempts);
  EXPECT_EQ(a->stats.accepted, b->stats.accepted);
}

TEST(FastKernelsTest, FastModeThreadCountInvariant) {
  // Median-of-R amplification fans repetitions across threads; the fast
  // tier keeps the per-repetition streams fixed by (seed, index), so the
  // aggregate must be bit-identical at every thread count.
  Nfta t = CatalanNfta();
  EstimatorConfig serial = KernelConfig(0xbead, KernelMode::kFast);
  serial.repetitions = 5;
  serial.num_threads = 1;
  EstimatorConfig parallel = serial;
  parallel.num_threads = 4;
  auto a = CountNftaTrees(t, 11, serial);
  auto b = CountNftaTrees(t, 11, parallel);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->value == b->value)
      << a->value.ToString() << " vs " << b->value.ToString();
  EXPECT_EQ(a->stats.attempts, b->stats.attempts);
}

TEST(FastKernelsTest, ExactModeUnchangedByKernelField) {
  // kernel_mode=exact must be the same code path as a config that predates
  // the field: estimates and stats bit-identical, no alias machinery.
  Nfta t = CatalanNfta();
  EstimatorConfig default_mode;
  default_mode.epsilon = 0.3;
  default_mode.seed = 0x90d;
  default_mode.pool_size = 96;
  auto base = CountNftaTrees(t, 11, default_mode);
  auto exact_mode =
      CountNftaTrees(t, 11, KernelConfig(0x90d, KernelMode::kExact));
  ASSERT_TRUE(base.ok() && exact_mode.ok());
  EXPECT_TRUE(exact_mode->value == base->value)
      << exact_mode->value.ToString() << " vs " << base->value.ToString();
  EXPECT_EQ(exact_mode->stats.attempts, base->stats.attempts);
  EXPECT_EQ(exact_mode->stats.accepted, base->stats.accepted);
  EXPECT_EQ(exact_mode->stats.picker_builds, base->stats.picker_builds);
  EXPECT_EQ(exact_mode->stats.alias_builds, 0u);
  EXPECT_EQ(exact_mode->stats.batch_draws, 0u);
}

// --- Karp–Luby fast tier -------------------------------------------------

TEST(FastKernelsTest, KarpLubyFastWithinBandOfExact) {
  auto qi = MakePathQuery(3).MoveValue();
  LayeredGraphOptions opt;
  opt.width = 2;
  opt.density = 0.9;
  opt.seed = 9;
  auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
  ProbabilityModel pm;
  pm.seed = 5;
  ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);
  auto lineage = BuildLineage(qi.query, pdb.database()).MoveValue();
  auto truth = ExactDnfProbability(lineage, pdb).MoveValue().ToDouble();
  ASSERT_GT(truth, 0.0);
  KarpLubyConfig cfg;
  cfg.epsilon = 0.05;
  cfg.seed = 3;
  cfg.kernel_mode = KernelMode::kFast;
  auto kl = KarpLubyEstimate(lineage, pdb, cfg).MoveValue();
  EXPECT_NEAR(kl.probability / truth, 1.0, 0.15);

  // Fixed-seed reproducible, and bit-identical across thread counts (the
  // shard structure is unchanged by the batched kernel).
  auto again = KarpLubyEstimate(lineage, pdb, cfg).MoveValue();
  EXPECT_EQ(kl.probability, again.probability);
  EXPECT_EQ(kl.hits, again.hits);
  KarpLubyConfig threaded = cfg;
  threaded.num_threads = 4;
  auto parallel = KarpLubyEstimate(lineage, pdb, threaded).MoveValue();
  EXPECT_EQ(kl.probability, parallel.probability);
  EXPECT_EQ(kl.hits, parallel.hits);
}

// --- Monte Carlo fast tier -----------------------------------------------

TEST(FastKernelsTest, MonteCarloFastMatchesExactProbability) {
  auto qi = MakePathQuery(2).MoveValue();
  Database db(qi.schema);
  ASSERT_TRUE(db.AddFactByName("R1", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFactByName("R2", {"b", "c"}).ok());
  ProbabilisticDatabase pdb = ProbabilisticDatabase::Uniform(std::move(db));
  MonteCarloConfig cfg;
  cfg.seed = 21;
  cfg.num_samples = 200000;
  cfg.kernel_mode = KernelMode::kFast;
  auto mc = MonteCarloPqe(qi.query, pdb, cfg).MoveValue();
  EXPECT_NEAR(mc.probability, 0.25, 0.01);
  MonteCarloConfig threaded = cfg;
  threaded.num_threads = 4;
  auto parallel = MonteCarloPqe(qi.query, pdb, threaded).MoveValue();
  EXPECT_EQ(mc.probability, parallel.probability);
  EXPECT_EQ(mc.hits, parallel.hits);
}

// --- Engine plumbing -----------------------------------------------------

TEST(FastKernelsTest, EngineFastModeEndToEnd) {
  auto qi = MakePathQuery(4).MoveValue();
  LayeredGraphOptions opt;
  opt.width = 3;
  opt.density = 0.6;
  opt.seed = 3;
  auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
  ProbabilityModel pm;
  pm.max_denominator = 8;
  pm.seed = 5;
  ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);

  auto exact_opts = PqeEngine::Options::Builder()
                        .Method(PqeMethod::kFpras)
                        .Epsilon(0.25)
                        .Seed(11)
                        .Build()
                        .MoveValue();
  auto fast_opts = PqeEngine::Options::Builder(exact_opts)
                       .Kernels(KernelMode::kFast)
                       .Build()
                       .MoveValue();
  PqeEngine exact_engine(exact_opts);
  PqeEngine fast_engine(fast_opts);
  const EvalResponse exact_resp =
      exact_engine.EvaluateRequest(EvalRequest::ForQuery(qi.query, pdb));
  ASSERT_TRUE(exact_resp.status.ok()) << exact_resp.status.ToString();
  const EvalResponse fast_resp =
      fast_engine.EvaluateRequest(EvalRequest::ForQuery(qi.query, pdb));
  ASSERT_TRUE(fast_resp.status.ok()) << fast_resp.status.ToString();
  const PqeAnswer& exact = exact_resp.answer;
  const PqeAnswer& fast = fast_resp.answer;
  ASSERT_GT(exact.probability, 0.0);
  ASSERT_GT(fast.probability, 0.0);
  // Both tiers target the same ε band; their ratio stays within the
  // combined envelope.
  EXPECT_NEAR(std::log2(fast.probability / exact.probability), 0.0, 0.9);
  ASSERT_TRUE(fast.count_stats.has_value());
  EXPECT_GT(fast.count_stats->alias_builds, 0u);
  EXPECT_GT(fast.count_stats->batch_draws, 0u);
  ASSERT_TRUE(exact.count_stats.has_value());
  EXPECT_EQ(exact.count_stats->alias_builds, 0u);

  // The per-request override selects the fast tier on an exact-mode engine
  // and must reproduce the fast engine's answer bit for bit.
  EvalRequest req = EvalRequest::ForQuery(qi.query, pdb);
  req.kernels = KernelMode::kFast;
  req.seed = 11;
  EvalResponse resp = exact_engine.EvaluateRequest(req);
  ASSERT_TRUE(resp.status.ok());
  EXPECT_EQ(resp.answer.probability, fast.probability);
}

TEST(FastKernelsTest, KernelModeStringsRoundTrip) {
  EXPECT_STREQ(KernelModeToString(KernelMode::kExact), "exact");
  EXPECT_STREQ(KernelModeToString(KernelMode::kFast), "fast");
  auto exact = KernelModeFromString("exact");
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(*exact, KernelMode::kExact);
  auto fast = KernelModeFromString("fast");
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(*fast, KernelMode::kFast);
  auto bad = KernelModeFromString("warp");
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pqe
