// The benchmark's own tests: seeded determinism of the request streams, the
// percentile rule, bit-identity of the traced layer split, and agreement of
// the lineage oracle with the automaton-based exact counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "core/path_pqe.h"
#include "core/pqe.h"
#include "cq/parser.h"
#include "perfbench.h"
#include "rpq/eval.h"
#include "rpq/regex.h"

namespace pqe {
namespace perfbench {
namespace {

constexpr Workload kOneshot[] = {Workload::kOneshotCq, Workload::kOneshotPath};

std::vector<Probability> Labels(const Corpus& corpus) {
  std::vector<Probability> out;
  for (const Instance& inst : corpus.instances) {
    for (FactId f : inst.facts) out.push_back(inst.pdb->probability(f));
  }
  return out;
}

bool SameLabels(const std::vector<Probability>& a,
                const std::vector<Probability>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].num != b[i].num || a[i].den != b[i].den) return false;
  }
  return true;
}

std::vector<std::tuple<size_t, uint64_t, uint64_t, int>> Prefix(
    const Corpus& corpus, uint64_t seed, size_t n) {
  OneshotStream stream(corpus, seed);
  std::vector<std::tuple<size_t, uint64_t, uint64_t, int>> out;
  for (size_t i = 0; i < n; ++i) {
    const OneshotRequest r = stream.Next();
    out.emplace_back(r.instance, r.request_id, r.seed,
                     static_cast<int>(r.kernels));
  }
  return out;
}

TEST(PerfbenchStream, SameSeedSameOneshotStreamAndExactAnswers) {
  for (Workload w : kOneshot) {
    const Corpus a = BuildCorpus(w, 11).MoveValue();
    const Corpus b = BuildCorpus(w, 11).MoveValue();
    ASSERT_EQ(a.instances.size(), b.instances.size());
    for (size_t i = 0; i < a.instances.size(); ++i) {
      EXPECT_EQ(a.instances[i].text, b.instances[i].text);
    }
    EXPECT_TRUE(SameLabels(Labels(a), Labels(b)));
    EXPECT_EQ(Prefix(a, 11, 64), Prefix(b, 11, 64));

    // Exact-tier answers of the first requests repeat bit for bit.
    const PqeEngine engine(EngineOptions(2));
    OneshotStream sa(a, 11);
    OneshotStream sb(b, 11);
    for (int i = 0; i < 3; ++i) {
      const OneshotRequest ra = sa.Next();
      const OneshotRequest rb = sb.Next();
      const EvalResponse x = EvaluateCold(engine, a.instances[ra.instance],
                                          ra.request_id, ra.seed,
                                          KernelMode::kExact);
      const EvalResponse y = EvaluateCold(engine, b.instances[rb.instance],
                                          rb.request_id, rb.seed,
                                          KernelMode::kExact);
      ASSERT_TRUE(x.status.ok()) << x.status.ToString();
      ASSERT_TRUE(y.status.ok()) << y.status.ToString();
      EXPECT_EQ(Bits(x.answer.probability), Bits(y.answer.probability));
    }
  }
}

TEST(PerfbenchStream, DifferentSeedDifferentStream) {
  for (Workload w : kOneshot) {
    const Corpus a = BuildCorpus(w, 11).MoveValue();
    const Corpus b = BuildCorpus(w, 12).MoveValue();
    EXPECT_FALSE(SameLabels(Labels(a), Labels(b)));
    EXPECT_NE(Prefix(a, 11, 64), Prefix(b, 12, 64));
  }
}

std::vector<std::string> ServedPrefix(const Corpus& corpus, uint64_t seed,
                                      size_t n) {
  ServedStream stream(corpus, seed);
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) {
    const ServedOp op = stream.Next();
    std::string s = std::to_string(static_cast<int>(op.kind)) + ":" +
                    std::to_string(op.pair) + ":" +
                    std::to_string(op.request_id) + ":" +
                    std::to_string(op.seed);
    for (size_t j = 0; j < op.delta.facts.size(); ++j) {
      s += ":" + std::to_string(op.delta.facts[j]) + "=" +
           std::to_string(op.delta.new_probs[j].num) + "/" +
           std::to_string(op.delta.new_probs[j].den);
    }
    out.push_back(s);
  }
  return out;
}

TEST(PerfbenchStream, ServedStreamIsSeeded) {
  const Corpus a = BuildCorpus(Workload::kServedMix, 5).MoveValue();
  const Corpus b = BuildCorpus(Workload::kServedMix, 5).MoveValue();
  const Corpus c = BuildCorpus(Workload::kServedMix, 6).MoveValue();
  ASSERT_EQ(a.instances.size(), 48u);
  EXPECT_EQ(ServedPrefix(a, 5, 500), ServedPrefix(b, 5, 500));
  EXPECT_NE(ServedPrefix(a, 5, 500), ServedPrefix(c, 6, 500));
  // Writes keep every label a rational strictly inside (0, 1).
  ServedStream stream(a, 5);
  size_t writes = 0;
  for (int i = 0; i < 2000; ++i) {
    const ServedOp op = stream.Next();
    if (op.kind != ServedOp::Kind::kWrite) continue;
    ++writes;
    for (const Probability& p : op.delta.new_probs) {
      EXPECT_GE(p.num, 1u);
      EXPECT_LT(p.num, p.den);
    }
  }
  EXPECT_GT(writes, 0u);
}

TEST(PerfbenchStats, PercentileNeedsTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  ASSERT_TRUE(Percentile(v, 0.90).has_value());
  EXPECT_EQ(*Percentile(v, 0.90), 90.0);  // 10 samples above it
  v.pop_back();
  EXPECT_FALSE(Percentile(v, 0.90).has_value());  // only 9 above
  EXPECT_TRUE(Percentile(v, 0.90, 9).has_value());

  std::vector<double> w(1000);
  for (int i = 0; i < 1000; ++i) w[i] = 1000 - i;  // unsorted input
  ASSERT_TRUE(Percentile(w, 0.99).has_value());
  EXPECT_EQ(*Percentile(w, 0.99), 990.0);
  w.pop_back();
  EXPECT_FALSE(Percentile(w, 0.99).has_value());
  EXPECT_FALSE(Percentile({}, 0.5, 0).has_value());
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
}

// The traced split and the untraced request agree bit for bit on every
// instance of both one-shot corpora, in both kernel modes.
TEST(PerfbenchTrace, SplitMatchesEvaluateRequest) {
  const size_t threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  const PqeEngine engine(EngineOptions(threads));
  for (Workload w : kOneshot) {
    const Corpus corpus = BuildCorpus(w, 3).MoveValue();
    SpanLog log;
    uint64_t id = 0;
    for (const Instance& inst : corpus.instances) {
      for (KernelMode k : {KernelMode::kExact, KernelMode::kFast}) {
        const uint64_t seed = Rng::DeriveSeed(3, ++id);
        const EvalResponse resp = EvaluateCold(engine, inst, id, seed, k);
        ASSERT_TRUE(resp.status.ok()) << inst.name << ": "
                                      << resp.status.ToString();
        PqeEngine::Options opts = engine.options();
        opts.seed = seed;
        opts.kernel_mode = k;
        ScopedSpan root(&log, "request", id);
        auto split = SplitEvaluate(inst, opts, id, &log);
        ASSERT_TRUE(split.ok()) << inst.name << ": "
                                << split.status().ToString();
        EXPECT_EQ(Bits(resp.answer.probability), Bits(*split)) << inst.name;
      }
    }
    EXPECT_GT(log.CoverageFrac(), 0.5);
    EXPECT_LE(log.CoverageFrac(), 1.0);
  }
}

// The lineage oracle the benchmark scores answers against agrees with the
// automaton-based exact counters on the served corpus's instances.
TEST(PerfbenchOracle, LineageOracleMatchesAutomatonOracles) {
  const Corpus corpus = BuildCorpus(Workload::kServedMix, 9).MoveValue();
  for (const Instance& inst : corpus.instances) {
    const ProbabilisticDatabase& pdb = *inst.pdb;
    const double lineage = ExactProbability(inst, pdb).MoveValue();
    double automaton = -1.0;
    if (inst.target == Target::kRpq) {
      auto q = rpq::RpqQuery::Parse(inst.text).MoveValue();
      automaton = rpq::RpqExact(q, pdb).MoveValue().ToDouble();
    } else {
      auto q = ParseQuery(pdb.schema(), inst.text).MoveValue();
      automaton = inst.route == Route::kPath
                      ? PathPqeExact(q, pdb).MoveValue().ToDouble()
                      : PqeExactViaAutomaton(q, pdb).MoveValue().ToDouble();
    }
    EXPECT_NEAR(lineage, automaton, 1e-12) << inst.name;
    EXPECT_GT(lineage, 0.0) << inst.name;
  }
}

}  // namespace
}  // namespace perfbench
}  // namespace pqe
