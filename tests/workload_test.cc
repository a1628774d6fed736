// Tests for the workload generators: determinism, shape guarantees, and
// argument validation; and for the strictness of captured workload files.

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/projection.h"
#include "cq/builders.h"
#include "eval/eval.h"
#include "serve/workload.h"
#include "workload/generators.h"

namespace pqe {
namespace {

TEST(LayeredGraphTest, DeterministicForSeed) {
  auto qi = MakePathQuery(3).MoveValue();
  LayeredGraphOptions opt;
  opt.width = 3;
  opt.density = 0.5;
  opt.seed = 42;
  auto a = MakeLayeredPathDatabase(qi, opt).MoveValue();
  auto b = MakeLayeredPathDatabase(qi, opt).MoveValue();
  EXPECT_EQ(a.NumFacts(), b.NumFacts());
  opt.seed = 43;
  auto c = MakeLayeredPathDatabase(qi, opt).MoveValue();
  // Different seed very likely gives a different instance.
  EXPECT_TRUE(a.NumFacts() != c.NumFacts() || a.NumFacts() == 9u * 3u);
}

TEST(LayeredGraphTest, EnsurePathKeepsQuerySatisfiable) {
  auto qi = MakePathQuery(4).MoveValue();
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    LayeredGraphOptions opt;
    opt.width = 2;
    opt.density = 0.05;  // very sparse: without the spine, likely empty
    opt.seed = seed;
    opt.ensure_path = true;
    auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
    EXPECT_TRUE(Satisfies(db, qi.query).value()) << "seed=" << seed;
  }
}

TEST(LayeredGraphTest, DensityOneIsComplete) {
  auto qi = MakePathQuery(2).MoveValue();
  LayeredGraphOptions opt;
  opt.width = 3;
  opt.density = 1.0;
  auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
  EXPECT_EQ(db.NumFacts(), 2u * 3u * 3u);
}

TEST(LayeredGraphTest, ValidatesArguments) {
  auto star = MakeStarQuery(2).MoveValue();
  LayeredGraphOptions opt;
  EXPECT_FALSE(MakeLayeredPathDatabase(star, opt).ok());  // not a path query
  auto qi = MakePathQuery(2).MoveValue();
  opt.width = 0;
  EXPECT_FALSE(MakeLayeredPathDatabase(qi, opt).ok());
}

TEST(RandomDatabaseTest, RespectsFactBudget) {
  auto qi = MakePathQuery(2).MoveValue();
  RandomDatabaseOptions opt;
  opt.domain_size = 4;
  opt.facts_per_relation = 6;
  opt.seed = 5;
  auto db = MakeRandomDatabase(qi.schema, opt).MoveValue();
  // Duplicates collapse, so <= 6 per relation.
  for (RelationId r = 0; r < qi.schema.NumRelations(); ++r) {
    EXPECT_LE(db.FactsOf(r).size(), 6u);
  }
  EXPECT_FALSE(
      MakeRandomDatabase(qi.schema, RandomDatabaseOptions{0, 3, 1}).ok());
}

TEST(StarDatabaseTest, EveryHubUsablePerRelation) {
  auto star = MakeStarQuery(3).MoveValue();
  StarDataOptions opt;
  opt.hubs = 3;
  opt.spokes_per_hub = 2;
  opt.density = 0.01;  // forces the keep-usable fallback
  opt.seed = 9;
  auto db = MakeStarDatabase(star, opt).MoveValue();
  for (const Atom& atom : star.query.atoms()) {
    EXPECT_GE(db.FactsOf(atom.relation).size(), opt.hubs);
  }
}

TEST(AttachProbabilitiesTest, ModelsBehaveAsDocumented) {
  auto qi = MakePathQuery(1).MoveValue();
  Database db(qi.schema);
  ASSERT_TRUE(db.AddFactByName("R1", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFactByName("R1", {"c", "d"}).ok());

  ProbabilityModel uniform;
  uniform.kind = ProbabilityModel::Kind::kUniformHalf;
  auto updb = AttachProbabilities(db, uniform);
  EXPECT_TRUE(updb.probability(0) == Probability::Half());

  ProbabilityModel fixed;
  fixed.kind = ProbabilityModel::Kind::kFixed;
  fixed.fixed = Probability{2, 7};
  auto fpdb = AttachProbabilities(db, fixed);
  EXPECT_TRUE(fpdb.probability(1) == (Probability{2, 7}));

  ProbabilityModel random;
  random.kind = ProbabilityModel::Kind::kRandomRational;
  random.max_denominator = 6;
  random.seed = 3;
  auto rpdb = AttachProbabilities(db, random);
  for (FactId f = 0; f < rpdb.NumFacts(); ++f) {
    const Probability p = rpdb.probability(f);
    EXPECT_GE(p.den, 2u);
    EXPECT_LE(p.den, 6u);
    EXPECT_GE(p.num, 1u);
    EXPECT_LT(p.num, p.den);  // never 0 or 1 under this model
  }
}

TEST(SnowflakeDatabaseTest, GeneratesSatisfiableInstances) {
  auto flake = MakeSnowflakeQuery(2, 2).MoveValue();
  SnowflakeDataOptions opt;
  opt.hubs = 2;
  opt.fanout = 2;
  opt.density = 0.5;
  opt.seed = 3;
  auto db = MakeSnowflakeDatabase(flake, 2, 2, opt).MoveValue();
  EXPECT_GT(db.NumFacts(), 0u);
  EXPECT_TRUE(Satisfies(db, flake.query).value());
  EXPECT_FALSE(
      MakeSnowflakeDatabase(flake, 2, 2, SnowflakeDataOptions{0, 1, 0.5, 1})
          .ok());
}

// ----------------------------------------------------------- projection --

TEST(ProjectionTest, DropsForeignRelationsAndKeepsOrder) {
  auto qi = MakePathQuery(2).MoveValue();
  Schema schema = qi.schema;
  ASSERT_TRUE(schema.AddRelation("Noise", 1).ok());
  Database db(schema);
  ASSERT_TRUE(db.AddFactByName("Noise", {"z1"}).ok());
  ASSERT_TRUE(db.AddFactByName("R1", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFactByName("Noise", {"z2"}).ok());
  ASSERT_TRUE(db.AddFactByName("R2", {"b", "c"}).ok());
  auto proj = ProjectDatabase(db, qi.query).MoveValue();
  EXPECT_EQ(proj.db.NumFacts(), 2u);
  EXPECT_EQ(proj.dropped_facts, 2u);
  ASSERT_EQ(proj.original_fact.size(), 2u);
  EXPECT_EQ(proj.original_fact[0], 1u);
  EXPECT_EQ(proj.original_fact[1], 3u);
  EXPECT_EQ(proj.db.FactToString(0), "R1(a,b)");
}

TEST(ProjectionTest, CarriesProbabilities) {
  auto qi = MakePathQuery(1).MoveValue();
  Schema schema = qi.schema;
  ASSERT_TRUE(schema.AddRelation("Noise", 1).ok());
  Database db(schema);
  ProbabilisticDatabase pdb = ProbabilisticDatabase::Uniform(std::move(db));
  ASSERT_TRUE(pdb.AddFact("Noise", {"z"}, Probability{1, 9}).ok());
  ASSERT_TRUE(pdb.AddFact("R1", {"a", "b"}, Probability{3, 7}).ok());
  auto proj = ProjectProbabilisticDatabase(pdb, qi.query).MoveValue();
  EXPECT_EQ(proj.pdb.NumFacts(), 1u);
  EXPECT_TRUE(proj.pdb.probability(0) == (Probability{3, 7}));
  EXPECT_EQ(proj.dropped_facts, 1u);
}

TEST(ProjectionTest, RejectsForeignQueryRelations) {
  auto qi = MakePathQuery(3).MoveValue();
  auto small = MakePathQuery(2).MoveValue();
  Database db(small.schema);  // schema without R3
  EXPECT_FALSE(ProjectDatabase(db, qi.query).ok());
}

TEST(WorkloadFileTest, JunkHexSeedIsALineNumberedError) {
  // A capture's 64-bit fields travel as hex strings. A corrupted one must
  // fail the load with the line and the field named, not replay as seed 0
  // or as a wrapped value.
  serve::WorkloadRecord r;
  r.request_id = 1;
  r.seed = 0x3c6ef372fe94f854ull;
  const std::string good = serve::FormatWorkloadRecord(r);
  auto back = serve::ParseWorkloadRecord(good);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->seed, r.seed);

  const std::string hex = "0x3c6ef372fe94f854";
  const size_t at = good.find(hex);
  ASSERT_NE(at, std::string::npos) << good;
  for (const char* junk :
       {"0xzz", "0x12g4", "", "0x", "-0x1", "0x1 ", "0x10000000000000000"}) {
    std::string line = good;
    line.replace(at, hex.size(), junk);
    auto parsed = serve::ParseWorkloadRecord(line);
    ASSERT_FALSE(parsed.ok()) << junk;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("seed"), std::string::npos)
        << parsed.status().ToString();
  }

  const std::string path = "workload_test_junk_seed.jsonl";
  {
    std::ofstream out(path);
    out << good << "\n";
    std::string bad = good;
    bad.replace(at, hex.size(), "0xnot-hex");
    out << bad << "\n";
  }
  auto loaded = serve::LoadWorkloadFile(path);
  std::remove(path.c_str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find(path + ":2:"), std::string::npos)
      << loaded.status().ToString();
}

}  // namespace
}  // namespace pqe
