// Unit tests for the pdb module: schemas, databases, and tuple-independent
// probabilistic databases.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "pdb/database.h"
#include "pdb/probabilistic_database.h"
#include "pdb/schema.h"

namespace pqe {
namespace {

Schema TwoRelationSchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddRelation("R", 2).ok());
  EXPECT_TRUE(schema.AddRelation("S", 1).ok());
  return schema;
}

TEST(SchemaTest, AddAndFind) {
  Schema schema = TwoRelationSchema();
  EXPECT_EQ(schema.NumRelations(), 2u);
  auto r = schema.FindRelation("R");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(schema.Arity(*r), 2u);
  EXPECT_EQ(schema.Name(*r), "R");
  EXPECT_TRUE(schema.HasRelation("S"));
  EXPECT_FALSE(schema.HasRelation("T"));
  EXPECT_EQ(schema.FindRelation("T").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, RejectsBadRelations) {
  Schema schema = TwoRelationSchema();
  EXPECT_EQ(schema.AddRelation("R", 2).status().code(),
            StatusCode::kInvalidArgument);  // duplicate
  EXPECT_FALSE(schema.AddRelation("", 1).ok());
  EXPECT_FALSE(schema.AddRelation("Z", 0).ok());
}

TEST(DatabaseTest, AddFactsAndDeduplicate) {
  Database db(TwoRelationSchema());
  auto f1 = db.AddFactByName("R", {"a", "b"});
  ASSERT_TRUE(f1.ok());
  auto f2 = db.AddFactByName("R", {"a", "b"});
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(*f1, *f2);  // duplicate returns the same id
  EXPECT_EQ(db.NumFacts(), 1u);
  ASSERT_TRUE(db.AddFactByName("S", {"a"}).ok());
  EXPECT_EQ(db.NumFacts(), 2u);
  EXPECT_EQ(db.FactToString(0), "R(a,b)");
  EXPECT_EQ(db.FactToString(1), "S(a)");
}

TEST(DatabaseTest, FactsOfKeepsInsertionOrder) {
  Database db(TwoRelationSchema());
  ASSERT_TRUE(db.AddFactByName("R", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFactByName("S", {"x"}).ok());
  ASSERT_TRUE(db.AddFactByName("R", {"b", "c"}).ok());
  RelationId r = db.schema().FindRelation("R").value();
  const auto& facts = db.FactsOf(r);
  ASSERT_EQ(facts.size(), 2u);
  EXPECT_EQ(db.FactToString(facts[0]), "R(a,b)");
  EXPECT_EQ(db.FactToString(facts[1]), "R(b,c)");
}

TEST(DatabaseTest, ContainsAndFindFact) {
  Database db(TwoRelationSchema());
  ASSERT_TRUE(db.AddFactByName("R", {"a", "b"}).ok());
  RelationId r = db.schema().FindRelation("R").value();
  Fact present{r, {db.InternValue("a"), db.InternValue("b")}};
  Fact absent{r, {db.InternValue("b"), db.InternValue("a")}};
  EXPECT_TRUE(db.Contains(present));
  EXPECT_FALSE(db.Contains(absent));
  EXPECT_EQ(db.FindFact(present), 0);
  EXPECT_EQ(db.FindFact(absent), -1);
}

TEST(DatabaseTest, RejectsArityMismatchAndUnknownRelation) {
  Database db(TwoRelationSchema());
  EXPECT_EQ(db.AddFactByName("R", {"a"}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.AddFactByName("Q", {"a"}).status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(db.AddFact(77, {0, 0}).ok());
}

TEST(DatabaseTest, ValueInterningIsIdempotent) {
  Database db(TwoRelationSchema());
  ValueId a1 = db.InternValue("a");
  ValueId a2 = db.InternValue("a");
  ValueId b = db.InternValue("b");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(db.ValueName(a1), "a");
  EXPECT_EQ(db.NumValues(), 2u);
}

// FNV-1a over every fact's FactToString rendering plus a 0xff delimiter —
// the documented definition of Database::FactsFingerprint.
uint64_t RenderedFingerprint(const Database& db) {
  uint64_t h = 1469598103934665603ull;
  for (FactId f = 0; f < db.NumFacts(); ++f) {
    for (unsigned char c : db.FactToString(f)) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(DatabaseTest, FingerprintSeesFactsNotObjectsOrValueIds) {
  Database a(TwoRelationSchema());
  ASSERT_TRUE(a.AddFactByName("R", {"a", "b"}).ok());
  ASSERT_TRUE(a.AddFactByName("S", {"c"}).ok());
  Database b(TwoRelationSchema());
  // Constants interned in another order get other ValueIds; the facts, and
  // so their renderings, are the same.
  b.InternValue("c");
  b.InternValue("b");
  ASSERT_TRUE(b.AddFactByName("R", {"a", "b"}).ok());
  ASSERT_TRUE(b.AddFactByName("S", {"c"}).ok());
  EXPECT_EQ(a.FactsFingerprint(), b.FactsFingerprint());
  EXPECT_EQ(a.FactsFingerprint(), RenderedFingerprint(a));
  // A duplicate insert adds no fact and leaves the fingerprint alone.
  ASSERT_TRUE(b.AddFactByName("R", {"a", "b"}).ok());
  EXPECT_EQ(a.FactsFingerprint(), b.FactsFingerprint());
  EXPECT_NE(a.FactsFingerprint(), Database(TwoRelationSchema())
                                      .FactsFingerprint());
}

TEST(DatabaseTest, FingerprintChangesWithAFactOrTheOrder) {
  Database base(TwoRelationSchema());
  ASSERT_TRUE(base.AddFactByName("R", {"a", "b"}).ok());
  ASSERT_TRUE(base.AddFactByName("R", {"b", "c"}).ok());
  Database changed(TwoRelationSchema());
  ASSERT_TRUE(changed.AddFactByName("R", {"a", "b"}).ok());
  ASSERT_TRUE(changed.AddFactByName("R", {"b", "d"}).ok());
  EXPECT_NE(base.FactsFingerprint(), changed.FactsFingerprint());
  Database reordered(TwoRelationSchema());
  ASSERT_TRUE(reordered.AddFactByName("R", {"b", "c"}).ok());
  ASSERT_TRUE(reordered.AddFactByName("R", {"a", "b"}).ok());
  EXPECT_NE(base.FactsFingerprint(), reordered.FactsFingerprint());
  // Field boundaries count: R(ab,c) is not R(a,bc).
  Database left(TwoRelationSchema());
  ASSERT_TRUE(left.AddFactByName("R", {"ab", "c"}).ok());
  Database right(TwoRelationSchema());
  ASSERT_TRUE(right.AddFactByName("R", {"a", "bc"}).ok());
  EXPECT_NE(left.FactsFingerprint(), right.FactsFingerprint());
}

TEST(DatabaseTest, CopiesCarryTheFingerprint) {
  Database original(TwoRelationSchema());
  ASSERT_TRUE(original.AddFactByName("R", {"a", "b"}).ok());
  ASSERT_TRUE(original.AddFactByName("S", {"a"}).ok());
  Database copy = original;
  EXPECT_EQ(copy.FactsFingerprint(), original.FactsFingerprint());
  Database moved = std::move(copy);
  EXPECT_EQ(moved.FactsFingerprint(), original.FactsFingerprint());
  // A copy extended on its own diverges from the original and still
  // fingerprints its own renderings.
  ASSERT_TRUE(moved.AddFactByName("S", {"b"}).ok());
  EXPECT_NE(moved.FactsFingerprint(), original.FactsFingerprint());
  EXPECT_EQ(moved.FactsFingerprint(), RenderedFingerprint(moved));
}

// -------------------------------------------------- ProbabilisticDatabase --

TEST(ProbabilityTest, MakeValidatesBounds) {
  EXPECT_TRUE(Probability::Make(1, 2).ok());
  EXPECT_TRUE(Probability::Make(0, 1).ok());
  EXPECT_TRUE(Probability::Make(5, 5).ok());
  EXPECT_FALSE(Probability::Make(3, 2).ok());
  EXPECT_FALSE(Probability::Make(1, 0).ok());
  EXPECT_EQ(Probability::Half().ToDouble(), 0.5);
  EXPECT_TRUE(Probability::Half() == (Probability{2, 4}));
}

ProbabilisticDatabase SmallPdb() {
  Database db(TwoRelationSchema());
  EXPECT_TRUE(db.AddFactByName("R", {"a", "b"}).ok());
  EXPECT_TRUE(db.AddFactByName("S", {"a"}).ok());
  ProbabilisticDatabase pdb = ProbabilisticDatabase::Uniform(std::move(db));
  EXPECT_TRUE(pdb.SetProbability(0, Probability{1, 3}).ok());
  EXPECT_TRUE(pdb.SetProbability(1, Probability{3, 4}).ok());
  return pdb;
}

TEST(ProbabilisticDatabaseTest, CommonDenominator) {
  ProbabilisticDatabase pdb = SmallPdb();
  EXPECT_EQ(pdb.CommonDenominator().ToDecimalString(), "12");
}

TEST(ProbabilisticDatabaseTest, SubinstanceProbability) {
  ProbabilisticDatabase pdb = SmallPdb();
  // {R(a,b) present, S(a) absent}: (1/3) * (1/4) = 1/12.
  BigRational p = pdb.SubinstanceProbability({true, false});
  EXPECT_EQ(p.Normalized().ToString(), "1/12");
  // Sum over all four worlds is 1.
  BigRational total;
  for (bool x : {false, true}) {
    for (bool y : {false, true}) {
      total = total.Add(pdb.SubinstanceProbability({x, y}));
    }
  }
  EXPECT_EQ(total.Compare(BigRational::One()), 0);
}

TEST(ProbabilisticDatabaseTest, MakeValidatesSizes) {
  Database db(TwoRelationSchema());
  ASSERT_TRUE(db.AddFactByName("R", {"a", "b"}).ok());
  EXPECT_FALSE(ProbabilisticDatabase::Make(db, {}).ok());
  EXPECT_FALSE(
      ProbabilisticDatabase::Make(db, {Probability{9, 4}}).ok());
  EXPECT_TRUE(
      ProbabilisticDatabase::Make(db, {Probability{1, 4}}).ok());
}

TEST(ProbabilisticDatabaseTest, SetProbabilityErrors) {
  ProbabilisticDatabase pdb = SmallPdb();
  EXPECT_EQ(pdb.SetProbability(99, Probability::Half()).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(pdb.SetProbability(0, Probability{7, 2}).code(),
            StatusCode::kInvalidArgument);
}

TEST(ProbabilisticDatabaseTest, SizeInBitsCountsEncodings) {
  ProbabilisticDatabase pdb = SmallPdb();
  // |D| = 2 plus bits of 1/3 (1 + 2) and 3/4 (2 + 3).
  EXPECT_EQ(pdb.SizeInBits(), 2u + 3u + 5u);
}

TEST(ProbabilisticDatabaseTest, AddFactCarriesProbability) {
  Database db(TwoRelationSchema());
  ProbabilisticDatabase pdb = ProbabilisticDatabase::Uniform(std::move(db));
  auto id = pdb.AddFact("R", {"x", "y"}, Probability{2, 5});
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(pdb.probability(*id) == (Probability{2, 5}));
  EXPECT_FALSE(pdb.AddFact("R", {"x", "y"}, Probability{9, 5}).ok());
}

}  // namespace
}  // namespace pqe
