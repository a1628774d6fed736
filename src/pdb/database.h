#ifndef PQE_PDB_DATABASE_H_
#define PQE_PDB_DATABASE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "pdb/schema.h"
#include "util/result.h"

namespace pqe {

/// Interned constant from the universe U (Section 2). Constants are opaque;
/// the Database maps names to ids.
using ValueId = uint32_t;

/// Index of a fact within a Database (dense, stable: facts are append-only).
using FactId = uint32_t;

/// A ground fact R(c1, ..., ck).
struct Fact {
  RelationId relation = 0;
  std::vector<ValueId> args;

  bool operator==(const Fact& o) const {
    return relation == o.relation && args == o.args;
  }
};

/// A database instance: a finite set of facts over a schema. Facts are
/// deduplicated; FactIds are dense indices in insertion order, which the rest
/// of the library uses as the canonical fact identity (e.g. the fact
/// orderings ≺_i of Sections 3–4 default to FactId order).
class Database {
 public:
  /// Creates an empty instance over `schema` (copied; a Database owns its
  /// schema so instances are self-contained values).
  explicit Database(Schema schema) : schema_(std::move(schema)) {}

  Database(const Database&) = default;
  Database& operator=(const Database&) = default;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  const Schema& schema() const { return schema_; }

  /// Interns a constant name, returning its ValueId (idempotent).
  ValueId InternValue(const std::string& name);

  /// Name of an interned constant.
  const std::string& ValueName(ValueId v) const { return value_names_.at(v); }
  size_t NumValues() const { return value_names_.size(); }

  /// Adds the fact `relation(args...)`. Fails on arity mismatch or unknown
  /// relation. Returns the FactId (existing id if the fact is a duplicate).
  Result<FactId> AddFact(RelationId relation, std::vector<ValueId> args);

  /// Convenience: interns constants by name and adds the fact.
  Result<FactId> AddFactByName(const std::string& relation,
                               const std::vector<std::string>& constants);

  /// Number of facts |D|.
  size_t NumFacts() const { return facts_.size(); }
  const Fact& fact(FactId id) const { return facts_.at(id); }
  const std::vector<Fact>& facts() const { return facts_; }

  /// True if the exact fact is present.
  bool Contains(const Fact& f) const;

  /// FactId of the exact fact, or -1 if absent.
  int64_t FindFact(const Fact& f) const;

  /// FactIds of all facts over `relation`, in FactId (== ≺_relation) order.
  const std::vector<FactId>& FactsOf(RelationId relation) const;

  /// Renders a fact as "R(a,b)".
  std::string FactToString(FactId id) const;
  std::string FactToString(const Fact& f) const;

  /// 64-bit FNV-1a fingerprint of every fact's rendering (FactToString),
  /// in FactId order. Facts are append-only and renderings never change, so
  /// AddFact extends it in O(|fact|) and copies carry it: two databases
  /// holding the same facts in the same order agree on it, whatever objects
  /// they are. The serving layer keys its prepared cache on it.
  uint64_t FactsFingerprint() const { return fingerprint_; }

 private:
  struct FactHash {
    size_t operator()(const Fact& f) const;
  };

  Schema schema_;
  std::vector<std::string> value_names_;
  std::unordered_map<std::string, ValueId> values_by_name_;
  std::vector<Fact> facts_;
  std::unordered_map<Fact, FactId, FactHash> fact_ids_;
  std::vector<std::vector<FactId>> facts_by_relation_;
  std::vector<FactId> empty_;
  uint64_t fingerprint_ = 1469598103934665603ull;  // FNV-1a offset basis
};

}  // namespace pqe

#endif  // PQE_PDB_DATABASE_H_
