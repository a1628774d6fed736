#include "pdb/database.h"

#include <sstream>

namespace pqe {

namespace {

void MixByte(uint64_t* h, unsigned char c) {
  *h ^= c;
  *h *= 1099511628211ull;
}

void MixString(uint64_t* h, const std::string& s) {
  for (unsigned char c : s) MixByte(h, c);
}

}  // namespace

size_t Database::FactHash::operator()(const Fact& f) const {
  size_t h = std::hash<uint32_t>()(f.relation);
  for (ValueId v : f.args) {
    h ^= std::hash<uint32_t>()(v) + 0x9e3779b9u + (h << 6) + (h >> 2);
  }
  return h;
}

ValueId Database::InternValue(const std::string& name) {
  auto it = values_by_name_.find(name);
  if (it != values_by_name_.end()) return it->second;
  ValueId id = static_cast<ValueId>(value_names_.size());
  value_names_.push_back(name);
  values_by_name_.emplace(name, id);
  return id;
}

Result<FactId> Database::AddFact(RelationId relation,
                                 std::vector<ValueId> args) {
  if (relation >= schema_.NumRelations()) {
    return Status::InvalidArgument("unknown relation id");
  }
  if (args.size() != schema_.Arity(relation)) {
    std::ostringstream msg;
    msg << "arity mismatch for " << schema_.Name(relation) << ": expected "
        << schema_.Arity(relation) << ", got " << args.size();
    return Status::InvalidArgument(msg.str());
  }
  for (ValueId v : args) {
    if (v >= value_names_.size()) {
      return Status::InvalidArgument("unknown value id in fact");
    }
  }
  Fact f{relation, std::move(args)};
  auto it = fact_ids_.find(f);
  if (it != fact_ids_.end()) return it->second;
  FactId id = static_cast<FactId>(facts_.size());
  facts_.push_back(f);
  fact_ids_.emplace(std::move(f), id);
  if (facts_by_relation_.size() < schema_.NumRelations()) {
    facts_by_relation_.resize(schema_.NumRelations());
  }
  facts_by_relation_[relation].push_back(id);
  // Extend the fingerprint by the bytes of FactToString(id), without
  // building the string, then a 0xff delimiter (never a byte of UTF-8
  // text) so adjacent renderings cannot alias.
  const Fact& added = facts_.back();
  MixString(&fingerprint_, schema_.Name(relation));
  MixByte(&fingerprint_, '(');
  for (size_t i = 0; i < added.args.size(); ++i) {
    if (i > 0) MixByte(&fingerprint_, ',');
    MixString(&fingerprint_, value_names_[added.args[i]]);
  }
  MixByte(&fingerprint_, ')');
  MixByte(&fingerprint_, 0xffu);
  return id;
}

Result<FactId> Database::AddFactByName(
    const std::string& relation, const std::vector<std::string>& constants) {
  PQE_ASSIGN_OR_RETURN(RelationId rel, schema_.FindRelation(relation));
  std::vector<ValueId> args;
  args.reserve(constants.size());
  for (const std::string& c : constants) args.push_back(InternValue(c));
  return AddFact(rel, std::move(args));
}

bool Database::Contains(const Fact& f) const {
  return fact_ids_.count(f) > 0;
}

int64_t Database::FindFact(const Fact& f) const {
  auto it = fact_ids_.find(f);
  return it == fact_ids_.end() ? -1 : static_cast<int64_t>(it->second);
}

const std::vector<FactId>& Database::FactsOf(RelationId relation) const {
  if (relation >= facts_by_relation_.size()) return empty_;
  return facts_by_relation_[relation];
}

std::string Database::FactToString(const Fact& f) const {
  std::ostringstream out;
  out << schema_.Name(f.relation) << "(";
  for (size_t i = 0; i < f.args.size(); ++i) {
    if (i > 0) out << ",";
    out << ValueName(f.args[i]);
  }
  out << ")";
  return out.str();
}

std::string Database::FactToString(FactId id) const {
  return FactToString(fact(id));
}

}  // namespace pqe
