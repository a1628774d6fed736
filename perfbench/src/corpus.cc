// Seeded corpora and request streams of the three workloads, plus the cold
// request path and the exact oracle.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>

#include "cq/builders.h"
#include "cq/parser.h"
#include "cq/ucq.h"
#include "eval/eval.h"
#include "eval/ucq_eval.h"
#include "lineage/compiled_wmc.h"
#include "lineage/lineage.h"
#include "perfbench.h"
#include "rpq/eval.h"
#include "rpq/product.h"
#include "rpq/regex.h"
#include "safeplan/safe_plan.h"
#include "workload/generators.h"

namespace pqe {
namespace perfbench {

Result<Workload> ParseWorkload(std::string_view name) {
  if (name == "oneshot_cq") return Workload::kOneshotCq;
  if (name == "oneshot_path") return Workload::kOneshotPath;
  if (name == "served_mix") return Workload::kServedMix;
  return Status::InvalidArgument("unknown workload '" + std::string(name) +
                                 "' (oneshot_cq | oneshot_path | served_mix)");
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kOneshotCq:
      return "oneshot_cq";
    case Workload::kOneshotPath:
      return "oneshot_path";
    case Workload::kServedMix:
      return "served_mix";
  }
  return "unknown";
}

const char* RouteName(Route route) {
  switch (route) {
    case Route::kTree:
      return "tree";
    case Route::kPath:
      return "path";
    case Route::kRpqString:
      return "rpq";
    case Route::kSafePlan:
      return "safeplan";
    case Route::kEnumeration:
      return "enumeration";
    case Route::kLineage:
      return "lineage";
  }
  return "unknown";
}

namespace {

// Engine default; kAuto enumerates at or below it.
constexpr size_t kEnumerationThreshold = 16;

// The label of fact `f`: w/d with d = 3 or 4 by the fact's parity and a
// seeded 1 ≤ w < d. Denominators set the gadget widths, hence the automaton
// shapes, so fixing them keeps every run's work comparable; every
// numerator-only write has another value to move to, and a denominator write
// toggles d.
Probability DrawLabel(FactId f, Rng& rng) {
  const uint64_t den = 3 + f % 2;
  return Probability{1 + rng.NextBounded(den - 1), den};
}

// One shape of a corpus: a query over its own schema plus a generator of
// the plain database for a data seed.
struct Shape {
  std::string name;
  Target target = Target::kQuery;
  std::optional<QueryInstance> query;  // kQuery / kUnion: the first disjunct
  std::string text;          // kUnion / kRpq: text over `query.schema`
  std::function<Result<Database>(uint64_t)> make_db;
  size_t min_facts = 0;
  size_t max_facts = 0;
  Route route = Route::kTree;
};

// `auto_facts` is the fact count kAuto compares with its enumeration
// threshold: the shared database's, for a served_mix sub-database.
Result<Route> ExpectedRoute(const Shape& shape, const Database& db,
                            size_t auto_facts) {
  const bool enumerate = auto_facts <= kEnumerationThreshold;
  switch (shape.target) {
    case Target::kUnion:
      return enumerate ? Route::kEnumeration : Route::kLineage;
    case Target::kRpq: {
      if (enumerate) return Route::kEnumeration;
      PQE_ASSIGN_OR_RETURN(rpq::RpqQuery q, rpq::RpqQuery::Parse(shape.text));
      auto skeleton = rpq::CompileRpqSkeleton(q, db);
      if (!skeleton.ok()) return Route::kLineage;
      return Route::kRpqString;
    }
    case Target::kQuery: {
      const ConjunctiveQuery& q = shape.query->query;
      if (IsSafeQuery(q)) return Route::kSafePlan;
      if (enumerate) return Route::kEnumeration;
      if (q.IsPathQuery() && q.IsSelfJoinFree()) return Route::kPath;
      return Route::kTree;
    }
  }
  return Status::Internal("unknown target");
}

std::string InstanceText(const Shape& shape) {
  return shape.target == Target::kQuery
             ? shape.query->query.ToString(shape.query->schema)
             : shape.text;
}

// Satisfiable on the full database: with every label strictly inside
// (0, 1), that makes the probability positive.
Result<bool> Satisfiable(const Shape& shape, const Database& db) {
  auto pdb = ProbabilisticDatabase::Uniform(db);
  Instance probe;
  probe.target = shape.target;
  probe.text = InstanceText(shape);
  PQE_ASSIGN_OR_RETURN(double p, ExactProbability(probe, pdb));
  return p > 0.0;
}

// The first data seed from `base` on whose database the shape has the
// wanted size, route and a satisfiable query. Seeds are part of the corpus
// definition, not of the run seed. A `shared` database joins the served_mix
// database, whose size puts every pair past the enumeration threshold.
Result<Database> PickDatabase(const Shape& shape, uint64_t base,
                              bool shared) {
  for (uint64_t s = base; s < base + 200; ++s) {
    PQE_ASSIGN_OR_RETURN(Database db, shape.make_db(s));
    if (db.NumFacts() < shape.min_facts || db.NumFacts() > shape.max_facts) {
      continue;
    }
    PQE_ASSIGN_OR_RETURN(
        Route route,
        ExpectedRoute(shape, db, shared ? SIZE_MAX : db.NumFacts()));
    if (route != shape.route) continue;
    PQE_ASSIGN_OR_RETURN(bool sat, Satisfiable(shape, db));
    if (sat) return db;
  }
  return Status::Internal("perfbench: no database for shape " + shape.name);
}

Shape RandomShape(std::string name, QueryInstance qi, uint32_t domain,
                  uint32_t per_relation, size_t min_facts, size_t max_facts,
                  Route route) {
  Shape s;
  s.name = std::move(name);
  s.query = std::move(qi);
  s.min_facts = min_facts;
  s.max_facts = max_facts;
  s.route = route;
  const Schema schema = s.query->schema;
  s.make_db = [schema, domain, per_relation](uint64_t seed) {
    RandomDatabaseOptions o;
    o.domain_size = domain;
    o.facts_per_relation = per_relation;
    o.seed = seed;
    return MakeRandomDatabase(schema, o);
  };
  return s;
}

Shape H0Shape(uint32_t domain, uint32_t per_relation, size_t lo, size_t hi,
              Route route = Route::kTree) {
  return RandomShape("h0", MakeH0Query().MoveValue(), domain, per_relation, lo,
                     hi, route);
}

Shape CycleShape(uint32_t per_relation, size_t lo, size_t hi) {
  return RandomShape("cycle4", MakeCycleQuery(4).MoveValue(), 4, per_relation,
                     lo, hi, Route::kTree);
}

Shape CaterpillarShape(uint32_t per_relation, size_t lo, size_t hi) {
  return RandomShape("caterpillar3", MakeCaterpillarQuery(3).MoveValue(), 4,
                     per_relation, lo, hi, Route::kTree);
}

Shape SnowflakeShape(uint32_t hubs, size_t lo, size_t hi) {
  Shape s;
  s.name = "snowflake22";
  s.query = MakeSnowflakeQuery(2, 2).MoveValue();
  s.min_facts = lo;
  s.max_facts = hi;
  const QueryInstance qi = *s.query;
  s.make_db = [qi, hubs](uint64_t seed) {
    SnowflakeDataOptions o;
    o.hubs = hubs;
    o.fanout = 2;
    o.seed = seed;
    return MakeSnowflakeDatabase(qi, 2, 2, o);
  };
  return s;
}

Shape StarShape() {
  Shape s;
  s.name = "star3";
  s.query = MakeStarQuery(3).MoveValue();
  s.min_facts = 17;
  s.max_facts = 40;
  s.route = Route::kSafePlan;
  const QueryInstance qi = *s.query;
  s.make_db = [qi](uint64_t seed) {
    StarDataOptions o;
    o.hubs = 3;
    o.spokes_per_hub = 3;
    o.seed = seed;
    return MakeStarDatabase(qi, o);
  };
  return s;
}

Shape UnionShape() {
  // H0 ∨ S(x,y),T(y): two CQs over one schema, evaluated over the union
  // lineage (kAuto's exact-first union route).
  Shape s = H0Shape(6, 8, 17, 24, Route::kLineage);
  s.name = "union2";
  s.target = Target::kUnion;
  s.text = s.query->query.ToString(s.query->schema) + " | S(x,y), T(y)";
  return s;
}

Shape PathShape(uint32_t n, uint32_t width, double density, size_t lo,
                size_t hi) {
  Shape s;
  s.name = "path" + std::to_string(n);
  s.query = MakePathQuery(n).MoveValue();
  s.min_facts = lo;
  s.max_facts = hi;
  s.route = Route::kPath;
  const QueryInstance qi = *s.query;
  s.make_db = [qi, width, density](uint64_t seed) {
    LayeredGraphOptions o;
    o.width = width;
    o.density = density;
    o.seed = seed;
    return MakeLayeredPathDatabase(qi, o);
  };
  return s;
}

// RPQ shapes over a labelled KG (labels a, b, c). The concatenation a/b/c
// lowers onto the path route; the others take the product construction.
Shape RpqShape(const std::string& name, const std::string& regex,
               uint32_t layers, size_t lo, size_t hi) {
  Shape s;
  s.name = name;
  s.target = Target::kRpq;
  s.text = regex;
  s.min_facts = lo;
  s.max_facts = hi;
  s.route = Route::kRpqString;
  s.make_db = [layers](uint64_t seed) {
    KgReachabilityOptions o;
    o.layers = layers;
    o.width = 3;
    o.labels = {"a", "b", "c"};
    o.density = 0.5;
    o.seed = seed;
    return MakeKgReachabilityDatabase(o);
  };
  return s;
}

Result<std::shared_ptr<ProbabilisticDatabase>> Label(Database db, Rng& rng) {
  std::vector<Probability> probs(db.NumFacts());
  for (FactId f = 0; f < probs.size(); ++f) probs[f] = DrawLabel(f, rng);
  PQE_ASSIGN_OR_RETURN(ProbabilisticDatabase pdb,
                       ProbabilisticDatabase::Make(std::move(db), probs));
  return std::make_shared<ProbabilisticDatabase>(std::move(pdb));
}

std::vector<FactId> AllFacts(size_t n) {
  std::vector<FactId> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<FactId>(i);
  return out;
}

// One-shot corpora: each instance owns its database.
Result<Corpus> BuildOneshot(const std::vector<std::pair<Shape, size_t>>& plan,
                            uint64_t seed) {
  Corpus corpus;
  uint64_t slot = 0;
  for (const auto& [shape, copies] : plan) {
    for (size_t c = 0; c < copies; ++c, ++slot) {
      PQE_ASSIGN_OR_RETURN(Database db, PickDatabase(shape, 1 + 1000 * slot, false));
      Rng rng(Rng::DeriveSeed(seed, slot));
      Instance inst;
      inst.name = shape.name + "#" + std::to_string(c);
      inst.target = shape.target;
      inst.route = shape.route;
      inst.text = InstanceText(shape);
      inst.facts = AllFacts(db.NumFacts());
      PQE_ASSIGN_OR_RETURN(inst.pdb, Label(std::move(db), rng));
      corpus.instances.push_back(std::move(inst));
    }
  }
  return corpus;
}

// Prefixes every relation name of a query text (identifiers followed by
// '(') so sub-instances can share one database without colliding.
std::string PrefixRelations(const std::string& text, const std::string& pfx) {
  std::string out;
  for (size_t i = 0; i < text.size();) {
    if (std::isalpha(static_cast<unsigned char>(text[i])) || text[i] == '_') {
      size_t j = i;
      while (j < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[j])) ||
              text[j] == '_')) {
        ++j;
      }
      if (j < text.size() && text[j] == '(') out += pfx;
      out.append(text, i, j - i);
      i = j;
    } else {
      out += text[i++];
    }
  }
  return out;
}

// Prefixes every label of a regex text (all identifiers are labels).
std::string PrefixLabels(const std::string& text, const std::string& pfx) {
  std::string out;
  for (size_t i = 0; i < text.size();) {
    if (std::isalpha(static_cast<unsigned char>(text[i])) || text[i] == '_') {
      size_t j = i;
      while (j < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[j])) ||
              text[j] == '_')) {
        ++j;
      }
      out += pfx;
      out.append(text, i, j - i);
      i = j;
    } else {
      out += text[i++];
    }
  }
  return out;
}

// served_mix: every pair's database is a disjoint sub-database (relations
// and constants prefixed "gNN_") of one shared database, so label writes
// address facts unambiguously and each query projects onto its own facts.
Result<Corpus> BuildServed(const std::vector<std::pair<Shape, size_t>>& plan,
                           uint64_t seed) {
  struct Sub {
    const Shape* shape;
    size_t copy;
    Database db;
  };
  // Interleave kinds so popularity ranks mix tree, path and RPQ pairs.
  std::vector<std::vector<Sub>> by_shape(plan.size());
  uint64_t slot = 0;
  for (size_t k = 0; k < plan.size(); ++k) {
    for (size_t c = 0; c < plan[k].second; ++c, ++slot) {
      PQE_ASSIGN_OR_RETURN(Database db,
                           PickDatabase(plan[k].first, 7 + 1000 * slot, true));
      by_shape[k].push_back(Sub{&plan[k].first, c, std::move(db)});
    }
  }
  std::vector<Sub> order;
  for (size_t round = 0;; ++round) {
    bool any = false;
    for (auto& subs : by_shape) {
      if (round < subs.size()) {
        order.push_back(std::move(subs[round]));
        any = true;
      }
    }
    if (!any) break;
  }

  Schema schema;
  std::vector<std::string> prefixes;
  for (size_t g = 0; g < order.size(); ++g) {
    prefixes.push_back("g" + std::to_string(g) + "_");
    const Schema& sub = order[g].db.schema();
    for (RelationId r = 0; r < sub.NumRelations(); ++r) {
      PQE_RETURN_IF_ERROR(
          schema.AddRelation(prefixes[g] + sub.Name(r), sub.Arity(r))
              .status());
    }
  }
  Database shared(schema);
  Corpus corpus;
  for (size_t g = 0; g < order.size(); ++g) {
    const Database& sub = order[g].db;
    const Shape& shape = *order[g].shape;
    Instance inst;
    inst.name = shape.name + "#" + std::to_string(order[g].copy);
    inst.target = shape.target;
    inst.route = shape.route;
    inst.text = shape.target == Target::kRpq
                    ? PrefixLabels(shape.text, prefixes[g])
                    : PrefixRelations(InstanceText(shape), prefixes[g]);
    for (const Fact& f : sub.facts()) {
      std::vector<std::string> constants;
      for (ValueId v : f.args) {
        constants.push_back(prefixes[g] + sub.ValueName(v));
      }
      PQE_ASSIGN_OR_RETURN(
          FactId id,
          shared.AddFactByName(prefixes[g] + sub.schema().Name(f.relation),
                               constants));
      inst.facts.push_back(id);
    }
    corpus.instances.push_back(std::move(inst));
  }
  Rng rng(Rng::DeriveSeed(seed, 0x5e7));
  PQE_ASSIGN_OR_RETURN(corpus.shared_pdb, Label(std::move(shared), rng));
  for (Instance& inst : corpus.instances) inst.pdb = corpus.shared_pdb;
  return corpus;
}

}  // namespace

Result<Corpus> BuildCorpus(Workload workload, uint64_t seed) {
  switch (workload) {
    case Workload::kOneshotCq:
      // 14 tree-route instances of widths 1 and 2, then the three instances
      // kAuto routes elsewhere (safe plan, enumeration, union lineage).
      return BuildOneshot(
          {{H0Shape(6, 8, 17, 22), 4},
           {CaterpillarShape(5, 18, 22), 3},
           {SnowflakeShape(3, 20, 26), 3},
           {CycleShape(6, 19, 23), 4},
           {StarShape(), 1},
           {H0Shape(4, 5, 10, 16, Route::kEnumeration), 1},
           {UnionShape(), 1}},
          seed);
    case Workload::kOneshotPath:
      return BuildOneshot({{PathShape(3, 4, 0.5, 18, 26), 2},
                           {PathShape(4, 3, 0.6, 19, 24), 2},
                           {PathShape(5, 3, 0.55, 22, 28), 2},
                           {RpqShape("rpq_concat", "a/b/c", 4, 18, 22), 2},
                           {RpqShape("rpq_plus", "(a|b)+", 4, 18, 22), 2},
                           {RpqShape("rpq_star", "a/b*", 4, 18, 22), 2},
                           {RpqShape("rpq_inverse", "a/^b", 4, 18, 22), 2}},
                          seed);
    case Workload::kServedMix:
      return BuildServed({{H0Shape(5, 6, 12, 17), 4},
                          {PathShape(3, 3, 0.6, 12, 17), 6},
                          {RpqShape("rpq_concat", "a/b/c", 3, 12, 17), 4},
                          {CaterpillarShape(4, 14, 19), 4},
                          {PathShape(4, 3, 0.6, 16, 21), 5},
                          {RpqShape("rpq_plus", "(a|b)+", 3, 12, 17), 4},
                          {SnowflakeShape(2, 12, 17), 4},
                          {PathShape(5, 3, 0.5, 17, 22), 5},
                          {RpqShape("rpq_star", "a/b*", 3, 12, 17), 4},
                          {CycleShape(5, 15, 20), 4},
                          {RpqShape("rpq_inverse", "a/^b", 3, 12, 17), 4}},
                         seed);
  }
  return Status::InvalidArgument("unknown workload");
}

// ---------------------------------------------------------------------------

OneshotStream::OneshotStream(const Corpus& corpus, uint64_t seed)
    : rng_(Rng::DeriveSeed(seed, 0x0e5)), seed_(seed) {
  for (size_t i = 0; i < corpus.instances.size(); ++i) {
    const Route r = corpus.instances[i].route;
    const bool fpras =
        r == Route::kTree || r == Route::kPath || r == Route::kRpqString;
    (fpras ? fpras_ : other_).push_back(i);
    kernel_phase_.push_back(rng_.NextBounded(2));
  }
  visits_.assign(corpus.instances.size(), 0);
}

OneshotRequest OneshotStream::Next() {
  if (round_pos_ == round_.size()) {
    // A round: every FPRAS instance once in a seeded order, plus two of the
    // instances kAuto routes elsewhere (so about one request in eight).
    round_ = fpras_;
    for (size_t i = 0; i < 2 && !other_.empty(); ++i) {
      round_.push_back(other_[other_cursor_++ % other_.size()]);
    }
    for (size_t i = round_.size(); i > 1; --i) {
      std::swap(round_[i - 1], round_[rng_.NextBounded(i)]);
    }
    round_pos_ = 0;
  }
  OneshotRequest r;
  r.instance = round_[round_pos_++];
  r.request_id = next_id_++;
  r.seed = Rng::DeriveSeed(seed_, r.request_id);
  // Each instance alternates kernel modes from a seeded first mode, so every
  // run splits each instance's requests evenly between the two tiers.
  r.kernels = (visits_[r.instance]++ + kernel_phase_[r.instance]) % 2 == 0
                  ? KernelMode::kFast
                  : KernelMode::kExact;
  return r;
}

ServedStream::ServedStream(const Corpus& corpus, uint64_t seed)
    : corpus_(corpus),
      rng_(Rng::DeriveSeed(seed, 0x5e4)),
      issued_(corpus.instances.size()),
      reads_of_(corpus.instances.size(), 0) {
  phase_ = rng_.NextDouble();
  // Zipf popularity over fixed ranks (rank = pair index).
  double total = 0.0;
  for (size_t i = 0; i < corpus.instances.size(); ++i) {
    total += std::pow(static_cast<double>(i + 1), -kZipfExponent);
    cumulative_.push_back(total);
  }
  for (double& c : cumulative_) c /= total;
  const ProbabilisticDatabase& pdb = *corpus.shared_pdb;
  for (FactId f = 0; f < pdb.NumFacts(); ++f) {
    labels_.push_back(pdb.probability(f));
  }
}

size_t ServedStream::PickPair() {
  // A golden-ratio sequence from a seeded phase: Zipf-distributed picks
  // whose every prefix has close to the exact shares, so each run of any
  // length sees the same popularity mix.
  constexpr double kGolden = 0.6180339887498949;
  const double x = phase_ + kGolden * static_cast<double>(ops_);
  const double u = x - std::floor(x);
  const auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  return std::min<size_t>(it - cumulative_.begin(), cumulative_.size() - 1);
}

ServedOp ServedStream::Next() {
  ServedOp op;
  op.pair = PickPair();
  if (++ops_ % kWriteEvery == 0) {
    // A write of one or two facts of the pair's sub-database.
    op.kind = ServedOp::Kind::kWrite;
    const std::vector<FactId>& facts = corpus_.instances[op.pair].facts;
    const size_t n = 1 + rng_.NextBounded(2);
    const bool den_change = rng_.NextDouble() < kDenChangeShare;
    for (size_t i = 0; i < n; ++i) {
      const FactId f = facts[rng_.NextBounded(facts.size())];
      if (std::find(op.delta.facts.begin(), op.delta.facts.end(), f) !=
          op.delta.facts.end()) {
        continue;
      }
      Probability p = labels_[f];
      if (den_change) {
        p.den = p.den == 3 ? 4 : 3;
        p.num = 1 + rng_.NextBounded(p.den - 1);
      } else {
        // Another numerator in [1, den-1] (den ≥ 3, so one exists).
        const uint64_t shift = 1 + rng_.NextBounded(p.den - 2);
        p.num = 1 + (p.num - 1 + shift) % (p.den - 1);
      }
      labels_[f] = p;
      op.delta.facts.push_back(f);
      op.delta.new_probs.push_back(p);
    }
    return op;
  }
  op.kind = ServedOp::Kind::kRead;
  auto& issued = issued_[op.pair];
  if (reads_of_[op.pair]++ % kFreshEvery != 0) {
    // Re-issue one of the pair's four most recent (request_id, seed)s.
    const size_t window = std::min<size_t>(issued.size(), 4);
    const auto& [id, seed] =
        issued[issued.size() - 1 - rng_.NextBounded(window)];
    op.request_id = id;
    op.seed = seed;
  } else {
    op.request_id = next_id_++;
    op.seed = rng_.Next();
    issued.emplace_back(op.request_id, op.seed);
  }
  op.kernels =
      op.request_id % 2 == 0 ? KernelMode::kFast : KernelMode::kExact;
  op.checked = rng_.NextBounded(kCheckEvery) == 0;
  return op;
}

// ---------------------------------------------------------------------------

PqeEngine::Options EngineOptions(size_t num_threads) {
  PqeEngine::Options o;
  o.num_threads = num_threads;
  return o;
}

EvalResponse EvaluateCold(const PqeEngine& engine, const Instance& instance,
                          uint64_t request_id, uint64_t seed,
                          KernelMode kernels) {
  EvalResponse failed;
  failed.request_id = request_id;
  const ProbabilisticDatabase& pdb = *instance.pdb;
  auto finish = [&](EvalRequest req) {
    req.request_id = request_id;
    req.seed = seed;
    req.kernels = kernels;
    return engine.EvaluateRequest(req);
  };
  switch (instance.target) {
    case Target::kQuery: {
      auto q = ParseQuery(pdb.schema(), instance.text);
      if (!q.ok()) break;
      return finish(EvalRequest::ForQuery(*q, pdb));
    }
    case Target::kUnion: {
      auto q = ParseUnionQuery(pdb.schema(), instance.text);
      if (!q.ok()) break;
      return finish(EvalRequest::ForUnion(*q, pdb));
    }
    case Target::kRpq: {
      auto q = rpq::RpqQuery::Parse(instance.text);
      if (!q.ok()) break;
      return finish(EvalRequest::ForRpq(*q, pdb));
    }
  }
  failed.status = Status::InvalidArgument("perfbench: unparsable instance " +
                                          instance.name);
  return failed;
}

Result<double> ExactProbability(const Instance& instance,
                                const ProbabilisticDatabase& pdb) {
  switch (instance.target) {
    case Target::kQuery: {
      PQE_ASSIGN_OR_RETURN(ConjunctiveQuery q,
                           ParseQuery(pdb.schema(), instance.text));
      PQE_ASSIGN_OR_RETURN(DnfLineage lineage,
                           BuildLineage(q, pdb.database()));
      PQE_ASSIGN_OR_RETURN(CompiledWmcResult r,
                           ExactDnfProbabilityDecomposed(lineage, pdb));
      return r.probability.ToDouble();
    }
    case Target::kUnion: {
      PQE_ASSIGN_OR_RETURN(UnionQuery q,
                           ParseUnionQuery(pdb.schema(), instance.text));
      PQE_ASSIGN_OR_RETURN(BigRational p, ExactUnionProbability(q, pdb));
      return p.ToDouble();
    }
    case Target::kRpq: {
      PQE_ASSIGN_OR_RETURN(rpq::RpqQuery q,
                           rpq::RpqQuery::Parse(instance.text));
      PQE_ASSIGN_OR_RETURN(rpq::RpqProduct product,
                           rpq::BuildRpqProduct(q, pdb.database()));
      if (product.trivially_true) return 1.0;
      PQE_ASSIGN_OR_RETURN(DnfLineage lineage,
                           rpq::BuildRpqLineage(product, 1'000'000));
      PQE_ASSIGN_OR_RETURN(CompiledWmcResult r,
                           ExactDnfProbabilityDecomposed(lineage, pdb));
      return r.probability.ToDouble();
    }
  }
  return Status::Internal("unknown target");
}

bool WithinEps(double estimate, double exact, double epsilon) {
  return std::fabs(estimate - exact) <= epsilon * exact + 1e-12;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

}  // namespace perfbench
}  // namespace pqe
