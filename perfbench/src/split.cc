// The traced run's layer split: each request re-run as its individual layer
// calls with a benchmark-side span around each, plus the span store and the
// statistics helpers.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/path_pqe.h"
#include "core/pqe.h"
#include "core/projection.h"
#include "counting/count_nfa.h"
#include "counting/count_nfta.h"
#include "cq/parser.h"
#include "cq/ucq.h"
#include "eval/eval.h"
#include "eval/ucq_eval.h"
#include "hypertree/decomposition.h"
#include "lineage/compiled_wmc.h"
#include "lineage/karp_luby.h"
#include "perfbench.h"
#include "rpq/eval.h"
#include "rpq/product.h"
#include "rpq/regex.h"
#include "safeplan/safe_plan.h"

namespace pqe {
namespace perfbench {

SpanLog::SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

uint64_t SpanLog::Now() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

size_t SpanLog::Open(const std::string& name, uint64_t request_id) {
  SpanRecord s;
  s.request_id = request_id;
  s.parent = open_.empty() ? -1 : static_cast<int32_t>(open_.back());
  s.name = name;
  s.start_ns = Now();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::Close(size_t index) {
  spans_[index].end_ns = Now();
  open_.erase(std::find(open_.begin(), open_.end(), index));
}

std::vector<double> SpanLog::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) out.push_back((s.end_ns - s.start_ns) * 1e-6);
  }
  return out;
}

double SpanLog::CoverageFrac() const {
  double roots = 0.0;
  double children = 0.0;
  for (const SpanRecord& s : spans_) {
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    if (s.parent < 0) {
      roots += d;
    } else if (spans_[s.parent].parent < 0) {
      children += d;
    }
  }
  return roots > 0.0 ? children / roots : 0.0;
}

std::string SpanLog::ToJsonl() const {
  std::string out;
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%zu,\"parent\":%d,\"request_id\":%llu,"
                  "\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu}\n",
                  i, s.parent, static_cast<unsigned long long>(s.request_id),
                  s.name.c_str(), static_cast<unsigned long long>(s.start_ns),
                  static_cast<unsigned long long>(s.end_ns));
    out += buf;
  }
  return out;
}

namespace {

// The arithmetic PqeEstimate / EstimatePathSkeleton apply to a count:
// Pr = min(2^(log2 count − log2 d), 1).
double CountToProbability(const ExtFloat& count, const BigUint& denominator) {
  const double log2_d = ExtFloat::FromBigUint(denominator).Log2();
  return std::min(std::exp2(count.Log2() - log2_d), 1.0);
}

void RecordCountStats(const CountStats& stats, SpanLog* log) {
  log->Count("counting.pool_entries", static_cast<double>(stats.pool_entries));
  log->Count("counting.attempts", static_cast<double>(stats.attempts));
  log->Count("counting.accepted", static_cast<double>(stats.accepted));
  log->Count("counting.forced_samples",
             static_cast<double>(stats.forced_samples));
  log->Count("counting.memo_hits",
             static_cast<double>(stats.runstates_memo_hits));
  log->Count("counting.memo_lookups",
             static_cast<double>(stats.runstates_memo_hits +
                                 stats.runstates_memo_misses));
  log->Count("counting.strata_live", static_cast<double>(stats.strata_live));
  log->Count("counting.strata_total", static_cast<double>(stats.strata_total));
}

void RecordSizes(size_t states, size_t transitions, size_t tree_size,
                 SpanLog* log) {
  log->Sample("automata.states", static_cast<double>(states));
  log->Sample("automata.transitions", static_cast<double>(transitions));
  log->Sample("automata.tree_size", static_cast<double>(tree_size));
}

// Bind + count tail of the string routes (path CQs, lowered and product
// RPQs), mirroring EstimatePathSkeleton.
Result<double> PathTail(const PathPqeSkeleton& skeleton,
                        const ProbabilisticDatabase& pdb,
                        const EstimatorConfig& config, uint64_t id,
                        SpanLog* log) {
  std::optional<BoundPathNfa> bound;
  {
    ScopedSpan span(log, "core.path_bind", id);
    PQE_ASSIGN_OR_RETURN(
        std::vector<Probability> probs,
        ProjectedFactProbabilities(skeleton.original_fact, pdb));
    PQE_ASSIGN_OR_RETURN(BoundPathNfa b, BindPathPqeNfa(skeleton, probs));
    bound.emplace(std::move(b));
  }
  RecordSizes(bound->nfa.NumStates(), bound->nfa.NumTransitions(),
              bound->word_length, log);
  const std::string name = std::string("counting.nfa.") +
                           KernelModeToString(config.kernel_mode);
  std::optional<CountEstimate> count;
  {
    ScopedSpan span(log, name, id);
    PQE_ASSIGN_OR_RETURN(
        CountEstimate c,
        CountNfaStrings(bound->nfa, bound->word_length, config));
    count.emplace(std::move(c));
  }
  RecordCountStats(count->stats, log);
  return CountToProbability(count->value, bound->denominator);
}

Result<double> SplitQuery(const ConjunctiveQuery& q, const Instance& inst,
                          const PqeEngine::Options& options, uint64_t id,
                          SpanLog* log) {
  const ProbabilisticDatabase& pdb = *inst.pdb;
  const EstimatorConfig config =
      PqeEngine::MakeEstimatorConfig(options, /*cancel=*/nullptr);
  switch (inst.route) {
    case Route::kSafePlan: {
      ScopedSpan span(log, "safeplan", id);
      return SafePlanProbability(q, pdb);
    }
    case Route::kEnumeration: {
      ScopedSpan span(log, "eval.enumerate", id);
      PQE_ASSIGN_OR_RETURN(
          BigRational p,
          ExactProbabilityByEnumeration(pdb, q,
                                        options.enumeration_threshold + 8));
      return p.ToDouble();
    }
    case Route::kPath: {
      std::optional<PathPqeSkeleton> skeleton;
      {
        ScopedSpan span(log, "core.path_skeleton", id);
        PQE_ASSIGN_OR_RETURN(PathPqeSkeleton s,
                             BuildPathPqeSkeleton(q, pdb.database()));
        skeleton.emplace(std::move(s));
      }
      return PathTail(*skeleton, pdb, config, id, log);
    }
    case Route::kTree: {
      // The decomposition is timed on its own; BuildPqeSkeleton recomputes
      // it inside, so core.skeleton includes a second decomposition.
      {
        ScopedSpan span(log, "hypertree.decompose", id);
        PQE_ASSIGN_OR_RETURN(HypertreeDecomposition hd,
                             Decompose(q, options.max_width));
        log->Sample("hypertree.width", static_cast<double>(hd.Width()));
      }
      UrConstructionOptions ur;
      ur.max_width = options.max_width;
      std::optional<PqeSkeleton> skeleton;
      {
        ScopedSpan span(log, "core.skeleton", id);
        PQE_ASSIGN_OR_RETURN(PqeSkeleton s,
                             BuildPqeSkeleton(q, pdb.database(), ur));
        skeleton.emplace(std::move(s));
      }
      std::optional<BoundPqeAutomaton> bound;
      {
        ScopedSpan span(log, "core.bind", id);
        PQE_ASSIGN_OR_RETURN(
            std::vector<Probability> probs,
            ProjectedFactProbabilities(skeleton->original_fact, pdb));
        PQE_ASSIGN_OR_RETURN(BoundPqeAutomaton b,
                             BindPqeAutomaton(*skeleton, probs));
        bound.emplace(std::move(b));
      }
      RecordSizes(bound->weighted.NumStates(), bound->weighted.NumTransitions(),
                  bound->tree_size, log);
      const std::string name = std::string("counting.nfta.") +
                               KernelModeToString(config.kernel_mode);
      std::optional<CountEstimate> count;
      {
        ScopedSpan span(log, name, id);
        PQE_ASSIGN_OR_RETURN(
            CountEstimate c,
            CountNftaTrees(bound->weighted, bound->tree_size, config));
        count.emplace(std::move(c));
      }
      RecordCountStats(count->stats, log);
      return CountToProbability(count->value, bound->denominator);
    }
    default:
      break;
  }
  return Status::NotSupported(std::string("perfbench: no split for route ") +
                              RouteName(inst.route));
}

// PqeEngine's union cascade: enumeration, exact union lineage, Karp–Luby.
Result<double> SplitUnion(const UnionQuery& q, const Instance& inst,
                          const PqeEngine::Options& options, uint64_t id,
                          SpanLog* log) {
  const ProbabilisticDatabase& pdb = *inst.pdb;
  if (pdb.NumFacts() <= options.enumeration_threshold) {
    ScopedSpan span(log, "eval.enumerate", id);
    PQE_ASSIGN_OR_RETURN(
        BigRational p,
        ExactUnionProbabilityByEnumeration(pdb, q,
                                           options.enumeration_threshold + 8));
    return p.ToDouble();
  }
  constexpr size_t kExactClauseBudget = 20'000;  // the engine's
  std::optional<Result<DnfLineage>> lineage;
  {
    ScopedSpan span(log, "lineage.build", id);
    lineage.emplace(BuildUnionLineage(q, pdb.database(), kExactClauseBudget));
  }
  if (lineage->ok()) {
    log->Count("lineage.clauses", static_cast<double>((*lineage)->NumClauses()));
    ScopedSpan span(log, "lineage.exact", id);
    auto exact = ExactDnfProbabilityDecomposed(**lineage, pdb);
    if (exact.ok()) return exact->probability.ToDouble();
  }
  KarpLubyConfig cfg;
  cfg.epsilon = options.epsilon;
  cfg.seed = options.seed;
  cfg.num_threads = options.num_threads;
  cfg.kernel_mode = options.kernel_mode;
  ScopedSpan span(log, "lineage.karp_luby", id);
  PQE_ASSIGN_OR_RETURN(KarpLubyResult r, KarpLubyUnionPqe(q, pdb, cfg));
  return r.probability;
}

Result<double> SplitRpq(const rpq::RpqQuery& q, const Instance& inst,
                        const PqeEngine::Options& options, uint64_t id,
                        SpanLog* log) {
  if (inst.route != Route::kRpqString) {
    return Status::NotSupported(std::string("perfbench: no split for route ") +
                                RouteName(inst.route));
  }
  const ProbabilisticDatabase& pdb = *inst.pdb;
  const EstimatorConfig config =
      PqeEngine::MakeEstimatorConfig(options, /*cancel=*/nullptr);
  // CompileRpqSkeleton's two branches, split: a concatenation lowers onto
  // the path route; anything else goes through the product construction.
  std::optional<PathPqeSkeleton> skeleton;
  if (std::optional<ConjunctiveQuery> lowered =
          rpq::LowerToPathQuery(q, pdb.schema())) {
    ScopedSpan span(log, "core.path_skeleton", id);
    PQE_ASSIGN_OR_RETURN(PathPqeSkeleton s,
                         BuildPathPqeSkeleton(*lowered, pdb.database()));
    skeleton.emplace(std::move(s));
  } else {
    std::optional<rpq::RpqProduct> product;
    {
      ScopedSpan span(log, "rpq.product", id);
      PQE_ASSIGN_OR_RETURN(rpq::RpqProduct p,
                           rpq::BuildRpqProduct(q, pdb.database()));
      product.emplace(std::move(p));
    }
    ScopedSpan span(log, "rpq.skeleton", id);
    PQE_ASSIGN_OR_RETURN(PathPqeSkeleton s,
                         rpq::BuildRpqSkeletonFromProduct(*product));
    skeleton.emplace(std::move(s));
  }
  return PathTail(*skeleton, pdb, config, id, log);
}

}  // namespace

Result<double> SplitEvaluate(const Instance& instance,
                             const PqeEngine::Options& options,
                             uint64_t request_id, SpanLog* log) {
  const Schema& schema = instance.pdb->schema();
  switch (instance.target) {
    case Target::kQuery: {
      std::optional<ConjunctiveQuery> q;
      {
        ScopedSpan span(log, "cq.parse", request_id);
        PQE_ASSIGN_OR_RETURN(ConjunctiveQuery parsed,
                             ParseQuery(schema, instance.text));
        q.emplace(std::move(parsed));
      }
      return SplitQuery(*q, instance, options, request_id, log);
    }
    case Target::kUnion: {
      std::optional<UnionQuery> q;
      {
        ScopedSpan span(log, "cq.parse", request_id);
        PQE_ASSIGN_OR_RETURN(UnionQuery parsed,
                             ParseUnionQuery(schema, instance.text));
        q.emplace(std::move(parsed));
      }
      return SplitUnion(*q, instance, options, request_id, log);
    }
    case Target::kRpq: {
      std::optional<rpq::RpqQuery> q;
      {
        ScopedSpan span(log, "rpq.parse", request_id);
        PQE_ASSIGN_OR_RETURN(rpq::RpqQuery parsed,
                             rpq::RpqQuery::Parse(instance.text));
        q.emplace(std::move(parsed));
      }
      return SplitRpq(*q, instance, options, request_id, log);
    }
  }
  return Status::Internal("unknown target");
}

std::optional<double> Percentile(std::vector<double> values, double q,
                                 size_t min_beyond) {
  if (values.empty() || !(q > 0.0 && q < 1.0)) return std::nullopt;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q·n values at or below.
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
}  // namespace pqe
