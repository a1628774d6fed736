// The repository benchmark: seeded workload generation, the traced layer
// split, and the statistics helpers shared by the driver (main.cc) and the
// benchmark's own tests. See perfbench/README.md for the workloads, the
// metric names and how to run it.
#ifndef PQE_PERFBENCH_PERFBENCH_H_
#define PQE_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "counting/config.h"
#include "pdb/probabilistic_database.h"
#include "serve/prepared_query.h"
#include "util/result.h"
#include "util/rng.h"

namespace pqe {
namespace perfbench {

enum class Workload { kOneshotCq, kOneshotPath, kServedMix };

Result<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

// ---------------------------------------------------------------------------
// Corpus and request streams
// ---------------------------------------------------------------------------

/// What a request evaluates. Every request carries its query as text, so
/// each one pays the front-end parse like a client request would.
enum class Target { kQuery, kUnion, kRpq };

/// The route PqeEngine's kAuto cascade is expected to take for an instance;
/// the corpus builder checks it, and the traced split replays it.
enum class Route { kTree, kPath, kRpqString, kSafePlan, kEnumeration, kLineage };
const char* RouteName(Route route);

/// One (query, database) pair of a corpus.
struct Instance {
  std::string name;  // shape and corpus slot, e.g. "cycle4#2"
  Target target = Target::kQuery;
  Route route = Route::kTree;
  std::string text;  // ParseQuery / ParseUnionQuery / RpqQuery::Parse input
  std::shared_ptr<ProbabilisticDatabase> pdb;
  /// The facts of `pdb` the query reads (served corpus: its sub-database
  /// inside the shared database; one-shot corpora: every fact).
  std::vector<FactId> facts;
};

/// The plain databases of a corpus are fixed (generator seeds are part of
/// the corpus definition), so every run measures the same shapes and sizes;
/// the run seed draws the probability labels, the request order, the
/// request seeds and, for served_mix, the reads and writes.
struct Corpus {
  std::vector<Instance> instances;
  /// served_mix: the one database every pair reads (each pair's relations
  /// are disjoint from the others'). Empty for the one-shot corpora.
  std::shared_ptr<ProbabilisticDatabase> shared_pdb;
};

Result<Corpus> BuildCorpus(Workload workload, uint64_t seed);

/// One cold request of a one-shot workload.
struct OneshotRequest {
  size_t instance = 0;
  uint64_t request_id = 0;
  uint64_t seed = 0;
  KernelMode kernels = KernelMode::kExact;
};

/// The endless request stream of oneshot_cq / oneshot_path: rounds that
/// visit every FPRAS-route instance once in a seeded order, plus (oneshot_cq)
/// two requests that kAuto routes elsewhere, rotating over those instances.
/// Each instance alternates between kernels=fast and kernels=exact.
class OneshotStream {
 public:
  OneshotStream(const Corpus& corpus, uint64_t seed);
  OneshotRequest Next();

 private:
  std::vector<size_t> fpras_;
  std::vector<size_t> other_;
  Rng rng_;
  uint64_t seed_;
  uint64_t next_id_ = 0;
  size_t other_cursor_ = 0;
  std::vector<size_t> round_;
  size_t round_pos_ = 0;
  std::vector<uint64_t> visits_;        // requests issued per instance
  std::vector<uint64_t> kernel_phase_;  // seeded first kernel mode
};

/// One operation of the served_mix stream.
struct ServedOp {
  enum class Kind { kRead, kWrite };
  Kind kind = Kind::kRead;
  size_t pair = 0;
  uint64_t request_id = 0;  // reads
  uint64_t seed = 0;        // reads
  KernelMode kernels = KernelMode::kExact;
  bool checked = false;      // reads: in the seeded correctness sample
  serve::LabelDelta delta;   // writes
};

/// The served_mix stream: skewed (Zipf, fixed ranks) pair popularity,
/// most reads repeating an earlier (request_id, seed) of their pair, and
/// label writes between reads. The mix is stratified (every kWriteEvery-th
/// op writes, every kFreshEvery-th read of a pair takes a fresh seed, pairs
/// follow a low-discrepancy sequence) so that runs with different seeds
/// differ in labels, seeds and order but not in composition. It mirrors the
/// labels it has written, so deltas stay valid whatever prefix of the
/// stream a run consumes.
class ServedStream {
 public:
  ServedStream(const Corpus& corpus, uint64_t seed);
  ServedOp Next();

  static constexpr double kZipfExponent = 1.2;
  static constexpr uint64_t kWriteEvery = 20;  // 5% of ops are writes
  static constexpr uint64_t kFreshEvery = 10;  // 90% of reads repeat
  static constexpr double kDenChangeShare = 0.1;
  static constexpr uint64_t kCheckEvery = 20;  // ~1 read in 20 is checked

 private:
  size_t PickPair();

  const Corpus& corpus_;
  Rng rng_;
  std::vector<double> cumulative_;  // popularity CDF over pairs
  std::vector<Probability> labels_;  // mirror of the shared database
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> issued_;
  std::vector<uint64_t> reads_of_;  // reads issued per pair
  double phase_ = 0.0;              // seeded offset of the pair sequence
  uint64_t ops_ = 0;
  uint64_t next_id_ = 1;
};

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

/// The one-shot engine configuration every workload uses: library defaults
/// (ε = 0.2, R = 3, auto pools) with `num_threads` sampling threads.
PqeEngine::Options EngineOptions(size_t num_threads);

/// Parses the instance's text and issues one EvaluateRequest: the untraced
/// request a client of the one-shot engine makes.
EvalResponse EvaluateCold(const PqeEngine& engine, const Instance& instance,
                          uint64_t request_id, uint64_t seed,
                          KernelMode kernels);

/// Exact Pr(instance), from the decomposed model count over the exact DNF
/// lineage — an oracle independent of the automaton constructions.
Result<double> ExactProbability(const Instance& instance,
                                const ProbabilisticDatabase& pdb);

/// |estimate − exact| ≤ ε·exact (exact answers compare equal).
bool WithinEps(double estimate, double exact, double epsilon);

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around each layer call
// ---------------------------------------------------------------------------

struct SpanRecord {
  uint64_t request_id = 0;
  int32_t parent = -1;  // index into SpanLog::spans, -1 for a request root
  std::string name;
  uint64_t start_ns = 0;  // since the log's epoch
  uint64_t end_ns = 0;
};

/// In-memory span store plus per-layer counters. Spans are kept until the
/// run ends; per-layer timings and coverage are derived from them.
class SpanLog {
 public:
  SpanLog();
  /// Opens a span; returns its index. The newest open span is the parent.
  size_t Open(const std::string& name, uint64_t request_id);
  void Close(size_t index);
  void Count(const std::string& name, double value) { counters_[name] += value; }
  void Sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }

  const std::map<std::string, double>& counters() const { return counters_; }
  const std::map<std::string, std::vector<double>>& samples() const {
    return samples_;
  }
  /// Durations (ms) of every span with this name.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Σ child-span time / Σ root-span time over all requests.
  double CoverageFrac() const;
  std::string ToJsonl() const;

 private:
  uint64_t Now() const;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<size_t> open_;
  std::map<std::string, double> counters_;
  std::map<std::string, std::vector<double>> samples_;
};

/// RAII span over one layer call.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, uint64_t request_id)
      : log_(log), index_(log->Open(name, request_id)) {}
  ~ScopedSpan() { log_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  size_t index_;
};

/// Re-runs one request as its individual layer calls (parse → decompose →
/// skeleton → bind → count, or the route's equivalent), with the estimator
/// configuration PqeEngine::MakeEstimatorConfig derives from `options`
/// (whose seed and kernel_mode are the request's). Records a span per
/// layer call and the layer counters into `log`. Returns the probability,
/// which must equal the EvaluateRequest answer bit for bit.
Result<double> SplitEvaluate(const Instance& instance,
                             const PqeEngine::Options& options,
                             uint64_t request_id, SpanLog* log);

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// The q-quantile (0 < q < 1) of `values` by the nearest-rank rule, or
/// nullopt unless at least `min_beyond` samples lie strictly above the
/// returned rank (the "≥10 samples beyond it" rule for tail percentiles).
std::optional<double> Percentile(std::vector<double> values, double q,
                                 size_t min_beyond = 10);

double Median(std::vector<double> values);

/// Milliseconds since `start`.
inline double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The probability's bit pattern, for memcmp-style identity checks.
uint64_t Bits(double value);

}  // namespace perfbench
}  // namespace pqe

#endif  // PQE_PERFBENCH_PERFBENCH_H_
