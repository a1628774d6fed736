// E11 — Counting-core hot path (docs/performance.md): wall-time of the full
// PQE estimate pipeline in both kernel tiers — the exact tier (reusable
// WeightedPickers + interned run-state membership + CSR automata accessors)
// and the fast tier (kernel_mode=fast: batched alias-table kernels) — on
// the E4 data-scaling sweep and the E8 query-length sweep, single-threaded.
//
//   bench_counting_hotpath [--smoke] [--metrics_out=BENCH_counting_hotpath.json]
//
// Each sweep cell is recorded as gauges
// pqe.bench.counting_hotpath.<sweep>.<point>.{cached_ms,fast_ms,
// cached_msteps,fast_msteps}, plus memo hit/miss, runstates_steps (run-state
// sets the interned membership kernel computed), picker-build, alias-build
// and batch-draw counts from the exact (cached) and fast runs' stats.
// cached_ms and fast_ms are the best of five runs. The host is recorded
// too: a "host" object (threads, compiler, flags, tracing and the
// obs::CalibrationMops speed score) heads the metrics JSON, and every
// cell's wall times are also recorded normalized by that score as
// {cached,fast}_msteps — the millions of calibration steps the host runs in
// that time — which bench_compare gates as absolute latencies.
// Each tier draws one fixed stream, so every cell checks that its five runs
// per tier return identical log2_probability bits (the exact tier's answers
// are pinned against committed goldens in tests/counting_hotpath_test.cc);
// the largest oracle-feasible E4 cell (width 3 — the exact subset DP blows
// its entry budget beyond that) is additionally checked against the exact
// oracle within the configured ε band. --smoke shrinks the E4/E8 sweeps to
// their two smallest cells, and the path sweep to l3 and l4, for CI.
//
// The E4/E8 cells run the tree route (CountNFTA). The path sweep runs path
// CQs through the string route instead (PathPqeEstimate: §5.1 gadgets on
// the Section 3 NFA, counted by CountNFA) and records the same gauges, its
// runstates_steps counting the subset simulations the lazy DFA actually
// ran.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "core/path_pqe.h"
#include "core/pqe.h"
#include "cq/builders.h"
#include "obs/export.h"
#include "obs/host.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "workload/generators.h"

namespace pqe {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// The host's obs::CalibrationMops score, measured once before the sweeps.
double g_calibration_mops = 0.0;

// A wall time in millions of calibration steps on this host.
double Msteps(double ms) { return ms * g_calibration_mops / 1e3; }

struct CellResult {
  double cached_ms = 0.0;
  double fast_ms = 0.0;
  double log2_probability = 0.0;       // exact tier
  double fast_log2_probability = 0.0;  // fast tier (statistical only)
};

void RecordCell(const std::string& cell, const CellResult& r,
                const CountStats& cached_stats,
                const CountStats& fast_stats) {
  const std::string prefix = "pqe.bench.counting_hotpath." + cell;
  auto& reg = obs::MetricRegistry::Global();
  reg.GetGauge(prefix + ".cached_ms").Set(r.cached_ms);
  reg.GetGauge(prefix + ".fast_ms").Set(r.fast_ms);
  reg.GetGauge(prefix + ".picker_builds")
      .Set(static_cast<double>(cached_stats.picker_builds));
  reg.GetGauge(prefix + ".alias_builds")
      .Set(static_cast<double>(fast_stats.alias_builds));
  reg.GetGauge(prefix + ".batch_draws")
      .Set(static_cast<double>(fast_stats.batch_draws));
  reg.GetGauge(prefix + ".memo_hits")
      .Set(static_cast<double>(cached_stats.runstates_memo_hits));
  reg.GetGauge(prefix + ".memo_misses")
      .Set(static_cast<double>(cached_stats.runstates_memo_misses));
  reg.GetGauge(prefix + ".runstates_steps")
      .Set(static_cast<double>(cached_stats.runstates_steps));
  reg.GetGauge(prefix + ".cached_msteps").Set(Msteps(r.cached_ms));
  reg.GetGauge(prefix + ".fast_msteps").Set(Msteps(r.fast_ms));
}

// Best-of-five wall time of estimate(cfg) (a cell can be a few
// milliseconds, and host noise only ever adds time). Every run draws the
// same stream, so all five must return the same log2_probability bits —
// any drift is a bug, not noise; *result holds the last run.
template <typename Estimate, typename Result>
double BestOf5(const Estimate& estimate, const EstimatorConfig& cfg,
               Result* result) {
  double best = std::numeric_limits<double>::infinity();
  for (int run = 0; run < 5; ++run) {
    const auto start = std::chrono::steady_clock::now();
    Result r = estimate(cfg);
    best = std::min(best, MillisSince(start));
    if (run > 0) {
      PQE_CHECK(std::memcmp(&r.log2_probability, &result->log2_probability,
                            sizeof(double)) == 0);
    }
    *result = std::move(r);
  }
  return best;
}

void PrintHeader() {
  std::printf("  %-10s %-12s %-12s %s\n", "cell", "cached_ms", "fast_ms",
              "log2(P)");
}

// Times `estimate(cfg)` — a PqeEstimate or PathPqeEstimate call returning a
// result with log2_probability and stats — in the exact tier, then in the
// batched fast kernels, best of five each, and records the cell.
template <typename Estimate>
CellResult MeasureCell(const std::string& cell, const Estimate& estimate,
                       const EstimatorConfig& base_cfg) {
  using Result = decltype(estimate(base_cfg));
  CellResult out;
  EstimatorConfig cfg = base_cfg;
  cfg.num_threads = 1;

  Result cached;
  out.cached_ms = BestOf5(estimate, cfg, &cached);
  out.log2_probability = cached.log2_probability;

  // Fast tier: different draw stream (alias tables over block RNG words), so
  // only statistical agreement is expected; the oracle cell gates accuracy.
  cfg.kernel_mode = KernelMode::kFast;
  Result fast;
  out.fast_ms = BestOf5(estimate, cfg, &fast);
  out.fast_log2_probability = fast.log2_probability;
  PQE_CHECK(std::isfinite(fast.log2_probability) ||
            fast.log2_probability == -std::numeric_limits<double>::infinity());

  RecordCell(cell, out, cached.stats, fast.stats);
  std::printf("  %-10s %-12.1f %-12.1f %-12.4f "
              "hits=%zu misses=%zu steps=%zu batches=%zu\n",
              cell.c_str(), out.cached_ms, out.fast_ms, out.log2_probability,
              cached.stats.runstates_memo_hits,
              cached.stats.runstates_memo_misses,
              cached.stats.runstates_steps, fast.stats.batch_draws);
  return out;
}

// A tree-route (CountNFTA) cell.
CellResult MeasureTreeCell(const std::string& cell,
                           const ConjunctiveQuery& query,
                           const ProbabilisticDatabase& pdb,
                           const EstimatorConfig& cfg) {
  return MeasureCell(
      cell,
      [&](const EstimatorConfig& c) {
        return PqeEstimate(query, pdb, c).MoveValue();
      },
      cfg);
}

// E4-style sweep: fixed path query (length 4), database width 2..max_width.
// smoke_pool > 0 shrinks the per-stratum pools so CI completes in seconds.
void SweepDataScaling(uint32_t max_width, size_t smoke_pool) {
  std::printf(
      "E4 sweep — path query length 4, layered width 2..%u, density 0.6\n",
      max_width);
  PrintHeader();
  auto qi = MakePathQuery(4).MoveValue();
  EstimatorConfig cfg;
  cfg.epsilon = 0.25;
  cfg.seed = 11;
  cfg.pool_size = smoke_pool > 0 ? smoke_pool : 96;
  // Median-of-3: the FPRAS's own δ mechanism. One repetition leaves the
  // oracle cell's ε gate at the mercy of a single draw stream (the fast
  // kernel's per-run variance breaches ε on ~1/3 of seeds); the median
  // concentrates both kernels inside the band.
  cfg.repetitions = 3;
  for (uint32_t width = 2; width <= max_width; ++width) {
    LayeredGraphOptions opt;
    opt.width = width;
    opt.density = 0.6;
    opt.seed = width;
    auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
    ProbabilityModel pm;
    pm.max_denominator = 8;
    pm.seed = width + 2;
    ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);
    const CellResult r = MeasureTreeCell("e4.w" + std::to_string(width),
                                         qi.query, pdb, cfg);
    // Accuracy gate on the largest oracle-feasible cell: the (deterministic,
    // fixed-seed) estimate must sit inside the configured ε band around the
    // exact oracle. The oracle's subset DP is worst-case exponential and
    // capped at 2M table entries; on this sweep width 3 is the largest cell
    // that fits (width 4 burns minutes of BigUint arithmetic before
    // exhausting the budget), so the gate is pinned there.
    constexpr uint32_t kOracleWidth = 3;
    if (width == kOracleWidth) {
      auto exact = PqeExactViaAutomaton(qi.query, pdb).MoveValue();
      const double exact_p = exact.ToDouble();
      const double est_p = std::exp2(r.log2_probability);
      const double rel_err = std::abs(est_p / exact_p - 1.0);
      obs::MetricRegistry::Global()
          .GetGauge("pqe.bench.counting_hotpath.e4.rel_err")
          .Set(rel_err);
      std::printf("  e4.w%u accuracy: estimate %.6g vs exact %.6g "
                  "(rel err %.4f, epsilon %.2f)\n",
                  width, est_p, exact_p, rel_err, cfg.epsilon);
      PQE_CHECK(rel_err <= cfg.epsilon);
      // The fast tier draws a different stream but must meet the same
      // accuracy guarantee against the exact oracle.
      const double fast_p = std::exp2(r.fast_log2_probability);
      const double fast_rel_err = std::abs(fast_p / exact_p - 1.0);
      obs::MetricRegistry::Global()
          .GetGauge("pqe.bench.counting_hotpath.e4.fast_rel_err")
          .Set(fast_rel_err);
      std::printf("  e4.w%u accuracy (fast): estimate %.6g vs exact %.6g "
                  "(rel err %.4f, epsilon %.2f)\n",
                  width, fast_p, exact_p, fast_rel_err, cfg.epsilon);
      PQE_CHECK(fast_rel_err <= cfg.epsilon);
    }
  }
  std::printf("\n");
}

// E8-style sweep: path query length 2..max_len on a fixed dense database.
void SweepQueryScaling(uint32_t max_len, size_t smoke_pool) {
  std::printf(
      "E8 sweep — path query length 2..%u, layered width 4, density 1.0, "
      "median-of-3\n",
      max_len);
  PrintHeader();
  EstimatorConfig cfg;
  cfg.epsilon = 0.25;
  cfg.seed = 17;
  cfg.pool_size = smoke_pool > 0 ? smoke_pool : 160;
  cfg.repetitions = smoke_pool > 0 ? 1 : 3;
  for (uint32_t i = 2; i <= max_len; ++i) {
    auto qi = MakePathQuery(i).MoveValue();
    LayeredGraphOptions opt;
    opt.width = 4;
    opt.density = 1.0;
    opt.seed = 2;
    auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
    ProbabilityModel pm;
    pm.max_denominator = 8;
    pm.seed = i;
    ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);
    MeasureTreeCell("e8.i" + std::to_string(i), qi.query, pdb, cfg);
  }
  std::printf("\n");
}

// Path-route sweep: path query length 3..max_len on a fixed layered
// database, estimated on the string route (CountNFA).
void SweepPathRoute(uint32_t max_len) {
  std::printf(
      "Path sweep — string route (CountNFA), path query length 3..%u, "
      "layered width 3, density 0.7, median-of-3\n",
      max_len);
  PrintHeader();
  EstimatorConfig cfg;
  cfg.epsilon = 0.25;
  cfg.seed = 23;
  cfg.pool_size = 64;
  cfg.repetitions = 3;
  for (uint32_t len = 3; len <= max_len; ++len) {
    auto qi = MakePathQuery(len).MoveValue();
    LayeredGraphOptions opt;
    opt.width = 3;
    opt.density = 0.7;
    opt.seed = len;
    auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
    ProbabilityModel pm;
    pm.max_denominator = 8;
    pm.seed = len + 5;
    ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);
    const CellResult r = MeasureCell(
        "path.l" + std::to_string(len),
        [&](const EstimatorConfig& c) {
          return PathPqeEstimate(qi.query, pdb, c).MoveValue();
        },
        cfg);
    PQE_CHECK(std::isfinite(r.fast_log2_probability));
  }
  std::printf("\n");
}

// The "host" object that heads the metrics JSON: what built and ran the
// sweeps, and the speed score the *_msteps gauges are normalized by.
std::string HostJson() {
  obs::JsonWriter w;
  w.BeginObject()
      .Key("threads")
      .Uint(1)
      .Key("hardware_threads")
      .Uint(std::thread::hardware_concurrency())
      .Key("compiler")
      .String(PQE_BENCH_COMPILER)
      .Key("build_flags")
      .String(PQE_BENCH_FLAGS)
      .Key("pqe_enable_tracing")
      .Bool(PQE_ENABLE_TRACING != 0)
      .Key("calibration_mops")
      .Double(g_calibration_mops)
      .EndObject();
  return w.Take();
}

Status WriteMetricsWithHost(const std::string& path) {
  // MetricsToJson renders {"metrics": ...}; the host object goes first.
  const std::string metrics =
      obs::MetricsToJson(obs::MetricRegistry::Global().Snapshot());
  const std::string doc = "{\"host\": " + HostJson() + ", " + metrics.substr(1);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::InvalidArgument("cannot open " + path);
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
                  std::fputc('\n', f) != EOF;
  if (std::fclose(f) != 0 || !ok) {
    return Status::Internal("short write to " + path);
  }
  return Status::OK();
}

}  // namespace
}  // namespace pqe

int main(int argc, char** argv) {
  setvbuf(stdout, nullptr, _IONBF, 0);
  using namespace pqe;
  const std::string metrics_out = obs::ConsumeMetricsOutFlag(&argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  std::printf(
      "E11 — counting-core hot path: exact and fast tiers (single thread)\n"
      "=================================================================\n\n"
      "%s",
      smoke ? "smoke mode: two smallest cells per sweep\n\n" : "\n");
  g_calibration_mops = obs::CalibrationMops();
  obs::MetricRegistry::Global()
      .GetGauge("pqe.bench.counting_hotpath.calibration_mops")
      .Set(g_calibration_mops);
  std::printf("host calibration: %.1f Msteps/s\n\n", g_calibration_mops);
  // Smoke keeps the full run's per-stratum pool (96) for the E4 sweep: the
  // width-3 oracle cell gates accuracy against the exact answer, and below
  // ~64 pool entries the estimator does not concentrate inside the ε band
  // for most seeds — the check would gate on seed luck, not correctness.
  // Smoke's cost saving comes from capping the width at 3.
  SweepDataScaling(smoke ? 3 : 7, smoke ? 96 : 0);
  SweepQueryScaling(smoke ? 3 : 7, smoke ? 24 : 0);
  SweepPathRoute(smoke ? 4 : 6);
  std::printf("determinism: every cell's five runs per tier returned "
              "identical log2(P) bits\n");
  if (!metrics_out.empty()) {
    Status status = WriteMetricsWithHost(metrics_out);
    if (!status.ok()) {
      std::fprintf(stderr, "--metrics_out: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  return 0;
}
