// pqe_perfbench: the repository benchmark driver.
//
//   pqe_perfbench --workload oneshot_cq|oneshot_path|served_mix --seed N
//                 --seconds S --trace 0|1
//
// Generates the workload's inputs from the seed, sets up three times
// (setup_s is the median), runs a closed loop for S seconds, checks every
// answer, and prints one JSON object as the last line of stdout:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 replays the same stream split into layer
// calls, reports the per-layer metrics and writes its spans as JSONL next to
// the binary (spans-<workload>.jsonl; see perfbench/README.md).

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cq/parser.h"
#include "cq/ucq.h"
#include "obs/metrics.h"
#include "perfbench.h"
#include "rpq/regex.h"
#include "serve/service.h"
#include "serve/telemetry.h"

#ifndef PQE_BENCH_COMPILER
#define PQE_BENCH_COMPILER "unknown"
#endif
#ifndef PQE_BENCH_FLAGS
#define PQE_BENCH_FLAGS "unknown"
#endif

namespace pqe {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kEpsilon = 0.2;  // engine default, used by every request
constexpr int kSetups = 3;

struct Args {
  Workload workload = Workload::kOneshotCq;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  // where a traced run writes its spans
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Fail(const std::string& why) {
    if (correct) std::printf("check failed: %s\n", why.c_str());
    correct = false;
  }
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "pqe_perfbench: %s\nusage: pqe_perfbench --workload "
               "oneshot_cq|oneshot_path|served_mix --seed N --seconds S "
               "--trace 0|1\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      auto w = ParseWorkload(value);
      if (!w.ok()) Usage(w.status().ToString());
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) Usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      a.trace = value == "1";
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  a.spans_path = (std::filesystem::path(argv[0]).parent_path() /
                  (std::string("spans-") + WorkloadName(a.workload) + ".jsonl"))
                     .string();
  return a;
}

size_t NumThreads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

// A fixed integer + floating-point kernel whose speed is recorded with every
// result, so figures from different hosts can be told apart (median of 3
// timings of 2^24 dependent steps, in million steps per second).
double CalibrationMops() {
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    double acc = 0.0;
    constexpr uint64_t kSteps = uint64_t{1} << 24;
    for (uint64_t i = 0; i < kSteps; ++i) {
      x ^= x >> 12;
      x ^= x << 25;
      x ^= x >> 27;
      acc = acc * 0.999999 + static_cast<double>(x * 0x2545f4914f6cdd1dULL >> 40);
    }
    const double ms = MsSince(start);
    if (acc == 42.0) std::printf("%f\n", acc);  // keep the loop observable
    rates.push_back(static_cast<double>(kSteps) / (ms * 1e3));
  }
  return Median(rates);
}

void PrintHost(const Args& args) {
  std::printf(
      "{\"host\": {\"nproc\": %zu, \"compiler\": \"%s\", \"build_flags\": "
      "\"%s\", \"pqe_enable_tracing\": %d, \"calibration_mops\": %.6g}, "
      "\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"seconds\": %g, "
      "\"trace\": %d}\n",
      NumThreads(), PQE_BENCH_COMPILER, PQE_BENCH_FLAGS, PQE_ENABLE_TRACING,
      CalibrationMops(), WorkloadName(args.workload), args.seed, args.seconds,
      args.trace ? 1 : 0);
}

void PrintResult(const Outcome& out) {
  // A human-readable table first, then the machine-read last line.
  for (const Metric& m : out.metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    json += (i == 0 ? "" : ", ");
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

double Seconds(Clock::time_point start) { return MsSince(start) / 1e3; }

// Reports a tail percentile, failing the run when fewer than ten samples
// lie beyond it (the run was too short for the figure to mean anything).
void AddPercentile(Outcome* out, const std::string& name,
                   const std::vector<double>& values, double q) {
  auto p = Percentile(values, q);
  if (!p.has_value()) {
    out->Fail(name + ": fewer than 10 samples beyond it (" +
              std::to_string(values.size()) + " samples)");
    p = Percentile(values, q, 0);
  }
  out->Add(name, p.value_or(0.0), "ms");
}

// ---------------------------------------------------------------------------
// One-shot workloads
// ---------------------------------------------------------------------------

struct OneshotSetup {
  Corpus corpus;
  double seconds = 0.0;
};

// Input generation plus one warm-up request per instance.
OneshotSetup SetUpOneshot(const Args& args, const PqeEngine& engine,
                          Outcome* out) {
  OneshotSetup s;
  const auto start = Clock::now();
  auto corpus = BuildCorpus(args.workload, args.seed);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus: %s\n", corpus.status().ToString().c_str());
    std::exit(1);
  }
  s.corpus = std::move(*corpus);
  for (size_t i = 0; i < s.corpus.instances.size(); ++i) {
    const EvalResponse r = EvaluateCold(
        engine, s.corpus.instances[i], 0, Rng::DeriveSeed(args.seed, ~i),
        i % 2 == 0 ? KernelMode::kFast : KernelMode::kExact);
    if (!r.status.ok()) out->Fail("warm-up: " + r.status.ToString());
  }
  s.seconds = Seconds(start);
  return s;
}

struct Answer {
  size_t instance;
  double probability;
  bool exact;
};

// What the traced served_mix run learns from diffing the service's stats
// around each read, plus the write path's outcomes.
struct ServeTrace {
  std::map<std::string, std::vector<double>> class_ms;  // client latency
  std::map<std::string, double> stage_ns;               // service timers
  std::vector<double> read_ms;
  std::vector<double> update_ms;
  double cache_evictions = 0.0;
  double bind_evictions = 0.0;
  double delta_rebinds = 0.0;
  double full_rebinds = 0.0;
};

constexpr const char* kCacheClasses[] = {"answer_memo",  "warm_bind",
                                         "delta_rebind", "rebind",
                                         "cold_compile", "delegated"};
constexpr const char* kStages[] = {"cache_lookup", "compile", "bind",
                                   "estimate"};

// The serve layer's per-layer metrics (zero on the one-shot workloads).
void AddServeMetrics(const ServeTrace& st, Outcome* out) {
  auto count = [&](const char* cls) {
    auto it = st.class_ms.find(cls);
    return it == st.class_ms.end() ? 0.0
                                    : static_cast<double>(it->second.size());
  };
  const double reads = static_cast<double>(st.read_ms.size());
  const double prepared = reads - count("delegated");
  out->Add("serve.memo_hit_rate", reads > 0 ? count("answer_memo") / reads : 0.0,
           "ratio");
  out->Add("serve.cache_hit_rate",
           prepared > 0 ? 1.0 - count("cold_compile") / prepared : 0.0,
           "ratio");
  for (const char* cls : kCacheClasses) {
    out->Add(std::string("serve.class.") + cls, count(cls), "count");
  }
  for (const char* cls : kCacheClasses) {
    auto it = st.class_ms.find(cls);
    out->Add(std::string("serve.latency_p50_ms.") + cls,
             it == st.class_ms.end() ? 0.0 : Median(it->second), "ms");
  }
  for (const char* stage : kStages) {
    auto it = st.stage_ns.find(stage);
    out->Add(std::string("serve.stage.") + stage + "_ms",
             it == st.stage_ns.end() ? 0.0 : it->second * 1e-6, "ms");
  }
  out->Add("serve.cache_evictions", st.cache_evictions, "count");
  out->Add("serve.bind_evictions", st.bind_evictions, "count");
  out->Add("serve.delta_rebinds", st.delta_rebinds, "count");
  out->Add("serve.full_rebinds", st.full_rebinds, "count");
  out->Add("serve.update_p50_ms", Median(st.update_ms), "ms");
  out->Add("serve.latency_p99_ms",
           Percentile(st.read_ms, 0.99, 0).value_or(0.0), "ms");
}

// The per-layer metrics of the one-shot layers, from the traced run's spans
// (zero for layers a workload does not reach).
void AddLayerMetrics(const SpanLog& log, double traced_ms, Outcome* out_ptr) {
  Outcome& out = *out_ptr;
  auto timing = [&](const std::string& metric, const std::string& span,
                    double scale, const std::string& unit) {
    std::vector<double> d = log.DurationsMs(span);
    double sum = 0.0;
    for (double& x : d) x *= scale;
    for (double x : d) sum += x;
    out.Add(metric, sum, unit);
    out.Add(metric + ".p50", Median(d), unit);
  };
  timing("cq.parse_us", "cq.parse", 1e3, "us");
  timing("hypertree.decompose_ms", "hypertree.decompose", 1.0, "ms");
  out.Add("hypertree.width", Median(log.samples().count("hypertree.width")
                                        ? log.samples().at("hypertree.width")
                                        : std::vector<double>{}),
          "count");
  timing("core.skeleton_ms", "core.skeleton", 1.0, "ms");
  timing("core.bind_ms", "core.bind", 1.0, "ms");
  timing("core.path_skeleton_ms", "core.path_skeleton", 1.0, "ms");
  timing("core.path_bind_ms", "core.path_bind", 1.0, "ms");
  for (const char* size : {"automata.states", "automata.transitions",
                           "automata.tree_size"}) {
    auto it = log.samples().find(size);
    out.Add(size, it == log.samples().end() ? 0.0 : Median(it->second),
            "count");
  }
  timing("counting.nfta_ms.exact", "counting.nfta.exact", 1.0, "ms");
  timing("counting.nfta_ms.fast", "counting.nfta.fast", 1.0, "ms");
  timing("counting.nfa_ms.exact", "counting.nfa.exact", 1.0, "ms");
  timing("counting.nfa_ms.fast", "counting.nfa.fast", 1.0, "ms");
  auto counter = [&](const std::string& name) {
    auto it = log.counters().find(name);
    return it == log.counters().end() ? 0.0 : it->second;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  out.Add("counting.pool_entries", counter("counting.pool_entries"), "count");
  out.Add("counting.attempts", counter("counting.attempts"), "count");
  out.Add("counting.forced_samples", counter("counting.forced_samples"),
          "count");
  out.Add("counting.accept_rate",
          ratio(counter("counting.accepted"), counter("counting.attempts")),
          "ratio");
  out.Add("counting.memo_hit_rate",
          ratio(counter("counting.memo_hits"), counter("counting.memo_lookups")),
          "ratio");
  out.Add("counting.strata_live_frac",
          ratio(counter("counting.strata_live"), counter("counting.strata_total")),
          "ratio");
  double counting_ms = 0.0;
  for (const char* span : {"counting.nfta.exact", "counting.nfta.fast",
                           "counting.nfa.exact", "counting.nfa.fast"}) {
    for (double d : log.DurationsMs(span)) counting_ms += d;
  }
  out.Add("counting.share", ratio(counting_ms, traced_ms), "ratio");
  timing("rpq.parse_us", "rpq.parse", 1e3, "us");
  timing("rpq.product_ms", "rpq.product", 1.0, "ms");
  timing("rpq.skeleton_ms", "rpq.skeleton", 1.0, "ms");
  timing("eval.enumerate_ms", "eval.enumerate", 1.0, "ms");
  timing("safeplan.ms", "safeplan", 1.0, "ms");
  timing("lineage.build_ms", "lineage.build", 1.0, "ms");
  timing("lineage.exact_ms", "lineage.exact", 1.0, "ms");
  timing("lineage.karp_luby_ms", "lineage.karp_luby", 1.0, "ms");
  out.Add("lineage.clauses", counter("lineage.clauses"), "count");
}

Outcome RunOneshot(const Args& args) {
  Outcome out;
  const PqeEngine engine(EngineOptions(NumThreads()));
  std::vector<double> setup_s;
  OneshotSetup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup = SetUpOneshot(args, engine, &out);
    setup_s.push_back(setup.seconds);
  }
  const Corpus& corpus = setup.corpus;
  OneshotStream stream(corpus, args.seed);

  if (!args.trace) {
    std::vector<double> latency_ms;
    std::vector<Answer> answers;
    uint64_t ok = 0;
    const auto start = Clock::now();
    while (Seconds(start) < args.seconds) {
      const OneshotRequest r = stream.Next();
      const auto t = Clock::now();
      const EvalResponse resp =
          EvaluateCold(engine, corpus.instances[r.instance], r.request_id,
                       r.seed, r.kernels);
      latency_ms.push_back(MsSince(t));
      ++out.attempted;
      if (!resp.status.ok()) {
        ++out.failed;
        continue;
      }
      ++ok;
      answers.push_back(
          Answer{r.instance, resp.answer.probability, resp.answer.is_exact});
    }
    const double elapsed = Seconds(start);

    // Oracle, untimed: each distinct instance once, every answer checked.
    std::map<size_t, double> exact;
    size_t within = 0;
    for (const Answer& a : answers) {
      if (!exact.count(a.instance)) {
        const Instance& inst = corpus.instances[a.instance];
        auto e = ExactProbability(inst, *inst.pdb);
        if (!e.ok()) {
          out.Fail("oracle: " + e.status().ToString());
          continue;
        }
        exact[a.instance] = *e;
      }
      const double e = exact[a.instance];
      if (a.exact && std::fabs(a.probability - e) > 1e-9 * std::max(1.0, e)) {
        out.Fail("exact route answer " + std::to_string(a.probability) +
                 " != oracle " + std::to_string(e) + " on " +
                 corpus.instances[a.instance].name);
      }
      if (WithinEps(a.probability, e, kEpsilon)) ++within;
    }
    const double within_rate =
        answers.empty() ? 0.0
                        : static_cast<double>(within) / answers.size();
    std::printf("within_eps: %zu of %zu answers over %zu instances\n", within,
                answers.size(), exact.size());
    if (out.failed > 0) out.Fail(std::to_string(out.failed) + " requests failed");
    // The estimators promise (1±ε) with confidence 0.9 per answer.
    if (within_rate < 0.9) out.Fail("within_eps_rate below 0.9");

    out.Add("throughput_rps", ok / elapsed, "req/s");
    out.Add("latency_p50_ms", Median(latency_ms), "ms");
    AddPercentile(&out, "latency_p90_ms", latency_ms, 0.90);
    out.Add("ok_rate",
            out.attempted ? static_cast<double>(ok) / out.attempted : 0.0,
            "ratio");
    out.Add("within_eps_rate", within_rate, "ratio");
    out.Add("setup_s", Median(setup_s), "s");
    std::printf("requests: %" PRIu64 " in %.3f s\n", out.attempted, elapsed);
    return out;
  }

  // Traced run: the same stream, each request evaluated untraced and then
  // as its split layer calls (order alternating), answers compared bit for
  // bit.
  SpanLog log;
  double untraced_ms = 0.0;
  double traced_ms = 0.0;
  uint64_t mismatches = 0;
  const auto start = Clock::now();
  while (Seconds(start) < args.seconds) {
    const OneshotRequest r = stream.Next();
    const Instance& inst = corpus.instances[r.instance];
    PqeEngine::Options opts = engine.options();
    opts.seed = r.seed;
    opts.kernel_mode = r.kernels;
    EvalResponse resp;
    Result<double> split = Status::Internal("not run");
    auto untraced = [&] {
      const auto t = Clock::now();
      resp = EvaluateCold(engine, inst, r.request_id, r.seed, r.kernels);
      untraced_ms += MsSince(t);
    };
    auto traced = [&] {
      const auto t = Clock::now();
      ScopedSpan root(&log, "request", r.request_id);
      split = SplitEvaluate(inst, opts, r.request_id, &log);
      traced_ms += MsSince(t);
    };
    if (r.request_id % 2 == 0) {
      untraced();
      traced();
    } else {
      traced();
      untraced();
    }
    ++out.attempted;
    if (!resp.status.ok() || !split.ok()) {
      ++out.failed;
      out.Fail("request " + std::to_string(r.request_id) + " on " + inst.name +
               ": " + (resp.status.ok() ? split.status() : resp.status)
                          .ToString());
      continue;
    }
    if (Bits(resp.answer.probability) != Bits(*split)) {
      ++mismatches;
      out.Fail("traced answer differs on " + inst.name);
    }
  }
  std::printf("traced: %" PRIu64 " requests, %" PRIu64 " bit mismatches\n",
              out.attempted, mismatches);

  AddLayerMetrics(log, traced_ms, &out);
  AddServeMetrics(ServeTrace{}, &out);
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  out.Add("trace.overhead_frac", ratio(traced_ms - untraced_ms, untraced_ms),
          "ratio");
  out.Add("trace.coverage_frac", log.CoverageFrac(), "ratio");
  std::ofstream(args.spans_path) << log.ToJsonl();
  return out;
}

// ---------------------------------------------------------------------------
// served_mix
// ---------------------------------------------------------------------------

struct ServedSetup {
  Corpus corpus;
  std::unique_ptr<serve::PqeService> service;
  double seconds = 0.0;
};

// Input generation, a fresh service, and a first read of every pair (the
// cold compiles of the resident set).
ServedSetup SetUpServed(const Args& args, Outcome* out) {
  ServedSetup s;
  const auto start = Clock::now();
  auto corpus = BuildCorpus(args.workload, args.seed);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus: %s\n", corpus.status().ToString().c_str());
    std::exit(1);
  }
  s.corpus = std::move(*corpus);
  serve::PqeService::Options opts;  // 32 prepared entries, 4 binds each
  opts.engine = EngineOptions(NumThreads());
  s.service = std::make_unique<serve::PqeService>(opts);
  for (size_t i = 0; i < s.corpus.instances.size(); ++i) {
    const Instance& inst = s.corpus.instances[i];
    EvalResponse r;
    const uint64_t id = (uint64_t{1} << 40) + i;
    if (inst.target == Target::kRpq) {
      auto q = rpq::RpqQuery::Parse(inst.text);
      if (!q.ok()) {
        out->Fail("warm-up: " + q.status().ToString());
        continue;
      }
      EvalRequest req = EvalRequest::ForRpq(*q, *inst.pdb);
      req.request_id = id;
      r = s.service->Evaluate(req);
    } else {
      auto q = ParseQuery(inst.pdb->schema(), inst.text);
      if (!q.ok()) {
        out->Fail("warm-up: " + q.status().ToString());
        continue;
      }
      EvalRequest req = EvalRequest::ForQuery(*q, *inst.pdb);
      req.request_id = id;
      r = s.service->Evaluate(req);
    }
    if (!r.status.ok()) out->Fail("warm-up: " + r.status.ToString());
  }
  s.seconds = Seconds(start);
  return s;
}

// One served read, parsed from text like a client request.
EvalResponse ServedRead(const serve::PqeService& service,
                        const Instance& inst, const ServedOp& op) {
  auto finish = [&](EvalRequest req) {
    req.request_id = op.request_id;
    req.seed = op.seed;
    req.kernels = op.kernels;
    return service.Evaluate(req);
  };
  if (inst.target == Target::kRpq) {
    auto q = rpq::RpqQuery::Parse(inst.text);
    if (q.ok()) return finish(EvalRequest::ForRpq(*q, *inst.pdb));
  } else {
    auto q = ParseQuery(inst.pdb->schema(), inst.text);
    if (q.ok()) return finish(EvalRequest::ForQuery(*q, *inst.pdb));
  }
  EvalResponse failed;
  failed.status = Status::InvalidArgument("unparsable " + inst.name);
  return failed;
}

struct CheckedRead {
  ServedOp op;
  std::vector<Probability> labels;  // the pair's labels at read time
  double probability;
};

// The seeded sample of served answers against cold engine answers (memcmp)
// and the exact oracle. Returns (within ε, checked).
std::pair<size_t, size_t> CheckServed(const Corpus& corpus,
                                      const std::vector<CheckedRead>& reads,
                                      Outcome* out) {
  const PqeEngine engine(EngineOptions(NumThreads()));
  // One private copy of the database; each check restores the pair's labels
  // (other pairs' facts do not affect a pair's answer).
  auto pdb = std::make_shared<ProbabilisticDatabase>(*corpus.shared_pdb);
  size_t within = 0;
  for (const CheckedRead& c : reads) {
    Instance inst = corpus.instances[c.op.pair];
    for (size_t i = 0; i < inst.facts.size(); ++i) {
      if (!pdb->SetProbability(inst.facts[i], c.labels[i]).ok()) {
        out->Fail("restoring labels");
      }
    }
    inst.pdb = pdb;
    const EvalResponse cold =
        EvaluateCold(engine, inst, c.op.request_id, c.op.seed, c.op.kernels);
    if (!cold.status.ok()) {
      out->Fail("cold check: " + cold.status.ToString());
      continue;
    }
    if (Bits(cold.answer.probability) != Bits(c.probability)) {
      out->Fail("served answer differs from cold engine on " + inst.name);
    }
    auto exact = ExactProbability(inst, *pdb);
    if (!exact.ok()) {
      out->Fail("oracle: " + exact.status().ToString());
      continue;
    }
    if (WithinEps(c.probability, *exact, kEpsilon)) ++within;
  }
  return {within, reads.size()};
}

std::vector<Probability> PairLabels(const Instance& inst) {
  std::vector<Probability> labels;
  for (FactId f : inst.facts) labels.push_back(inst.pdb->probability(f));
  return labels;
}

Outcome RunServed(const Args& args) {
  Outcome out;
  std::vector<double> setup_s;
  ServedSetup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup = SetUpServed(args, &out);
    setup_s.push_back(setup.seconds);
  }
  const Corpus& corpus = setup.corpus;
  const serve::PqeService& service = *setup.service;
  ServedStream stream(corpus, args.seed);

  ServeTrace st;
  std::vector<double>& read_ms = st.read_ms;
  std::vector<double>& update_ms = st.update_ms;
  std::vector<CheckedRead> checked;
  uint64_t ok_reads = 0;
  uint64_t ok_ops = 0;
  // Traced run: the stats diff around each read is outside the timed call;
  // its cost is the tracing overhead.
  double stats_ms = 0.0;
  double client_ms = 0.0;
  const uint64_t evictions_before =
      obs::MetricRegistry::Global().GetCounter("serve.bind_evictions").Value();
  const auto cache_before = service.cache().stats();
  serve::ServiceStats before;
  if (args.trace) before = service.StatsSnapshot();

  const auto start = Clock::now();
  while (Seconds(start) < args.seconds) {
    const ServedOp op = stream.Next();
    ++out.attempted;
    if (op.kind == ServedOp::Kind::kWrite) {
      const auto t = Clock::now();
      auto upd = service.ApplyUpdate(corpus.shared_pdb.get(), op.delta);
      update_ms.push_back(MsSince(t));
      if (!upd.ok()) {
        ++out.failed;
        continue;
      }
      ++ok_ops;
      st.delta_rebinds += static_cast<double>(upd->delta_rebinds);
      st.full_rebinds += static_cast<double>(upd->full_rebinds);
      continue;
    }
    const Instance& inst = corpus.instances[op.pair];
    const auto t = Clock::now();
    const EvalResponse resp = ServedRead(service, inst, op);
    const double ms = MsSince(t);
    read_ms.push_back(ms);
    if (!resp.status.ok()) {
      ++out.failed;
      continue;
    }
    ++ok_reads;
    ++ok_ops;
    if (op.checked) {
      checked.push_back(CheckedRead{op, PairLabels(inst),
                                    resp.answer.probability});
    }
    if (args.trace) {
      const auto ts = Clock::now();
      serve::ServiceStats after = service.StatsSnapshot();
      for (size_t c = 0; c < serve::kNumCacheClasses; ++c) {
        if (after.by_class[c] != before.by_class[c]) {
          st.class_ms[serve::CacheClassName(
                          static_cast<serve::CacheClass>(c))]
              .push_back(ms);
        }
      }
      for (const auto& stage : after.stages) {
        const auto* prev = before.FindStage(stage.stage);
        st.stage_ns[stage.stage] +=
            static_cast<double>(stage.sum_ns - (prev ? prev->sum_ns : 0));
      }
      before = std::move(after);
      stats_ms += MsSince(ts);
      client_ms += ms;
    }
  }
  const double elapsed = Seconds(start);
  const uint64_t reads = read_ms.size();
  std::printf("ops: %" PRIu64 " (%" PRIu64 " reads, %zu writes) in %.3f s\n",
              out.attempted, reads, update_ms.size(), elapsed);

  const auto [within, n_checked] = CheckServed(corpus, checked, &out);
  std::printf("checked: %zu served answers memcmp vs cold engine; %zu within "
              "eps\n",
              n_checked, within);
  if (n_checked == 0) out.Fail("no served answer was checked");
  if (out.failed > 0) out.Fail(std::to_string(out.failed) + " ops failed");
  const double within_rate =
      n_checked ? static_cast<double>(within) / n_checked : 0.0;
  if (within_rate < 0.9) out.Fail("within_eps_rate below 0.9");

  if (!args.trace) {
    out.Add("throughput_rps", ok_reads / elapsed, "req/s");
    out.Add("latency_p50_ms", Median(read_ms), "ms");
    AddPercentile(&out, "latency_p90_ms", read_ms, 0.90);
    out.Add("ok_rate",
            out.attempted ? static_cast<double>(ok_ops) / out.attempted : 0.0,
            "ratio");
    out.Add("within_eps_rate", within_rate, "ratio");
    out.Add("setup_s", Median(setup_s), "s");
    return out;
  }

  const auto cache_after = service.cache().stats();
  st.cache_evictions =
      static_cast<double>(cache_after.evictions - cache_before.evictions);
  st.bind_evictions = static_cast<double>(
      obs::MetricRegistry::Global().GetCounter("serve.bind_evictions").Value() -
      evictions_before);
  AddLayerMetrics(SpanLog{}, 0.0, &out);
  AddServeMetrics(st, &out);
  double stage_total_ms = 0.0;
  for (const auto& [stage, ns] : st.stage_ns) {
    if (stage != "total") stage_total_ms += ns * 1e-6;
  }
  out.Add("trace.overhead_frac", client_ms > 0 ? stats_ms / client_ms : 0.0,
          "ratio");
  out.Add("trace.coverage_frac",
          client_ms > 0 ? stage_total_ms / client_ms : 0.0, "ratio");
  return out;
}

}  // namespace
}  // namespace perfbench
}  // namespace pqe

int main(int argc, char** argv) {
  using namespace pqe::perfbench;
  const Args args = ParseArgs(argc, argv);
  PrintHost(args);
  Outcome out = args.workload == Workload::kServedMix ? RunServed(args)
                                                      : RunOneshot(args);
  PrintResult(out);
  return 0;
}
