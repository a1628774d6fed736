// bench_compare — the perf-regression gate. Diffs a fresh bench metrics
// JSON (as written by --metrics_out) against a committed BENCH_*.json
// baseline and fails when any gated gauge regressed by more than the
// threshold.
//
//   bench_compare --baseline BENCH_serving.json --fresh /tmp/fresh.json
//                 [--threshold 0.25] [--advisory] [--update-baselines]
//
// Two kinds of gauges are gated. A gauge whose name contains "speedup" is a
// ratio within one run of one binary (higher is better); it fails below
// baseline·(1 − threshold). A gauge whose name ends in "_msteps" is an
// absolute latency normalized by the host's obs::CalibrationMops score
// (lower is better; raw milliseconds vary too much across machines); it
// fails above baseline / (1 − threshold), the same relative slowdown. A
// gated gauge present
// in the baseline but absent from the fresh run is reported as MISSING and
// fails the gate — a renamed or dropped gauge must be acknowledged by
// regenerating the baseline, not silently shrink the gated set. Comparing
// two files with no gated baseline gauge at all is an error (a silent
// empty intersection would pass forever). --advisory prints the comparison
// but always exits 0
// (used by the sanitizer CI stages, where timings are meaningless).
// --update-baselines copies the fresh metrics file over the baseline path
// after printing the comparison — regenerating a committed BENCH_*.json
// after an intentional perf change is one command instead of hand-editing —
// and exits 0 (an update acknowledges the change instead of gating on it).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace {

struct GaugeReading {
  std::string name;
  double value = 0.0;
};

// Pulls {"metrics":{"gauges":{...}}} out of a metrics-export document.
pqe::Result<std::vector<GaugeReading>> LoadGauges(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return pqe::Status::InvalidArgument("cannot open " + path);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  PQE_ASSIGN_OR_RETURN(pqe::obs::JsonValue doc,
                       pqe::obs::ParseJson(buffer.str()));
  const pqe::obs::JsonValue* metrics = doc.Find("metrics");
  if (metrics == nullptr) {
    return pqe::Status::InvalidArgument(path + ": no \"metrics\" object");
  }
  const pqe::obs::JsonValue* gauges = metrics->Find("gauges");
  if (gauges == nullptr || !gauges->is_object()) {
    return pqe::Status::InvalidArgument(path + ": no \"gauges\" object");
  }
  std::vector<GaugeReading> out;
  for (const auto& [name, value] : gauges->Members()) {
    if (!value.is_number()) continue;
    out.push_back({name, value.AsNumber()});
  }
  return out;
}

const GaugeReading* Find(const std::vector<GaugeReading>& gauges,
                         const std::string& name) {
  for (const GaugeReading& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

void Usage() {
  std::fprintf(stderr,
               "usage: bench_compare --baseline FILE --fresh FILE\n"
               "                     [--threshold R] [--advisory]\n"
               "                     [--update-baselines]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string fresh_path;
  double threshold = 0.25;
  bool advisory = false;
  bool update_baselines = false;

  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--baseline") == 0) {
      baseline_path = need_value("--baseline");
    } else if (std::strcmp(argv[i], "--fresh") == 0) {
      fresh_path = need_value("--fresh");
    } else if (std::strcmp(argv[i], "--threshold") == 0) {
      threshold = std::atof(need_value("--threshold"));
    } else if (std::strcmp(argv[i], "--advisory") == 0) {
      advisory = true;
    } else if (std::strcmp(argv[i], "--update-baselines") == 0) {
      update_baselines = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      Usage();
      return 2;
    }
  }
  if (baseline_path.empty() || fresh_path.empty()) {
    Usage();
    return 2;
  }

  auto baseline = LoadGauges(baseline_path);
  if (!baseline.ok()) {
    std::fprintf(stderr, "%s\n", baseline.status().ToString().c_str());
    return 2;
  }
  auto fresh = LoadGauges(fresh_path);
  if (!fresh.ok()) {
    std::fprintf(stderr, "%s\n", fresh.status().ToString().c_str());
    return 2;
  }

  size_t compared = 0;
  size_t regressed = 0;
  size_t missing = 0;
  const std::string kNormalized = "_msteps";
  for (const GaugeReading& base : *baseline) {
    const bool ratio = base.name.find("speedup") != std::string::npos;
    const bool normalized =
        base.name.size() >= kNormalized.size() &&
        base.name.compare(base.name.size() - kNormalized.size(),
                          kNormalized.size(), kNormalized) == 0;
    if (!ratio && !normalized) continue;
    const GaugeReading* now = Find(*fresh, base.name);
    if (now == nullptr) {
      ++missing;
      std::printf("MISSING %s: baseline %.2f, absent from fresh run\n",
                  base.name.c_str(), base.value);
      continue;
    }
    ++compared;
    const double bound = ratio ? base.value * (1.0 - threshold)
                               : base.value / (1.0 - threshold);
    const bool bad = base.value > 0.0 &&
                     (ratio ? now->value < bound : now->value > bound);
    std::printf("%s %s: baseline %.2f, fresh %.2f (%s %.2f)\n",
                bad ? "REGRESSED" : "ok", base.name.c_str(), base.value,
                now->value, ratio ? "floor" : "ceiling", bound);
    if (bad) ++regressed;
  }

  if (compared == 0 && missing == 0) {
    std::fprintf(stderr,
                 "bench_compare: no gated gauges in baseline %s "
                 "— wrong baseline file?\n",
                 baseline_path.c_str());
    return 2;
  }
  std::printf("bench_compare: %zu gauges compared, %zu regressed, "
              "%zu missing from fresh (threshold %.0f%%)%s\n",
              compared, regressed, missing, threshold * 100.0,
              advisory ? " [advisory]" : "");
  if (update_baselines) {
    std::ifstream src(fresh_path, std::ios::binary);
    std::ofstream dst(baseline_path, std::ios::binary | std::ios::trunc);
    if (!src.is_open() || !dst.is_open()) {
      std::fprintf(stderr, "bench_compare: cannot copy %s -> %s\n",
                   fresh_path.c_str(), baseline_path.c_str());
      return 2;
    }
    dst << src.rdbuf();
    if (!dst.good()) {
      std::fprintf(stderr, "bench_compare: write to %s failed\n",
                   baseline_path.c_str());
      return 2;
    }
    std::printf("bench_compare: baseline %s updated from %s\n",
                baseline_path.c_str(), fresh_path.c_str());
    return 0;
  }
  if (advisory) return 0;
  return regressed == 0 && missing == 0 ? 0 : 1;
}
