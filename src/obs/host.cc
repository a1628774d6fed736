#include "obs/host.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>

namespace pqe {
namespace obs {

double CalibrationMops() {
  double rates[3];
  for (double& rate : rates) {
    const auto start = std::chrono::steady_clock::now();
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    double acc = 0.0;
    constexpr uint64_t kSteps = uint64_t{1} << 24;
    for (uint64_t i = 0; i < kSteps; ++i) {
      x ^= x >> 12;
      x ^= x << 25;
      x ^= x >> 27;
      acc = acc * 0.999999 +
            static_cast<double>(x * 0x2545f4914f6cdd1dULL >> 40);
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (acc == 42.0) std::printf("%f\n", acc);  // keep the loop observable
    rate = static_cast<double>(kSteps) / (ms * 1e3);
  }
  std::sort(rates, rates + 3);
  return rates[1];
}

}  // namespace obs
}  // namespace pqe
