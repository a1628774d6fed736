#ifndef PQE_OBS_HOST_H_
#define PQE_OBS_HOST_H_

namespace pqe {
namespace obs {

/// Host speed score for normalizing latencies: a fixed integer +
/// floating-point kernel (2^24 dependent xorshift and multiply-add steps),
/// timed three times; returns the median rate in million steps per second.
/// The loop is the one the repository benchmark (perfbench) records with
/// every result, so a wall time multiplied by this score — the calibration
/// steps the host could have run meanwhile — compares across hosts and host
/// load where the raw milliseconds do not. Takes about 0.1 s.
double CalibrationMops();

}  // namespace obs
}  // namespace pqe

#endif  // PQE_OBS_HOST_H_
