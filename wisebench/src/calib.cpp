// The calibration phase: a fixed gather-and-sum sweep that belongs to the
// benchmark, not to the library, interleaved with the measured phases. Its
// median sweep time tracks how fast the shared machine is during this run,
// so main.cpp can report every end-to-end time and rate at the reference
// speed (kReferenceSweepUs in main.cpp). No change to the library
// can move it.
#include <cstdint>

#include "bench.hpp"

namespace wisebench {

namespace {

constexpr std::int64_t kRows = 1 << 16;
constexpr int kPerRow = 8;
constexpr int kSweepsPerStep = 8;

class CalibrationPhase final : public Phase {
 public:
  CalibrationPhase()
      : cols_(kRows * kPerRow), vals_(kRows * kPerRow), x_(kRows), y_(kRows) {
    // Half the entries near the diagonal, half anywhere: SpMV-like locality.
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::int64_t i = 0; i < kRows * kPerRow; ++i) {
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdull;
      h ^= h >> 29;
      const std::int64_t row = i / kPerRow;
      const auto r = static_cast<std::int64_t>(h % kRows);
      cols_[i] = static_cast<std::int32_t>(
          i % 2 ? r : (row + r % 64) % kRows);
      vals_[i] = 0.5 + static_cast<double>(h % 1000) / 1000;
    }
    for (std::int64_t i = 0; i < kRows; ++i) x_[i] = 1.0 + (i % 7) * 0.125;
  }

  /// One untimed sweep to bring the arrays back into cache after the other
  /// phases, then kSweepsPerStep timed ones.
  void step() override {
    sweep();
    for (int s = 0; s < kSweepsPerStep; ++s) {
      const std::int64_t t = now_ns();
      sweep();
      sweep_s_.push_back(static_cast<double>(now_ns() - t) * 1e-9);
    }
  }

  void finish(Metrics& out) override {
    out.set("calib.sweep_us", median(sweep_s_) * 1e6, "us");
  }

 private:
  void sweep() {
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < kRows; ++i) {
      double acc = 0;
      for (std::int64_t k = i * kPerRow; k < (i + 1) * kPerRow; ++k) {
        acc += vals_[k] * x_[cols_[k]];
      }
      y_[i] = acc;
    }
  }

  std::vector<std::int32_t> cols_;
  std::vector<double> vals_, x_, y_;
  std::vector<double> sweep_s_;
};

}  // namespace

std::unique_ptr<Phase> make_calibration_phase() {
  return std::make_unique<CalibrationPhase>();
}

}  // namespace wisebench
