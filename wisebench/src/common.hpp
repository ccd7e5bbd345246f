#pragma once
// Shared pieces of the repository benchmark: run options, the metric sink
// that prints the final JSON line, small statistics helpers, and the fixed
// thread budget.
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "sparse/csr.hpp"

namespace wisebench {

/// Threads every OpenMP region uses, serve workers, and closed-loop
/// clients. workers × kOmpThreads must stay ≤ nproc of the 4-vCPU
/// reference machine; clients spend nearly all their time blocked on a
/// future.
inline constexpr int kOmpThreads = 2;
inline constexpr int kServeWorkers = 2;
inline constexpr int kServeClients = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string labels_dir;  ///< frozen label files
  std::string trace_out;   ///< span dump written at the end of a traced run
};

/// Metrics in insertion order, each with its unit.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  double get(const std::string& name) const;
  const std::string& unit(const std::string& name) const;
  const std::vector<std::string>& names() const { return order_; }
  /// {"name": {"value": v, "unit": u}, ...}
  std::string json() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Operation counts for the result line; a wrong answer is a failure.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

double median(std::vector<double> v);
/// Linear-interpolated quantile q ∈ [0, 1].
double quantile(std::vector<double> v, double q);
double geomean(std::span<const double> v);

/// Monotonic nanoseconds.
std::int64_t now_ns();

/// Peak resident set size of this process in MB.
double rss_peak_mb();

/// FNV-1a over a string, continuing from `h`.
std::uint64_t fnv1a(const std::string& s,
                    std::uint64_t h = 0xcbf29ce484222325ull);
std::string hex64(std::uint64_t v);

/// Seeded dense vector with entries in [0.5, 1.5).
std::vector<wise::value_t> seeded_vector(std::size_t n, std::uint64_t seed);

/// y agrees with spmv_reference(a, x) within the error bound of summing
/// each row in any order.
bool matches_reference(const wise::CsrMatrix& a,
                       std::span<const wise::value_t> x,
                       std::span<const wise::value_t> y);

/// Machine description printed with every run.
std::string cpu_model();

}  // namespace wisebench
