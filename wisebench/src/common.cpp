#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/prng.hpp"

namespace wisebench {

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

bool Metrics::has(const std::string& name) const {
  return values_.contains(name);
}

double Metrics::get(const std::string& name) const {
  return values_.at(name).first;
}

const std::string& Metrics::unit(const std::string& name) const {
  return values_.at(name).second;
}

std::string Metrics::json() const {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", value);
    out << (i ? ", " : "") << "\"" << order_[i] << "\": {\"value\": " << num
        << ", \"unit\": \"" << unit << "\"}";
  }
  out << "}";
  return out.str();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double geomean(std::span<const double> v) {
  if (v.empty()) throw std::runtime_error("geomean of an empty sample");
  double log_sum = 0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double rss_peak_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::vector<wise::value_t> seeded_vector(std::size_t n, std::uint64_t seed) {
  wise::Xoshiro256 rng(seed);
  std::vector<wise::value_t> v(n);
  for (auto& x : v) x = 0.5 + rng.next_double();
  return v;
}

bool matches_reference(const wise::CsrMatrix& a,
                       std::span<const wise::value_t> x,
                       std::span<const wise::value_t> y) {
  // The kernels sum a row in their own order (SIMD lanes, LAV segments), so
  // the check is the worst-case bound for any summation order of k products:
  // |ŷ − y| ≤ 2·γ_k·Σ|a_ij·x_j| with γ_k = k·u / (1 − k·u).
  if (y.size() != static_cast<std::size_t>(a.nrows())) return false;
  std::vector<wise::value_t> ref(y.size());
  wise::spmv_reference(a, x, ref);
  constexpr double u = std::numeric_limits<double>::epsilon() / 2;
  for (wise::index_t i = 0; i < a.nrows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    double magnitude = 0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      magnitude += std::abs(vals[k] * x[static_cast<std::size_t>(cols[k])]);
    }
    const double ku = static_cast<double>(cols.size() + 1) * u;
    const double bound = 2 * ku / (1 - ku) * magnitude;
    const auto r = static_cast<std::size_t>(i);
    if (!(std::abs(y[r] - ref[r]) <= bound)) return false;
  }
  return true;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace wisebench
