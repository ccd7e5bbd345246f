#pragma once
// Frozen labels: per-configuration timings measured once and kept with the
// benchmark, keyed by a matrix spec string that rematerializes the matrix
// bit-identically. Training both model banks from these files (instead of
// from timings taken in the same run) is what makes every choice the
// benchmark makes repeat exactly from run to run.
//
// Spec strings (fields separated by ':'):
//   rmat:<n>:<degree>:<a>:<b>:<c>:<d>:<seed>
//   rgg:<n>:<degree>:<seed>
//   banded:<n>:<half_bw>:<density>:<seed>
//   st2d:<nx>:<ny>:<points>
//   st3d:<nx>:<ny>:<nz>:<points>
//   blockdiag:<n>:<block>:<density>:<seed>
//   road:<n>:<seed>
//
// Label file format (one header line, one line per matrix):
//   configs <N> <name_1> ... <name_N>
//   <spec> <seconds_1> ... <seconds_N>
// Lines starting with '#' are comments. Loading fails when the config
// names no longer match the library's registry: the labels then need a
// refresh (`wisebench --make-labels`), which is a benchmark change of its
// own.
#include <string>
#include <vector>

#include "exp/spec.hpp"
#include "sparse/csr.hpp"

namespace wisebench {

wise::MatrixSpec parse_spec(const std::string& text);

struct LabeledSpec {
  std::string spec;             ///< spec string, also the key
  std::vector<double> seconds;  ///< per config, in the file's config order
};

struct LabelSet {
  std::vector<std::string> configs;
  std::vector<LabeledSpec> rows;
};

/// Reads a label file and checks its config names equal `expected`.
LabelSet load_labels(const std::string& path,
                     const std::vector<std::string>& expected);

/// Names of a configuration registry, in order: the header a label file
/// must match.
std::vector<std::string> names_of(const auto& configs) {
  std::vector<std::string> names;
  for (const auto& c : configs) names.push_back(c.name());
  return names;
}

/// Measures the SpMV and SpMM labels of every spec and writes
/// spmv_train.txt, spmm_train.txt and spmv_heldout.txt into `dir`.
void make_labels(const std::string& dir);

/// RHS columns the SpMM labels and the SpMM phase use.
inline constexpr wise::index_t kSpmmCols = 8;

}  // namespace wisebench
