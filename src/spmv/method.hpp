#pragma once
// The SpMV method/parameter space WISE searches (paper Table 1 and §4.3).
//
// A MethodConfig is one fully-specified way to run SpMV. The registry
// enumerates the paper's 29 configurations: every configuration gets its own
// WISE performance-prediction model.

#include <string>
#include <vector>

#include "sparse/srvpack.hpp"
#include "spmv/schedule.hpp"
#include "util/types.hpp"

namespace wise {

enum class MethodKind {
  kCsr,         ///< baseline CSR (§2.1)
  kSellpack,    ///< Sliced ELLPACK, natural row order
  kSellCSigma,  ///< Sell-c-σ, σ-windowed row sort
  kSellCR,      ///< Sell-c-σ with σ = #rows (full RFS)
  kLav1Seg,     ///< CFS + RFS, single segment
  kLav,         ///< CFS + RFS + dense/sparse segmentation (fraction T)
  kBsr,         ///< Block CSR extension (not in the paper's 29; see bsr.hpp)
  kDia,         ///< diagonal extension (sparse/dia.hpp)
};

const char* method_kind_name(MethodKind k);

/// One {method, parameter values} pair.
struct MethodConfig {
  MethodKind kind = MethodKind::kCsr;
  Schedule sched = Schedule::kStCont;
  int c = 0;          ///< chunk height; BSR block size; 0 for CSR
  index_t sigma = 0;  ///< Sell-c-σ window; kSigmaAll where RFS is implied
  double T = 0.0;     ///< LAV dense-segment nonzero fraction; 0 otherwise

  /// Human-readable id, e.g. "Sell-c-s/c8/s4096/Dyn"; stable across runs —
  /// used as the key in measurement CSVs and model files.
  std::string name() const;

  /// SRVPack build options realizing this configuration. Must not be called
  /// for kCsr (which runs directly on the CSR arrays).
  SrvBuildOptions srv_options() const;

  /// Preprocessing-cost rank of the *method* (paper §4.4): CSR < SELLPACK <
  /// Sell-c-σ < Sell-c-R < LAV-1Seg < LAV.
  int preprocessing_rank() const { return static_cast<int>(kind); }

  /// Total deterministic tie-break order used by the selection heuristic:
  /// lower compares first on preprocessing rank, then on smaller parameters.
  /// Returns a lexicographic key.
  std::vector<double> selection_rank() const;

  friend bool operator==(const MethodConfig&, const MethodConfig&) = default;
};

/// Parses the name() format back into a config; throws std::invalid_argument
/// on unknown strings. Inverse of MethodConfig::name().
MethodConfig parse_method_config(const std::string& name);

/// The paper's full 29-configuration space (§4.3):
///   CSR×{Dyn,St,StCont}; SELLPACK×{c4,c8}×{StCont,Dyn};
///   Sell-c-σ×{c4,c8}×{2^9,2^12,2^14}×{StCont,Dyn};
///   Sell-c-R×{c4,c8}; LAV-1Seg×{c4,c8}; LAV×{c4,c8}×{0.7,0.8,0.9}.
std::vector<MethodConfig> all_method_configs();

/// Just the three CSR scheduling variants.
std::vector<MethodConfig> csr_configs();

/// σ values the registry instantiates (paper: 2^9, 2^12, 2^14).
std::vector<index_t> sigma_values();

/// c values (machine vector widths; paper: 4 and 8).
std::vector<int> c_values();

/// T values (paper: 0.7, 0.8, 0.9).
std::vector<double> t_values();

}  // namespace wise
