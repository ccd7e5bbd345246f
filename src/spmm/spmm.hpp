#pragma once
// Sparse × dense-block multiplication (SpMM): Y = A · X with a row-major
// dense right-hand side of k columns (ROADMAP item 3).
//
// Iterative multi-vector workloads — block Krylov methods, graph neural
// network layers, the genomics-style `Y = X · W` traffic — run the same
// sparse matrix against many dense vectors at once. Doing that as k
// independent SpMVs streams A's index/value arrays k times; the blocked
// kernels here stream A once per *register block* of kb ∈ {1, 2, 4, 8}
// columns, turning the extra columns into contiguous kb-wide loads of X
// that ride along with each gathered row. At kb = k the matrix is read
// once, which is where the memory-bound win lives (the perf_smoke `spmm`
// stage gates ≥1.3× over repeated SpMV at k = 8).
//
// Parallelism reuses the nnz-balanced `SpmvPlan` block structure from
// spmv/plan.hpp: every output row is produced by exactly one plan block,
// and every (row, column) accumulation runs in ascending nonzero order no
// matter the register blocking, so results are bit-identical to the serial
// reference at any thread count and any kb (tests/spmm_test.cpp pins this
// at OMP_NUM_THREADS ∈ {1, 2, 8}).
//
// SpMM has its own configuration space (`spmm_method_configs()`) and its
// own separately trained model bank (spmm/model.hpp) — the paper's §7
// add-a-method claim exercised with a genuinely different operation class:
// nothing here touches the SpMV ModelBank or its persisted models.txt.

#include <span>
#include <string>
#include <vector>

#include "sparse/csr.hpp"
#include "spmv/plan.hpp"
#include "spmv/schedule.hpp"
#include "util/types.hpp"

namespace wise::spmm {

/// Register block widths the kernels are compiled for.
inline constexpr int kSpmmBlockWidths[] = {1, 2, 4, 8};

/// One SpMM configuration: the register block width over RHS columns and
/// the block scheduling policy. kb = 1 with Dyn is the repeated-SpMV
/// baseline every relative time is normalized against.
struct SpmmConfig {
  int kb = 1;                       ///< register block width ∈ {1,2,4,8}
  Schedule sched = Schedule::kDyn;  ///< plan-block scheduling policy

  /// Stable name, e.g. "SpMM/b4/Dyn". Distinct from every SpMV
  /// MethodConfig name so samples and model files can never collide.
  std::string name() const;

  /// Deterministic tie-break order (ascending = preferred): smaller
  /// register blocks first (less register pressure), then schedule.
  std::vector<double> selection_rank() const;

  friend bool operator==(const SpmmConfig&, const SpmmConfig&) = default;
};

/// The SpMM method space: kb ∈ {1,2,4,8} × {Dyn, StCont}. Index 0 is the
/// kb=1/Dyn baseline.
const std::vector<SpmmConfig>& spmm_method_configs();

/// Inverse of SpmmConfig::name(). Throws std::invalid_argument on any
/// string name() cannot produce.
SpmmConfig parse_spmm_config(const std::string& name);

/// Serial reference: for each row i and column j, accumulates
/// vals[p] * X[col_idx[p]*k + j] in ascending-p order, one fused
/// multiply-add per term on targets with a fast FMA. The bit-identity
/// oracle for every blocked kernel. X is ncols×k row-major, Y nrows×k.
/// Throws std::invalid_argument on dimension mismatch or k <= 0.
void spmm_reference(const CsrMatrix& a, std::span<const value_t> x,
                    std::span<value_t> y, index_t k);

/// Blocked parallel SpMM over a precomputed nnz-balanced row plan. Each
/// plan block is one task (dynamic for kDyn, static otherwise); within a
/// row, columns are processed kb at a time with per-column accumulators
/// updated in the reference's exact order, so the result is bit-identical
/// to spmm_reference at any thread count. Throws std::invalid_argument on
/// dimension mismatch, k <= 0, an unsupported cfg.kb, or a plan that does
/// not cover the matrix's rows.
void spmm_csr(const CsrMatrix& a, std::span<const value_t> x,
              std::span<value_t> y, index_t k, const SpmmConfig& cfg,
              const SpmvPlan& plan);

/// Convenience overload: builds a balanced row plan for the ambient
/// OpenMP thread count, then runs the plan overload.
void spmm_csr(const CsrMatrix& a, std::span<const value_t> x,
              std::span<value_t> y, index_t k, const SpmmConfig& cfg);

}  // namespace wise::spmm
