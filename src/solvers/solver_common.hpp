#pragma once
// Common scaffolding for the iterative solvers built on WISE-accelerated
// SpMV. The paper motivates WISE with iterative workloads that "execute
// SpMV many times with the same sparse input matrix" (§1); this library is
// that workload: Jacobi, Conjugate Gradient, BiCGSTAB, and power iteration,
// each parameterized over an SpMV operator so callers can plug in a plain
// CSR kernel or a WISE-prepared matrix interchangeably.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "sparse/csr.hpp"

namespace wise {

/// y = A x. Both plain kernels and PreparedMatrix::run bind to this.
using SpmvOperator =
    std::function<void(std::span<const value_t>, std::span<value_t>)>;

/// Wraps a CSR matrix with the reference-quality parallel kernel.
SpmvOperator make_csr_operator(const CsrMatrix& m);

struct SolverOptions {
  int max_iterations = 1000;
  double tolerance = 1e-10;  ///< on the 2-norm of the residual
};

struct SolverResult {
  std::vector<value_t> x;       ///< solution (or eigenvector)
  int iterations = 0;
  double residual_norm = 0;     ///< final ||b - Ax||_2 (or eigen-residual)
  bool converged = false;
  double eigenvalue = 0;        ///< power iteration only
};

/// Dense-vector helpers shared by the solvers, OpenMP-parallel. The
/// reductions (`dot`, `norm2`, `ordered_sum`) add in a fixed order that
/// depends only on the vector length, so their results are bit-identical at
/// every thread count and from run to run.
namespace blas {

/// Elements per block of `ordered_sum`. A constant, not a knob: the
/// summation order, and with it every rounding, is fixed by it.
inline constexpr std::size_t kSumBlock = 1024;

/// Sum over [0, n) in blocks of kSumBlock elements: `block_sum(begin, end)`
/// returns one block's sum (serially, in index order) and the blocks run in
/// parallel; the partials are then added serially, in block order. The
/// result thus depends only on n, never on how threads split the blocks.
/// `block_sum` is called exactly once per block, so it may also update
/// per-element state (the Jacobi sweep does).
template <class BlockSum>
double ordered_sum(std::size_t n, BlockSum&& block_sum) {
  const std::size_t blocks = (n + kSumBlock - 1) / kSumBlock;
  static thread_local std::vector<double> scratch;  // reused, never shrunk
  if (scratch.size() < blocks) scratch.resize(blocks);
  const std::span<double> partials(scratch.data(), blocks);
  const auto nb = static_cast<std::int64_t>(blocks);
#pragma omp parallel for schedule(static) if (nb > 1)
  for (std::int64_t blk = 0; blk < nb; ++blk) {
    const auto begin = static_cast<std::size_t>(blk) * kSumBlock;
    partials[static_cast<std::size_t>(blk)] =
        block_sum(begin, std::min(begin + kSumBlock, n));
  }
  double sum = 0;
  for (const double p : partials) sum += p;
  return sum;
}

double dot(std::span<const value_t> a, std::span<const value_t> b);
double norm2(std::span<const value_t> a);
/// y += alpha * x
void axpy(value_t alpha, std::span<const value_t> x, std::span<value_t> y);
/// y = x + beta * y
void xpby(std::span<const value_t> x, value_t beta, std::span<value_t> y);
void scale(std::span<value_t> x, value_t alpha);
void copy(std::span<const value_t> src, std::span<value_t> dst);

}  // namespace blas

}  // namespace wise
