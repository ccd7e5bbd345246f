#include <omp.h>

#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "spmm/spmm.hpp"

namespace wise::spmm {

namespace {

void check_dims(const CsrMatrix& a, std::span<const value_t> x,
                std::span<value_t> y, index_t k) {
  if (k <= 0) throw std::invalid_argument("spmm: k must be positive");
  if (x.size() != static_cast<std::size_t>(a.ncols()) *
                      static_cast<std::size_t>(k) ||
      y.size() != static_cast<std::size_t>(a.nrows()) *
                      static_cast<std::size_t>(k)) {
    throw std::invalid_argument("spmm: dimension mismatch");
  }
}

/// acc + a * b, rounded once where the target has a fast FMA and twice
/// elsewhere. The kernels and spmm_reference both accumulate through it,
/// so they round alike on every host; this file is built with
/// -ffp-contract=off (src/CMakeLists.txt), so the compiler never fuses
/// the two-rounding form on its own.
inline value_t mul_add(value_t a, value_t b, value_t acc) {
#ifdef FP_FAST_FMA
  return std::fma(a, b, acc);
#else
  return acc + a * b;
#endif
}

/// One row × one register block of KB columns. Per output column the
/// accumulation is the reference's exact mul_add chain in ascending
/// nonzero order — the simd pragma vectorizes *across* the KB independent
/// accumulators, never within one reduction, so no reassociation can
/// occur and the result is bit-identical to spmm_reference for any KB.
template <int KB>
inline void row_block_dot(const nnz_t* rp, const index_t* ci,
                          const value_t* va, const value_t* x, value_t* y,
                          index_t i, index_t k, index_t j0) {
  value_t acc[KB] = {};
  const nnz_t hi = rp[i + 1];
  for (nnz_t p = rp[i]; p < hi; ++p) {
    const value_t v = va[p];
    const value_t* xr =
        x + static_cast<std::size_t>(ci[p]) * static_cast<std::size_t>(k) +
        static_cast<std::size_t>(j0);
#pragma omp simd
    for (int jj = 0; jj < KB; ++jj) acc[jj] = mul_add(v, xr[jj], acc[jj]);
  }
  value_t* yr =
      y + static_cast<std::size_t>(i) * static_cast<std::size_t>(k) +
      static_cast<std::size_t>(j0);
  for (int jj = 0; jj < KB; ++jj) yr[jj] = acc[jj];
}

/// All k columns of one row: full KB-wide blocks, then a remainder swept
/// with progressively narrower blocks (4 → 2 → 1). Every path updates each
/// column with the same ascending-nonzero order, so the column split is
/// invisible in the bits.
template <int KB>
inline void row_all_columns(const nnz_t* rp, const index_t* ci,
                            const value_t* va, const value_t* x, value_t* y,
                            index_t i, index_t k) {
  index_t j0 = 0;
  for (; j0 + KB <= k; j0 += KB) {
    row_block_dot<KB>(rp, ci, va, x, y, i, k, j0);
  }
  if constexpr (KB > 4) {
    if (j0 + 4 <= k) {
      row_block_dot<4>(rp, ci, va, x, y, i, k, j0);
      j0 += 4;
    }
  }
  if constexpr (KB > 2) {
    if (j0 + 2 <= k) {
      row_block_dot<2>(rp, ci, va, x, y, i, k, j0);
      j0 += 2;
    }
  }
  if (j0 < k) row_block_dot<1>(rp, ci, va, x, y, i, k, j0);
}

template <int KB>
inline void run_rows(const nnz_t* rp, const index_t* ci, const value_t* va,
                     const value_t* x, value_t* y, index_t lo, index_t hi,
                     index_t k) {
  for (index_t i = lo; i < hi; ++i) {
    row_all_columns<KB>(rp, ci, va, x, y, i, k);
  }
}

template <int KB>
void spmm_plan_exec(const CsrMatrix& a, std::span<const value_t> x,
                    std::span<value_t> y, index_t k, Schedule sched,
                    const SpmvPlan& plan) {
  const nnz_t* rp = a.row_ptr().data();
  const index_t* ci = a.col_idx().data();
  const value_t* va = a.vals().data();
  const value_t* xp = x.data();
  value_t* yp = y.data();
  const index_t nb = plan.num_blocks();
  const index_t* bd = plan.bounds.data();

  // Mirrors the plan-driven spmv_csr dispatch: blocks carry ~equal nonzero
  // counts, so the static policies hand each thread one contiguous run of
  // blocks and Dyn work-steals over the oversubscribed block list.
  if (sched == Schedule::kDyn) {
#pragma omp parallel for schedule(dynamic, 1)
    for (index_t b = 0; b < nb; ++b) {
      run_rows<KB>(rp, ci, va, xp, yp, bd[b], bd[b + 1], k);
    }
  } else {
#pragma omp parallel for schedule(static)
    for (index_t b = 0; b < nb; ++b) {
      run_rows<KB>(rp, ci, va, xp, yp, bd[b], bd[b + 1], k);
    }
  }
}

}  // namespace

void spmm_reference(const CsrMatrix& a, std::span<const value_t> x,
                    std::span<value_t> y, index_t k) {
  check_dims(a, x, y, k);
  const nnz_t* rp = a.row_ptr().data();
  const index_t* ci = a.col_idx().data();
  const value_t* va = a.vals().data();
  const index_t n = a.nrows();
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < k; ++j) {
      value_t acc = 0;
      for (nnz_t p = rp[i]; p < rp[i + 1]; ++p) {
        acc = mul_add(va[p],
                      x[static_cast<std::size_t>(ci[p]) *
                            static_cast<std::size_t>(k) +
                        static_cast<std::size_t>(j)],
                      acc);
      }
      y[static_cast<std::size_t>(i) * static_cast<std::size_t>(k) +
        static_cast<std::size_t>(j)] = acc;
    }
  }
}

void spmm_csr(const CsrMatrix& a, std::span<const value_t> x,
              std::span<value_t> y, index_t k, const SpmmConfig& cfg,
              const SpmvPlan& plan) {
  check_dims(a, x, y, k);
  if (!plan.covers(a.nrows())) {
    throw std::invalid_argument("spmm_csr: plan does not cover the matrix");
  }
  switch (cfg.kb) {
    case 1:
      spmm_plan_exec<1>(a, x, y, k, cfg.sched, plan);
      break;
    case 2:
      spmm_plan_exec<2>(a, x, y, k, cfg.sched, plan);
      break;
    case 4:
      spmm_plan_exec<4>(a, x, y, k, cfg.sched, plan);
      break;
    case 8:
      spmm_plan_exec<8>(a, x, y, k, cfg.sched, plan);
      break;
    default:
      throw std::invalid_argument("spmm_csr: unsupported register block " +
                                  std::to_string(cfg.kb));
  }
}

void spmm_csr(const CsrMatrix& a, std::span<const value_t> x,
              std::span<value_t> y, index_t k, const SpmmConfig& cfg) {
  // The variant table is SpMV-shape-specific; SpMM only needs the
  // nnz-balanced bounds, so build an unspecialized plan.
  const SpmvPlan plan =
      build_csr_plan(a, cfg.sched, omp_get_max_threads(), false);
  spmm_csr(a, x, y, k, cfg, plan);
}

}  // namespace wise::spmm
