#include "spmv/format_kernels.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace wise {

void spmv_dia(const DiaMatrix& a, std::span<const value_t> x,
              std::span<value_t> y, const SpmvPlan& plan) {
  if (x.size() != static_cast<std::size_t>(a.ncols()) ||
      y.size() != static_cast<std::size_t>(a.nrows())) {
    throw std::invalid_argument("spmv_dia: dimension mismatch");
  }
  if (!plan.covers(a.nrows())) {
    throw std::invalid_argument("spmv_dia: plan does not cover the matrix");
  }
  const std::int64_t* off = a.offsets().data();
  const char* dense = a.lane_dense().data();
  const value_t* vals = a.vals().data();
  const std::size_t n = static_cast<std::size_t>(a.nrows());
  const index_t nd = a.num_diagonals();
  const index_t ncols = a.ncols();
  const value_t* xp = x.data();
  value_t* yp = y.data();
  // One contiguous run of plan blocks per thread (DIA registers with
  // kStCont). Rows are computed independently, so the partition never
  // affects the bits.
  const index_t nb = plan.num_blocks();
  const index_t* bd = plan.bounds.data();
#pragma omp parallel for schedule(static)
  for (index_t b = 0; b < nb; ++b) {
    const index_t lo = bd[b];
    const index_t hi = bd[b + 1];
    for (index_t i = lo; i < hi; ++i) yp[i] = 0.0;
    for (index_t d = 0; d < nd; ++d) {
      const std::int64_t o = off[d];
      const value_t* lane = vals + static_cast<std::size_t>(d) * n;
      const index_t ilo = static_cast<index_t>(
          std::max<std::int64_t>(lo, -o));
      const index_t ihi = static_cast<index_t>(std::min<std::int64_t>(
          hi, static_cast<std::int64_t>(ncols) - o));
      if (dense[d]) {
        // No fill: every lane cell in [ilo, ihi) is a real entry, so the
        // unguarded triad is exact — and fully vectorizable, since it has
        // no branch, no index load, and no gather.
#pragma omp simd
        for (index_t i = ilo; i < ihi; ++i) {
          yp[i] += lane[i] * xp[i + o];
        }
      } else {
        for (index_t i = ilo; i < ihi; ++i) {
          const value_t v = lane[i];
          if (v != 0.0) yp[i] += v * xp[i + o];
        }
      }
    }
  }
}

}  // namespace wise
