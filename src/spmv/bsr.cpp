#include "spmv/bsr.hpp"

#include <map>
#include <stdexcept>

namespace wise {

BsrMatrix BsrMatrix::from_csr(const CsrMatrix& m, int block_size) {
  if (block_size < 1 || block_size > 16) {
    throw std::invalid_argument("BsrMatrix: block size must be in [1, 16]");
  }
  BsrMatrix out;
  out.nrows_ = m.nrows();
  out.ncols_ = m.ncols();
  out.nnz_ = m.nnz();
  out.block_ = block_size;
  out.nblock_rows_ = (m.nrows() + block_size - 1) / block_size;

  const int b = block_size;
  out.block_row_ptr_.assign(static_cast<std::size_t>(out.nblock_rows_) + 1, 0);

  // Pass 1: discover the distinct block columns of each block row.
  // Pass 2: fill values. A per-block-row ordered map keeps this simple and
  // deterministic; block rows are tiny, so the map cost is negligible.
  for (index_t br = 0; br < out.nblock_rows_; ++br) {
    std::map<index_t, std::size_t> block_of;  // block col -> slot in row
    const index_t row_lo = br * b;
    const index_t row_hi = std::min<index_t>(row_lo + b, m.nrows());
    for (index_t i = row_lo; i < row_hi; ++i) {
      for (index_t j : m.row_cols(i)) {
        block_of.emplace(j / b, 0);
      }
    }
    std::size_t slot = out.block_col_idx_.size();
    for (auto& [bc, s] : block_of) {
      out.block_col_idx_.push_back(bc);
      s = slot++;
    }
    out.block_row_ptr_[static_cast<std::size_t>(br) + 1] =
        static_cast<nnz_t>(out.block_col_idx_.size());

    out.vals_.resize(out.block_col_idx_.size() *
                         static_cast<std::size_t>(b) * b,
                     value_t{0});
    for (index_t i = row_lo; i < row_hi; ++i) {
      const auto cols = m.row_cols(i);
      const auto vals = m.row_vals(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        const std::size_t slot_idx = block_of[cols[k] / b];
        const int r = static_cast<int>(i - row_lo);
        const int c = static_cast<int>(cols[k] - (cols[k] / b) * b);
        // Blocks are stored column-major so the SIMD loop over rows in
        // spmv() reads contiguous lanes.
        out.vals_[slot_idx * b * b + static_cast<std::size_t>(c) * b +
                  static_cast<std::size_t>(r)] = vals[k];
      }
    }
  }
  return out;
}

std::size_t BsrMatrix::memory_bytes() const {
  return block_row_ptr_.size() * sizeof(nnz_t) +
         block_col_idx_.size() * sizeof(index_t) +
         vals_.size() * sizeof(value_t);
}

void BsrMatrix::spmv(std::span<const value_t> x,
                     std::span<value_t> y) const {
  if (x.size() != static_cast<std::size_t>(ncols_) ||
      y.size() != static_cast<std::size_t>(nrows_)) {
    throw std::invalid_argument("BsrMatrix::spmv: dimension mismatch");
  }
  const int b = block_;
  const value_t* xp = x.data();
  value_t* yp = y.data();

#pragma omp parallel for schedule(static)
  for (index_t br = 0; br < nblock_rows_; ++br) {
    const index_t row_lo = br * b;
    const int rows_here =
        static_cast<int>(std::min<index_t>(b, nrows_ - row_lo));
    value_t acc[16] = {};
    for (nnz_t k = block_row_ptr_[static_cast<std::size_t>(br)];
         k < block_row_ptr_[static_cast<std::size_t>(br) + 1]; ++k) {
      const index_t col_lo = block_col_idx_[static_cast<std::size_t>(k)] * b;
      const int cols_here =
          static_cast<int>(std::min<index_t>(b, ncols_ - col_lo));
      const value_t* blk =
          vals_.data() + static_cast<std::size_t>(k) * b * b;
      for (int c = 0; c < cols_here; ++c) {
        const value_t xv = xp[col_lo + c];
#pragma omp simd
        for (int r = 0; r < rows_here; ++r) {
          acc[r] += blk[c * b + r] * xv;
        }
      }
    }
    for (int r = 0; r < rows_here; ++r) {
      yp[row_lo + r] = acc[r];
    }
  }
}

CooMatrix BsrMatrix::to_coo() const {
  CooMatrix coo(nrows_, ncols_);
  coo.entries().reserve(static_cast<std::size_t>(nnz_));
  const int b = block_;
  for (index_t br = 0; br < nblock_rows_; ++br) {
    for (nnz_t k = block_row_ptr_[static_cast<std::size_t>(br)];
         k < block_row_ptr_[static_cast<std::size_t>(br) + 1]; ++k) {
      const index_t col_lo = block_col_idx_[static_cast<std::size_t>(k)] * b;
      const value_t* blk = vals_.data() + static_cast<std::size_t>(k) * b * b;
      for (int r = 0; r < b; ++r) {
        const index_t row = br * b + r;
        if (row >= nrows_) break;
        for (int c = 0; c < b; ++c) {
          const index_t col = col_lo + c;
          if (col >= ncols_) break;
          const value_t v = blk[c * b + r];
          if (v != value_t{0}) coo.add(row, col, v);
        }
      }
    }
  }
  coo.canonicalize();
  return coo;
}

std::vector<MethodConfig> extended_method_configs() {
  std::vector<MethodConfig> out = all_method_configs();
  for (int b : {4, 8}) {
    out.push_back(
        {.kind = MethodKind::kBsr, .sched = Schedule::kStCont, .c = b});
  }
  // The diagonal storage format of sparse/dia.hpp: parameterless, run over
  // nnz-balanced plan blocks with a static contiguous partition, and
  // guarded by a selection-time applicability predicate
  // (spmv/applicability.hpp), so choose() never picks DIA for a scattered
  // (e.g. RMAT) matrix that its conversion would reject.
  out.push_back({.kind = MethodKind::kDia, .sched = Schedule::kStCont});
  return out;
}

}  // namespace wise
