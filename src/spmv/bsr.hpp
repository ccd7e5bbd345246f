#pragma once
// BSR (Block Compressed Sparse Row) — an *extension* method beyond the
// paper's five, exercising WISE's central framework claim: "we can add new
// methods without changing already existing models" (§7). BSR stores dense
// b x b blocks, which pays off on matrices with block structure (FEM,
// block-diagonal systems) and loses badly on scattered nonzeros — exactly
// the kind of trade-off WISE's locality features can predict.
//
// The registry below extends the 29 paper configurations with BSR entries;
// the measurement, training, and selection machinery operate on the
// extended space with no other code changes (see ablation_extension).

#include <vector>

#include "sparse/csr.hpp"
#include "spmv/method.hpp"
#include "util/aligned.hpp"

namespace wise {

/// Square-block BSR matrix. Dimensions are padded up to block multiples;
/// padding values are zero.
class BsrMatrix {
 public:
  /// Converts from CSR with b x b blocks (b in [1, 16]).
  static BsrMatrix from_csr(const CsrMatrix& m, int block_size);

  index_t nrows() const { return nrows_; }
  index_t ncols() const { return ncols_; }
  int block_size() const { return block_; }
  index_t num_block_rows() const { return nblock_rows_; }
  nnz_t num_blocks() const {
    return static_cast<nnz_t>(block_col_idx_.size());
  }

  /// Stored values including block padding; stored/nnz - 1 is BSR's fill
  /// overhead (the analogue of SRVPack's padding_ratio).
  nnz_t stored_entries() const {
    return num_blocks() * block_ * block_;
  }
  double fill_ratio() const {
    return nnz_ == 0 ? 0.0
                     : static_cast<double>(stored_entries()) /
                               static_cast<double>(nnz_) -
                           1.0;
  }

  std::size_t memory_bytes() const;

  /// y = A*x (parallel over block rows). y is fully overwritten.
  void spmv(std::span<const value_t> x, std::span<value_t> y) const;

  /// Expands back to canonical COO (round-trip test support).
  CooMatrix to_coo() const;

 private:
  index_t nrows_ = 0;
  index_t ncols_ = 0;
  nnz_t nnz_ = 0;
  int block_ = 1;
  index_t nblock_rows_ = 0;
  std::vector<nnz_t> block_row_ptr_;
  std::vector<index_t> block_col_idx_;
  aligned_vector<value_t> vals_;  ///< num_blocks * b * b, block-row-major
};

/// The extended configuration space: the paper's 29 plus BSR with block
/// sizes {4, 8} and DIA (sparse/dia.hpp). Extension entries sort after
/// every paper method in the preprocessing-cost tie-break.
std::vector<MethodConfig> extended_method_configs();

}  // namespace wise
