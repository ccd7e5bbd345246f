// Tests for the COO/CSR substrate and Matrix Market I/O.

#include <gtest/gtest.h>

#include <omp.h>

#include <limits>
#include <sstream>
#include <string>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/mmio.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace wise {
namespace {

using testing::expect_vectors_near;
using testing::random_csr;
using testing::random_vector;

TEST(Coo, CanonicalizeSortsAndMergesDuplicates) {
  CooMatrix coo(3, 3);
  coo.add(2, 1, 1.0);
  coo.add(0, 0, 2.0);
  coo.add(2, 1, 3.0);
  coo.add(0, 2, 4.0);
  coo.canonicalize();
  ASSERT_EQ(coo.nnz(), 3);
  EXPECT_TRUE(coo.is_canonical());
  EXPECT_EQ(coo.entries()[0], (Triplet{0, 0, 2.0}));
  EXPECT_EQ(coo.entries()[1], (Triplet{0, 2, 4.0}));
  EXPECT_EQ(coo.entries()[2], (Triplet{2, 1, 4.0}));  // 1.0 + 3.0 merged
}

TEST(Coo, CanonicalizeKeepsExactZeroSums) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(0, 0, -1.0);
  coo.canonicalize();
  ASSERT_EQ(coo.nnz(), 1);  // structural nonzero with stored value 0
  EXPECT_EQ(coo.entries()[0].val, 0.0);
}

TEST(Coo, ValidateRejectsOutOfRange) {
  CooMatrix coo(2, 2);
  coo.add(2, 0, 1.0);
  EXPECT_THROW(coo.validate(), Error);
  CooMatrix coo2(2, 2);
  coo2.add(0, -1, 1.0);
  EXPECT_THROW(coo2.validate(), Error);
}

TEST(Coo, ValidateRejectsNonFiniteValues) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, std::numeric_limits<value_t>::quiet_NaN());
  try {
    coo.validate();
    FAIL() << "expected wise::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kValidation);
  }
}

TEST(Coo, IsCanonicalDetectsUnsortedAndDuplicates) {
  CooMatrix coo(2, 2);
  coo.add(1, 0, 1.0);
  coo.add(0, 0, 1.0);
  EXPECT_FALSE(coo.is_canonical());
  CooMatrix dup(2, 2);
  dup.add(0, 0, 1.0);
  dup.add(0, 0, 1.0);
  EXPECT_FALSE(dup.is_canonical());
}

TEST(Csr, FromCooBuildsCorrectArrays) {
  CooMatrix coo(3, 4);
  coo.add(0, 1, 1.0);
  coo.add(0, 3, 2.0);
  coo.add(2, 0, 3.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  EXPECT_EQ(m.nrows(), 3);
  EXPECT_EQ(m.ncols(), 4);
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.row_nnz(0), 2);
  EXPECT_EQ(m.row_nnz(1), 0);
  EXPECT_EQ(m.row_nnz(2), 1);
  EXPECT_EQ(m.row_cols(0)[0], 1);
  EXPECT_EQ(m.row_cols(0)[1], 3);
  EXPECT_EQ(m.row_vals(2)[0], 3.0);
}

TEST(Csr, RoundTripsThroughCoo) {
  const CsrMatrix m = random_csr(50, 40, 5.0, 1);
  const CsrMatrix back = CsrMatrix::from_coo(m.to_coo());
  EXPECT_EQ(m, back);
}

TEST(Csr, TransposeTwiceIsIdentity) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const CsrMatrix m = random_csr(60, 30, 4.0, seed);
    EXPECT_EQ(m, m.transpose().transpose()) << "seed " << seed;
  }
}

TEST(Csr, TransposeSwapsCoordinates) {
  CooMatrix coo(2, 3);
  coo.add(0, 2, 5.0);
  const CsrMatrix t = CsrMatrix::from_coo(coo).transpose();
  EXPECT_EQ(t.nrows(), 3);
  EXPECT_EQ(t.ncols(), 2);
  EXPECT_EQ(t.row_nnz(2), 1);
  EXPECT_EQ(t.row_cols(2)[0], 0);
  EXPECT_EQ(t.row_vals(2)[0], 5.0);
}

TEST(Csr, ColCountsMatchTransposeRowCounts) {
  const CsrMatrix m = random_csr(40, 70, 6.0, 9);
  const CsrMatrix t = m.transpose();
  const auto counts = m.col_counts();
  for (index_t j = 0; j < m.ncols(); ++j) {
    EXPECT_EQ(counts[static_cast<std::size_t>(j)], t.row_nnz(j));
  }
}

TEST(Csr, ValidateCatchesCorruptMatrices) {
  // Non-monotone row_ptr.
  EXPECT_THROW(CsrMatrix(2, 2, {0, 2, 1}, {0, 1}, {1.0, 1.0}), Error);
  // Column out of range.
  EXPECT_THROW(CsrMatrix(1, 2, {0, 1}, {5}, {1.0}), Error);
  // Unsorted columns within a row.
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {2, 1}, {1.0, 1.0}), Error);
  // Length mismatch.
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {0, 1}, {1.0}), Error);
  // Non-finite value.
  EXPECT_THROW(
      CsrMatrix(1, 2, {0, 1}, {0},
                {std::numeric_limits<value_t>::infinity()}),
      Error);
}

/// validate()'s message, or "" when the matrix is valid.
std::string validation_message(const CsrMatrix& m) {
  try {
    m.validate();
  } catch (const Error& e) {
    return e.message();
  }
  return "";
}

TEST(Csr, ValidateNamesTheFirstBadRowAndValueAtAnyThreadCount) {
  // Large enough for validate()'s parallel pre-scan; each case corrupts two
  // places far apart, so different threads see them, and the message must
  // still name the lower one — exactly as a serial scan would.
  const int ambient = omp_get_max_threads();
  const index_t n = 20000;
  const index_t low_row = n / 3;
  const index_t high_row = 2 * n / 3 + 1;
  const auto poke_col = [](CsrMatrix& m, nnz_t k, index_t c) {
    const_cast<index_t&>(m.col_idx()[static_cast<std::size_t>(k)]) = c;
  };
  const auto poke_nan = [](CsrMatrix& m, nnz_t k) {
    const_cast<value_t&>(m.vals()[static_cast<std::size_t>(k)]) =
        std::numeric_limits<value_t>::quiet_NaN();
  };
  const auto first_of = [](const CsrMatrix& m, index_t row) {
    return m.row_ptr()[static_cast<std::size_t>(row)];
  };

  CsrMatrix bad_rows = random_csr(n, n, 5.0, 41);
  ASSERT_GE(bad_rows.row_nnz(low_row), 1);
  ASSERT_GE(bad_rows.row_nnz(high_row), 2);
  poke_col(bad_rows, first_of(bad_rows, low_row), n);  // out of range
  poke_col(bad_rows, first_of(bad_rows, high_row) + 1,
           bad_rows.col_idx()[static_cast<std::size_t>(
               first_of(bad_rows, high_row))]);  // not strictly sorted

  CsrMatrix bad_vals = random_csr(n, n, 5.0, 42);
  const nnz_t low_nz = bad_vals.nnz() / 3 + 7;
  const nnz_t high_nz = 2 * bad_vals.nnz() / 3;
  poke_nan(bad_vals, high_nz);
  poke_nan(bad_vals, low_nz);

  // A bad row outranks an earlier NaN: the serial scan checks columns first.
  CsrMatrix both = random_csr(n, n, 5.0, 43);
  ASSERT_GE(both.row_nnz(high_row), 1);
  poke_nan(both, 3);
  poke_col(both, first_of(both, high_row), -1);

  for (const int threads : {1, 2, 3, 8}) {
    omp_set_num_threads(threads);
    EXPECT_EQ(validation_message(bad_rows),
              "CsrMatrix: column index out of range in row " +
                  std::to_string(low_row))
        << threads << " threads";
    EXPECT_EQ(validation_message(bad_vals),
              "CsrMatrix: non-finite value at nonzero " +
                  std::to_string(low_nz))
        << threads << " threads";
    EXPECT_EQ(validation_message(both),
              "CsrMatrix: column index out of range in row " +
                  std::to_string(high_row))
        << threads << " threads";
  }
  omp_set_num_threads(ambient);
}

TEST(Csr, EmptyMatrixIsValid) {
  const CsrMatrix m;
  EXPECT_EQ(m.nrows(), 0);
  EXPECT_EQ(m.nnz(), 0);
}

TEST(Csr, MemoryBytesCountsAllArrays) {
  const CsrMatrix m = random_csr(10, 10, 3.0, 4);
  const std::size_t expected = 11 * sizeof(nnz_t) +
                               static_cast<std::size_t>(m.nnz()) *
                                   (sizeof(index_t) + sizeof(value_t));
  EXPECT_EQ(m.memory_bytes(), expected);
}

TEST(SpmvReference, ComputesKnownProduct) {
  CooMatrix coo(2, 3);
  coo.add(0, 0, 1.0);
  coo.add(0, 2, 2.0);
  coo.add(1, 1, 3.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const std::vector<value_t> x = {1.0, 2.0, 3.0};
  std::vector<value_t> y(2);
  spmv_reference(m, x, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(SpmvReference, RejectsDimensionMismatch) {
  const CsrMatrix m = random_csr(4, 5, 2.0, 2);
  std::vector<value_t> x(4), y(4);
  EXPECT_THROW(spmv_reference(m, x, y), std::invalid_argument);
}

// ---------------------------------------------------------------- mmio ----

TEST(Mmio, ParsesGeneralRealMatrix) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 3 2\n"
      "1 1 1.5\n"
      "3 2 -2.0\n");
  const CooMatrix coo = read_matrix_market(in);
  EXPECT_EQ(coo.nrows(), 3);
  EXPECT_EQ(coo.nnz(), 2);
  EXPECT_EQ(coo.entries()[0], (Triplet{0, 0, 1.5}));
  EXPECT_EQ(coo.entries()[1], (Triplet{2, 1, -2.0}));
}

TEST(Mmio, ExpandsSymmetricStorage) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "2 1 4.0\n"
      "3 3 1.0\n");
  const CooMatrix coo = read_matrix_market(in);
  EXPECT_EQ(coo.nnz(), 3);  // off-diagonal mirrored, diagonal not duplicated
  EXPECT_EQ(coo.entries()[0], (Triplet{0, 1, 4.0}));
  EXPECT_EQ(coo.entries()[1], (Triplet{1, 0, 4.0}));
}

TEST(Mmio, ExpandsSkewSymmetricWithNegation) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "2 2 1\n"
      "2 1 3.0\n");
  const CooMatrix coo = read_matrix_market(in);
  ASSERT_EQ(coo.nnz(), 2);
  EXPECT_EQ(coo.entries()[0], (Triplet{0, 1, -3.0}));
  EXPECT_EQ(coo.entries()[1], (Triplet{1, 0, 3.0}));
}

TEST(Mmio, PatternEntriesGetUnitValues) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 1\n"
      "1 2\n");
  const CooMatrix coo = read_matrix_market(in);
  EXPECT_EQ(coo.entries()[0], (Triplet{0, 1, 1.0}));
}

TEST(Mmio, ParsesIntegerField) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate integer general\n"
      "1 1 1\n"
      "1 1 7\n");
  EXPECT_EQ(read_matrix_market(in).entries()[0].val, 7.0);
}

TEST(Mmio, RejectsMalformedInput) {
  std::istringstream bad_banner("%%NotMM matrix coordinate real general\n");
  EXPECT_THROW(read_matrix_market(bad_banner), std::runtime_error);

  std::istringstream complex_field(
      "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n");
  EXPECT_THROW(read_matrix_market(complex_field), std::runtime_error);

  std::istringstream array_fmt("%%MatrixMarket matrix array real general\n");
  EXPECT_THROW(read_matrix_market(array_fmt), std::runtime_error);

  std::istringstream oob(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n");
  EXPECT_THROW(read_matrix_market(oob), std::runtime_error);

  std::istringstream truncated(
      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(truncated), std::runtime_error);
}

TEST(Mmio, WriteReadRoundTrip) {
  const CsrMatrix m = random_csr(20, 25, 3.0, 7);
  std::stringstream buf;
  write_matrix_market(buf, m.to_coo());
  const CooMatrix back = read_matrix_market(buf);
  EXPECT_EQ(CsrMatrix::from_coo(back), m);
}

}  // namespace
}  // namespace wise
