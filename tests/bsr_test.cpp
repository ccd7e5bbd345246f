// Tests for the BSR extension format and the extended method registry.

#include <gtest/gtest.h>

#include "spmv/bsr.hpp"
#include "spmv/executor.hpp"
#include "test_util.hpp"

namespace wise {
namespace {

using testing::expect_vectors_near;
using testing::random_csr;
using testing::random_vector;

TEST(Bsr, RejectsBadBlockSizes) {
  const CsrMatrix m = random_csr(8, 8, 2.0, 1);
  EXPECT_THROW(BsrMatrix::from_csr(m, 0), std::invalid_argument);
  EXPECT_THROW(BsrMatrix::from_csr(m, 17), std::invalid_argument);
}

TEST(Bsr, RoundTripsThroughCoo) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const CsrMatrix m = random_csr(50, 37, 4.0, seed);  // non-multiple dims
    for (int b : {1, 2, 4, 8}) {
      const BsrMatrix bsr = BsrMatrix::from_csr(m, b);
      EXPECT_EQ(CsrMatrix::from_coo(bsr.to_coo()), m)
          << "b=" << b << " seed=" << seed;
    }
  }
}

TEST(Bsr, SpmvMatchesReference) {
  for (std::uint64_t seed : {4u, 5u}) {
    const CsrMatrix m = random_csr(123, 97, 5.0, seed);
    const auto x = random_vector(97, seed);
    std::vector<value_t> y_ref(123), y(123, -1);
    spmv_reference(m, x, y_ref);
    for (int b : {2, 4, 8}) {
      BsrMatrix::from_csr(m, b).spmv(x, y);
      expect_vectors_near(y_ref, y);
    }
  }
}

TEST(Bsr, SpmvWritesZerosForEmptyRows) {
  CooMatrix coo(10, 10);
  coo.add(4, 4, 3.0);
  const BsrMatrix bsr = BsrMatrix::from_csr(CsrMatrix::from_coo(coo), 4);
  const auto x = random_vector(10, 6);
  std::vector<value_t> y(10, -1);
  bsr.spmv(x, y);
  for (index_t i = 0; i < 10; ++i) {
    if (i != 4) {
      EXPECT_EQ(y[static_cast<std::size_t>(i)], 0.0);
    }
  }
}

TEST(Bsr, FillRatioZeroOnDenseBlocks) {
  // A fully dense 8x8 matrix with b=4 has zero fill overhead.
  CooMatrix coo(8, 8);
  for (index_t i = 0; i < 8; ++i) {
    for (index_t j = 0; j < 8; ++j) coo.add(i, j, 1.0);
  }
  const BsrMatrix bsr = BsrMatrix::from_csr(CsrMatrix::from_coo(coo), 4);
  EXPECT_DOUBLE_EQ(bsr.fill_ratio(), 0.0);
  EXPECT_EQ(bsr.num_blocks(), 4);
}

TEST(Bsr, FillRatioHighOnScatteredNonzeros) {
  // A diagonal matrix with b=8 wastes 63/64 of each block.
  CooMatrix coo(64, 64);
  for (index_t i = 0; i < 64; ++i) coo.add(i, i, 1.0);
  const BsrMatrix bsr = BsrMatrix::from_csr(CsrMatrix::from_coo(coo), 8);
  EXPECT_DOUBLE_EQ(bsr.fill_ratio(), 7.0);  // 8*64 stored for 64 nonzeros
}

TEST(Bsr, BlockStructuredMatrixBeatsScatteredInMemory) {
  const CsrMatrix blocky =
      CsrMatrix::from_coo(generate_block_diag(512, 8, 0.9, 7));
  const CsrMatrix scattered = random_csr(512, 512, 8.0, 8);
  const auto bsr_blocky = BsrMatrix::from_csr(blocky, 8);
  const auto bsr_scattered = BsrMatrix::from_csr(scattered, 8);
  EXPECT_LT(bsr_blocky.fill_ratio(), bsr_scattered.fill_ratio());
}

TEST(Bsr, HandlesEmptyMatrix) {
  const CsrMatrix m = CsrMatrix::from_coo(CooMatrix(5, 5));
  const BsrMatrix bsr = BsrMatrix::from_csr(m, 4);
  EXPECT_EQ(bsr.num_blocks(), 0);
  EXPECT_DOUBLE_EQ(bsr.fill_ratio(), 0.0);
}

// --------------------------------------------- extended registry ----

TEST(ExtendedRegistry, AddsExtensionsWithoutTouchingPaperConfigs) {
  const auto base = all_method_configs();
  const auto ext = extended_method_configs();
  ASSERT_EQ(ext.size(), base.size() + 3);  // 2 BSR + DIA
  // The paper's 29 come first, untouched — existing models stay valid.
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(ext[i], base[i]);
  }
  EXPECT_EQ(ext[base.size()].kind, MethodKind::kBsr);
  EXPECT_EQ(ext[base.size()].name(), "BSR/b4");
  EXPECT_EQ(ext[base.size() + 1].name(), "BSR/b8");
  EXPECT_EQ(ext[base.size() + 2].name(), "DIA");
}

TEST(ExtendedRegistry, BsrNameParsesBack) {
  const MethodConfig cfg{.kind = MethodKind::kBsr,
                         .sched = Schedule::kStCont,
                         .c = 8};
  EXPECT_EQ(parse_method_config(cfg.name()), cfg);
}

TEST(ExtendedRegistry, BsrSortsAfterPaperMethodsInTieBreak) {
  const MethodConfig bsr{.kind = MethodKind::kBsr,
                         .sched = Schedule::kStCont,
                         .c = 4};
  const MethodConfig lav{.kind = MethodKind::kLav,
                         .sched = Schedule::kDyn,
                         .c = 8,
                         .sigma = kSigmaAll,
                         .T = 0.9};
  EXPECT_GT(bsr.selection_rank(), lav.selection_rank());
}

TEST(ExtendedRegistry, PreparedMatrixRunsBsrConfigs) {
  const CsrMatrix m = random_csr(200, 200, 6.0, 9);
  const auto x = random_vector(200, 10);
  std::vector<value_t> y_ref(200), y(200);
  spmv_reference(m, x, y_ref);
  for (const auto& cfg : extended_method_configs()) {
    if (cfg.kind != MethodKind::kBsr) continue;
    PreparedMatrix pm = PreparedMatrix::prepare(m, cfg);
    EXPECT_GT(pm.prep_seconds(), 0.0);
    pm.run(x, y);
    expect_vectors_near(y_ref, y);
  }
}

}  // namespace
}  // namespace wise
