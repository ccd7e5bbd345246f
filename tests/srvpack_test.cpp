// Tests for the SRVPack unified format (paper Appendix A).

#include <gtest/gtest.h>

#include <omp.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "sparse/srvpack.hpp"
#include "spmv/method.hpp"
#include "test_util.hpp"

namespace wise {
namespace {

using testing::paper_example_matrix;
using testing::random_csr;

SrvBuildOptions sellpack_opts(int c) { return {.c = c}; }

TEST(SrvPack, RejectsInvalidOptions) {
  const CsrMatrix m = random_csr(8, 8, 2.0, 1);
  EXPECT_THROW(SrvPackMatrix::build(m, {.c = 0}), std::invalid_argument);
  EXPECT_THROW(SrvPackMatrix::build(m, {.c = 65}), std::invalid_argument);
  EXPECT_THROW(SrvPackMatrix::build(m, {.c = 4, .sigma = 0}),
               std::invalid_argument);
  EXPECT_THROW(
      SrvPackMatrix::build(
          m, {.c = 4, .sigma = 1, .cfs = true, .segment_fractions = {1.5}}),
      std::invalid_argument);
}

TEST(SrvPack, SellpackLayoutMatchesPaperFigure1b) {
  // Fig 1b: SELLPACK with c=2 chunks the 8 rows into 4 chunks of lengths
  // max(4,1)=4, max(2,2)=2, max(1,2)=2, max(3,2)=3.
  const CsrMatrix m = paper_example_matrix();
  const SrvPackMatrix p = SrvPackMatrix::build(m, sellpack_opts(2));
  ASSERT_EQ(p.segments().size(), 1u);
  const auto& seg = p.segments()[0];
  ASSERT_EQ(seg.num_chunks(), 4);
  EXPECT_EQ(seg.chunk_offset[1] - seg.chunk_offset[0], 4);
  EXPECT_EQ(seg.chunk_offset[2] - seg.chunk_offset[1], 2);
  EXPECT_EQ(seg.chunk_offset[3] - seg.chunk_offset[2], 2);
  EXPECT_EQ(seg.chunk_offset[4] - seg.chunk_offset[3], 3);
  // Natural row order.
  for (index_t i = 0; i < 8; ++i) {
    EXPECT_EQ(seg.row_order[static_cast<std::size_t>(i)], i);
  }
  // Stored entries = (4+2+2+3)*2 = 22 for 17 nonzeros.
  EXPECT_EQ(p.stored_entries(), 22);
}

TEST(SrvPack, SellCSigmaReducesPaddingVsSellpack) {
  const CsrMatrix m = paper_example_matrix();
  const SrvPackMatrix plain = SrvPackMatrix::build(m, {.c = 2, .sigma = 1});
  const SrvPackMatrix sorted = SrvPackMatrix::build(m, {.c = 2, .sigma = 4});
  EXPECT_LE(sorted.stored_entries(), plain.stored_entries());
  // Fig 1c: with σ=4, c=2 the first window packs rows (0,1) as (r0,r1)
  // sorted by count: r0 has 4, r1 has 1 → still chunk len 4... but rows
  // 2,3 pair to lengths (2,2). Padding must not exceed SELLPACK's.
  EXPECT_LE(sorted.padding_ratio(), plain.padding_ratio());
}

TEST(SrvPack, SigmaAllMatchesFullRfs) {
  const CsrMatrix m = random_csr(100, 100, 6.0, 3);
  const SrvPackMatrix p =
      SrvPackMatrix::build(m, {.c = 4, .sigma = kSigmaAll});
  const auto& seg = p.segments()[0];
  for (std::size_t i = 1; i < seg.row_order.size(); ++i) {
    EXPECT_GE(m.row_nnz(seg.row_order[i - 1]), m.row_nnz(seg.row_order[i]));
  }
}

TEST(SrvPack, RfsDropsEmptyRows) {
  CooMatrix coo(10, 10);
  coo.add(0, 0, 1.0);
  coo.add(5, 5, 2.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const SrvPackMatrix p =
      SrvPackMatrix::build(m, {.c = 4, .sigma = kSigmaAll});
  EXPECT_EQ(p.segments()[0].num_rows(), 2);
}

TEST(SrvPack, NaturalOrderKeepsEmptyRows) {
  CooMatrix coo(10, 10);
  coo.add(0, 0, 1.0);
  coo.add(5, 5, 2.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const SrvPackMatrix p = SrvPackMatrix::build(m, sellpack_opts(4));
  EXPECT_EQ(p.segments()[0].num_rows(), 10);
}

TEST(SrvPack, CfsRecordsColumnPermutation) {
  const CsrMatrix m = random_csr(32, 32, 4.0, 5);
  const SrvPackMatrix p =
      SrvPackMatrix::build(m, {.c = 4, .sigma = kSigmaAll, .cfs = true});
  EXPECT_TRUE(p.has_cfs());
  EXPECT_EQ(p.col_order().size(), 32u);
  // The permutation orders columns by descending count.
  const auto counts = m.col_counts();
  for (std::size_t i = 1; i < p.col_order().size(); ++i) {
    EXPECT_GE(counts[static_cast<std::size_t>(p.col_order()[i - 1])],
              counts[static_cast<std::size_t>(p.col_order()[i])]);
  }
}

TEST(SrvPack, LavSplitsIntoTwoSegments) {
  const CsrMatrix m = random_csr(64, 64, 8.0, 6);
  const SrvPackMatrix p = SrvPackMatrix::build(
      m,
      {.c = 4, .sigma = kSigmaAll, .cfs = true, .segment_fractions = {0.7}});
  ASSERT_EQ(p.segments().size(), 2u);
  EXPECT_EQ(p.segments()[0].col_begin, 0);
  EXPECT_EQ(p.segments()[0].col_end, p.segments()[1].col_begin);
  EXPECT_EQ(p.segments()[1].col_end, 64);
  // The CFS-ordered dense segment must hold the majority of the nonzeros:
  // count actual (non-padding) entries per segment.
  const int c = p.c();
  std::array<nnz_t, 2> seg_nnz{};
  for (int s = 0; s < 2; ++s) {
    const auto& seg = p.segments()[static_cast<std::size_t>(s)];
    for (std::size_t k = 0; k < seg.vals.size(); ++k) {
      if (seg.vals[k] != 0.0) ++seg_nnz[static_cast<std::size_t>(s)];
    }
  }
  (void)c;
  EXPECT_GE(static_cast<double>(seg_nnz[0]),
            0.65 * static_cast<double>(m.nnz()));
  EXPECT_EQ(seg_nnz[0] + seg_nnz[1], m.nnz());
}

struct RoundTripCase {
  const char* name;
  SrvBuildOptions opts;
};

class SrvPackRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(SrvPackRoundTrip, ToCooRecoversOriginalMatrix) {
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    const CsrMatrix m = random_csr(77, 53, 5.0, seed);
    const SrvPackMatrix p = SrvPackMatrix::build(m, GetParam().opts);
    EXPECT_EQ(CsrMatrix::from_coo(p.to_coo()), m)
        << GetParam().name << " seed " << seed;
    EXPECT_EQ(p.nnz(), m.nnz());
    EXPECT_GE(p.stored_entries(), p.nnz());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, SrvPackRoundTrip,
    ::testing::Values(
        RoundTripCase{"sellpack_c4", {.c = 4}},
        RoundTripCase{"sellpack_c8", {.c = 8}},
        RoundTripCase{"sell_c_sigma", {.c = 4, .sigma = 16}},
        RoundTripCase{"sell_c_r", {.c = 8, .sigma = kSigmaAll}},
        RoundTripCase{"lav_1seg",
                      {.c = 4, .sigma = kSigmaAll, .cfs = true}},
        RoundTripCase{"lav",
                      {.c = 8,
                       .sigma = kSigmaAll,
                       .cfs = true,
                       .segment_fractions = {0.7}}},
        RoundTripCase{"lav_t9",
                      {.c = 4,
                       .sigma = kSigmaAll,
                       .cfs = true,
                       .segment_fractions = {0.9}}},
        RoundTripCase{"three_segments",
                      {.c = 4,
                       .sigma = kSigmaAll,
                       .cfs = true,
                       .segment_fractions = {0.5, 0.8}}}),
    [](const auto& info) { return info.param.name; });

TEST(SrvPack, PaddingRatioIsZeroForUniformRows) {
  // Diagonal matrix: every row has exactly one nonzero → no padding.
  CooMatrix coo(16, 16);
  for (index_t i = 0; i < 16; ++i) coo.add(i, i, 1.0);
  const SrvPackMatrix p =
      SrvPackMatrix::build(CsrMatrix::from_coo(coo), sellpack_opts(4));
  EXPECT_DOUBLE_EQ(p.padding_ratio(), 0.0);
}

TEST(SrvPack, HandlesEmptyMatrix) {
  CooMatrix coo(4, 4);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const SrvPackMatrix p = SrvPackMatrix::build(m, sellpack_opts(4));
  EXPECT_EQ(p.nnz(), 0);
  EXPECT_EQ(p.stored_entries(), 0);
  EXPECT_DOUBLE_EQ(p.padding_ratio(), 0.0);
}

TEST(SrvPack, MemoryBytesIsPositiveAndGrowsWithPadding) {
  const CsrMatrix m = random_csr(64, 64, 4.0, 8);
  const SrvPackMatrix tight =
      SrvPackMatrix::build(m, {.c = 4, .sigma = kSigmaAll});
  const SrvPackMatrix padded = SrvPackMatrix::build(m, sellpack_opts(4));
  EXPECT_GT(tight.memory_bytes(), 0u);
  EXPECT_GE(padded.stored_entries(), tight.stored_entries());
}

/// Rows of varied length, every 7th row empty, a few rows with more
/// nonzeros than the largest σ has rows, and a row count that is no
/// multiple of c or σ, so the last chunk is ragged. At 20003 rows every
/// parallel region of the build runs in parallel.
CsrMatrix irregular_matrix(index_t n) {
  Xoshiro256 rng(77);
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    if (i % 7 == 3) continue;
    const index_t len = i % 5000 == 17 ? 4500 : 1 + (i * 31) % 9;
    for (index_t k = 0; k < len; ++k) {
      coo.add(i,
              static_cast<index_t>(
                  rng.next_below(static_cast<std::uint64_t>(n))),
              static_cast<value_t>(0.5 + rng.next_double()));
    }
  }
  coo.canonicalize();
  return CsrMatrix::from_coo(coo);
}

template <typename Vec>
bool same_bytes(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
}

/// Every slot past a lane's row length — and every slot of a lane past the
/// last row — holds exactly (col_begin, +0.0); every slot before it holds a
/// real (here: nonzero) entry.
void expect_exact_padding(const CsrMatrix& m, const SrvPackMatrix& p,
                          const std::string& name) {
  // Position of each original column in the (possibly CFS-permuted) space.
  std::vector<index_t> pos(static_cast<std::size_t>(m.ncols()));
  std::iota(pos.begin(), pos.end(), 0);
  if (p.has_cfs()) {
    for (std::size_t k = 0; k < p.col_order().size(); ++k) {
      pos[static_cast<std::size_t>(p.col_order()[k])] =
          static_cast<index_t>(k);
    }
  }
  const int c = p.c();
  std::size_t bad = 0;
  for (const auto& seg : p.segments()) {
    for (index_t k = 0; k < seg.num_chunks(); ++k) {
      const nnz_t base = seg.chunk_offset[static_cast<std::size_t>(k)];
      const nnz_t chunk_len =
          seg.chunk_offset[static_cast<std::size_t>(k) + 1] - base;
      for (int l = 0; l < c; ++l) {
        const index_t lane_pos = k * c + l;
        nnz_t len = 0;
        if (lane_pos < seg.num_rows()) {
          const index_t row =
              seg.row_order[static_cast<std::size_t>(lane_pos)];
          for (index_t col : m.row_cols(row)) {
            const index_t q = pos[static_cast<std::size_t>(col)];
            len += q >= seg.col_begin && q < seg.col_end ? 1 : 0;
          }
        }
        for (nnz_t j = 0; j < chunk_len; ++j) {
          const auto slot = static_cast<std::size_t>((base + j) * c + l);
          const value_t v = seg.vals[slot];
          if (j < len) {
            bad += v == 0.0 ? 1 : 0;
          } else {
            bad += seg.col_ids[slot] != seg.col_begin || v != 0.0 ||
                           std::signbit(v)
                       ? 1
                       : 0;
          }
        }
      }
    }
  }
  EXPECT_EQ(bad, 0u) << name;
}

TEST(SrvPack, LayoutIsByteIdenticalAcrossThreadCountsWithExactPadding) {
  const int ambient = omp_get_max_threads();
  // The small matrix stays under the parallel thresholds and so covers the
  // serial path too.
  const std::vector<CsrMatrix> matrices = {irregular_matrix(20003),
                                           irregular_matrix(203)};
  for (const CsrMatrix& m : matrices) {
    for (const MethodConfig& cfg : all_method_configs()) {
      if (cfg.kind == MethodKind::kCsr) continue;
      const std::string name = cfg.name() + " n=" + std::to_string(m.nrows());
      omp_set_num_threads(1);
      const SrvPackMatrix ref = SrvPackMatrix::build(m, cfg.srv_options());
      ref.validate();
      expect_exact_padding(m, ref, name);
      for (const int threads : {2, 3, 8}) {
        omp_set_num_threads(threads);
        const SrvPackMatrix p = SrvPackMatrix::build(m, cfg.srv_options());
        ASSERT_EQ(p.segments().size(), ref.segments().size()) << name;
        EXPECT_EQ(p.col_order(), ref.col_order()) << name;
        for (std::size_t s = 0; s < p.segments().size(); ++s) {
          const auto& a = p.segments()[s];
          const auto& b = ref.segments()[s];
          EXPECT_TRUE(same_bytes(a.row_order, b.row_order))
              << name << " segment " << s << " @ " << threads;
          EXPECT_TRUE(same_bytes(a.chunk_offset, b.chunk_offset))
              << name << " segment " << s << " @ " << threads;
          EXPECT_TRUE(same_bytes(a.vals, b.vals))
              << name << " segment " << s << " @ " << threads;
          EXPECT_TRUE(same_bytes(a.col_ids, b.col_ids))
              << name << " segment " << s << " @ " << threads;
        }
      }
    }
  }
  omp_set_num_threads(ambient);
}

}  // namespace
}  // namespace wise
