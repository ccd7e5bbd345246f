// Exhaustive property sweep over the SRVPack option space: every
// combination of chunk height, sort window, CFS, and segmentation must
// (a) round-trip the matrix exactly, (b) compute SpMV correctly under all
// three scheduling policies, and (c) respect structural invariants
// (chunk offsets monotone, stored >= logical nonzeros, row_order a
// sub-permutation).
//
// This is the product-space safety net behind the per-method unit tests:
// a regression in any transform/layout interaction fails here even if the
// five named methods still happen to work.

#include <gtest/gtest.h>

#include <omp.h>

#include <numeric>

#include "spmv/srvpack_kernels.hpp"
#include "test_util.hpp"

namespace wise {
namespace {

using testing::expect_vectors_near;
using testing::random_csr;
using testing::random_vector;

struct OptionCase {
  SrvBuildOptions opts;
  std::string name;
};

std::vector<OptionCase> option_grid() {
  std::vector<OptionCase> cases;
  const std::vector<std::pair<index_t, const char*>> sigmas = {
      {1, "s1"}, {4, "s4"}, {64, "s64"}, {kSigmaAll, "sAll"}};
  const std::vector<std::pair<std::vector<double>, const char*>> segments = {
      {{}, "seg1"}, {{0.7}, "seg2"}, {{0.5, 0.8}, "seg3"}};
  for (int c : {1, 3, 4, 8}) {
    for (const auto& [sigma, sname] : sigmas) {
      for (bool cfs : {false, true}) {
        for (const auto& [fractions, gname] : segments) {
          // Multi-segment without CFS is legal too — include it.
          SrvBuildOptions opts;
          opts.c = c;
          opts.sigma = sigma;
          opts.cfs = cfs;
          opts.segment_fractions = fractions;
          std::string name = "c" + std::to_string(c) + "_" + sname + "_" +
                             (cfs ? "cfs" : "nocfs") + "_" + gname;
          cases.push_back({opts, std::move(name)});
        }
      }
    }
  }
  return cases;  // 4 * 4 * 2 * 3 = 96 combinations
}

class SrvPackOptionSpace : public ::testing::TestWithParam<OptionCase> {};

TEST_P(SrvPackOptionSpace, RoundTripsAndComputesCorrectly) {
  const auto& opts = GetParam().opts;
  for (std::uint64_t seed : {101u, 202u}) {
    const CsrMatrix m = random_csr(93, 71, 4.0, seed);
    const SrvPackMatrix p = SrvPackMatrix::build(m, opts);

    // (a) lossless round trip
    EXPECT_EQ(CsrMatrix::from_coo(p.to_coo()), m) << "seed " << seed;

    // (b) SpMV vs reference, all schedules
    const auto x = random_vector(71, seed + 7);
    std::vector<value_t> y_ref(93), y(93);
    spmv_reference(m, x, y_ref);
    SrvWorkspace ws;
    for (Schedule s : {Schedule::kDyn, Schedule::kSt, Schedule::kStCont}) {
      std::fill(y.begin(), y.end(), -1.0);
      spmv_srvpack(p, x, y, s, ws,
                   build_srv_plan(p, s, omp_get_max_threads()));
      expect_vectors_near(y_ref, y);
    }
  }
}

TEST_P(SrvPackOptionSpace, StructuralInvariantsHold) {
  const auto& opts = GetParam().opts;
  const CsrMatrix m = random_csr(120, 80, 5.0, 303);
  const SrvPackMatrix p = SrvPackMatrix::build(m, opts);

  EXPECT_EQ(p.segments().size(), opts.segment_fractions.size() + 1);
  EXPECT_GE(p.stored_entries(), p.nnz());
  EXPECT_GE(p.padding_ratio(), 0.0);

  index_t col_cursor = 0;
  for (const auto& seg : p.segments()) {
    // Segments tile the column range in order.
    EXPECT_EQ(seg.col_begin, col_cursor);
    EXPECT_GT(seg.col_end, seg.col_begin);
    col_cursor = seg.col_end;

    // Chunk offsets monotone; chunk count covers the rows.
    EXPECT_EQ(seg.chunk_offset.front(), 0);
    for (std::size_t k = 1; k < seg.chunk_offset.size(); ++k) {
      EXPECT_GE(seg.chunk_offset[k], seg.chunk_offset[k - 1]);
    }
    EXPECT_EQ(seg.num_chunks(),
              (seg.num_rows() + opts.c - 1) / opts.c);
    EXPECT_EQ(seg.vals.size(),
              static_cast<std::size_t>(seg.chunk_offset.back()) *
                  static_cast<std::size_t>(opts.c));
    EXPECT_EQ(seg.col_ids.size(), seg.vals.size());

    // row_order is a duplicate-free subset of [0, nrows).
    std::vector<bool> seen(static_cast<std::size_t>(m.nrows()), false);
    for (index_t r : seg.row_order) {
      ASSERT_GE(r, 0);
      ASSERT_LT(r, m.nrows());
      EXPECT_FALSE(seen[static_cast<std::size_t>(r)]) << "duplicate row " << r;
      seen[static_cast<std::size_t>(r)] = true;
    }

    // Stored column ids stay inside the segment's range (they are padding
    // or real entries; padding uses col_begin).
    for (index_t id : seg.col_ids) {
      EXPECT_GE(id, seg.col_begin);
      EXPECT_LT(id, seg.col_end);
    }
  }
  EXPECT_EQ(col_cursor, m.ncols());
}

INSTANTIATE_TEST_SUITE_P(OptionGrid, SrvPackOptionSpace,
                         ::testing::ValuesIn(option_grid()),
                         [](const auto& info) { return info.param.name; });

// Shape edge cases crossed with a representative option subset.
struct ShapeCase {
  index_t rows, cols;
  double degree;
  std::string name;
};

class SrvPackShapes : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(SrvPackShapes, AllMethodsHandleExtremeShapes) {
  const auto& sc = GetParam();
  const CsrMatrix m = random_csr(sc.rows, sc.cols, sc.degree, 404);
  const auto x = random_vector(static_cast<std::size_t>(sc.cols), 405);
  std::vector<value_t> y_ref(static_cast<std::size_t>(sc.rows));
  std::vector<value_t> y(y_ref.size());
  spmv_reference(m, x, y_ref);

  for (const SrvBuildOptions& opts :
       {SrvBuildOptions{.c = 8},
        SrvBuildOptions{.c = 8, .sigma = 64},
        SrvBuildOptions{.c = 4, .sigma = kSigmaAll, .cfs = true},
        SrvBuildOptions{.c = 8,
                        .sigma = kSigmaAll,
                        .cfs = true,
                        .segment_fractions = {0.7}}}) {
    const SrvPackMatrix p = SrvPackMatrix::build(m, opts);
    SrvWorkspace ws;
    spmv_srvpack(p, x, y, Schedule::kDyn, ws,
                 build_srv_plan(p, Schedule::kDyn, omp_get_max_threads()));
    expect_vectors_near(y_ref, y);
    EXPECT_EQ(CsrMatrix::from_coo(p.to_coo()), m);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SrvPackShapes,
    ::testing::Values(ShapeCase{1, 50, 20, "single_row"},
                      ShapeCase{50, 1, 0.5, "single_col"},
                      ShapeCase{7, 7, 1.0, "tiny_square"},
                      ShapeCase{5, 300, 40, "wide"},
                      ShapeCase{300, 5, 2, "tall"},
                      ShapeCase{64, 64, 32, "dense_half"},
                      ShapeCase{1000, 1000, 0.05, "ultra_sparse"}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace wise
