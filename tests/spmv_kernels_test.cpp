// Correctness tests for every SpMV kernel against the serial reference,
// parameterized over the full 29-configuration method space and several
// matrix shapes.

#include <gtest/gtest.h>

#include <omp.h>

#include "spmv/csr_kernels.hpp"
#include "spmv/executor.hpp"
#include "spmv/method.hpp"
#include "spmv/srvpack_kernels.hpp"
#include "test_util.hpp"

namespace wise {
namespace {

using testing::expect_vectors_near;
using testing::random_csr;
using testing::random_vector;

// -------------------------------------------------------- CSR kernels ----

class CsrScheduleTest : public ::testing::TestWithParam<Schedule> {};

TEST_P(CsrScheduleTest, MatchesReferenceOnRandomMatrices) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const CsrMatrix m = random_csr(200, 150, 6.0, seed);
    const auto x = random_vector(150, seed + 100);
    std::vector<value_t> y_ref(200), y(200, -1.0);
    spmv_reference(m, x, y_ref);
    spmv_csr(m, x, y, GetParam());
    expect_vectors_near(y_ref, y);
  }
}

TEST_P(CsrScheduleTest, WritesZerosForEmptyRows) {
  CooMatrix coo(6, 6);
  coo.add(2, 3, 5.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const auto x = random_vector(6, 1);
  std::vector<value_t> y(6, -99.0);
  spmv_csr(m, x, y, GetParam());
  for (index_t i = 0; i < 6; ++i) {
    if (i != 2) {
      EXPECT_EQ(y[static_cast<std::size_t>(i)], 0.0);
    }
  }
}

TEST_P(CsrScheduleTest, RejectsDimensionMismatch) {
  const CsrMatrix m = random_csr(4, 5, 2.0, 1);
  std::vector<value_t> x(5), y_small(3);
  EXPECT_THROW(spmv_csr(m, x, y_small, GetParam()), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllSchedules, CsrScheduleTest,
                         ::testing::Values(Schedule::kDyn, Schedule::kSt,
                                           Schedule::kStCont),
                         [](const auto& info) {
                           return schedule_name(info.param);
                         });

TEST(MklLike, MatchesReference) {
  for (std::uint64_t seed : {4u, 5u}) {
    const CsrMatrix m = random_csr(300, 300, 8.0, seed);
    const auto x = random_vector(300, seed);
    std::vector<value_t> y_ref(300), y(300, -1.0);
    spmv_reference(m, x, y_ref);
    spmv_csr_mkl_like(m, x, y);
    expect_vectors_near(y_ref, y);
  }
}

TEST(MklLike, CoversLeadingAndTrailingEmptyRows) {
  CooMatrix coo(10, 10);
  coo.add(4, 4, 2.0);  // rows 0-3 and 5-9 empty
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const auto x = random_vector(10, 2);
  std::vector<value_t> y(10, -7.0);
  spmv_csr_mkl_like(m, x, y);
  for (index_t i = 0; i < 10; ++i) {
    if (i != 4) {
      EXPECT_EQ(y[static_cast<std::size_t>(i)], 0.0) << "row " << i;
    }
  }
  EXPECT_NEAR(y[4], 2.0 * x[4], 1e-12);
}

TEST(MklLike, HandlesHighlySkewedRowLengths) {
  // One giant row plus many tiny ones exercises the nnz-balanced split.
  CooMatrix coo(100, 100);
  for (index_t j = 0; j < 100; ++j) coo.add(0, j, 1.0);
  for (index_t i = 1; i < 100; ++i) coo.add(i, i, 1.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const auto x = random_vector(100, 3);
  std::vector<value_t> y_ref(100), y(100);
  spmv_reference(m, x, y_ref);
  spmv_csr_mkl_like(m, x, y);
  expect_vectors_near(y_ref, y);
}

// ------------------------------------------------- full method space ----

struct ConfigCase {
  MethodConfig cfg;
  std::string name;
};

std::vector<ConfigCase> all_cases() {
  std::vector<ConfigCase> cases;
  for (const auto& cfg : all_method_configs()) {
    std::string name = cfg.name();
    for (char& ch : name) {
      if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
    }
    cases.push_back({cfg, std::move(name)});
  }
  return cases;
}

class MethodSpaceTest : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(MethodSpaceTest, PreparedRunMatchesReference) {
  const auto& cfg = GetParam().cfg;
  for (std::uint64_t seed : {10u, 20u}) {
    const CsrMatrix m = random_csr(257, 193, 7.0, seed);  // odd, non-square
    const auto x = random_vector(193, seed + 1);
    std::vector<value_t> y_ref(257), y(257, -1.0);
    spmv_reference(m, x, y_ref);
    PreparedMatrix pm = PreparedMatrix::prepare(m, cfg);
    pm.run(x, y);
    expect_vectors_near(y_ref, y);
  }
}

TEST_P(MethodSpaceTest, SecondRunIsIdentical) {
  // Workspace reuse across iterations must not corrupt results.
  const auto& cfg = GetParam().cfg;
  const CsrMatrix m = random_csr(100, 100, 5.0, 42);
  const auto x = random_vector(100, 43);
  std::vector<value_t> y1(100), y2(100);
  PreparedMatrix pm = PreparedMatrix::prepare(m, cfg);
  pm.run(x, y1);
  pm.run(x, y2);
  EXPECT_EQ(y1, y2);
}

TEST_P(MethodSpaceTest, HandlesSkewedPowerLawMatrix) {
  const auto& cfg = GetParam().cfg;
  const RmatParams params{.n = 256, .avg_degree = 8.0};
  const CsrMatrix m = CsrMatrix::from_coo(generate_rmat(params, 7));
  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 8);
  std::vector<value_t> y_ref(static_cast<std::size_t>(m.nrows()));
  std::vector<value_t> y(y_ref.size());
  spmv_reference(m, x, y_ref);
  PreparedMatrix pm = PreparedMatrix::prepare(m, cfg);
  pm.run(x, y);
  expect_vectors_near(y_ref, y);
}

INSTANTIATE_TEST_SUITE_P(All29Configs, MethodSpaceTest,
                         ::testing::ValuesIn(all_cases()),
                         [](const auto& info) { return info.param.name; });

// --------------------------------------------------- SRVPack kernels ----

TEST(SrvPackKernel, GenericWidthFallbackWorks) {
  // c=3 is not an instantiated SIMD width; exercises run_chunks_generic.
  const CsrMatrix m = random_csr(50, 50, 4.0, 9);
  const SrvPackMatrix p = SrvPackMatrix::build(m, {.c = 3, .sigma = 8});
  const auto x = random_vector(50, 10);
  std::vector<value_t> y_ref(50), y(50);
  spmv_reference(m, x, y_ref);
  SrvWorkspace ws;
  spmv_srvpack(p, x, y, Schedule::kDyn, ws,
               build_srv_plan(p, Schedule::kDyn, omp_get_max_threads()));
  expect_vectors_near(y_ref, y);
}

TEST(SrvPackKernel, RejectsDimensionMismatch) {
  const CsrMatrix m = random_csr(10, 10, 2.0, 1);
  const SrvPackMatrix p = SrvPackMatrix::build(m, {.c = 4});
  std::vector<value_t> x(10), y(5);
  SrvWorkspace ws;
  EXPECT_THROW(spmv_srvpack(p, x, y, Schedule::kDyn, ws,
                            testing::one_block_srv_plan(p)),
               std::invalid_argument);
}

TEST(SrvPackKernel, EmptyMatrixProducesZeroVector) {
  const CsrMatrix m = CsrMatrix::from_coo(CooMatrix(5, 5));
  const SrvPackMatrix p = SrvPackMatrix::build(m, {.c = 4});
  const auto x = random_vector(5, 2);
  std::vector<value_t> y(5, 1.0);
  SrvWorkspace ws;
  spmv_srvpack(p, x, y, Schedule::kStCont, ws,
               testing::one_block_srv_plan(p));
  for (value_t v : y) EXPECT_EQ(v, 0.0);
}

TEST(SrvPackKernel, SingleColumnMatrix) {
  CooMatrix coo(8, 1);
  for (index_t i = 0; i < 8; ++i) coo.add(i, 0, static_cast<value_t>(i + 1));
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const SrvPackMatrix p =
      SrvPackMatrix::build(m, {.c = 4, .sigma = kSigmaAll, .cfs = true});
  const std::vector<value_t> x = {2.0};
  std::vector<value_t> y(8);
  SrvWorkspace ws;
  spmv_srvpack(p, x, y, Schedule::kDyn, ws,
               build_srv_plan(p, Schedule::kDyn, omp_get_max_threads()));
  for (index_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(y[static_cast<std::size_t>(i)], 2.0 * (i + 1));
  }
}

// ------------------------------------------------------------ executor ----

TEST(Executor, CsrPrepareHasZeroPreprocessingTime) {
  const CsrMatrix m = random_csr(50, 50, 3.0, 1);
  PreparedMatrix pm = PreparedMatrix::prepare(
      m, {.kind = MethodKind::kCsr, .sched = Schedule::kDyn});
  EXPECT_EQ(pm.prep_seconds(), 0.0);
  EXPECT_EQ(pm.memory_bytes(), m.memory_bytes());
}

TEST(Executor, PackedPrepareMeasuresTime) {
  const CsrMatrix m = random_csr(500, 500, 8.0, 2);
  PreparedMatrix pm = PreparedMatrix::prepare(
      m, {.kind = MethodKind::kLav,
          .sched = Schedule::kDyn,
          .c = 8,
          .sigma = kSigmaAll,
          .T = 0.8});
  EXPECT_GT(pm.prep_seconds(), 0.0);
  EXPECT_GT(pm.memory_bytes(), 0u);
}

TEST(Executor, TimeSpmvReturnsPositiveSeconds) {
  const CsrMatrix m = random_csr(100, 100, 4.0, 3);
  const auto x = random_vector(100, 4);
  std::vector<value_t> y(100);
  PreparedMatrix pm = PreparedMatrix::prepare(
      m, {.kind = MethodKind::kCsr, .sched = Schedule::kStCont});
  EXPECT_GT(time_spmv(pm, x, y, 2, 2), 0.0);
}

}  // namespace
}  // namespace wise
