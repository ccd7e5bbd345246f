// Tests for the DIA extension format: conversion round-trips, rejection
// predicates, the bit-identity contract (DIA must reproduce the serial CSR
// reference exactly — ctest reruns this binary at OMP_NUM_THREADS in
// {1, 2, 8}), and the selection-time applicability mask.

#include <gtest/gtest.h>

#include <stdexcept>

#include "sparse/dia.hpp"
#include "spmv/applicability.hpp"
#include "spmv/bsr.hpp"
#include "spmv/executor.hpp"
#include "util/error.hpp"
#include "wise/selector.hpp"
#include "test_util.hpp"

namespace wise {
namespace {

using testing::random_csr;
using testing::random_vector;

/// The bit-identity check: exact equality, not a tolerance. The DIA
/// kernel replays the serial per-row CSR accumulation order, so any
/// difference at all is a contract violation.
void expect_bit_identical(std::span<const value_t> expected,
                          std::span<const value_t> actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]) << "at element " << i;
  }
}

CsrMatrix banded_csr(index_t n, index_t half_bw, std::uint64_t seed,
                     double density = 1.0) {
  return CsrMatrix::from_coo(generate_banded(n, half_bw, density, seed));
}

// ------------------------------------------------------------------ DIA ----

TEST(Dia, RoundTripsThroughCooOnBanded) {
  for (std::uint64_t seed : {9u, 10u}) {
    const CsrMatrix m = banded_csr(64, 3, seed, 0.8);
    ASSERT_TRUE(DiaMatrix::accepts(m)) << DiaMatrix::analyze(m).reason;
    const DiaMatrix dia = DiaMatrix::from_csr(m);
    dia.validate();
    EXPECT_EQ(CsrMatrix::from_coo(dia.to_coo()), m) << "seed=" << seed;
  }
}

TEST(Dia, RejectsScatteredMatrix) {
  // A random 400x400 matrix touches far more than 256 diagonals.
  const CsrMatrix m = random_csr(400, 400, 4.0, 11);
  const DiaAnalysis a = DiaMatrix::analyze(m);
  EXPECT_FALSE(a.accepted);
  EXPECT_STREQ(a.reason, "too many populated diagonals");
  EXPECT_THROW(DiaMatrix::from_csr(m), std::invalid_argument);
}

TEST(Dia, RejectsLowDiagonalFill) {
  // 8 diagonals touched once each on a 200-row matrix: fill 8/~1600.
  CooMatrix coo(200, 200);
  for (index_t d = 0; d < 8; ++d) coo.add(d, d * 20, 1.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const DiaAnalysis a = DiaMatrix::analyze(m);
  EXPECT_FALSE(a.accepted);
  EXPECT_STREQ(a.reason, "diagonal fill ratio below threshold");
}

TEST(Dia, RejectsExplicitStoredZeros) {
  CooMatrix coo(10, 10);
  for (index_t i = 0; i < 10; ++i) coo.add(i, i, 1.0);
  coo.add(3, 4, 0.0);  // explicit zero, indistinguishable from fill
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  EXPECT_FALSE(DiaMatrix::accepts(m));
  EXPECT_THROW(DiaMatrix::from_csr(m), std::invalid_argument);
}

TEST(Dia, FullyBandedMatrixHasAllDenseLanes) {
  const CsrMatrix m = banded_csr(64, 4, 12);  // density 1.0: full band
  const DiaMatrix dia = DiaMatrix::from_csr(m);
  dia.validate();
  ASSERT_GT(dia.num_diagonals(), 0);
  for (char dense : dia.lane_dense()) EXPECT_NE(dense, 0);
}

TEST(Dia, PartiallyFilledBandMixesLaneKinds) {
  const CsrMatrix m = banded_csr(128, 4, 13, 0.6);
  if (!DiaMatrix::accepts(m)) GTEST_SKIP() << "fill below threshold";
  const DiaMatrix dia = DiaMatrix::from_csr(m);
  dia.validate();
  bool any_sparse = false;
  for (char dense : dia.lane_dense()) any_sparse |= (dense == 0);
  EXPECT_TRUE(any_sparse);  // density 0.6 leaves holes in most lanes
}

// -------------------------------------------------- bit-identity, SpMV ----

const MethodConfig kDiaConfig{.kind = MethodKind::kDia,
                              .sched = Schedule::kStCont};

/// DIA must reproduce the serial CSR reference EXACTLY, through
/// PreparedMatrix (which also exercises the nnz-balanced row plan) and at
/// whatever OMP_NUM_THREADS ctest pinned for this run.
TEST(FormatKernels, BitIdenticalToSerialCsrReference) {
  const CsrMatrix m = banded_csr(257, 5, 14, 0.9);  // odd size: ragged split
  const auto x = random_vector(257, 15);
  std::vector<value_t> y_ref(257), y(257);
  spmv_reference(m, x, y_ref);
  ASSERT_TRUE(config_applicable(kDiaConfig, m));
  PreparedMatrix pm = PreparedMatrix::prepare(m, kDiaConfig);
  EXPECT_GT(pm.prep_seconds(), 0.0);
  EXPECT_GT(pm.memory_bytes(), 0u);
  std::fill(y.begin(), y.end(), static_cast<value_t>(-1));
  pm.run(x, y);
  expect_bit_identical(y_ref, y);
}

TEST(FormatKernels, BitIdenticalWithFillLanes) {
  // A band with holes: most lanes carry fill, so the guarded loop that
  // skips 0.0 cells must still replay the reference exactly.
  const CsrMatrix m = banded_csr(301, 4, 16, 0.6);
  const auto x = random_vector(301, 17);
  std::vector<value_t> y_ref(301), y(301);
  spmv_reference(m, x, y_ref);
  ASSERT_TRUE(config_applicable(kDiaConfig, m));
  PreparedMatrix pm = PreparedMatrix::prepare(m, kDiaConfig);
  std::fill(y.begin(), y.end(), static_cast<value_t>(-1));
  pm.run(x, y);
  expect_bit_identical(y_ref, y);
}

TEST(FormatKernels, EmptyRowsProduceExactZeros) {
  // Every row i = 1 (mod 3) is empty except row 7, whose one entry sits
  // on a second diagonal; the fill stays above DIA's acceptance floor.
  CooMatrix coo(32, 32);
  for (index_t i = 0; i < 32; ++i) {
    if (i % 3 != 1) coo.add(i, i, 1.0 + i);
  }
  coo.add(7, 9, -1.5);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const auto x = random_vector(32, 18);
  std::vector<value_t> y_ref(32), y(32);
  spmv_reference(m, x, y_ref);
  ASSERT_TRUE(config_applicable(kDiaConfig, m));
  PreparedMatrix pm = PreparedMatrix::prepare(m, kDiaConfig);
  std::fill(y.begin(), y.end(), static_cast<value_t>(-1));
  pm.run(x, y);
  expect_bit_identical(y_ref, y);
}

// ------------------------------------------------- registry and naming ----

TEST(FormatRegistry, NamesParseBack) {
  for (const auto& cfg : extended_method_configs()) {
    EXPECT_EQ(parse_method_config(cfg.name()), cfg) << cfg.name();
  }
  EXPECT_EQ(parse_method_config("DIA").kind, MethodKind::kDia);
}

TEST(FormatRegistry, PaperSpaceIsUntouched) {
  // The paper's 29 configurations stay exactly as they are: extension
  // formats ride behind them in the extended registry only.
  EXPECT_EQ(all_method_configs().size(), 29u);
  const auto ext = extended_method_configs();
  EXPECT_EQ(ext.size(), 32u);
}

// -------------------------------------------------- applicability mask ----

TEST(Applicability, DiaMaskedOutForScatteredMatrix) {
  const CsrMatrix scattered = random_csr(400, 400, 4.0, 19);
  const auto configs = extended_method_configs();
  const auto mask = applicability_mask(configs, scattered);
  ASSERT_EQ(mask.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (configs[i].kind == MethodKind::kDia) {
      EXPECT_EQ(mask[i], 0) << configs[i].name();
    }
    if (configs[i].kind == MethodKind::kCsr) {
      EXPECT_NE(mask[i], 0) << configs[i].name();
    }
  }
}

TEST(Applicability, EverythingApplicableOnBanded) {
  const CsrMatrix banded = banded_csr(128, 3, 20);
  const auto configs = extended_method_configs();
  for (char ok : applicability_mask(configs, banded)) EXPECT_NE(ok, 0);
}

TEST(Applicability, MaskedSelectionSkipsInapplicableWinner) {
  const auto configs = extended_method_configs();
  // Make DIA the predicted-fastest config everywhere...
  std::vector<int> classes(configs.size(), 0);
  std::size_t dia = configs.size();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (configs[i].kind == MethodKind::kDia) dia = i;
  }
  ASSERT_LT(dia, configs.size());
  classes[dia] = 6;
  // ...then mask it out, as choose() does for a scattered matrix: the
  // selection must fall to the best applicable config, never to DIA.
  std::vector<char> mask(configs.size(), 1);
  mask[dia] = 0;
  EXPECT_EQ(select_best_config(configs, classes), dia);
  EXPECT_NE(select_best_config(configs, classes, mask), dia);
}

TEST(Applicability, ThrowsWhenNothingApplicable) {
  const auto configs = extended_method_configs();
  const std::vector<int> classes(configs.size(), 0);
  const std::vector<char> mask(configs.size(), 0);
  EXPECT_THROW(select_best_config(configs, classes, mask),
               std::invalid_argument);
}

}  // namespace
}  // namespace wise
