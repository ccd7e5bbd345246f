// Tests for the iterative solver library.

#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>

#include "gen/generators.hpp"
#include "solvers/solvers.hpp"
#include "spmv/executor.hpp"
#include "test_util.hpp"

namespace wise {
namespace {

using testing::random_csr;
using testing::random_vector;

/// SPD test system: 2-D 5-point Laplacian (+ small diagonal shift).
CsrMatrix spd_system(index_t nx, index_t ny) {
  CooMatrix coo = generate_stencil2d(nx, ny, 5);
  for (auto& e : coo.entries()) {
    if (e.row == e.col) e.val += 0.1;  // strictly positive definite
  }
  coo.canonicalize();
  return CsrMatrix::from_coo(coo);
}

/// Diagonally dominant general system.
CsrMatrix dominant_system(index_t n, std::uint64_t seed) {
  CooMatrix coo = generate_banded(n, 4, 0.5, seed);
  std::vector<double> off(static_cast<std::size_t>(n), 0);
  for (const auto& e : coo.entries()) {
    if (e.row != e.col) off[static_cast<std::size_t>(e.row)] += std::abs(e.val);
  }
  for (auto& e : coo.entries()) {
    if (e.row == e.col) {
      e.val = static_cast<value_t>(2 * off[static_cast<std::size_t>(e.row)] + 1);
    }
  }
  return CsrMatrix::from_coo(coo);
}

std::vector<value_t> diagonal_of(const CsrMatrix& m) {
  std::vector<value_t> d(static_cast<std::size_t>(m.nrows()), 0);
  for (index_t i = 0; i < m.nrows(); ++i) {
    const auto cols = m.row_cols(i);
    const auto vals = m.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] == i) d[static_cast<std::size_t>(i)] = vals[k];
    }
  }
  return d;
}

/// ||b - A x||_2 computed independently of the solver.
double residual_of(const CsrMatrix& a, const std::vector<value_t>& x,
                   const std::vector<value_t>& b) {
  std::vector<value_t> ax(static_cast<std::size_t>(a.nrows()));
  spmv_reference(a, x, ax);
  double norm = 0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    const double r = b[i] - ax[i];
    norm += r * r;
  }
  return std::sqrt(norm);
}

// ------------------------------------------------------------- blas ----

TEST(Blas, DotAndNorm) {
  const std::vector<value_t> a = {1, 2, 3};
  const std::vector<value_t> b = {4, -5, 6};
  EXPECT_DOUBLE_EQ(blas::dot(a, b), 12.0);
  EXPECT_DOUBLE_EQ(blas::norm2(a), std::sqrt(14.0));
  EXPECT_THROW(blas::dot(a, std::vector<value_t>{1.0}),
               std::invalid_argument);
}

TEST(Blas, AxpyXpbyScaleCopy) {
  std::vector<value_t> y = {1, 1};
  blas::axpy(2.0, std::vector<value_t>{3, 4}, y);
  EXPECT_EQ(y, (std::vector<value_t>{7, 9}));
  blas::xpby(std::vector<value_t>{1, 1}, 0.5, y);
  EXPECT_EQ(y, (std::vector<value_t>{4.5, 5.5}));
  blas::scale(y, 2.0);
  EXPECT_EQ(y, (std::vector<value_t>{9, 11}));
  std::vector<value_t> z(2);
  blas::copy(y, z);
  EXPECT_EQ(z, y);
}

/// The reductions add in a fixed order that depends only on the length:
/// dot, norm2 and every solver's iterates are bit-identical at 1, 2, 3 and 8
/// threads. An OpenMP `reduction(+)` moves the last bits with the thread
/// count, and from 3 threads on also from run to run (partials combine in
/// arrival order). The length spans several blocks plus a partial tail.
TEST(Blas, ReductionsAndSolversBitIdenticalAcrossThreadCounts) {
  const int ambient = omp_get_max_threads();
  const CsrMatrix spd = spd_system(73, 71);  // 5 full blocks + 63
  const CsrMatrix dominant = dominant_system(spd.nrows(), 8);
  const auto n = static_cast<std::size_t>(spd.nrows());
  ASSERT_GT(n, 4 * blas::kSumBlock);
  ASSERT_NE(n % blas::kSumBlock, 0u);
  // Magnitudes spanning many binades, so a different summation order
  // rounds differently.
  std::vector<value_t> a = random_vector(n, 31);
  const std::vector<value_t> b = random_vector(n, 32);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] *= std::ldexp(1.0, static_cast<int>(i % 40) - 20);
  }

  struct Run {
    double dot, norm;
    SolverResult cg, jacobi, bicgstab;
  };
  const SolverOptions opts{.max_iterations = 60, .tolerance = 1e-12};
  const auto run_all = [&] {
    return Run{blas::dot(a, b), blas::norm2(a),
               solve_cg(make_csr_operator(spd), b, opts),
               solve_jacobi(make_csr_operator(dominant), diagonal_of(dominant),
                            b, opts),
               solve_bicgstab(make_csr_operator(dominant), b, opts)};
  };
  const auto expect_same = [](const SolverResult& want, const SolverResult& got,
                              const char* solver, int threads) {
    EXPECT_EQ(got.x, want.x) << solver << " @ " << threads << " threads";
    EXPECT_EQ(got.residual_norm, want.residual_norm)
        << solver << " @ " << threads << " threads";
    EXPECT_EQ(got.iterations, want.iterations)
        << solver << " @ " << threads << " threads";
  };

  omp_set_num_threads(1);
  const Run want = run_all();
  for (const int threads : {2, 3, 8}) {
    omp_set_num_threads(threads);
    const Run got = run_all();
    EXPECT_EQ(got.dot, want.dot) << threads << " threads";
    EXPECT_EQ(got.norm, want.norm) << threads << " threads";
    expect_same(want.cg, got.cg, "cg", threads);
    expect_same(want.jacobi, got.jacobi, "jacobi", threads);
    expect_same(want.bicgstab, got.bicgstab, "bicgstab", threads);
  }
  omp_set_num_threads(ambient);
}

// ---------------------------------------------------------- solvers ----

TEST(Cg, SolvesSpdSystem) {
  const CsrMatrix a = spd_system(20, 20);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 1);
  const SolverResult res = solve_cg(make_csr_operator(a), b,
                                    {.max_iterations = 2000, .tolerance = 1e-10});
  EXPECT_TRUE(res.converged);
  EXPECT_LT(residual_of(a, res.x, b), 1e-8);
}

TEST(Cg, ResidualMatchesReportedValue) {
  const CsrMatrix a = spd_system(10, 10);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 2);
  const SolverResult res = solve_cg(make_csr_operator(a), b);
  EXPECT_NEAR(residual_of(a, res.x, b), res.residual_norm,
              1e-6 * (1 + res.residual_norm));
}

TEST(Cg, ZeroRhsConvergesImmediately) {
  const CsrMatrix a = spd_system(5, 5);
  const std::vector<value_t> b(static_cast<std::size_t>(a.nrows()), 0);
  const SolverResult res = solve_cg(make_csr_operator(a), b);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

TEST(Cg, ExactAfterNIterationsOnSmallSystem) {
  // CG converges in at most n steps in exact arithmetic.
  const CsrMatrix a = spd_system(4, 4);
  const auto b = random_vector(16, 3);
  const SolverResult res =
      solve_cg(make_csr_operator(a), b, {.max_iterations = 32});
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 32);
}

TEST(Bicgstab, SolvesNonsymmetricSystem) {
  const CsrMatrix a = dominant_system(500, 4);
  const auto b = random_vector(500, 5);
  const SolverResult res = solve_bicgstab(make_csr_operator(a), b,
                                          {.max_iterations = 1000});
  EXPECT_TRUE(res.converged);
  EXPECT_LT(residual_of(a, res.x, b), 1e-7);
}

TEST(Bicgstab, AgreesWithJacobiSolution) {
  const CsrMatrix a = dominant_system(200, 6);
  const auto b = random_vector(200, 7);
  const auto bi = solve_bicgstab(make_csr_operator(a), b);
  const auto ja =
      solve_jacobi(make_csr_operator(a), diagonal_of(a), b,
                   {.max_iterations = 5000, .tolerance = 1e-12});
  ASSERT_TRUE(bi.converged);
  ASSERT_TRUE(ja.converged);
  for (std::size_t i = 0; i < bi.x.size(); ++i) {
    EXPECT_NEAR(bi.x[i], ja.x[i], 1e-6);
  }
}

TEST(Jacobi, SolvesDominantSystem) {
  const CsrMatrix a = dominant_system(300, 8);
  const auto b = random_vector(300, 9);
  const SolverResult res =
      solve_jacobi(make_csr_operator(a), diagonal_of(a), b,
                   {.max_iterations = 3000, .tolerance = 1e-10});
  EXPECT_TRUE(res.converged);
  EXPECT_LT(residual_of(a, res.x, b), 1e-8);
}

TEST(Jacobi, RejectsZeroDiagonal) {
  CooMatrix coo(2, 2);
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 1.0);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const std::vector<value_t> d = {0.0, 1.0}, b = {1.0, 1.0};
  EXPECT_THROW(solve_jacobi(make_csr_operator(a), d, b),
               std::invalid_argument);
}

TEST(Jacobi, ResidualDecreasesMonotonically) {
  // For a strongly dominant system each sweep contracts the error; check
  // a few successive residuals by limiting max_iterations.
  const CsrMatrix a = dominant_system(100, 10);
  const auto b = random_vector(100, 11);
  const auto d = diagonal_of(a);
  double prev = 1e300;
  for (int iters : {1, 2, 4, 8, 16}) {
    const SolverResult res = solve_jacobi(
        make_csr_operator(a), d, b,
        {.max_iterations = iters, .tolerance = 0.0});
    EXPECT_LT(res.residual_norm, prev);
    prev = res.residual_norm;
  }
}

TEST(PowerIteration, FindsDominantEigenpairOfDiagonalMatrix) {
  CooMatrix coo(4, 4);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, 5.0);  // dominant
  coo.add(2, 2, 2.0);
  coo.add(3, 3, 3.0);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const SolverResult res = power_iteration(make_csr_operator(a), 4,
                                           {.max_iterations = 500,
                                            .tolerance = 1e-10});
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.eigenvalue, 5.0, 1e-6);
  EXPECT_NEAR(std::abs(res.x[1]), 1.0, 1e-4);
}

TEST(PowerIteration, EigenvectorHasUnitNorm) {
  const CsrMatrix a = spd_system(8, 8);
  const SolverResult res = power_iteration(make_csr_operator(a), a.nrows(),
                                           {.max_iterations = 2000,
                                            .tolerance = 1e-8});
  EXPECT_NEAR(blas::norm2(res.x), 1.0, 1e-8);
  EXPECT_GT(res.eigenvalue, 0.0);  // SPD
}

TEST(PowerIteration, RejectsNonPositiveSize) {
  const CsrMatrix a = spd_system(2, 2);
  EXPECT_THROW(power_iteration(make_csr_operator(a), 0),
               std::invalid_argument);
}

TEST(Solvers, WorkWithPreparedMatrixOperator) {
  // The point of the library: the SpMV operator can be a WISE-prepared
  // matrix. Verify CG converges identically through a packed format.
  const CsrMatrix a = spd_system(16, 16);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 12);

  PreparedMatrix pm = PreparedMatrix::prepare(
      a, {.kind = MethodKind::kSellCSigma,
          .sched = Schedule::kStCont,
          .c = 8,
          .sigma = 512});
  const SpmvOperator packed_op = [&pm](std::span<const value_t> x,
                                       std::span<value_t> y) {
    pm.run(x, y);
  };
  const auto via_packed = solve_cg(packed_op, b, {.max_iterations = 2000});
  const auto via_csr =
      solve_cg(make_csr_operator(a), b, {.max_iterations = 2000});
  ASSERT_TRUE(via_packed.converged);
  for (std::size_t i = 0; i < via_packed.x.size(); ++i) {
    EXPECT_NEAR(via_packed.x[i], via_csr.x[i], 1e-6);
  }
}

}  // namespace
}  // namespace wise
