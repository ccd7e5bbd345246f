#pragma once
// Shared helpers for the WISE test suite.

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "gen/generators.hpp"
#include "sparse/csr.hpp"
#include "sparse/srvpack.hpp"
#include "spmv/plan.hpp"
#include "util/prng.hpp"

namespace wise::testing {

/// Random general sparse matrix (uniform structure) for property tests.
inline CsrMatrix random_csr(index_t nrows, index_t ncols, double avg_degree,
                            std::uint64_t seed) {
  Xoshiro256 rng(seed);
  CooMatrix coo(nrows, ncols);
  const auto nnz = static_cast<nnz_t>(static_cast<double>(nrows) * avg_degree);
  for (nnz_t k = 0; k < nnz; ++k) {
    coo.add(static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(nrows))),
            static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(ncols))),
            static_cast<value_t>(0.5 + rng.next_double()));
  }
  coo.canonicalize();
  return CsrMatrix::from_coo(coo);
}

/// Random dense vector in [0,1).
inline std::vector<value_t> random_vector(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<value_t> v(n);
  for (auto& x : v) x = static_cast<value_t>(rng.next_double());
  return v;
}

/// The SRVPack bit-identity reference: each segment's chunks in one
/// unspecialized block, so they run in chunk order through the generic
/// chunk loop. Chunks write disjoint rows, so any covering plan must
/// reproduce these bits exactly.
inline SrvPlan one_block_srv_plan(const SrvPackMatrix& p) {
  SrvPlan plan;
  for (const auto& seg : p.segments()) {
    plan.segments.push_back(build_balanced_plan(seg.chunk_offset, 1));
  }
  return plan;
}

/// Element-wise comparison with a relative tolerance that accounts for
/// different floating-point summation orders across kernels.
inline void expect_vectors_near(std::span<const value_t> expected,
                                std::span<const value_t> actual,
                                double rel_tol = 1e-9) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const double scale = std::max({1.0, std::abs(expected[i])});
    EXPECT_NEAR(expected[i], actual[i], rel_tol * scale)
        << "at element " << i;
  }
}

/// The paper's running example matrix (Fig 1a): 8x8, entries named a..u.
/// Used to pin the SRVPack layouts against the paper's figures.
inline CsrMatrix paper_example_matrix() {
  // row: (col, value) — values encode their letter (a=1, b=2, ...).
  CooMatrix coo(8, 8);
  auto add = [&coo](index_t r, index_t c, char letter) {
    coo.add(r, c, static_cast<value_t>(letter - 'a' + 1));
  };
  add(0, 0, 'a'); add(0, 2, 'b'); add(0, 3, 'c'); add(0, 5, 'd');
  add(1, 3, 'e');
  add(2, 1, 'f'); add(2, 2, 'g');
  add(3, 0, 'j'); add(3, 3, 'k');
  add(4, 0, 'l');
  add(5, 1, 'm'); add(5, 2, 'n');
  add(6, 0, 'p'); add(6, 3, 'q'); add(6, 6, 'r');
  add(7, 2, 'y'); add(7, 7, 'u');
  return CsrMatrix::from_coo(coo);
}

}  // namespace wise::testing
