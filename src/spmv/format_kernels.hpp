#pragma once
// Parallel SpMV kernel for the DIA extension format.
//
// The kernel parallelizes over the disjoint row blocks of a precomputed
// nnz-balanced SpmvPlan (built over the *source* CSR row_ptr at prepare()
// time, see executor.cpp). Every row is computed by exactly one block and
// each row's accumulation replays the source CSR entry order, so the
// result is bit-identical to the serial spmv_reference oracle at any
// thread count (pinned by tests/formats_test.cpp at OMP_NUM_THREADS in
// {1, 2, 8}):
//
//   DIA  diagonal-outer; ascending offsets == ascending columns. Dense
//        lanes (no fill) run an unguarded unit-stride triad loop — the
//        pure streaming form that beats CSR on banded matrices — while
//        lanes with fill take a guarded loop that skips 0.0 cells
//        exactly like the reference never saw them.

#include <span>

#include "sparse/dia.hpp"
#include "spmv/plan.hpp"
#include "util/types.hpp"

namespace wise {

/// y = A*x over `plan`'s row blocks; y is fully overwritten. Throws
/// std::invalid_argument on dimension mismatch or a plan that does not
/// cover the matrix's rows.
void spmv_dia(const DiaMatrix& a, std::span<const value_t> x,
              std::span<value_t> y, const SpmvPlan& plan);

}  // namespace wise
