#pragma once
// Vectorized SpMV over the SRVPack unified format.
//
// One kernel serves SELLPACK, Sell-c-σ, Sell-c-R, LAV-1Seg and LAV — the
// format build options decide which method executes (paper Appendix A).
// Each SRVPack chunk is processed with c-wide SIMD across its lanes; chunks
// run in the nnz-balanced blocks of a precomputed plan, handed to threads
// work-stolen for Dyn and one contiguous run per thread otherwise; segments
// run one after another so the input-vector working set of each segment
// stays LLC-resident (LAV's goal).

#include <span>

#include "sparse/srvpack.hpp"
#include "spmv/plan.hpp"
#include "spmv/schedule.hpp"
#include "util/aligned.hpp"

namespace wise {

/// Scratch buffers reused across SpMV iterations. With CFS the input vector
/// is gathered into permuted order once per call; the buffer persists here
/// so iterative solvers pay one allocation total.
struct SrvWorkspace {
  aligned_vector<value_t> permuted_x;
};

/// y = A*x. y is fully overwritten (zero-initialized, then accumulated per
/// segment). `plan` holds one chunk partition per segment (build_srv_plan);
/// chunks execute block-by-block with the balancing decided at prepare()
/// time instead of per-multiplication by the OpenMP runtime. Every chunk
/// runs exactly once with an unchanged accumulation, so the bits do not
/// depend on the partition, the variant table or the thread count. Throws
/// std::invalid_argument on dimension mismatch or a plan whose segment
/// count differs from the matrix's.
void spmv_srvpack(const SrvPackMatrix& a, std::span<const value_t> x,
                  std::span<value_t> y, Schedule sched, SrvWorkspace& ws,
                  const SrvPlan& plan);

}  // namespace wise
