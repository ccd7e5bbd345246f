#include "spmv/srvpack_kernels.hpp"

#include <algorithm>
#include <stdexcept>

namespace wise {

namespace {

/// Runs the segment block-by-block over its precomputed nnz-balanced
/// partition: `run_block(lo, hi, variant)` per block, which dispatches to
/// the block's specialized loop. Every chunk executes exactly once, and
/// every specialized loop reuses the generic slot reduction, so all
/// variant tables give the same bits.
template <typename BlockFn>
void dispatch_blocks(Schedule sched, const SpmvPlan& plan,
                     BlockFn&& run_block) {
  const index_t nb = plan.num_blocks();
  const index_t* bd = plan.bounds.data();
  auto body = [&](index_t b) { run_block(bd[b], bd[b + 1], plan.variant(b)); };
  if (sched == Schedule::kDyn) {
#pragma omp parallel for schedule(dynamic, 1)
    for (index_t b = 0; b < nb; ++b) body(b);
  } else {
#pragma omp parallel for schedule(static)
    for (index_t b = 0; b < nb; ++b) body(b);
  }
}

/// Processes the chunks of one segment. C is a compile-time SIMD width so
/// the inner lane loop fully vectorizes; runtime widths fall back to
/// run_chunks_generic below.
template <int C>
void run_chunks(const SrvSegment& seg, const value_t* x, value_t* y,
                Schedule sched, const SpmvPlan& plan) {
  const index_t nrows_seg = seg.num_rows();
  const nnz_t* off = seg.chunk_offset.data();
  const value_t* vals = seg.vals.data();
  const index_t* cols = seg.col_ids.data();
  const index_t* order = seg.row_order.data();

  auto scatter = [=](index_t k, const value_t* acc) {
    const index_t base = k * C;
    const int lanes = static_cast<int>(
        std::min<index_t>(C, nrows_seg - base));
    for (int l = 0; l < lanes; ++l) {
      y[order[base + l]] += acc[l];
    }
  };

  // The generic chunk body: every specialized block loop below reuses this
  // exact slot reduction, so all variants stay bit-identical.
  auto chunk = [=](index_t k) {
    const nnz_t lo = off[k];
    const nnz_t len = off[k + 1] - lo;
    value_t acc[C] = {};
    const value_t* v = vals + lo * C;
    const index_t* ci = cols + lo * C;
    for (nnz_t j = 0; j < len; ++j) {
#pragma omp simd
      for (int l = 0; l < C; ++l) {
        acc[l] += v[j * C + l] * x[ci[j * C + l]];
      }
    }
    scatter(k, acc);
  };

  auto run_block = [=](index_t blo, index_t bhi, KernelVariant var) {
    switch (var) {
      case KernelVariant::kUniform: {
        // Every chunk in the block has the same slot count: hoist it and
        // derive chunk starts arithmetically instead of loading offsets.
        const nnz_t len = off[blo + 1] - off[blo];
        nnz_t lo = off[blo];
        for (index_t k = blo; k < bhi; ++k, lo += len) {
          value_t acc[C] = {};
          const value_t* v = vals + lo * C;
          const index_t* ci = cols + lo * C;
          for (nnz_t j = 0; j < len; ++j) {
#pragma omp simd
            for (int l = 0; l < C; ++l) {
              acc[l] += v[j * C + l] * x[ci[j * C + l]];
            }
          }
          scatter(k, acc);
        }
        break;
      }
      case KernelVariant::kWide:
        // Long chunks: two chunks in flight so two C-lane accumulator sets
        // overlap their gather latencies.
        {
          index_t k = blo;
          for (; k + 2 <= bhi; k += 2) {
            chunk(k);
            chunk(k + 1);
          }
          if (k < bhi) chunk(k);
        }
        break;
      case KernelVariant::kMerge:
        // A tiny-chunk unroll measured ~0.95x of the generic loop on the
        // packed format, so merge-labelled blocks run the generic loop; the
        // label still feeds variant_histogram().
      case KernelVariant::kGeneric:
      default:
        for (index_t k = blo; k < bhi; ++k) chunk(k);
        break;
    }
  };

  dispatch_blocks(sched, plan, run_block);
}

/// Runtime-width fallback for c values other than the instantiated 4/8.
void run_chunks_generic(const SrvSegment& seg, int c, const value_t* x,
                        value_t* y, Schedule sched, const SpmvPlan& plan) {
  constexpr int kMaxC = 64;
  const index_t nrows_seg = seg.num_rows();
  const nnz_t* off = seg.chunk_offset.data();
  const value_t* vals = seg.vals.data();
  const index_t* cols = seg.col_ids.data();
  const index_t* order = seg.row_order.data();

  auto chunk = [=](index_t k) {
    const nnz_t lo = off[k];
    const nnz_t len = off[k + 1] - lo;
    value_t acc[kMaxC] = {};
    const value_t* v = vals + lo * c;
    const index_t* ci = cols + lo * c;
    for (nnz_t j = 0; j < len; ++j) {
      for (int l = 0; l < c; ++l) {
        acc[l] += v[j * c + l] * x[ci[j * c + l]];
      }
    }
    const index_t base = k * static_cast<index_t>(c);
    const int lanes = static_cast<int>(
        std::min<index_t>(c, nrows_seg - base));
    for (int l = 0; l < lanes; ++l) {
      y[order[base + l]] += acc[l];
    }
  };

  // The runtime-width path ignores the variant table: every block runs the
  // generic chunk body (still bit-identical — variants only change loop
  // structure, never the math).
  auto run_block = [=](index_t blo, index_t bhi, KernelVariant) {
    for (index_t k = blo; k < bhi; ++k) chunk(k);
  };

  dispatch_blocks(sched, plan, run_block);
}

}  // namespace

void spmv_srvpack(const SrvPackMatrix& a, std::span<const value_t> x,
                  std::span<value_t> y, Schedule sched, SrvWorkspace& ws,
                  const SrvPlan& plan) {
  if (x.size() != static_cast<std::size_t>(a.ncols()) ||
      y.size() != static_cast<std::size_t>(a.nrows())) {
    throw std::invalid_argument("spmv_srvpack: dimension mismatch");
  }
  if (plan.segments.size() != a.segments().size()) {
    throw std::invalid_argument("spmv_srvpack: plan/segment count mismatch");
  }

  // With CFS the stored column ids live in permuted space; gather x into
  // that space once per multiplication.
  const value_t* xp = x.data();
  if (a.has_cfs()) {
    const auto& perm = a.col_order();
    ws.permuted_x.resize(perm.size());
#pragma omp parallel for schedule(static)
    for (index_t p = 0; p < static_cast<index_t>(perm.size()); ++p) {
      ws.permuted_x[static_cast<std::size_t>(p)] =
          x[static_cast<std::size_t>(perm[static_cast<std::size_t>(p)])];
    }
    xp = ws.permuted_x.data();
  }

  value_t* yp = y.data();
  const index_t n = a.nrows();
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < n; ++i) yp[i] = 0;

  // Segments run back-to-back: each keeps its slice of the input vector hot
  // in the LLC before the next begins (the point of LAV segmentation).
  for (std::size_t s = 0; s < a.segments().size(); ++s) {
    const auto& seg = a.segments()[s];
    const SpmvPlan& seg_plan = plan.segments[s];
    switch (a.c()) {
      case 4: run_chunks<4>(seg, xp, yp, sched, seg_plan); break;
      case 8: run_chunks<8>(seg, xp, yp, sched, seg_plan); break;
      default:
        run_chunks_generic(seg, a.c(), xp, yp, sched, seg_plan);
        break;
    }
  }
}

}  // namespace wise
