#include "spmv/plan.hpp"

#include <algorithm>
#include <limits>

#include "util/env.hpp"

namespace wise {

const char* kernel_variant_name(KernelVariant v) {
  switch (v) {
    case KernelVariant::kGeneric: return "generic";
    case KernelVariant::kUniform: return "uniform";
    case KernelVariant::kWide: return "wide";
    case KernelVariant::kMerge: return "merge";
  }
  return "unknown";
}

bool SpmvPlan::covers(index_t n) const {
  if (bounds.size() < 2) return false;
  if (bounds.front() != 0 || bounds.back() != n) return false;
  if (!variants.empty() &&
      variants.size() != static_cast<std::size_t>(num_blocks())) {
    return false;
  }
  if (n == 0) return bounds.size() == 2;
  for (std::size_t b = 1; b < bounds.size(); ++b) {
    if (bounds[b] <= bounds[b - 1]) return false;
  }
  return true;
}

std::array<std::uint32_t, kNumKernelVariants> SpmvPlan::variant_histogram()
    const {
  std::array<std::uint32_t, kNumKernelVariants> hist{};
  const index_t nb = num_blocks();
  if (variants.empty()) {
    hist[static_cast<std::size_t>(KernelVariant::kGeneric)] =
        static_cast<std::uint32_t>(nb);
    return hist;
  }
  for (index_t b = 0; b < nb; ++b) {
    const std::size_t v = variants[static_cast<std::size_t>(b)];
    ++hist[v < kNumKernelVariants
               ? v
               : static_cast<std::size_t>(KernelVariant::kGeneric)];
  }
  return hist;
}

SpmvPlan build_balanced_plan(std::span<const nnz_t> offsets,
                             index_t max_blocks) {
  SpmvPlan plan;
  const index_t n =
      offsets.empty() ? 0 : static_cast<index_t>(offsets.size()) - 1;
  plan.bounds.push_back(0);
  if (n <= 0) {
    plan.bounds.push_back(0);
    return plan;
  }
  max_blocks = std::max<index_t>(1, max_blocks);
  const nnz_t total = offsets[static_cast<std::size_t>(n)];
  if (total > 0) {
    const nnz_t* begin = offsets.data();
    const nnz_t* end = begin + n + 1;
    for (index_t b = 1; b < max_blocks; ++b) {
      const nnz_t target = total * b / max_blocks;
      // Last item whose prefix start is <= target: the block boundary the
      // target falls in. Runs of zero-weight items stick to the block on
      // their left.
      const index_t item = static_cast<index_t>(
          std::upper_bound(begin, end, target) - begin - 1);
      // Strictly-ascending bounds merge split points that landed inside
      // one heavy item (or in a run too light to fill a block).
      if (item > plan.bounds.back() && item < n) plan.bounds.push_back(item);
    }
  }
  plan.bounds.push_back(n);
  plan.bounds.shrink_to_fit();
  return plan;
}

KernelVariant classify_block(std::span<const nnz_t> offsets, index_t lo,
                             index_t hi) {
  if (hi <= lo) return KernelVariant::kGeneric;
  nnz_t min_len = offsets[static_cast<std::size_t>(lo) + 1] -
                  offsets[static_cast<std::size_t>(lo)];
  nnz_t max_len = min_len;
  index_t tiny = 0;
  for (index_t i = lo; i < hi; ++i) {
    const nnz_t len = offsets[static_cast<std::size_t>(i) + 1] -
                      offsets[static_cast<std::size_t>(i)];
    min_len = std::min(min_len, len);
    max_len = std::max(max_len, len);
    if (len <= kTinyItemLen) ++tiny;
  }
  // Order matters: an all-tiny block (including all-empty) is scalar-safe
  // everywhere, which beats the uniform unroll; a uniform block of long
  // items is better served by the hoisted trip count than by the wide
  // interleave; and a meaningful tiny tail picks merge even when hub items
  // pull the mean up — merge still runs hubs through the shared reduction
  // loop while the tail takes the scalar exit, whereas the wide interleave
  // would pay full vector-loop setup on every tiny item.
  if (max_len <= kTinyItemLen) return KernelVariant::kMerge;
  if (min_len == max_len) return KernelVariant::kUniform;
  const index_t items = hi - lo;
  if (static_cast<double>(tiny) >=
      kMergeTinyFrac * static_cast<double>(items)) {
    return KernelVariant::kMerge;
  }
  const nnz_t total = offsets[static_cast<std::size_t>(hi)] -
                      offsets[static_cast<std::size_t>(lo)];
  const double mean =
      static_cast<double>(total) / static_cast<double>(items);
  if (mean >= kWideMeanLen) return KernelVariant::kWide;
  return KernelVariant::kGeneric;
}

SpmvPlan build_specialized_plan(std::span<const nnz_t> offsets,
                                index_t max_blocks) {
  // Subdividing the balanced budget keeps each block's length distribution
  // close to homogeneous (a hub row and its tail of singletons land in
  // different blocks), which is what lets the classifier commit to one
  // variant per block. Thread-count-based budgets are far too coarse for
  // that — RMAT hub runs recur every ~2^k rows — so the budget targets
  // ~kSpecializeTargetNnz nonzeros per block instead, floored at
  // kSpecializeSubdivide x the balanced budget. The static schedules
  // still hand each thread a contiguous run of blocks, so the finer
  // partition costs nothing at steady state.
  max_blocks = std::max<index_t>(1, max_blocks);
  index_t budget =
      max_blocks > (std::numeric_limits<index_t>::max)() / kSpecializeSubdivide
          ? (std::numeric_limits<index_t>::max)()
          : max_blocks * kSpecializeSubdivide;
  if (!offsets.empty()) {
    const nnz_t total = offsets.back();
    const nnz_t by_nnz = total / kSpecializeTargetNnz;
    const index_t n = static_cast<index_t>(offsets.size()) - 1;
    budget = std::max(budget,
                      static_cast<index_t>(std::min<nnz_t>(by_nnz, n)));
  }
  SpmvPlan plan = build_balanced_plan(offsets, budget);
  const index_t nb = plan.num_blocks();
  plan.variants.resize(static_cast<std::size_t>(nb));
  for (index_t b = 0; b < nb; ++b) {
    plan.variants[static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(
        classify_block(offsets, plan.bounds[static_cast<std::size_t>(b)],
                       plan.bounds[static_cast<std::size_t>(b) + 1]));
  }
  plan.variants.shrink_to_fit();
  return plan;
}

index_t plan_blocks_for(Schedule sched, int threads) {
  const index_t t = std::max(1, threads);
  if (sched != Schedule::kDyn) return t;
  const index_t factor = static_cast<index_t>(
      std::clamp<std::int64_t>(env_int("WISE_PLAN_BLOCK_FACTOR", 4), 1, 256));
  return t * factor;
}

SpmvPlan build_csr_plan(const CsrMatrix& m, Schedule sched, int threads) {
  return build_csr_plan(m, sched, threads, plan_specialization_enabled());
}

SpmvPlan build_csr_plan(const CsrMatrix& m, Schedule sched, int threads,
                        bool specialize) {
  const index_t blocks = plan_blocks_for(sched, threads);
  return specialize ? build_specialized_plan(m.row_ptr(), blocks)
                    : build_balanced_plan(m.row_ptr(), blocks);
}

std::size_t SrvPlan::memory_bytes() const {
  std::size_t bytes = segments.capacity() * sizeof(SpmvPlan);
  for (const auto& seg : segments) bytes += seg.memory_bytes();
  return bytes;
}

std::array<std::uint32_t, kNumKernelVariants> SrvPlan::variant_histogram()
    const {
  std::array<std::uint32_t, kNumKernelVariants> hist{};
  for (const auto& seg : segments) {
    const auto seg_hist = seg.variant_histogram();
    for (std::size_t v = 0; v < kNumKernelVariants; ++v) {
      hist[v] += seg_hist[v];
    }
  }
  return hist;
}

SrvPlan build_srv_plan(const SrvPackMatrix& m, Schedule sched, int threads) {
  return build_srv_plan(m, sched, threads, plan_specialization_enabled());
}

SrvPlan build_srv_plan(const SrvPackMatrix& m, Schedule sched, int threads,
                       bool specialize) {
  SrvPlan plan;
  plan.segments.reserve(m.segments().size());
  const index_t blocks = plan_blocks_for(sched, threads);
  for (const auto& seg : m.segments()) {
    plan.segments.push_back(
        specialize ? build_specialized_plan(seg.chunk_offset, blocks)
                   : build_balanced_plan(seg.chunk_offset, blocks));
  }
  return plan;
}

bool plan_specialization_enabled() {
  return env_flag("WISE_PLAN_SPECIALIZE", true);
}

}  // namespace wise
