#pragma once
// Precomputed nnz-balanced execution plans for the SpMV kernels.
//
// The plain OpenMP row loops in csr_kernels.cpp divide *rows* evenly across
// threads. On skewed matrices (power-law degree distributions — the exact
// regime WISE targets) row counts are a terrible proxy for work: one thread
// can own a handful of dense hub rows holding most of the nonzeros while
// the rest idle. Dynamic scheduling papers over the imbalance but pays a
// shared-queue dequeue per grain on every single multiplication.
//
// An SpmvPlan moves that balancing decision to prepare() time: a prefix-sum
// over row_ptr (CSR) or chunk_offset (SRVPack) is binary-searched for
// split points so each block covers ~nnz/B of the work, and runs of short
// rows are merged into one block (split points falling inside the same row
// collapse, so a single dense row never splits and never duplicates).
// Steady-state SpMV then executes block-by-block with no runtime balancing
// cost — the plan is built once and cached alongside the prepared layout
// (serve::PreparedCache charges its bytes into the cache budget).
//
// Specialized plans go one step further (AlphaSparse direction, ROADMAP
// item 1): the balanced partition is subdivided into finer blocks, each
// block's row-length distribution is classified once at build time, and a
// per-block kernel variant id is recorded. Execute time dispatches each
// block to a shape-specialized loop (see csr_kernels.cpp and
// srvpack_kernels.cpp):
//
//   kGeneric  the baseline loop — one simd-reduced dot per item
//   kUniform  every item has the same length: hoisted trip count and
//             arithmetic offsets, 4-way unrolled over items
//   kWide     long/dense items: multi-accumulator interleave so several
//             independent reduction chains are in flight per thread
//   kMerge    pathological skew / mostly-tiny items: CSR rows with <= 2
//             stored entries take a scalar fast path (at most one FP
//             addition, so reassociation cannot change the bits), longer
//             rows fall back to the exact generic inner loop; SRVPack
//             merge blocks run the generic chunk loop
//
// Correctness is schedule- and variant-independent: every row (CSR) or
// chunk (SRVPack segment) is computed by exactly one block, and every
// specialized loop reuses the generic simd-reduced inner loop for any item
// with 3+ stored entries, so plan execution is bit-identical to the
// plan-less CSR loop and to an unspecialized plan at any thread count
// (pinned by tests/plan_test.cpp and tests/plan_specialize_test.cpp).
//
// Env knobs (read once per build call, documented in docs/PERFORMANCE.md):
//   WISE_PLAN_BLOCK_FACTOR=N    blocks per thread for Dyn plans (default 4)
//   WISE_PLAN_SPECIALIZE=0      balanced blocks only, no variant table

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/srvpack.hpp"
#include "spmv/schedule.hpp"
#include "util/types.hpp"

namespace wise {

/// Per-block kernel shape chosen at plan-build time. Values are stable —
/// they are stored in SpmvPlan::variants and surfaced through metrics.
enum class KernelVariant : std::uint8_t {
  kGeneric = 0,
  kUniform = 1,
  kWide = 2,
  kMerge = 3,
};

inline constexpr std::size_t kNumKernelVariants = 4;

/// Short stable name ("generic", "uniform", "wide", "merge") used for the
/// spmv.plan.variant.<name> metrics and the daemon STATS histogram.
const char* kernel_variant_name(KernelVariant v);

/// Classifier thresholds (see classify_block). Exposed so tests can pin
/// the boundaries instead of reverse-engineering them.
inline constexpr nnz_t kTinyItemLen = 2;     // scalar-safe item length
inline constexpr double kWideMeanLen = 64.0; // mean length that picks kWide
inline constexpr double kMergeTinyFrac = 0.1; // tiny fraction for kMerge
inline constexpr index_t kSpecializeSubdivide = 8; // finer blocks per base
inline constexpr nnz_t kSpecializeTargetNnz = 1024; // ~nnz per fine block

/// A partition of the items [0, n) — CSR rows or SRVPack chunks — into
/// contiguous, non-empty, nnz-balanced blocks. bounds has num_blocks()+1
/// ascending entries with bounds.front() == 0 and bounds.back() == n;
/// block b covers [bounds[b], bounds[b+1]). When `variants` is non-empty
/// it has num_blocks() entries and variants[b] is the KernelVariant the
/// kernels dispatch block b to; empty means every block runs generic.
struct SpmvPlan {
  std::vector<index_t> bounds;
  std::vector<std::uint8_t> variants;

  index_t num_blocks() const {
    return bounds.empty() ? 0 : static_cast<index_t>(bounds.size()) - 1;
  }
  index_t num_items() const { return bounds.empty() ? 0 : bounds.back(); }
  bool specialized() const { return !variants.empty(); }
  KernelVariant variant(index_t b) const {
    return variants.empty() ? KernelVariant::kGeneric
                            : static_cast<KernelVariant>(
                                  variants[static_cast<std::size_t>(b)]);
  }
  std::size_t memory_bytes() const {
    return bounds.capacity() * sizeof(index_t) +
           variants.capacity() * sizeof(std::uint8_t);
  }

  /// Block count per variant (indexed by KernelVariant value); an
  /// unspecialized plan reports all blocks as kGeneric.
  std::array<std::uint32_t, kNumKernelVariants> variant_histogram() const;

  /// True when the blocks tile [0, n) exactly once: first bound 0, last
  /// bound n, strictly ascending in between (a zero-item plan is the
  /// single empty block {0, 0}), and the variant table, if present,
  /// matches the block count.
  bool covers(index_t n) const;
};

/// Partitions [0, offsets.size()-1) into at most `max_blocks` blocks of
/// ~equal prefix-sum weight. `offsets` is a non-decreasing prefix sum with
/// offsets[0] == 0 (a CSR row_ptr or SRVPack chunk_offset). Split points
/// landing inside one heavy item collapse, so the result can have fewer
/// blocks than requested but every block is non-empty.
SpmvPlan build_balanced_plan(std::span<const nnz_t> offsets,
                             index_t max_blocks);

/// Classifies the item range [lo, hi) of a prefix sum by its length
/// distribution. Decision order (first match wins):
///   1. max length <= kTinyItemLen            -> kMerge (all scalar-safe;
///      covers all-empty blocks)
///   2. min == max                            -> kUniform
///   3. tiny fraction >= kMergeTinyFrac       -> kMerge (a tiny tail
///      dominates even when hub items pull the mean up)
///   4. mean length >= kWideMeanLen           -> kWide
///   5. otherwise                             -> kGeneric
KernelVariant classify_block(std::span<const nnz_t> offsets, index_t lo,
                             index_t hi);

/// build_balanced_plan with a finer block budget — the larger of
/// kSpecializeSubdivide x max_blocks and total_nnz / kSpecializeTargetNnz
/// — plus a classified variant table. Shape clusters (hub runs, tiny
/// tails) are much smaller than a thread's share, so homogeneity needs
/// nnz-sized blocks, not thread-sized ones; the static schedules still
/// hand each thread one contiguous run of blocks, so the finer partition
/// costs nothing at steady state. Bit-identical to the generic plan at
/// execute time by the invariants above.
SpmvPlan build_specialized_plan(std::span<const nnz_t> offsets,
                                index_t max_blocks);

/// How many blocks a schedule wants for `threads` threads: one per thread
/// for the static policies, threads x WISE_PLAN_BLOCK_FACTOR for Dyn so
/// work stealing still has spare blocks to rebalance with.
index_t plan_blocks_for(Schedule sched, int threads);

/// Row plan for the CSR kernels (binary search over row_ptr). The 3-arg
/// form specializes iff WISE_PLAN_SPECIALIZE allows it; the 4-arg form
/// pins the choice (used by tests and the perf_smoke specialize stage).
SpmvPlan build_csr_plan(const CsrMatrix& m, Schedule sched, int threads);
SpmvPlan build_csr_plan(const CsrMatrix& m, Schedule sched, int threads,
                        bool specialize);

/// Chunk plans for the SRVPack kernel: one partition per segment, balanced
/// by stored slots (chunk_offset), since segments execute back-to-back.
struct SrvPlan {
  std::vector<SpmvPlan> segments;
  std::size_t memory_bytes() const;
  /// Sum of the per-segment histograms.
  std::array<std::uint32_t, kNumKernelVariants> variant_histogram() const;
};

SrvPlan build_srv_plan(const SrvPackMatrix& m, Schedule sched, int threads);
SrvPlan build_srv_plan(const SrvPackMatrix& m, Schedule sched, int threads,
                       bool specialize);

/// WISE_PLAN_SPECIALIZE environment switch (default on). When off, plans
/// are built without variant tables and every block executes the generic
/// loop — exactly the pre-specialization behavior.
bool plan_specialization_enabled();

}  // namespace wise
