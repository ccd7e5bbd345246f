#pragma once
// Preparing a matrix for a chosen configuration and running SpMV with it —
// the "transform matrix layout" + "run SpMV" steps of the WISE pipeline
// (paper Fig 8, steps 4-5).

#include <memory>
#include <optional>
#include <span>

#include "obs/metrics.hpp"
#include "sparse/csr.hpp"
#include "sparse/srvpack.hpp"
#include "spmv/bsr_fwd.hpp"
#include "spmv/method.hpp"
#include "spmv/plan.hpp"
#include "spmv/srvpack_kernels.hpp"

namespace wise {

class DiaMatrix;

/// A matrix converted to the layout a MethodConfig needs, plus the measured
/// conversion (preprocessing) time.
///
/// Lifetime: for CSR configurations no conversion happens and the prepared
/// matrix *references* the source CsrMatrix, which must outlive it. For all
/// other configurations the SRVPack copy is owned.
class PreparedMatrix {
 public:
  /// Converts `m` (timing the conversion) and, for every config but BSR,
  /// builds the nnz-balanced execution plan the kernels run over
  /// (spmv/plan.hpp).
  /// Never null-returns; throws on invalid configs.
  static PreparedMatrix prepare(const CsrMatrix& m, const MethodConfig& cfg);

  /// y = A*x with the prepared layout and the config's scheduling policy.
  /// Not safe for concurrent calls on the same object (the member scratch
  /// buffer is reused across calls); concurrent callers use the overload
  /// below with their own workspace.
  void run(std::span<const value_t> x, std::span<value_t> y);

  /// Const-thread-safe run: identical to run(x, y) but gathers through the
  /// caller-provided scratch workspace, so N threads may run one prepared
  /// object concurrently as long as each brings its own `ws` (and its own
  /// y). Everything else a run touches — layout, plan, config, metric id —
  /// is immutable after prepare(). The serving layer's warm RUN path
  /// (serve/server.cpp) relies on this to execute cached entries with no
  /// per-entry lock.
  void run(std::span<const value_t> x, std::span<value_t> y,
           SrvWorkspace& ws) const;

  const MethodConfig& config() const { return cfg_; }

  /// Wall-clock seconds the layout conversion took (0 for CSR).
  double prep_seconds() const { return prep_seconds_; }

  /// Bytes of the prepared representation (layout only; plans are reported
  /// separately by plan_bytes so existing footprint comparisons hold).
  std::size_t memory_bytes() const;

  /// Bytes of the precomputed execution plan, 0 for BSR (which has none).
  /// serve::prepared_entry_bytes charges this into the prepared-cache byte
  /// budget on top of memory_bytes().
  std::size_t plan_bytes() const;

  /// True when run() executes over a precomputed plan (every config but
  /// BSR).
  bool has_plan() const {
    return row_plan_.has_value() || srv_plan_.has_value();
  }

  index_t nrows() const { return csr_->nrows(); }
  index_t ncols() const { return csr_->ncols(); }

 private:
  MethodConfig cfg_;
  const CsrMatrix* csr_ = nullptr;  ///< always set; the SpMV source for kCsr
  std::optional<SrvPackMatrix> packed_;
  std::shared_ptr<const BsrMatrix> bsr_;  ///< set for the BSR extension
  std::shared_ptr<const DiaMatrix> dia_;  ///< set for the DIA extension
  std::optional<SpmvPlan> row_plan_;  ///< source-row plan, kCsr and kDia
  std::optional<SrvPlan> srv_plan_;   ///< per-segment chunk plans, SRVPack
  SrvWorkspace ws_;
  double prep_seconds_ = 0.0;
  /// Per-configuration kernel timer ("spmv.run.<config name>"), interned
  /// once at prepare() when metrics are enabled so run() never touches a
  /// string. Stays kInvalidMetric — and run() stays untimed — when metrics
  /// were disabled at prepare() time.
  obs::MetricId run_timer_ = obs::kInvalidMetric;
};

/// Times `iters` SpMV runs of a prepared matrix and returns the average
/// seconds per iteration (minimum of `repeats` timing passes to suppress
/// scheduling noise).
double time_spmv(PreparedMatrix& pm, std::span<const value_t> x,
                 std::span<value_t> y, int iters, int repeats = 3);

}  // namespace wise
