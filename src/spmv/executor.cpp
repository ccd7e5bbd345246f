#include "spmv/executor.hpp"

#include <algorithm>
#include <limits>

#include <omp.h>

#include "spmv/bsr.hpp"
#include "spmv/csr_kernels.hpp"
#include "spmv/format_kernels.hpp"
#include "util/timer.hpp"

namespace wise {

PreparedMatrix PreparedMatrix::prepare(const CsrMatrix& m,
                                       const MethodConfig& cfg) {
  auto& metrics = obs::MetricsRegistry::global();
  PreparedMatrix pm;
  pm.cfg_ = cfg;
  pm.csr_ = &m;
  if (cfg.kind == MethodKind::kBsr) {
    obs::ScopedTimer span("spmv.prepare.bsr");
    Timer t;
    pm.bsr_ = std::make_shared<const BsrMatrix>(
        BsrMatrix::from_csr(m, cfg.c));
    pm.prep_seconds_ = t.seconds();
  } else if (cfg.kind == MethodKind::kDia) {
    obs::ScopedTimer span("spmv.prepare.dia");
    Timer t;
    pm.dia_ = std::make_shared<const DiaMatrix>(DiaMatrix::from_csr(m));
    pm.prep_seconds_ = t.seconds();
  } else if (cfg.kind != MethodKind::kCsr) {
    obs::ScopedTimer span("spmv.prepare.srvpack");
    Timer t;
    pm.packed_ = SrvPackMatrix::build(m, cfg.srv_options());
    pm.prep_seconds_ = t.seconds();
  }
  if (pm.packed_.has_value() || pm.dia_) {
    // Outside the conversion timers: conversion timings stay comparable
    // across configurations, but a conversion that produced a broken layout
    // is caught here (wise::Error, kValidation) instead of inside the kernel.
    obs::ScopedTimer span("spmv.prepare.check");
    if (pm.packed_.has_value()) pm.packed_->validate();
    if (pm.dia_) pm.dia_->validate();
  }
  if (cfg.kind != MethodKind::kBsr) {
    // Balancing happens once here; steady-state run() calls pay zero
    // repartitioning cost. The block count is pinned to the thread count
    // at prepare time — running with fewer threads later stays correct
    // (blocks are just shared out), it only rebalances more coarsely.
    obs::ScopedTimer span("spmv.prepare.plan");
    const int threads = omp_get_max_threads();
    if (cfg.kind == MethodKind::kCsr) {
      pm.row_plan_ = build_csr_plan(m, cfg.sched, threads);
    } else if (cfg.kind == MethodKind::kDia) {
      // The balanced partition comes from the *source* CSR row_ptr: DIA
      // keeps CSR's row order, so its nnz prefix sum is the right work
      // weight.
      pm.row_plan_ =
          build_balanced_plan(m.row_ptr(), plan_blocks_for(cfg.sched, threads));
    } else {
      pm.srv_plan_ = build_srv_plan(*pm.packed_, cfg.sched, threads);
    }
  }
  if (metrics.enabled()) {
    pm.run_timer_ = metrics.timer_id("spmv.run." + cfg.name());
    metrics.add("spmv.prepare.count");
    if (pm.has_plan()) {
      metrics.add("spmv.prepare.plan.count");
      // Variant histogram: how many plan blocks will dispatch to each
      // specialized loop. Surfaced through STATS so operators can see
      // whether the classifier is actually firing on live traffic.
      const auto hist = pm.row_plan_.has_value()
                            ? pm.row_plan_->variant_histogram()
                            : pm.srv_plan_->variant_histogram();
      for (std::size_t v = 0; v < kNumKernelVariants; ++v) {
        if (hist[v] == 0) continue;
        metrics.add(std::string("spmv.plan.variant.") +
                        kernel_variant_name(static_cast<KernelVariant>(v)),
                    hist[v]);
      }
    }
    metrics.set_gauge("spmv.prepare.memory_bytes",
                      static_cast<double>(pm.memory_bytes()));
  }
  return pm;
}

void PreparedMatrix::run(std::span<const value_t> x, std::span<value_t> y) {
  run(x, y, ws_);
}

void PreparedMatrix::run(std::span<const value_t> x, std::span<value_t> y,
                         SrvWorkspace& ws) const {
  obs::ScopedTimer span(run_timer_, obs::MetricsRegistry::global());
  if (cfg_.kind == MethodKind::kCsr) {
    spmv_csr(*csr_, x, y, cfg_.sched, *row_plan_);
  } else if (cfg_.kind == MethodKind::kBsr) {
    bsr_->spmv(x, y);
  } else if (cfg_.kind == MethodKind::kDia) {
    spmv_dia(*dia_, x, y, *row_plan_);
  } else {
    spmv_srvpack(*packed_, x, y, cfg_.sched, ws, *srv_plan_);
  }
}

std::size_t PreparedMatrix::memory_bytes() const {
  if (bsr_) return bsr_->memory_bytes();
  if (dia_) return dia_->memory_bytes();
  return packed_.has_value() ? packed_->memory_bytes() : csr_->memory_bytes();
}

std::size_t PreparedMatrix::plan_bytes() const {
  if (row_plan_.has_value()) return row_plan_->memory_bytes();
  if (srv_plan_.has_value()) return srv_plan_->memory_bytes();
  return 0;
}

double time_spmv(PreparedMatrix& pm, std::span<const value_t> x,
                 std::span<value_t> y, int iters, int repeats) {
  iters = std::max(1, iters);
  repeats = std::max(1, repeats);
  // Warm-up: faults in the prepared arrays and fills caches comparably
  // across configurations.
  pm.run(x, y);

  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    Timer t;
    for (int i = 0; i < iters; ++i) pm.run(x, y);
    best = std::min(best, t.seconds() / iters);
  }
  return best;
}

}  // namespace wise
