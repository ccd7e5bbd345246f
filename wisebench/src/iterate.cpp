// The iterate phases: one Wise::prepare per fixed matrix, then a long
// steady-state SpMV loop, CG to a fixed tolerance on the SPD matrices, and
// a blocked SpMM loop. A step times one batch per matrix, alternating the
// chosen layout with its baseline, so drift hits both alike.
#include <algorithm>
#include <cmath>
#include <optional>
#include <set>

#include "bench.hpp"
#include "features/extractor.hpp"
#include "labels.hpp"
#include "solvers/solvers.hpp"
#include "spmm/spmm.hpp"
#include "spmv/plan.hpp"
#include "trace.hpp"

namespace wisebench {

namespace {

namespace sp = wise::spmm;
using trace::Layer;
using wise::value_t;

constexpr double kBatchSeconds = 1e-3;
constexpr double kCgRelTolerance = 1e-8;

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

/// Iterations that make one timed batch about kBatchSeconds long.
int batch_size(const auto& run_once) {
  run_once();
  const std::int64_t t = now_ns();
  for (int i = 0; i < 3; ++i) run_once();
  const double each = seconds_between(t, now_ns()) / 3;
  return std::clamp(static_cast<int>(kBatchSeconds / std::max(each, 1e-9)), 1,
                    1000);
}

/// Per-iteration seconds of one batch.
double time_batch(int iters, const auto& run_once) {
  const std::int64_t t = now_ns();
  for (int i = 0; i < iters; ++i) run_once();
  return seconds_between(t, now_ns()) / iters;
}

class SpmvPhase final : public Phase {
 public:
  SpmvPhase(Bench& b, Tally& tally, std::vector<std::string>& choices)
      : tally_(tally), loops_(b.iter.size()) {
    std::set<wise::MethodKind> kinds;
    for (std::size_t i = 0; i < b.iter.size(); ++i) {
      Loop& l = loops_[i];
      l.im = &b.iter[i];
      const wise::CsrMatrix& m = l.im->m;
      wise::WiseChoice choice;
      const std::int64_t t = now_ns();
      {
        trace::Span span(Layer::kWise, "prepare");
        l.chosen.emplace(b.wise->prepare(m, choice));
      }
      decision_ += seconds_between(t, now_ns());
      l.baseline.emplace(
          wise::PreparedMatrix::prepare(m, wise::MethodConfig{}));
      kinds.insert(choice.config.kind);
      choices.push_back(l.im->name + "=" + choice.config.name());

      l.x = seeded_vector(static_cast<std::size_t>(m.ncols()),
                          b.opt.seed * 131 + i);
      l.y.assign(static_cast<std::size_t>(m.nrows()), 0);
      l.chosen->run(l.x, l.y);
      tally_.record(matches_reference(m, l.x, l.y));
      l.y_first = l.y;
      l.baseline->run(l.x, l.y);
      tally_.record(matches_reference(m, l.x, l.y));
      l.batch = batch_size([&] { l.chosen->run(l.x, l.y); });
    }
    method_kinds_ = static_cast<double>(kinds.size());
  }

  void step() override {
    const std::int64_t t = now_ns();
    for (Loop& l : loops_) {
      {
        trace::Span span(Layer::kSpmv, "run.chosen");
        l.chosen_s.push_back(
            time_batch(l.batch, [&] { l.chosen->run(l.x, l.y); }));
      }
      trace::Span span(Layer::kSpmv, "run.csr_baseline");
      l.baseline_s.push_back(
          time_batch(l.batch, [&] { l.baseline->run(l.x, l.y); }));
    }
    loop_seconds_ += seconds_between(t, now_ns());
  }

  void finish(Metrics& out) override {
    std::vector<double> gflops, speedup, gbs;
    for (Loop& l : loops_) {
      l.chosen->run(l.x, l.y);
      tally_.record(l.y == l.y_first);  // same layout, same x: same bits
      const double nnz = static_cast<double>(l.im->m.nnz());
      const double t = median(l.chosen_s);
      gflops.push_back(2 * nnz / t * 1e-9);
      speedup.push_back(median(l.baseline_s) / t);
      // Computed, not counted: layout bytes plus x read and y written once.
      const double bytes = static_cast<double>(l.chosen->memory_bytes()) +
                           8.0 * static_cast<double>(l.x.size() + l.y.size());
      gbs.push_back(bytes / t * 1e-9);
      out.set("spmv.gflops." + l.im->name, gflops.back(), "GFLOP/s");
    }
    out.set("spmv_gflops", geomean(gflops), "GFLOP/s");
    out.set("spmv.speedup_vs_csr", geomean(speedup), "x");
    out.set("spmv.gbs_computed", geomean(gbs), "GB/s");
    out.set("wise.method_kinds", method_kinds_, "count");
    // What the one-time decisions cost next to the loop they serve.
    out.set("iterate.decision_share", decision_ / (decision_ + loop_seconds_),
            "ratio");
  }

 private:
  struct Loop {
    const IterMatrix* im = nullptr;
    std::optional<wise::PreparedMatrix> chosen, baseline;
    std::vector<value_t> x, y, y_first;
    int batch = 1;
    std::vector<double> chosen_s, baseline_s;
  };
  Tally& tally_;
  std::vector<Loop> loops_;
  double decision_ = 0, loop_seconds_ = 0, method_kinds_ = 0;
};

class CgPhase final : public Phase {
 public:
  CgPhase(Bench& b, Tally& tally) : b_(b), tally_(tally) {
    for (std::size_t i = 0; i < b.iter.size(); ++i) {
      if (!b.iter[i].spd) continue;
      Solve s{&b.iter[i]};
      s.rhs = seeded_vector(static_cast<std::size_t>(s.im->m.nrows()),
                            b.opt.seed * 977 + i);
      double norm = 0;
      for (const value_t v : s.rhs) norm += v * v;
      s.tolerance = kCgRelTolerance * std::sqrt(norm);
      solves_.push_back(std::move(s));
    }
  }

  /// One time-to-solution per SPD matrix: Wise::prepare, then CG.
  void step() override {
    for (Solve& s : solves_) {
      const wise::CsrMatrix& m = s.im->m;
      trace::Span solve_span(Layer::kSolvers, "solve");
      const std::int64_t t0 = now_ns();
      wise::WiseChoice choice;
      std::optional<wise::PreparedMatrix> pm;
      {
        trace::Span span(Layer::kWise, "prepare");
        pm.emplace(b_.wise->prepare(m, choice));
      }
      const std::int64_t t1 = now_ns();
      double spmv_seconds = 0;
      const wise::SpmvOperator op = [&](std::span<const value_t> x,
                                        std::span<value_t> y) {
        trace::Span span(Layer::kSpmv, "cg.spmv");
        const std::int64_t a = now_ns();
        pm->run(x, y);
        spmv_seconds += seconds_between(a, now_ns());
      };
      const wise::SolverResult r = wise::solve_cg(
          op, s.rhs, {.max_iterations = 2000, .tolerance = s.tolerance});
      const std::int64_t t2 = now_ns();
      s.total_s.push_back(seconds_between(t0, t2));
      s.vector_s.push_back(seconds_between(t1, t2) - spmv_seconds);
      s.iterations = r.iterations;

      // Residual recomputed with the reference kernel.
      std::vector<value_t> ax(s.rhs.size());
      wise::spmv_reference(m, r.x, ax);
      double res = 0;
      for (std::size_t k = 0; k < ax.size(); ++k) {
        res += (s.rhs[k] - ax[k]) * (s.rhs[k] - ax[k]);
      }
      tally_.record(r.converged && std::sqrt(res) <= 10 * s.tolerance);
    }
  }

  void finish(Metrics& out) override {
    double solve = 0, vector = 0, iterations = 0;
    for (const Solve& s : solves_) {
      solve += median(s.total_s);
      vector += median(s.vector_s);
      iterations += s.iterations;
    }
    out.set("solve_s", solve, "s");
    out.set("solvers.vector_s", vector, "s");
    out.set("solvers.cg_iterations", iterations, "count");
  }

 private:
  struct Solve {
    const IterMatrix* im = nullptr;
    std::vector<value_t> rhs;
    double tolerance = 0;
    std::vector<double> total_s, vector_s;
    int iterations = 0;
  };
  Bench& b_;
  Tally& tally_;
  std::vector<Solve> solves_;
};

class SpmmPhase final : public Phase {
 public:
  SpmmPhase(Bench& b, Tally& tally, std::vector<std::string>& choices) {
    for (std::size_t i = 0; i < b.iter.size(); ++i) {
      const wise::CsrMatrix& m = b.iter[i].m;
      const auto features = wise::extract_features(m).values;
      Block bl{&b.iter[i], b.spmm_bank->choose(features).config,
               sp::spmm_method_configs()[0]};
      bl.chosen_plan = wise::build_csr_plan(m, bl.chosen.sched, kOmpThreads);
      bl.baseline_plan =
          wise::build_csr_plan(m, bl.baseline.sched, kOmpThreads);
      bl.x = seeded_vector(static_cast<std::size_t>(m.ncols() * kSpmmCols),
                           b.opt.seed * 31 + i);
      bl.y.assign(static_cast<std::size_t>(m.nrows() * kSpmmCols), 0);
      choices.push_back(bl.im->name + ".spmm=" + bl.chosen.name());

      // The blocked kernels promise the reference's exact bits.
      std::vector<value_t> ref(bl.y.size());
      sp::spmm_reference(m, bl.x, ref, kSpmmCols);
      bl.run(true);
      tally.record(bl.y == ref);
      bl.run(false);
      tally.record(bl.y == ref);
      bl.batch = batch_size([&] { bl.run(true); });
      blocks_.push_back(std::move(bl));
    }
  }

  void step() override {
    for (Block& bl : blocks_) {
      {
        trace::Span span(Layer::kSpmm, "spmm.chosen");
        bl.chosen_s.push_back(time_batch(bl.batch, [&] { bl.run(true); }));
      }
      trace::Span span(Layer::kSpmm, "spmm.repeated_spmv");
      bl.baseline_s.push_back(time_batch(bl.batch, [&] { bl.run(false); }));
    }
  }

  void finish(Metrics& out) override {
    std::vector<double> gflops, vs_spmv;
    for (const Block& bl : blocks_) {
      const double t = median(bl.chosen_s);
      gflops.push_back(2.0 * static_cast<double>(bl.im->m.nnz()) * kSpmmCols /
                       t * 1e-9);
      vs_spmv.push_back(median(bl.baseline_s) / t);
    }
    out.set("spmm_gflops", geomean(gflops), "GFLOP/s");
    out.set("spmm.gflops", geomean(gflops), "GFLOP/s");
    out.set("spmm.vs_repeated_spmv", geomean(vs_spmv), "x");
  }

 private:
  struct Block {
    const IterMatrix* im = nullptr;
    sp::SpmmConfig chosen;
    sp::SpmmConfig baseline;  ///< kb=1: k repeated SpMVs
    wise::SpmvPlan chosen_plan, baseline_plan;
    std::vector<value_t> x, y;
    int batch = 1;
    std::vector<double> chosen_s, baseline_s;

    void run(bool use_chosen) {
      sp::spmm_csr(im->m, x, y, kSpmmCols,
                           use_chosen ? chosen : baseline,
                           use_chosen ? chosen_plan : baseline_plan);
    }
  };
  std::vector<Block> blocks_;
};

}  // namespace

std::unique_ptr<Phase> make_spmv_phase(Bench& b, Tally& tally,
                                       std::vector<std::string>& choices) {
  return std::make_unique<SpmvPhase>(b, tally, choices);
}

std::unique_ptr<Phase> make_cg_phase(Bench& b, Tally& tally) {
  return std::make_unique<CgPhase>(b, tally);
}

std::unique_ptr<Phase> make_spmm_phase(Bench& b, Tally& tally,
                                       std::vector<std::string>& choices) {
  return std::make_unique<SpmmPhase>(b, tally, choices);
}

}  // namespace wisebench
