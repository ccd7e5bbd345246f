// perf_smoke — fixed deterministic benchmark suite emitting BENCH_<sha>.json.
//
// Runs in a couple of seconds and covers the three costs WISE's value
// proposition hangs on (paper Figs 2-13): feature-extraction time, the
// per-configuration SpMV kernels of the 29-config registry, and the full
// choose→prepare pipeline including model inference. Timings are recorded
// twice: as explicit min/mean/max benchmark rows, and as the embedded
// wise-metrics snapshot collected by the library's own instrumentation —
// so the report also proves the observability layer sees every stage.
//
//   perf_smoke [--quick] [--out-dir DIR]
//
//   --quick     shrink matrix sizes/iterations (used by the ctest
//               bench-smoke label so `ctest` stays fast)
//   --out-dir   directory for BENCH_<sha>.json (default ".")
//
// The git sha in the file name comes from WISE_GIT_SHA, then GITHUB_SHA,
// then "local". The process exits nonzero if the written report fails to
// re-parse or is missing benchmarks/metrics — the CI perf-smoke job relies
// on that self-check plus its own validation pass. Timings themselves are
// informational (runner noise must not fail CI); only report *shape* gates.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <omp.h>

#include "exp/measure.hpp"
#include "exp/spec.hpp"
#include "exp/train.hpp"
#include "features/extractor.hpp"
#include "gen/generators.hpp"
#include "hw/probe.hpp"
#include "obs/metrics.hpp"
#include "sparse/dia.hpp"
#include "obs/report.hpp"
#include "obs/sink.hpp"
#include "serve/server.hpp"
#include "spmm/spmm.hpp"
#include "spmv/csr_kernels.hpp"
#include "spmv/executor.hpp"
#include "spmv/method.hpp"
#include "spmv/plan.hpp"
#include "util/aligned.hpp"
#include "util/prng.hpp"
#include "util/timer.hpp"
#include "wise/amortized.hpp"
#include "wise/pipeline.hpp"

using namespace wise;

namespace {

struct SuiteMatrix {
  std::string name;
  CsrMatrix m;
};

obs::JsonValue matrix_params(const CsrMatrix& m) {
  obs::JsonValue p = obs::JsonValue::object();
  p.set("nrows", static_cast<std::int64_t>(m.nrows()));
  p.set("ncols", static_cast<std::int64_t>(m.ncols()));
  p.set("nnz", static_cast<std::int64_t>(m.nnz()));
  return p;
}

/// The fixed suite: two RMAT classes spanning the skew axis plus one RGG
/// for the locality axis. Seeds are pinned so every run and every machine
/// benches byte-identical matrices.
std::vector<SuiteMatrix> build_suite(bool quick) {
  const index_t n = quick ? 2048 : 8192;
  const double deg = 8.0;
  std::vector<SuiteMatrix> suite;
  suite.push_back({"rmat-hs", CsrMatrix::from_coo(generate_rmat(
                                  rmat_class_params(RmatClass::kHighSkew, n, deg), 42))});
  suite.push_back({"rmat-ls", CsrMatrix::from_coo(generate_rmat(
                                  rmat_class_params(RmatClass::kLowSkew, n, deg), 42))});
  suite.push_back({"rgg", CsrMatrix::from_coo(generate_rgg(n, deg, 42))});
  return suite;
}

/// Tiny training corpus for the pipeline stage: distinct from the suite
/// matrices (different n, seeds) so choose() predicts on unseen inputs.
std::vector<MatrixSpec> training_corpus(bool quick) {
  const index_t n = quick ? 512 : 1024;
  std::vector<MatrixSpec> specs;
  std::uint64_t seed = 7000;
  const auto classes =
      quick ? std::vector<RmatClass>{RmatClass::kHighSkew, RmatClass::kLowLoc}
            : std::vector<RmatClass>{RmatClass::kHighSkew, RmatClass::kMedSkew,
                                     RmatClass::kLowSkew, RmatClass::kLowLoc,
                                     RmatClass::kMedLoc, RmatClass::kHighLoc};
  for (const RmatClass cls : classes) {
    auto s = rmat_spec(cls, n, 8.0, seed++);
    s.id = "smoke-" + s.id;
    specs.push_back(std::move(s));
  }
  for (int i = 0; i < 2; ++i) {
    auto s = rgg_spec(n, 8.0, seed++);
    s.id = "smoke-" + s.id;
    specs.push_back(std::move(s));
  }
  return specs;
}

/// Times `passes` invocations of `fn`, returning per-pass seconds / iters.
template <typename Fn>
obs::TimingSummary time_passes(int passes, int iters, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(passes));
  for (int p = 0; p < passes; ++p) {
    Timer t;
    for (int i = 0; i < iters; ++i) fn();
    samples.push_back(t.seconds() / iters);
  }
  return obs::TimingSummary::from_samples(samples, iters);
}

/// Times two competing kernels with alternating passes (A,B,A,B,...) so a
/// transient load burst on a shared runner degrades both sides' windows
/// instead of silently skewing whichever ran second. The perf-gate reads
/// the A/B ratio of the returned min estimates, so this symmetry matters
/// more than it would for a standalone timing.
template <typename FnA, typename FnB>
std::pair<obs::TimingSummary, obs::TimingSummary> time_passes_interleaved(
    int passes, int iters, FnA&& a, FnB&& b) {
  std::vector<double> sa, sb;
  sa.reserve(static_cast<std::size_t>(passes));
  sb.reserve(static_cast<std::size_t>(passes));
  for (int p = 0; p < passes; ++p) {
    {
      Timer t;
      for (int i = 0; i < iters; ++i) a();
      sa.push_back(t.seconds() / iters);
    }
    {
      Timer t;
      for (int i = 0; i < iters; ++i) b();
      sb.push_back(t.seconds() / iters);
    }
  }
  return {obs::TimingSummary::from_samples(sa, iters),
          obs::TimingSummary::from_samples(sb, iters)};
}

int usage() {
  std::fprintf(stderr,
               "usage: perf_smoke [--quick] [--out-dir DIR] [--passes N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_dir = ".";
  int passes_override = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--passes") == 0 && i + 1 < argc) {
      passes_override = std::atoi(argv[++i]);
      if (passes_override < 1) return usage();
    } else {
      return usage();
    }
  }

  // The suite's purpose is producing metrics, so the registry is enabled
  // unconditionally; WISE_METRICS only picks an *additional* output sink.
  auto& metrics = obs::MetricsRegistry::global();
  metrics.set_enabled(true);
  metrics.reset();

  obs::BenchReport report("perf_smoke", obs::bench_git_sha());
  // --passes raises every stage's repetition count (the nightly workflow
  // runs --passes 9 for tighter minima); the kernel stages never drop
  // below their 3-pass floor.
  const int passes = passes_override > 0 ? passes_override : (quick ? 3 : 5);
  const int kernel_passes = std::max(3, passes);

  // --- Stage 1: feature extraction over the seeded suite ------------------
  std::printf("[perf_smoke] feature extraction (%s mode)...\n",
              quick ? "quick" : "full");
  std::vector<SuiteMatrix> suite = build_suite(quick);
  for (const auto& s : suite) {
    const auto timing = time_passes(passes, 1, [&] {
      FeatureVector fv = extract_features(s.m);
      do_not_optimize(fv.values.data());
    });
    report.add("features", "extract/" + s.name, timing, matrix_params(s.m));
  }

  // --- Stage 2: the 29-configuration SpMV registry ------------------------
  std::printf("[perf_smoke] spmv registry (29 configurations)...\n");
  {
    const CsrMatrix& m = suite[1].m;  // rmat-ls: no config degenerates
    aligned_vector<value_t> x(static_cast<std::size_t>(m.ncols()));
    aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
    Xoshiro256 rng(0x5eedf00d);
    for (auto& v : x) v = static_cast<value_t>(rng.next_double());

    const int iters = quick ? 10 : 50;
    for (const MethodConfig& cfg : all_method_configs()) {
      PreparedMatrix pm = PreparedMatrix::prepare(m, cfg);
      pm.run(x, y);  // warm-up
      const auto timing = time_passes(kernel_passes, iters, [&] { pm.run(x, y); });
      obs::JsonValue params = matrix_params(m);
      params.set("prep_seconds", pm.prep_seconds());
      report.add("spmv", "run/" + cfg.name(), timing, std::move(params));
    }
  }

  // --- Stage 3: execution plan vs plain schedule(static) ------------------
  // The nnz-balanced plan (spmv/plan.hpp) exists for skewed matrices, where
  // schedule(static)'s equal *row* split leaves one thread holding the hub
  // rows. rmat-hs is exactly that shape; the CI validate step gates
  // plan_vs_static_speedup >= 1.15 at OMP_NUM_THREADS=2 (timings stay
  // informational locally — see the header comment).
  std::printf("[perf_smoke] execution plan vs schedule(static) (rmat-hs)...\n");
  {
    const CsrMatrix& m = suite[0].m;  // rmat-hs: the skew plans exist for
    aligned_vector<value_t> x(static_cast<std::size_t>(m.ncols()));
    aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
    Xoshiro256 rng(0x9a7b11);
    for (auto& v : x) v = static_cast<value_t>(rng.next_double());

    const int iters = quick ? 10 : 50;
    const int threads = omp_get_max_threads();
    const SpmvPlan plan = build_csr_plan(m, Schedule::kStCont, threads);
    const double gflop = 2.0 * static_cast<double>(m.nnz()) / 1e9;

    spmv_csr(m, x, y, Schedule::kStCont);  // warm-up
    const auto legacy = time_passes(kernel_passes, iters, [&] {
      spmv_csr(m, x, y, Schedule::kStCont);
      do_not_optimize(y.data());
    });
    spmv_csr(m, x, y, Schedule::kStCont, plan);  // warm-up
    const auto planned = time_passes(kernel_passes, iters, [&] {
      spmv_csr(m, x, y, Schedule::kStCont, plan);
      do_not_optimize(y.data());
    });

    obs::JsonValue params = matrix_params(m);
    params.set("threads", static_cast<std::int64_t>(threads));
    params.set("plan_blocks", static_cast<std::int64_t>(plan.num_blocks()));
    params.set("plan_bytes", static_cast<std::int64_t>(plan.memory_bytes()));
    params.set("gflops_static", gflop / legacy.min_seconds);
    params.set("gflops_plan", gflop / planned.min_seconds);
    params.set("plan_vs_static_speedup",
               legacy.min_seconds / planned.min_seconds);
    report.add("plan", "csr_static/rmat-hs", legacy, params);
    report.add("plan", "csr_plan/rmat-hs", planned, std::move(params));
    std::printf("[perf_smoke] plan: %d blocks, plan vs static %.2fx\n",
                static_cast<int>(plan.num_blocks()),
                legacy.min_seconds / planned.min_seconds);
  }

  // --- Stage 4: specialized kernel variants vs generic plan ---------------
  // Plan-time specialization (WISE_PLAN_SPECIALIZE, spmv/plan.hpp)
  // classifies each block's row shape and dispatches uniform/wide/merge
  // loops. The skewed RMAT fixture is the headline case (tiny-row scalar
  // fast path); the uniform banded fixture exercises the hoisted-length
  // unroll. The perf-gate CI job gates specialize_vs_generic_speedup >=
  // 1.2 on rmat-hs; both sides are also self-checked bit-identical here,
  // so a miscompiled variant fails the run before CI ever reads a ratio.
  std::printf("[perf_smoke] specialized variants vs generic plan...\n");
  {
    const index_t n = quick ? 2048 : 8192;
    const CsrMatrix banded =
        CsrMatrix::from_coo(generate_banded(n, 8, 1.0, 42));
    const std::vector<std::pair<std::string, const CsrMatrix*>> fixtures = {
        {"rmat-hs", &suite[0].m}, {"banded-u", &banded}};
    // The perf-gate reads this stage's ratio, so the min estimate gets
    // more iterations than the informational stages to shrink its noise.
    const int iters = quick ? 20 : 100;
    const int threads = omp_get_max_threads();

    for (const auto& [name, mp] : fixtures) {
      const CsrMatrix& m = *mp;
      aligned_vector<value_t> x(static_cast<std::size_t>(m.ncols()));
      aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
      Xoshiro256 rng(0xc1a55f1);
      for (auto& v : x) v = static_cast<value_t>(rng.next_double());

      const SpmvPlan generic =
          build_csr_plan(m, Schedule::kStCont, threads, /*specialize=*/false);
      const SpmvPlan spec =
          build_csr_plan(m, Schedule::kStCont, threads, /*specialize=*/true);

      // Self-check: specialization must never change the bits.
      std::vector<value_t> y_generic(y.size()), y_spec(y.size());
      spmv_csr(m, x, y_generic, Schedule::kStCont, generic);
      spmv_csr(m, x, y_spec, Schedule::kStCont, spec);
      if (y_generic != y_spec) {
        std::fprintf(stderr,
                     "[perf_smoke] FAIL: specialized plan not bit-identical "
                     "on %s\n",
                     name.c_str());
        return 1;
      }

      spmv_csr(m, x, y, Schedule::kStCont, generic);  // warm-up
      spmv_csr(m, x, y, Schedule::kStCont, spec);     // warm-up
      const auto [gen_t, spec_t] = time_passes_interleaved(
          kernel_passes, iters,
          [&] {
            spmv_csr(m, x, y, Schedule::kStCont, generic);
            do_not_optimize(y.data());
          },
          [&] {
            spmv_csr(m, x, y, Schedule::kStCont, spec);
            do_not_optimize(y.data());
          });

      const auto hist = spec.variant_histogram();
      obs::JsonValue params = matrix_params(m);
      params.set("threads", static_cast<std::int64_t>(threads));
      params.set("plan_blocks",
                 static_cast<std::int64_t>(spec.num_blocks()));
      params.set("plan_bytes",
                 static_cast<std::int64_t>(spec.memory_bytes()));
      for (std::size_t v = 0; v < kNumKernelVariants; ++v) {
        params.set(std::string("blocks_") +
                       kernel_variant_name(static_cast<KernelVariant>(v)),
                   static_cast<std::int64_t>(hist[v]));
      }
      params.set("specialize_vs_generic_speedup",
                 gen_t.min_seconds / spec_t.min_seconds);
      report.add("specialize", "csr_generic/" + name, gen_t, params);
      report.add("specialize", "csr_special/" + name, spec_t,
                 std::move(params));
      std::printf(
          "[perf_smoke] specialize %s: %d blocks "
          "(g/u/w/m %u/%u/%u/%u), specialized vs generic %.2fx\n",
          name.c_str(), static_cast<int>(spec.num_blocks()), hist[0],
          hist[1], hist[2], hist[3], gen_t.min_seconds / spec_t.min_seconds);
    }

    // SRVPack side of the menu (informational): chunk-level variants on
    // the skewed fixture at the packed format's native lane width.
    {
      const CsrMatrix& m = suite[0].m;
      const SrvPackMatrix p = SrvPackMatrix::build(m, {.c = 8, .sigma = 64});
      aligned_vector<value_t> x(static_cast<std::size_t>(m.ncols()));
      std::vector<value_t> y_generic(static_cast<std::size_t>(m.nrows()));
      std::vector<value_t> y_spec(y_generic.size());
      Xoshiro256 rng(0xc1a55f2);
      for (auto& v : x) v = static_cast<value_t>(rng.next_double());
      const SrvPlan generic =
          build_srv_plan(p, Schedule::kStCont, threads, /*specialize=*/false);
      const SrvPlan spec =
          build_srv_plan(p, Schedule::kStCont, threads, /*specialize=*/true);
      SrvWorkspace ws;
      spmv_srvpack(p, x, y_generic, Schedule::kStCont, ws, generic);
      spmv_srvpack(p, x, y_spec, Schedule::kStCont, ws, spec);
      if (y_generic != y_spec) {
        std::fprintf(stderr,
                     "[perf_smoke] FAIL: specialized SRVPack plan not "
                     "bit-identical on rmat-hs\n");
        return 1;
      }
      const auto [gen_t, spec_t] = time_passes_interleaved(
          kernel_passes, iters,
          [&] {
            spmv_srvpack(p, x, y_generic, Schedule::kStCont, ws, generic);
            do_not_optimize(y_generic.data());
          },
          [&] {
            spmv_srvpack(p, x, y_spec, Schedule::kStCont, ws, spec);
            do_not_optimize(y_spec.data());
          });
      obs::JsonValue params = matrix_params(m);
      params.set("threads", static_cast<std::int64_t>(threads));
      params.set("specialize_vs_generic_speedup",
                 gen_t.min_seconds / spec_t.min_seconds);
      report.add("specialize", "srv_generic/rmat-hs", gen_t, params);
      report.add("specialize", "srv_special/rmat-hs", spec_t,
                 std::move(params));
      std::printf("[perf_smoke] specialize srvpack: %.2fx\n",
                  gen_t.min_seconds / spec_t.min_seconds);
    }
  }

  // --- Stage 4b: DIA vs best CSR on the banded fixture ---------------------
  // DIA exists for exactly this shape: a fully banded matrix is a handful
  // of dense diagonals, so its kernel runs pure unit-stride triad loops
  // with no column-index loads at all. The CI perf-gate reads
  // dia_vs_best_csr_speedup >= 1.3. The DIA result is self-checked
  // bit-identical to the serial CSR reference before anything is timed.
  std::printf("[perf_smoke] DIA vs best CSR (banded)...\n");
  {
    const index_t n = quick ? 2048 : 8192;
    const CsrMatrix banded =
        CsrMatrix::from_coo(generate_banded(n, 8, 1.0, 42));
    aligned_vector<value_t> x(static_cast<std::size_t>(banded.ncols()));
    aligned_vector<value_t> y(static_cast<std::size_t>(banded.nrows()));
    Xoshiro256 rng(0xd1a60);
    for (auto& v : x) v = static_cast<value_t>(rng.next_double());
    std::vector<value_t> y_ref(static_cast<std::size_t>(banded.nrows()));
    spmv_reference(banded, x, y_ref);

    const int iters = quick ? 20 : 100;

    // Best CSR arm: the fastest of the three CSR scheduling variants on
    // this fixture, picked by a short calibration pass.
    std::vector<PreparedMatrix> csr_pms;
    std::size_t best_csr = 0;
    double best_csr_seconds = 0.0;
    std::string best_csr_name;
    for (const MethodConfig& cfg : all_method_configs()) {
      if (cfg.kind != MethodKind::kCsr) continue;
      PreparedMatrix pm = PreparedMatrix::prepare(banded, cfg);
      pm.run(x, y);  // warm-up
      const auto t = time_passes(3, iters / 2, [&] { pm.run(x, y); });
      if (csr_pms.empty() || t.min_seconds < best_csr_seconds) {
        best_csr = csr_pms.size();
        best_csr_seconds = t.min_seconds;
        best_csr_name = cfg.name();
      }
      csr_pms.push_back(std::move(pm));
    }
    PreparedMatrix& csr_pm = csr_pms[best_csr];

    // Bit-identity self-check, then one timed interleaved A/B.
    const double gflop = 2.0 * static_cast<double>(banded.nnz()) / 1e9;
    const DiaAnalysis dia_info = DiaMatrix::analyze(banded);
    double dia_speedup = 0.0;
    {
      PreparedMatrix pm =
          PreparedMatrix::prepare(banded, parse_method_config("DIA"));
      std::fill(y.begin(), y.end(), static_cast<value_t>(0));
      pm.run(x, y);
      if (!std::equal(y_ref.begin(), y_ref.end(), y.begin())) {
        std::fprintf(stderr,
                     "[perf_smoke] FAIL: DIA not bit-identical to the serial "
                     "CSR reference on banded\n");
        return 1;
      }
      const auto [csr_t, dia_t] = time_passes_interleaved(
          kernel_passes, iters,
          [&] {
            csr_pm.run(x, y);
            do_not_optimize(y.data());
          },
          [&] {
            pm.run(x, y);
            do_not_optimize(y.data());
          });
      dia_speedup = csr_t.min_seconds / dia_t.min_seconds;
      obs::JsonValue params = matrix_params(banded);
      params.set("best_csr", best_csr_name);
      params.set("prep_seconds", pm.prep_seconds());
      params.set("gflops_csr", gflop / csr_t.min_seconds);
      params.set("gflops_format", gflop / dia_t.min_seconds);
      params.set("ndiags", static_cast<std::int64_t>(dia_info.ndiags));
      params.set("diag_fill", dia_info.fill);
      params.set("dia_vs_best_csr_speedup", dia_speedup);
      report.add("formats", "DIA/banded", dia_t, std::move(params));
    }
    {
      obs::JsonValue params = matrix_params(banded);
      params.set("config", best_csr_name);
      report.add("formats", "csr_best/banded",
                 time_passes(kernel_passes, iters,
                             [&] {
                               csr_pm.run(x, y);
                               do_not_optimize(y.data());
                             }),
                 std::move(params));
    }
    std::printf("[perf_smoke] formats: DIA vs %s %.2fx (%d diagonals)\n",
                best_csr_name.c_str(), dia_speedup,
                static_cast<int>(dia_info.ndiags));
  }

  // --- Stage 4c: the machine probe ----------------------------------------
  // Hardware-conditioned banks (ModelBank v3, docs/FEATURES.md) append
  // these five columns at choose() time; the row records what this runner
  // looks like and how long one full probe costs (the process-wide probe
  // itself is resolved once and cached). WISE_HW_PROBE=off zeroes the
  // numbers but the row still appears — report shape is machine-invariant.
  {
    Timer t;
    const hw::MachineProbe fresh = hw::run_probe();
    const double probe_seconds = t.seconds();
    obs::JsonValue params = obs::JsonValue::object();
    params.set("threads", static_cast<std::int64_t>(fresh.hardware_threads));
    params.set("l1d_kib", static_cast<std::int64_t>(fresh.l1d_bytes / 1024));
    params.set("l2_kib", static_cast<std::int64_t>(fresh.l2_bytes / 1024));
    params.set("llc_kib", static_cast<std::int64_t>(fresh.llc_bytes / 1024));
    params.set("stream_gbs", fresh.stream_triad_gbs);
    report.add("hw", "probe",
               obs::TimingSummary::from_samples({probe_seconds}, 1),
               std::move(params));
    std::printf("[perf_smoke] hw probe: %d threads, %.1f GB/s triad "
                "(%.1f ms)\n",
                fresh.hardware_threads, fresh.stream_triad_gbs,
                probe_seconds * 1e3);
  }

  // --- Stage 5: full pipeline choose/prepare ------------------------------
  std::printf("[perf_smoke] pipeline choose (training smoke bank)...\n");
  std::shared_ptr<const Wise> predictor;
  // Kept past this stage: the SOLVE session stage trains the amortized
  // dual-model selector from the same measurement records.
  std::vector<MatrixRecord> records;
  {
    for (const MatrixSpec& spec : training_corpus(quick)) {
      records.push_back(measure_matrix(spec, {.iters = 2, .repeats = 1}));
    }
    predictor = std::make_shared<const Wise>(train_model_bank(records));
    for (const auto& s : suite) {
      const auto timing = time_passes(passes, 1, [&] {
        WiseChoice c = predictor->choose(s.m);
        do_not_optimize(c.predicted_class);
      });
      WiseChoice choice;
      PreparedMatrix pm = predictor->prepare(s.m, choice);
      obs::JsonValue params = matrix_params(s.m);
      params.set("selected", choice.config.name());
      params.set("fell_back", choice.fell_back());
      params.set("prep_seconds", pm.prep_seconds());
      report.add("pipeline", "choose/" + s.name, timing, std::move(params));
    }
  }

  // --- Stage 6: flattened vs recursive tree inference ---------------------
  // The model bank serves predictions from the flattened packed-node
  // ensemble (ml/flat_tree.hpp). Time it against the per-tree recursive
  // walk it replaced, over feature vectors the bank has not seen. The bank
  // is trained here at paper scale (29 configs, max_depth 15, hundreds of
  // samples -> trees ~600 nodes deep enough to traverse) rather than
  // reusing the tiny 8-record pipeline smoke bank, whose depth-1 trees
  // would measure loop overhead instead of traversal. The CI validate step
  // gates flat_vs_recursive_speedup >= 2.0.
  std::printf("[perf_smoke] tree inference: flat packed vs recursive...\n");
  {
    const std::vector<MethodConfig> configs = all_method_configs();
    const std::size_t nc = configs.size();
    Xoshiro256 rng(0x7eef);
    std::vector<std::vector<double>> train_x;
    std::vector<std::vector<double>> train_rel;
    const int samples = quick ? 120 : 250;
    for (int i = 0; i < samples; ++i) {
      std::vector<double> f(feature_count());
      for (auto& v : f) v = rng.next_double() * 100.0;
      std::vector<double> rel(nc);
      for (std::size_t c = 0; c < nc; ++c) {
        // Each config keys off its own feature pair so the 29 trees are
        // non-trivial and mutually distinct.
        const double a = f[c % f.size()];
        const double b = f[(3 * c + 1) % f.size()];
        rel[c] = (a > b) ? 0.4 + 0.01 * static_cast<double>(c % 5) : 1.3;
      }
      train_x.push_back(std::move(f));
      train_rel.push_back(std::move(rel));
    }
    ModelBank bank;
    bank.train(configs, train_x, train_rel,
               {.max_depth = 15, .ccp_alpha = 0.0});
    // Enough distinct probes that the branch predictor cannot memorize the
    // recursive walks' outcome sequence — serving sees fresh matrices, so a
    // small cyclic probe set would flatter the branchy baseline's real cost.
    std::vector<std::vector<double>> probes(1024);
    for (auto& p : probes) {
      p.resize(feature_count());
      for (auto& v : p) v = rng.next_double() * 100.0;
    }
    std::vector<int> out(nc);
    const int iters = quick ? 200 : 1000;
    std::size_t which = 0;

    const auto recursive = time_passes(kernel_passes, iters, [&] {
      const auto& x = probes[which++ % probes.size()];
      for (std::size_t c = 0; c < nc; ++c) out[c] = bank.trees()[c].predict(x);
      do_not_optimize(out.data());
    });
    which = 0;
    const auto flat = time_passes(kernel_passes, iters, [&] {
      bank.predict_classes_into(probes[which++ % probes.size()], out);
      do_not_optimize(out.data());
    });

    obs::JsonValue params = obs::JsonValue::object();
    params.set("trees", static_cast<std::int64_t>(nc));
    params.set("flat_nodes",
               static_cast<std::int64_t>(bank.flat().num_nodes()));
    params.set("flat_bytes",
               static_cast<std::int64_t>(bank.flat().memory_bytes()));
    params.set("predictions_per_sec",
               static_cast<double>(nc) / flat.min_seconds);
    params.set("flat_vs_recursive_speedup",
               recursive.min_seconds / flat.min_seconds);
    report.add("inference", "bank_recursive", recursive, params);
    report.add("inference", "bank_flat", flat, std::move(params));
    std::printf("[perf_smoke] inference: flat vs recursive %.2fx\n",
                recursive.min_seconds / flat.min_seconds);
  }

  // --- Stage 7: blocked SpMM vs k independent plan-SpMVs ------------------
  // The multi-vector kernels (spmm/spmm.hpp) stream A once per register
  // block of RHS columns instead of once per column. Both arms share the
  // same nnz-balanced plan on the skewed fixture, so the ratio isolates
  // the blocking; the blocked result is self-checked bit-identical to the
  // serial reference before anything is timed. The CI perf-gate reads
  // spmm_vs_repeated_spmv_speedup >= 1.3 at k = 8.
  std::printf("[perf_smoke] blocked SpMM vs repeated SpMV (k=8, rmat-hs)...\n");
  {
    const CsrMatrix& m = suite[0].m;  // rmat-hs
    const index_t k = 8;
    const int threads = omp_get_max_threads();
    const SpmvPlan plan = build_csr_plan(m, Schedule::kDyn, threads);
    const spmm::SpmmConfig blocked_cfg = spmm::parse_spmm_config("SpMM/b8/Dyn");

    const std::size_t nc = static_cast<std::size_t>(m.ncols());
    const std::size_t nr = static_cast<std::size_t>(m.nrows());
    const std::size_t ku = static_cast<std::size_t>(k);
    aligned_vector<value_t> xb(nc * ku);
    aligned_vector<value_t> yb(nr * ku);
    Xoshiro256 rng(0x5b0cced);
    for (auto& v : xb) v = static_cast<value_t>(rng.next_double());

    // The repeated-SpMV client holds one contiguous vector per column.
    std::vector<aligned_vector<value_t>> xcols(ku), ycols(ku);
    for (std::size_t j = 0; j < ku; ++j) {
      xcols[j].resize(nc);
      for (std::size_t i = 0; i < nc; ++i) xcols[j][i] = xb[i * ku + j];
      ycols[j].resize(nr);
    }

    // Self-check: blocking must never change the bits.
    std::vector<value_t> y_ref(nr * ku);
    spmm::spmm_reference(m, xb, y_ref, k);
    spmm::spmm_csr(m, xb, yb, k, blocked_cfg, plan);
    if (!std::equal(y_ref.begin(), y_ref.end(), yb.begin())) {
      std::fprintf(stderr,
                   "[perf_smoke] FAIL: blocked SpMM not bit-identical on "
                   "rmat-hs\n");
      return 1;
    }

    const int iters = quick ? 10 : 30;
    const auto [repeated_t, blocked_t] = time_passes_interleaved(
        kernel_passes, iters,
        [&] {
          for (std::size_t j = 0; j < ku; ++j) {
            spmv_csr(m, xcols[j], ycols[j], Schedule::kDyn, plan);
          }
          do_not_optimize(ycols[0].data());
        },
        [&] {
          spmm::spmm_csr(m, xb, yb, k, blocked_cfg, plan);
          do_not_optimize(yb.data());
        });

    const double gflop = 2.0 * static_cast<double>(m.nnz()) *
                         static_cast<double>(k) / 1e9;
    obs::JsonValue params = matrix_params(m);
    params.set("k", static_cast<std::int64_t>(k));
    params.set("kb", static_cast<std::int64_t>(blocked_cfg.kb));
    params.set("threads", static_cast<std::int64_t>(threads));
    params.set("gflops_repeated", gflop / repeated_t.min_seconds);
    params.set("gflops_blocked", gflop / blocked_t.min_seconds);
    params.set("spmm_vs_repeated_spmv_speedup",
               repeated_t.min_seconds / blocked_t.min_seconds);
    report.add("spmm", "repeated_spmv/rmat-hs", repeated_t, params);
    report.add("spmm", "blocked/rmat-hs", blocked_t, std::move(params));
    std::printf("[perf_smoke] spmm: blocked vs %d repeated SpMVs %.2fx\n",
                static_cast<int>(k),
                repeated_t.min_seconds / blocked_t.min_seconds);
  }

  // --- Stage 8: SOLVE session amortization --------------------------------
  // A SOLVE session pays choose + layout conversion once, then every
  // solver iteration reuses the prepared layout out of the sharded cache.
  // The baseline is the sessionless client: choose + prepare + one SpMV
  // per iteration. The cold request routes through the amortized
  // dual-model selector trained from the pipeline stage's measurement
  // records; warm requests must hit the prepared cache. The CI perf-gate
  // reads session_vs_per_iter_speedup >= 2.0.
  std::printf("[perf_smoke] SOLVE session amortization (cg, stencil)...\n");
  {
    // Large enough that a CG iteration is real work (SpMV + vector ops)
    // rather than OpenMP region overhead; CG's iteration count is set by
    // the shifted stencil's condition number, not the grid side, so the
    // stage stays fast.
    const index_t side = quick ? 64 : 128;
    CooMatrix coo = generate_stencil2d(side, side, 5);
    for (auto& e : coo.entries()) {  // diagonal shift: SPD, so CG converges
      if (e.row == e.col) e.val += 0.1;
    }
    coo.canonicalize();
    auto spd = std::make_shared<const CsrMatrix>(CsrMatrix::from_coo(coo));
    const serve::Fingerprint fp = serve::fingerprint_matrix(*spd);

    // Baseline arm: what each iteration costs without a session.
    aligned_vector<value_t> x(static_cast<std::size_t>(spd->ncols()));
    aligned_vector<value_t> y(static_cast<std::size_t>(spd->nrows()));
    Xoshiro256 rng(0x501feed);
    for (auto& v : x) v = static_cast<value_t>(rng.next_double());
    const auto per_iter = time_passes(kernel_passes, 1, [&] {
      WiseChoice c;
      PreparedMatrix pm = predictor->prepare(*spd, c);
      pm.run(x, y);
      do_not_optimize(y.data());
    });

    serve::ServerOptions opts;
    opts.workers = 2;
    opts.queue_capacity = 0;
    opts.shards = 4;
    serve::Server server(predictor, opts);
    server.set_amortized(
        std::make_shared<const AmortizedWise>(train_amortized(records)));

    serve::Request req;
    req.kind = serve::RequestKind::kSolve;
    req.matrix = spd;
    req.fingerprint = fp;
    req.id = "solve-session";
    req.solver = "cg";
    req.iters = 500;

    const serve::Response cold = server.call(req);
    if (!cold.ok || cold.solve_iterations <= 0) {
      std::fprintf(stderr, "[perf_smoke] FAIL: cold SOLVE session: %s\n",
                   cold.error.c_str());
      return 1;
    }
    const double n_iters = static_cast<double>(cold.solve_iterations);
    std::vector<double> warm_samples;  // per solver iteration
    for (int p = 0; p < kernel_passes; ++p) {
      const serve::Response w = server.call(req);
      if (!w.ok || !w.prepared_cache_hit) {
        std::fprintf(stderr,
                     "[perf_smoke] FAIL: warm SOLVE missed the prepared "
                     "cache\n");
        return 1;
      }
      warm_samples.push_back(w.service_seconds / n_iters);
    }
    const auto warm_t =
        obs::TimingSummary::from_samples(warm_samples, cold.solve_iterations);
    const double speedup = per_iter.min_seconds / warm_t.min_seconds;

    const serve::ServerStats st = server.stats();
    obs::JsonValue params = matrix_params(*spd);
    params.set("solver", std::string("cg"));
    params.set("solve_iterations",
               static_cast<std::int64_t>(cold.solve_iterations));
    params.set("converged", cold.converged);
    params.set("sessions_completed",
               static_cast<std::int64_t>(st.sessions_completed));
    params.set("session_iters", static_cast<std::int64_t>(st.session_iters));
    params.set("session_vs_per_iter_speedup", speedup);
    report.add("solve", "per_iter/cg-stencil", per_iter, params);
    report.add("solve", "session_warm/cg-stencil", warm_t, std::move(params));
    std::printf(
        "[perf_smoke] solve session: %d iters, warm vs per-iteration "
        "choose+prepare %.1fx\n",
        cold.solve_iterations, speedup);
  }

  // --- Stage 9: serving layer (serve.throughput scenario) -----------------
  std::printf("[perf_smoke] serve throughput (repeated-matrix workload)...\n");
  {
    serve::ServerOptions opts;
    opts.workers = 4;
    opts.queue_capacity = 0;
    opts.shards = 4;  // pinned: identical cache partitioning on every runner
    serve::Server server(predictor, opts);

    std::vector<std::shared_ptr<const CsrMatrix>> shared;
    std::vector<serve::Fingerprint> fingerprints;
    shared.reserve(suite.size());
    for (auto& s : suite) {  // final suite stage: the suite can be consumed
      shared.push_back(std::make_shared<const CsrMatrix>(std::move(s.m)));
      // Steady-state clients fingerprint at load time, once per matrix.
      fingerprints.push_back(serve::fingerprint_matrix(*shared.back()));
    }
    const auto make_req = [&](std::size_t i) {
      serve::Request req;
      req.kind = serve::RequestKind::kRun;
      req.matrix = shared[i];
      req.fingerprint = fingerprints[i];
      req.id = suite[i].name;
      req.iters = 1;
      return req;
    };

    // Cold pass: the first request per matrix pays fingerprint + choose +
    // layout conversion. Everything after hits the prepared cache and pays
    // only fingerprint + one locked SpMV — the gap is the serving layer's
    // whole value proposition, so both sides go into the report.
    std::vector<double> cold_samples;
    for (std::size_t i = 0; i < shared.size(); ++i) {
      const serve::Response rsp = server.call(make_req(i));
      if (!rsp.ok) {
        std::fprintf(stderr, "[perf_smoke] FAIL: cold serve request: %s\n",
                     rsp.error.c_str());
        return 1;
      }
      cold_samples.push_back(rsp.service_seconds);
    }

    const int clients = 4;
    const int requests_per_client = quick ? 25 : 100;
    std::vector<std::vector<double>> warm_per_client(
        static_cast<std::size_t>(clients));
    Timer wall;
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          auto& samples = warm_per_client[static_cast<std::size_t>(c)];
          samples.reserve(static_cast<std::size_t>(requests_per_client));
          for (int r = 0; r < requests_per_client; ++r) {
            const std::size_t i =
                static_cast<std::size_t>(c + r) % shared.size();
            const serve::Response rsp = server.call(make_req(i));
            if (rsp.ok) samples.push_back(rsp.service_seconds);
          }
        });
      }
      for (auto& t : threads) t.join();
    }
    const double wall_seconds = wall.seconds();

    std::vector<double> warm_samples;
    for (const auto& per_client : warm_per_client) {
      warm_samples.insert(warm_samples.end(), per_client.begin(),
                          per_client.end());
    }
    const std::size_t total = warm_samples.size();
    if (total != static_cast<std::size_t>(clients * requests_per_client)) {
      std::fprintf(stderr, "[perf_smoke] FAIL: %zu of %d warm requests ok\n",
                   total, clients * requests_per_client);
      return 1;
    }
    double cold_mean = 0, warm_mean = 0;
    for (const double s : cold_samples) cold_mean += s;
    cold_mean /= static_cast<double>(cold_samples.size());
    for (const double s : warm_samples) warm_mean += s;
    warm_mean /= static_cast<double>(total);

    const serve::CacheStats cs = server.cache_stats();
    const double hit_ratio =
        static_cast<double>(cs.prepared_hits) /
        static_cast<double>(cs.prepared_hits + cs.prepared_misses);
    const serve::ServerStats st = server.stats();

    obs::JsonValue params = obs::JsonValue::object();
    params.set("clients", static_cast<std::int64_t>(clients));
    params.set("shards", static_cast<std::int64_t>(server.shard_count()));
    params.set("requests", static_cast<std::int64_t>(st.completed));
    params.set("requests_per_sec",
               static_cast<double>(total) / wall_seconds);
    params.set("cache_hit_ratio", hit_ratio);
    params.set("warm_vs_cold_speedup", cold_mean / warm_mean);
    report.add("serve", "throughput/warm",
               obs::TimingSummary::from_samples(warm_samples, 1), params);
    report.add("serve", "throughput/cold",
               obs::TimingSummary::from_samples(cold_samples, 1),
               std::move(params));
    std::printf(
        "[perf_smoke] serve: %.0f req/s, hit ratio %.3f, warm vs cold %.1fx\n",
        static_cast<double>(total) / wall_seconds, hit_ratio,
        cold_mean / warm_mean);
  }

  // --- Stage 10: shard scaling sweep (serve.shard_sweep scenario) ----------
  // Isolates the dispatch + warm-cache path the sharding refactor targets:
  // warm kPrepare requests are pure fingerprint-route + lock-free cache hits
  // (no OpenMP inner loop), so throughput here measures the serving core,
  // not the SpMV kernels. Eight pipelined clients hammer 1/2/4-shard
  // servers over the same 12-matrix working set; the CI validate step gates
  // speedup_vs_1shard >= 1.5 at 4 shards when the recorded hw_concurrency
  // is >= 4 (single-core runners record the sweep but skip the gate).
  std::printf("[perf_smoke] serve shard scaling sweep (1/2/4 shards)...\n");
  {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::vector<std::shared_ptr<const CsrMatrix>> mats;
    std::vector<serve::Fingerprint> fps;
    for (int i = 0; i < 12; ++i) {  // small: prepare cost is irrelevant here
      const auto coo = generate_rmat(
          rmat_class_params(RmatClass::kLowSkew, 256, 4.0),
          9000 + static_cast<std::uint64_t>(i));
      mats.push_back(std::make_shared<const CsrMatrix>(CsrMatrix::from_coo(coo)));
      fps.push_back(serve::fingerprint_matrix(*mats.back()));
    }
    const int clients = 8;
    const int per_client = quick ? 100 : 400;
    const int sweep_passes = 3;
    double base_rps = 0.0;

    for (const int shards : {1, 2, 4}) {
      serve::ServerOptions opts;
      opts.workers = 2 * shards;  // two workers per shard at every point
      opts.queue_capacity = 0;
      opts.shards = shards;
      serve::Server server(predictor, opts);

      for (std::size_t i = 0; i < mats.size(); ++i) {  // warm every entry
        serve::Request req;
        req.kind = serve::RequestKind::kPrepare;
        req.matrix = mats[i];
        req.fingerprint = fps[i];
        req.id = "warm";
        const serve::Response rsp = server.call(req);
        if (!rsp.ok) {
          std::fprintf(stderr, "[perf_smoke] FAIL: sweep warm-up: %s\n",
                       rsp.error.c_str());
          return 1;
        }
      }

      std::vector<double> per_request_samples;
      double best_rps = 0.0;
      const double total_requests =
          static_cast<double>(clients) * static_cast<double>(per_client);
      for (int pass = 0; pass < sweep_passes; ++pass) {
        std::atomic<int> failures{0};
        Timer wall;
        std::vector<std::thread> threads;
        for (int c = 0; c < clients; ++c) {
          threads.emplace_back([&, c] {
            // Pipelined: enqueue the full batch, then drain, so clients
            // measure server throughput rather than request round-trips.
            std::vector<std::future<serve::Response>> futs;
            futs.reserve(static_cast<std::size_t>(per_client));
            for (int r = 0; r < per_client; ++r) {
              const std::size_t i =
                  static_cast<std::size_t>(c + r) % mats.size();
              serve::Request req;
              req.kind = serve::RequestKind::kPrepare;
              req.matrix = mats[i];
              req.fingerprint = fps[i];
              req.id = "sweep";
              futs.push_back(server.submit(std::move(req)));
            }
            for (auto& f : futs) {
              if (!f.get().ok) failures.fetch_add(1);
            }
          });
        }
        for (auto& t : threads) t.join();
        const double secs = wall.seconds();
        if (failures.load() != 0) {
          std::fprintf(stderr, "[perf_smoke] FAIL: %d sweep requests failed\n",
                       failures.load());
          return 1;
        }
        per_request_samples.push_back(secs / total_requests);
        best_rps = std::max(best_rps, total_requests / secs);
      }
      if (shards == 1) base_rps = best_rps;

      obs::JsonValue params = obs::JsonValue::object();
      params.set("shards", static_cast<std::int64_t>(server.shard_count()));
      params.set("workers", static_cast<std::int64_t>(opts.workers));
      params.set("clients", static_cast<std::int64_t>(clients));
      params.set("requests",
                 static_cast<std::int64_t>(clients * per_client));
      params.set("hw_concurrency", static_cast<std::int64_t>(hw));
      params.set("requests_per_sec", best_rps);
      params.set("speedup_vs_1shard",
                 base_rps > 0.0 ? best_rps / base_rps : 1.0);
      report.add("serve", "shard_sweep/shards" + std::to_string(shards),
                 obs::TimingSummary::from_samples(per_request_samples,
                                                  clients * per_client),
                 std::move(params));
      std::printf("[perf_smoke] shard sweep: %d shard(s) %.0f req/s (%.2fx)\n",
                  shards, best_rps,
                  base_rps > 0.0 ? best_rps / base_rps : 1.0);
    }
  }

  // --- Stage 11: warm-hit throughput across live bank hot-swaps ------------
  // The online-learning loop (learn/online.hpp) republishes the model bank
  // mid-traffic through serve::Server::publish_bank: the old bank retires
  // through the epoch domain and both cache tiers clear, so the cost to
  // in-flight warm traffic is bounded re-preparation, never a stall. Two
  // identical warm kPrepare passes — one quiescent, one with forced
  // mid-run swaps — quantify that. The CI validate step gates
  // swap_vs_noswap_ratio >= 0.9 when the recorded hw_concurrency is >= 2
  // (on a single core the swapper and the workers fight for the same CPU,
  // so the ratio is recorded but not gated).
  std::printf("[perf_smoke] serve hot-swap throughput (forced mid-run swaps)...\n");
  {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::vector<std::shared_ptr<const CsrMatrix>> mats;
    std::vector<serve::Fingerprint> fps;
    for (int i = 0; i < 12; ++i) {  // tiny: re-prepare after a swap is cheap
      const auto coo = generate_rmat(
          rmat_class_params(RmatClass::kLowSkew, 256, 4.0),
          9100 + static_cast<std::uint64_t>(i));
      mats.push_back(std::make_shared<const CsrMatrix>(CsrMatrix::from_coo(coo)));
      fps.push_back(serve::fingerprint_matrix(*mats.back()));
    }
    const int clients = 4;
    // Long enough passes that the fixed number of forced swaps amortizes:
    // each swap costs ~12 re-preparations (the cleared working set), and
    // the ratio is requests / (requests + swap cost), so short passes
    // would measure the working-set size instead of the swap path.
    const int per_client = quick ? 2000 : 5000;
    const int hot_passes = 3;
    const int swaps_per_pass = 4;
    const double total_requests =
        static_cast<double>(clients) * static_cast<double>(per_client);

    // Runs one measured pass and returns its wall seconds (< 0 on request
    // failure). When `swap_spacing` > 0 a swapper thread republishes a
    // cloned bank that many seconds apart while the clients run.
    const auto run_pass = [&](serve::Server& server, double swap_spacing,
                              std::int64_t* swaps_done) -> double {
      std::atomic<bool> done{false};
      std::thread swapper;
      if (swap_spacing > 0.0) {
        swapper = std::thread([&] {
          const auto spacing = std::chrono::duration<double>(swap_spacing);
          for (int k = 0; k < swaps_per_pass && !done.load(); ++k) {
            std::this_thread::sleep_for(spacing);
            server.publish_bank(std::make_shared<const Wise>(
                ModelBank(server.predictor()->bank())));
            if (swaps_done != nullptr) ++*swaps_done;
          }
        });
      }
      std::atomic<int> failures{0};
      Timer wall;
      std::vector<std::thread> threads;
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          std::vector<std::future<serve::Response>> futs;
          futs.reserve(static_cast<std::size_t>(per_client));
          for (int r = 0; r < per_client; ++r) {
            const std::size_t i =
                static_cast<std::size_t>(c + r) % mats.size();
            serve::Request req;
            req.kind = serve::RequestKind::kPrepare;
            req.matrix = mats[i];
            req.fingerprint = fps[i];
            req.id = "hotswap";
            futs.push_back(server.submit(std::move(req)));
          }
          for (auto& f : futs) {
            if (!f.get().ok) failures.fetch_add(1);
          }
        });
      }
      for (auto& t : threads) t.join();
      const double secs = wall.seconds();
      done.store(true);
      if (swapper.joinable()) swapper.join();
      return failures.load() == 0 ? secs : -1.0;
    };

    serve::ServerOptions opts;
    opts.workers = 4;
    opts.queue_capacity = 0;
    opts.shards = 4;
    serve::Server server(predictor, opts);
    for (std::size_t i = 0; i < mats.size(); ++i) {  // warm every entry
      serve::Request req;
      req.kind = serve::RequestKind::kPrepare;
      req.matrix = mats[i];
      req.fingerprint = fps[i];
      req.id = "warm";
      if (!server.call(req).ok) {
        std::fprintf(stderr, "[perf_smoke] FAIL: hotswap warm-up\n");
        return 1;
      }
    }

    std::vector<double> noswap_samples;
    std::vector<double> swap_samples;
    double best_noswap = 0.0;
    double best_swap = 0.0;
    std::int64_t swaps_done = 0;
    for (int pass = 0; pass < hot_passes; ++pass) {
      const double secs = run_pass(server, 0.0, nullptr);
      if (secs < 0.0) {
        std::fprintf(stderr, "[perf_smoke] FAIL: hotswap no-swap pass\n");
        return 1;
      }
      noswap_samples.push_back(secs / total_requests);
      best_noswap = std::max(best_noswap, total_requests / secs);
    }
    // Space the forced swaps evenly across the measured run so every pass
    // really swaps mid-traffic instead of before/after it.
    const double spacing =
        (total_requests / best_noswap) / (swaps_per_pass + 1);
    for (int pass = 0; pass < hot_passes; ++pass) {
      const double secs = run_pass(server, spacing, &swaps_done);
      if (secs < 0.0) {
        std::fprintf(stderr, "[perf_smoke] FAIL: hotswap swap pass\n");
        return 1;
      }
      swap_samples.push_back(secs / total_requests);
      best_swap = std::max(best_swap, total_requests / secs);
    }
    if (swaps_done == 0) {
      std::fprintf(stderr, "[perf_smoke] FAIL: hotswap passes never swapped\n");
      return 1;
    }
    const double ratio = best_noswap > 0.0 ? best_swap / best_noswap : 0.0;

    obs::JsonValue params = obs::JsonValue::object();
    params.set("clients", static_cast<std::int64_t>(clients));
    params.set("requests",
               static_cast<std::int64_t>(clients * per_client));
    params.set("hw_concurrency", static_cast<std::int64_t>(hw));
    params.set("swaps", swaps_done);
    params.set("bank_version",
               static_cast<std::int64_t>(server.bank_version()));
    params.set("requests_per_sec_noswap", best_noswap);
    params.set("requests_per_sec", best_swap);
    params.set("swap_vs_noswap_ratio", ratio);
    report.add("serve", "hotswap/noswap",
               obs::TimingSummary::from_samples(noswap_samples,
                                                clients * per_client),
               params);
    report.add("serve", "hotswap/swap",
               obs::TimingSummary::from_samples(swap_samples,
                                                clients * per_client),
               std::move(params));
    std::printf(
        "[perf_smoke] hotswap: %.0f req/s quiescent, %.0f req/s across %d "
        "swaps (%.2fx)\n",
        best_noswap, best_swap, static_cast<int>(swaps_done), ratio);
  }

  // --- Emit ----------------------------------------------------------------
  const obs::MetricsSnapshot snap = metrics.snapshot();
  report.set_metrics(snap);
  const std::string path = report.write(out_dir);
  std::printf("[perf_smoke] wrote %s (%zu benchmarks, %zu timers)\n",
              path.c_str(), report.size(), snap.timers.size());
  std::printf("%s", obs::render_metrics_table(snap).c_str());
  obs::emit_metrics_from_env();

  // Self-check: the artifact must re-parse and be non-empty, else CI has
  // nothing to gate on.
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const auto doc = obs::JsonValue::parse(buf.str());
  if (!doc.has_value()) {
    std::fprintf(stderr, "[perf_smoke] FAIL: %s is not valid JSON\n",
                 path.c_str());
    return 1;
  }
  const obs::JsonValue* benches = doc->find("benchmarks");
  const obs::JsonValue* mt = doc->find("metrics");
  const obs::JsonValue* timers = mt != nullptr ? mt->find("timers") : nullptr;
  if (benches == nullptr || benches->size() == 0 || timers == nullptr ||
      timers->size() == 0) {
    std::fprintf(stderr,
                 "[perf_smoke] FAIL: report is missing benchmarks or metrics\n");
    return 1;
  }
  std::printf("[perf_smoke] OK\n");
  return 0;
}
