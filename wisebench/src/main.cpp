// wisebench — the repository benchmark.
//
//   wisebench --workload iterate|select|serve --seed N --seconds S
//             --trace 0|1 --labels DIR [--trace-out FILE]
//   wisebench --make-labels DIR
//
// Every run sets up three times (setup_s is the median), then measures the
// phases of all three workloads — iterate (SpMV loop, CG, SpMM), select,
// serve — interleaved with a calibration sweep (5% of the time), giving the
// named workload 60% of the rest and the other two 20% each, enough for the
// serve windows to be steady on every workload. The traced run measures
// untraced for half the time, then traced for the other half, and reports
// per-layer metrics, span self times, and the tracing overhead against the
// untraced half. The last stdout line is one JSON object with every metric measured;
// run.py keeps the ones BENCHMARK.json lists.
#include <malloc.h>
#include <omp.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "hw/probe.hpp"
#include "labels.hpp"
#include "trace.hpp"

extern char** environ;

namespace wisebench {
namespace {

constexpr int kSetupRuns = 3;
constexpr double kMainShare = 0.6;
constexpr double kCalibrationShare = 0.05;

/// calib.sweep_us on the reference machine (4-vCPU Xeon VM, 2 OpenMP
/// threads) when it is not slowed by other tenants. The machine's speed
/// drifted by up to 1.5x within minutes there, moving every end-to-end
/// figure together, so end-to-end times and rates are reported at this
/// reference speed: a run whose calibration sweep took twice as long has
/// its times halved and its rates doubled. The figures as measured are kept
/// as raw.<name>.
constexpr double kReferenceSweepUs = 300.0;

/// End-to-end metrics scaled by the calibration; true marks a rate.
const std::pair<const char*, bool> kCalibrated[] = {
    {"setup_s", false},        {"spmv_gflops", true},
    {"solve_s", false},        {"spmm_gflops", true},
    {"decision_ns_per_nnz", false}, {"task_gflops", true},
    {"throughput_rps", true},  {"latency_p50_ms", false},
    {"latency_p99_ms", false},
};

void calibrate(Metrics& m) {
  const double speed = kReferenceSweepUs / m.get("calib.sweep_us");
  m.set("calib.speed", speed, "x");
  for (const auto& [name, rate] : kCalibrated) {
    if (!m.has(name)) continue;
    const double raw = m.get(name);
    const std::string unit = m.unit(name);
    m.set(std::string("raw.") + name, raw, unit);
    m.set(name, rate ? raw / speed : raw * speed, unit);
  }
}

Options parse(int argc, char** argv, std::string& make_labels_dir) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--seconds") o.seconds = std::stod(v);
    else if (a == "--trace") o.trace = v == "1";
    else if (a == "--labels") o.labels_dir = v;
    else if (a == "--trace-out") o.trace_out = v;
    else if (a == "--make-labels") make_labels_dir = v;
    else throw std::invalid_argument("unknown argument " + a);
  }
  return o;
}

/// The library reads WISE_* knobs lazily; none may steer a benchmark run.
void clear_wise_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "WISE_", 5) == 0) {
      names.emplace_back(*e, std::strchr(*e, '=') - *e);
    }
  }
  for (const auto& n : names) unsetenv(n.c_str());
}

/// Builds every phase, then always steps the one furthest behind its share
/// of `seconds`: the workload's phases share kMainShare, the others the
/// rest, and all of them interleave over the whole run.
void measure(Bench& b, double seconds, Metrics& out, Tally& tally,
             std::vector<std::string>& choices) {
  struct Entry {
    std::unique_ptr<Phase> phase;
    double share = 0;
    double used = 0;
  };
  const std::string& w = b.opt.workload;
  const double main_share = kMainShare * (1 - kCalibrationShare);
  const double side = (1 - kMainShare) / 2 * (1 - kCalibrationShare);
  const double it = w == "iterate" ? main_share : side;
  std::vector<Entry> phases;
  phases.push_back({make_spmv_phase(b, tally, choices), 0.55 * it});
  phases.push_back({make_cg_phase(b, tally), 0.25 * it});
  phases.push_back({make_spmm_phase(b, tally, choices), 0.2 * it});
  phases.push_back({make_select_phase(b, tally, choices),
                    w == "select" ? main_share : side});
  phases.push_back({make_serve_phase(b, tally, choices),
                    w == "serve" ? main_share : side});
  phases.push_back({make_calibration_phase(), kCalibrationShare});

  const std::int64_t start = now_ns();
  while (static_cast<double>(now_ns() - start) * 1e-9 < seconds) {
    Entry& e = *std::min_element(
        phases.begin(), phases.end(), [](const Entry& a, const Entry& c) {
          return a.used / a.share < c.used / c.share;
        });
    const std::int64_t t = now_ns();
    e.phase->step();
    e.used += static_cast<double>(now_ns() - t) * 1e-9;
  }
  for (Entry& e : phases) e.phase->finish(out);
}

/// Percent by which tracing made `name` worse.
double overhead_pct(const Metrics& plain, const Metrics& traced,
                    const std::string& name, bool higher_is_better) {
  const double p = plain.get(name), t = traced.get(name);
  return (higher_is_better ? p - t : t - p) / p * 100;
}

int run(int argc, char** argv) {
  std::string make_labels_dir;
  Options opt = parse(argc, argv, make_labels_dir);
  clear_wise_env();
  if (omp_get_max_threads() != kOmpThreads) {
    throw std::runtime_error("set OMP_NUM_THREADS=" +
                             std::to_string(kOmpThreads));
  }
  if (!make_labels_dir.empty()) {
    make_labels(make_labels_dir);
    return 0;
  }
  if (opt.workload != "iterate" && opt.workload != "select" &&
      opt.workload != "serve") {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
  if (opt.labels_dir.empty() || !(opt.seconds > 0)) {
    throw std::invalid_argument("need --labels and --seconds > 0");
  }

  // A fixed mmap threshold: glibc otherwise raises it after each large free,
  // so whether freed layouts stay resident would depend on the seeded visit
  // order, and so would rss_peak_mb.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);

  Tally tally;
  trace::set_enabled(opt.trace);
  std::vector<double> setup_s, gen_s, train_s;
  std::unique_ptr<Bench> b;
  for (int r = 0; r < kSetupRuns; ++r) {
    b.reset();
    malloc_trim(0);  // each set-up starts from the same heap
    b = std::make_unique<Bench>();
    b->opt = opt;
    const std::int64_t t = now_ns();
    setup(*b, tally);
    setup_s.push_back(static_cast<double>(now_ns() - t) * 1e-9);
    gen_s.push_back(b->gen_seconds);
    train_s.push_back(b->train_seconds);
  }

  Metrics all;
  std::vector<std::string> choices;
  trace::set_enabled(false);
  measure(*b, opt.trace ? opt.seconds / 2 : opt.seconds, all, tally, choices);
  all.set("setup_s", median(setup_s), "s");
  all.set("exp.train_s", median(train_s), "s");
  all.set("gen.generate_s", median(gen_s), "s");
  calibrate(all);

  if (opt.trace) {
    Metrics traced;
    std::vector<std::string> unused;
    trace::set_enabled(true);
    measure(*b, opt.seconds / 2, traced, tally, unused);
    trace::set_enabled(false);
    calibrate(traced);
    for (const auto& [name, higher] :
         std::map<std::string, bool>{{"spmv_gflops", true},
                                     {"solve_s", false},
                                     {"decision_ns_per_nnz", false},
                                     {"throughput_rps", true},
                                     {"latency_p50_ms", false}}) {
      all.set("trace.overhead_pct." + name,
              overhead_pct(all, traced, name, higher), "%");
    }
    // Per-layer figures (dotted names) come from the traced half.
    for (const auto& name : traced.names()) {
      if (name.find('.') != std::string::npos) {
        all.set(name, traced.get(name), traced.unit(name));
      }
    }
    const trace::Summary s = trace::summarize();
    all.set("trace.spans", static_cast<double>(s.spans), "count");
    for (int l = 0; l < trace::kLayerCount; ++l) {
      all.set(std::string("trace.self_s.") +
                  trace::layer_name(static_cast<trace::Layer>(l)),
              s.self_seconds[l], "s");
    }
    const double triad = wise::hw::machine_probe().stream_triad_gbs;
    all.set("hw.triad_gbs", triad, "GB/s");
    all.set("spmv.bw_fraction", all.get("spmv.gbs_computed") / triad, "ratio");
    if (!opt.trace_out.empty()) trace::write_csv(opt.trace_out);
  }
  all.set("rss_peak_mb", rss_peak_mb(), "MB");

  std::sort(choices.begin(), choices.end());
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (const auto& c : choices) digest = fnv1a(c + "\n", digest);
  const auto kinds = all.get("wise.method_kinds");
  std::cout << "machine: " << cpu_model()
            << ", nproc " << std::thread::hardware_concurrency()
            << ", OpenMP threads " << omp_get_max_threads()
            << ", serve workers " << kServeWorkers << ", clients "
            << kServeClients << ", shards " << all.get("serve.shards") << "\n"
            << "choices: " << choices.size() << " digest " << hex64(digest)
            << ", iterate method kinds " << kinds << "\n"
            << "serve samples: " << all.get("serve.samples") << "\n";
  for (const auto& c : choices) std::cout << "choice " << c << "\n";
  std::cout << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << all.json() << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace wisebench

int main(int argc, char** argv) {
  try {
    return wisebench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "wisebench: " << e.what() << "\n";
    return 1;
  }
}
