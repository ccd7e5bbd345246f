// The select phase: a seeded stream over the frozen held-out pool. Every
// matrix gets a Wise::prepare and a short horizon of SpMV iterations, so
// validation, features, inference, conversion and plan build dominate.
// Each pool matrix is visited once per pass; its timings are summarized
// per matrix over passes, and the choice quality is scored on the frozen
// labels.
#include <algorithm>
#include <limits>
#include <optional>

#include "bench.hpp"
#include "trace.hpp"
#include "util/prng.hpp"

namespace wisebench {

namespace {

using trace::Layer;

constexpr int kHorizon = 10;    ///< SpMV iterations after each prepare
constexpr std::size_t kStep = 4;  ///< matrices per step

class SelectPhase final : public Phase {
 public:
  SelectPhase(Bench& b, Tally& tally, std::vector<std::string>& choices)
      : b_(b),
        tally_(tally),
        choices_(choices),
        configs_(wise::all_method_configs()),
        rng_(b.opt.seed ^ 0x5e1ec7ull),
        visits_(b.pool.size()) {
    for (std::size_t i = 0; i < b.pool.size(); ++i) {
      x_.push_back(seeded_vector(static_cast<std::size_t>(b.pool[i].m.ncols()),
                                 b.opt.seed * 7919 + i));
      order_.push_back(i);
    }
    next_ = order_.size();
  }

  void step() override {
    for (std::size_t k = 0; k < kStep; ++k) {
      if (next_ == order_.size()) {
        for (std::size_t i = order_.size() - 1; i > 0; --i) {
          std::swap(order_[i], order_[rng_.next_below(i + 1)]);
        }
        next_ = 0;
      }
      visit(order_[next_++]);
    }
  }

  void finish(Metrics& out) override {
    while (std::any_of(visits_.begin(), visits_.end(),
                       [](const Visits& v) { return v.prepare.empty(); })) {
      step();
    }
    // Fig 13 on held-out labels: frozen best-CSR time over the frozen time
    // of the configuration WISE chose, and the same against the oracle.
    std::vector<double> vs_csr, vs_oracle, inference;
    double nnz = 0, prepare = 0, task = 0, features = 0, rest = 0;
    double convert = 0, horizon = 0, layout_bytes = 0, fallbacks = 0;
    for (std::size_t i = 0; i < b_.pool.size(); ++i) {
      const auto& s = b_.pool[i].seconds;
      const Visits& v = visits_[i];
      double best_csr = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < configs_.size(); ++c) {
        if (configs_[c].kind == wise::MethodKind::kCsr) {
          best_csr = std::min(best_csr, s[c]);
        }
      }
      vs_csr.push_back(best_csr / s[v.config]);
      vs_oracle.push_back(*std::min_element(s.begin(), s.end()) /
                          s[v.config]);
      nnz += static_cast<double>(b_.pool[i].m.nnz());
      prepare += median(v.prepare);
      task += median(v.task);
      features += median(v.features);
      rest += median(v.rest);
      convert += median(v.convert);
      horizon += median(v.horizon);
      layout_bytes += v.layout_bytes;
      fallbacks += v.fell_back;
      inference.insert(inference.end(), v.inference.begin(),
                       v.inference.end());
    }
    const double n = static_cast<double>(b_.pool.size());
    out.set("decision_ns_per_nnz", prepare / nnz * 1e9, "ns/nnz");
    out.set("task_gflops", 2.0 * kHorizon * nnz / task * 1e-9, "GFLOP/s");
    out.set("choice_speedup", geomean(vs_csr), "x");
    out.set("features.ns_per_nnz", features / nnz * 1e9, "ns/nnz");
    out.set("wise.inference_us", median(inference) * 1e6, "us");
    out.set("wise.prepare_rest_ns_per_nnz", rest / nnz * 1e9, "ns/nnz");
    out.set("wise.oracle_fraction", geomean(vs_oracle), "ratio");
    out.set("wise.fallbacks", fallbacks, "count");
    out.set("sparse.convert_ns_per_nnz", convert / nnz * 1e9, "ns/nnz");
    out.set("sparse.layout_bytes_per_nnz", layout_bytes / nnz, "B/nnz");
    out.set("spmv.short_us", horizon / (kHorizon * n) * 1e6, "us");
  }

 private:
  /// Per pool matrix, one entry per visit (seconds).
  struct Visits {
    std::vector<double> prepare, task, features, inference, rest, convert,
        horizon;
    std::size_t config = 0;  ///< index into configs_, set on first visit
    double layout_bytes = 0;
    bool fell_back = false;
  };

  void visit(std::size_t idx) {
    const PoolMatrix& p = b_.pool[idx];
    Visits& v = visits_[idx];
    const auto& x = x_[idx];
    std::vector<wise::value_t> y(static_cast<std::size_t>(p.m.nrows()));
    const std::uint64_t request = ++requests_;
    wise::WiseChoice choice;
    std::optional<wise::PreparedMatrix> pm;
    const std::int64_t t0 = now_ns();
    {
      trace::Span span(Layer::kWise, "prepare", request);
      pm.emplace(b_.wise->prepare(p.m, choice));
    }
    const std::int64_t t1 = now_ns();
    {
      trace::Span span(Layer::kSpmv, "run.horizon", request);
      for (int h = 0; h < kHorizon; ++h) pm->run(x, y);
    }
    const std::int64_t t2 = now_ns();
    tally_.record(matches_reference(p.m, x, y));

    const double prepare = static_cast<double>(t1 - t0) * 1e-9;
    v.prepare.push_back(prepare);
    v.task.push_back(static_cast<double>(t2 - t0) * 1e-9);
    v.horizon.push_back(static_cast<double>(t2 - t1) * 1e-9);
    v.features.push_back(choice.feature_seconds);
    v.inference.push_back(choice.inference_seconds);
    v.convert.push_back(pm->prep_seconds());
    v.rest.push_back(prepare - choice.feature_seconds -
                     choice.inference_seconds - pm->prep_seconds());
    if (v.prepare.size() == 1) {
      const auto it =
          std::find(configs_.begin(), configs_.end(), choice.config);
      tally_.record(it != configs_.end());
      v.config = std::min<std::size_t>(it - configs_.begin(),
                                       configs_.size() - 1);
      choices_.push_back(p.spec + "=" + choice.config.name());
      v.layout_bytes = static_cast<double>(pm->memory_bytes());
      v.fell_back = choice.fell_back();
    }
  }

  Bench& b_;
  Tally& tally_;
  std::vector<std::string>& choices_;
  const std::vector<wise::MethodConfig> configs_;
  wise::Xoshiro256 rng_;
  std::vector<Visits> visits_;
  std::vector<std::vector<wise::value_t>> x_;
  std::vector<std::size_t> order_;
  std::size_t next_ = 0;
  std::uint64_t requests_ = 0;
};

}  // namespace

std::unique_ptr<Phase> make_select_phase(Bench& b, Tally& tally,
                                         std::vector<std::string>& choices) {
  return std::make_unique<SelectPhase>(b, tally, choices);
}

}  // namespace wisebench
