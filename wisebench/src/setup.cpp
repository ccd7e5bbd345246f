// Set-up: inputs, both model banks trained from the frozen labels, and a
// warmed server.
#include <algorithm>
#include <map>
#include <stdexcept>

#include "bench.hpp"
#include "exp/spec.hpp"
#include "features/extractor.hpp"
#include "labels.hpp"
#include "serve/cache.hpp"
#include "trace.hpp"

namespace wisebench {

namespace {

using wise::CsrMatrix;

double seconds_since(std::int64_t start) {
  return static_cast<double>(now_ns() - start) * 1e-9;
}

/// A + shift·I: the stencils are positive semi-definite Laplacians, the
/// shift fixes their condition number and so the CG iteration count.
CsrMatrix shifted(const CsrMatrix& a, double shift) {
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  std::vector<wise::nnz_t> row_ptr(rp.begin(), rp.end());
  wise::aligned_vector<wise::index_t> cols(ci.begin(), ci.end());
  wise::aligned_vector<wise::value_t> vals(a.vals().begin(), a.vals().end());
  for (wise::index_t i = 0; i < a.nrows(); ++i) {
    for (auto p = rp[static_cast<std::size_t>(i)];
         p < rp[static_cast<std::size_t>(i) + 1]; ++p) {
      if (cols[static_cast<std::size_t>(p)] == i) {
        vals[static_cast<std::size_t>(p)] += shift;
      }
    }
  }
  return CsrMatrix(a.nrows(), a.ncols(), std::move(row_ptr), std::move(cols),
                   std::move(vals));
}

struct IterDef {
  const char* name;
  const char* spec;
  bool spd;
};

// Cache-resident (0.3–7 MB each in CSR); chosen so the frozen bank picks
// three methods: CSR (the small high-skew RMAT), SELLPACK and Sell-c-σ.
constexpr IterDef kIterDefs[] = {
    {"rmat_hs", "rmat:8192:4:0.57:0.19:0.19:0.05:7307", false},
    {"rmat_ls", "rmat:32768:12:0.35:0.25:0.25:0.15:7002", false},
    {"rmat_hl", "rmat:32768:12:0.45:0.05:0.05:0.45:7003", false},
    {"rgg", "rgg:65536:8:7004", false},
    {"banded", "banded:65536:16:0.25:7005", false},
    {"st2d_spd", "st2d:256:256:5", true},
    {"st3d_spd", "st3d:40:40:40:7", true},
};
constexpr double kSpdShift = 0.05;

std::vector<std::string> hot_specs() {
  return {"rmat:4096:8:0.57:0.19:0.19:0.05:8001",
          "rmat:4096:8:0.25:0.25:0.25:0.25:8002",
          "rmat:4096:8:0.45:0.05:0.05:0.45:8003",
          "rgg:4096:8:8004",
          "st2d:64:64:5",
          "banded:4096:8:0.5:8005"};
}

std::vector<std::string> tail_specs() {
  std::vector<std::string> out;
  for (int i = 0; i < 24; ++i) {
    const auto seed = std::to_string(8100 + i);
    out.push_back(i % 3 == 2 ? "rgg:2048:8:" + seed
                  : i % 3 == 1 ? "rmat:2048:8:0.35:0.25:0.25:0.15:" + seed
                               : "rmat:2048:8:0.57:0.19:0.19:0.05:" + seed);
  }
  return out;
}

void train_banks(Bench& b) {
  const std::string& dir = b.opt.labels_dir;
  const auto spmv_configs = wise::all_method_configs();
  const auto& spmm_configs = wise::spmm::spmm_method_configs();
  const LabelSet spmv = load_labels(dir + "/spmv_train.txt",
                                    names_of(spmv_configs));
  const LabelSet spmm = load_labels(dir + "/spmm_train.txt",
                                    names_of(spmm_configs));

  // Features are re-extracted here, so feature code and bank agree.
  std::map<std::string, std::vector<double>> features;
  const auto features_of = [&](const std::string& spec) {
    auto it = features.find(spec);
    if (it != features.end()) return it->second;
    std::int64_t t = now_ns();
    CsrMatrix m;
    {
      trace::Span span(trace::Layer::kGen, "materialize");
      m = parse_spec(spec).materialize();
    }
    b.gen_seconds += seconds_since(t);
    t = now_ns();
    {
      trace::Span span(trace::Layer::kExp, "extract_features");
      features[spec] = wise::extract_features(m).values;
    }
    b.train_seconds += seconds_since(t);
    return features[spec];
  };

  std::vector<std::vector<double>> x, rel;
  for (const auto& row : spmv.rows) {
    x.push_back(features_of(row.spec));
    double best_csr = 1e300;
    for (std::size_t c = 0; c < spmv_configs.size(); ++c) {
      if (spmv_configs[c].kind == wise::MethodKind::kCsr) {
        best_csr = std::min(best_csr, row.seconds[c]);
      }
    }
    std::vector<double> r;
    for (const double s : row.seconds) r.push_back(s / best_csr);
    rel.push_back(std::move(r));
  }
  std::vector<std::vector<double>> xm, relm;
  for (const auto& row : spmm.rows) {
    xm.push_back(features_of(row.spec));
    std::vector<double> r;
    for (const double s : row.seconds) r.push_back(s / row.seconds[0]);
    relm.push_back(std::move(r));
  }

  const std::int64_t t = now_ns();
  {
    trace::Span span(trace::Layer::kExp, "train_banks");
    wise::ModelBank bank;
    bank.train(spmv_configs, x, rel);
    b.wise = std::make_shared<const wise::Wise>(std::move(bank));
    auto spmm_bank = std::make_shared<wise::spmm::SpmmBank>();
    spmm_bank->train(spmm_configs, xm, relm,
                     wise::spmm::SpmmTrainOptions{}.tree_params);
    b.spmm_bank = std::move(spmm_bank);
  }
  b.train_seconds += seconds_since(t);
}

void generate_inputs(Bench& b) {
  const std::int64_t t = now_ns();
  trace::Span span(trace::Layer::kGen, "generate_inputs");
  for (const auto& d : kIterDefs) {
    CsrMatrix m = parse_spec(d.spec).materialize();
    b.iter.push_back({d.name, d.spd ? shifted(m, kSpdShift) : std::move(m),
                      d.spd});
  }
  const LabelSet heldout =
      load_labels(b.opt.labels_dir + "/spmv_heldout.txt",
                  names_of(wise::all_method_configs()));
  for (const auto& row : heldout.rows) {
    b.pool.push_back({row.spec, parse_spec(row.spec).materialize(),
                      row.seconds});
  }
  const auto load_serve = [](const std::vector<std::string>& specs) {
    std::vector<ServeMatrix> out;
    for (const auto& s : specs) {
      ServeMatrix sm;
      sm.m = std::make_shared<const CsrMatrix>(parse_spec(s).materialize());
      out.push_back(std::move(sm));
    }
    return out;
  };
  b.hot = load_serve(hot_specs());
  b.tail = load_serve(tail_specs());
  b.gen_seconds += seconds_since(t);
}

/// Prepared-cache budget: every hot entry twice over plus a few tail
/// entries, so the hot set stays resident on any shard split while the
/// cyclic tail (24 entries) always misses.
std::size_t cache_budget(const Bench& b) {
  const auto entry_bytes = [&](const ServeMatrix& s) {
    const wise::PreparedMatrix pm = b.wise->prepare(*s.m);
    return wise::serve::prepared_entry_bytes(*s.m, pm);
  };
  std::size_t hot = 0, tail = 0;
  for (const auto& s : b.hot) hot += entry_bytes(s);
  for (const auto& s : b.tail) tail = std::max(tail, entry_bytes(s));
  return 2 * hot + 4 * tail;
}

void start_server(Bench& b, Tally& tally) {
  trace::Span span(trace::Layer::kServe, "start_server");
  wise::serve::ServerOptions so;
  so.workers = kServeWorkers;
  so.cache_bytes = cache_budget(b);
  b.server = std::make_unique<wise::serve::Server>(b.wise, so);

  using wise::serve::RequestKind;
  const auto warm = [&](ServeMatrix& s, bool predict) {
    s.fingerprint = wise::serve::fingerprint_matrix(*s.m);
    wise::serve::Request req;
    req.kind = RequestKind::kRun;
    req.matrix = s.m;
    req.fingerprint = s.fingerprint;
    const auto run = b.server->call(req);
    tally.record(run.ok);
    s.checksum = run.checksum;
    s.config = run.config_name;
    if (predict) {
      req.kind = RequestKind::kPredict;
      const auto p = b.server->call(req);
      tally.record(p.ok && p.config_name == s.config);
    }
  };
  for (auto& s : b.hot) warm(s, true);
  for (auto& s : b.tail) warm(s, false);
}

}  // namespace

void setup(Bench& b, Tally& tally) {
  train_banks(b);
  generate_inputs(b);
  start_server(b, tally);
}

}  // namespace wisebench
