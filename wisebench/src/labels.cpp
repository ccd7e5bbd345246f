#include "labels.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include <omp.h>

#include "common.hpp"
#include "exp/measure.hpp"
#include "spmm/model.hpp"
#include "spmv/method.hpp"

namespace wisebench {

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream in(s);
  while (std::getline(in, field, sep)) out.push_back(field);
  return out;
}

std::string fmt(const char* format, auto... args) {
  char buf[160];
  std::snprintf(buf, sizeof buf, format, args...);
  return buf;
}

std::string rmat(wise::RmatClass cls, int n, double degree,
                 std::uint64_t seed) {
  const wise::RmatParams p = wise::rmat_class_params(cls, n, degree);
  return fmt("rmat:%d:%g:%g:%g:%g:%g:%llu", n, degree, p.a, p.b, p.c, p.d,
             static_cast<unsigned long long>(seed));
}

constexpr wise::RmatClass kClasses[] = {
    wise::RmatClass::kHighSkew, wise::RmatClass::kMedSkew,
    wise::RmatClass::kLowSkew,  wise::RmatClass::kLowLoc,
    wise::RmatClass::kMedLoc,   wise::RmatClass::kHighLoc,
};

void write_labels(const std::string& path,
                  const std::vector<std::string>& configs,
                  const std::vector<LabeledSpec>& rows,
                  const std::string& comment) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "# " << comment << "\n";
  out << "configs " << configs.size();
  for (const auto& c : configs) out << " " << c;
  out << "\n";
  for (const auto& row : rows) {
    out << row.spec;
    for (const double s : row.seconds) out << fmt(" %.6e", s);
    out << "\n";
  }
}

}  // namespace

wise::MatrixSpec parse_spec(const std::string& text) {
  const auto f = split(text, ':');
  const auto need = [&](std::size_t n) {
    if (f.size() != n) throw std::runtime_error("bad spec: " + text);
  };
  const auto i = [&](std::size_t k) {
    return static_cast<wise::index_t>(std::stol(f.at(k)));
  };
  const auto d = [&](std::size_t k) { return std::stod(f.at(k)); };
  const auto u = [&](std::size_t k) {
    return static_cast<std::uint64_t>(std::stoull(f.at(k)));
  };
  wise::MatrixSpec s;
  s.id = text;
  s.family = f.at(0);
  using Kind = wise::MatrixSpec::Kind;
  if (f[0] == "rmat") {
    need(8);
    s.kind = Kind::kRmat;
    s.n = i(1);
    s.degree = d(2);
    s.a = d(3);
    s.b = d(4);
    s.c = d(5);
    s.d = d(6);
    s.seed = u(7);
  } else if (f[0] == "rgg") {
    need(4);
    s.kind = Kind::kRgg;
    s.n = i(1);
    s.degree = d(2);
    s.seed = u(3);
  } else if (f[0] == "banded") {
    need(5);
    s.kind = Kind::kBanded;
    s.n = i(1);
    s.half_bw = i(2);
    s.density = d(3);
    s.seed = u(4);
  } else if (f[0] == "st2d") {
    need(4);
    s.kind = Kind::kStencil2d;
    s.n = i(1);
    s.n2 = i(2);
    s.points = static_cast<int>(i(3));
  } else if (f[0] == "st3d") {
    need(5);
    s.kind = Kind::kStencil3d;
    s.n = i(1);
    s.n2 = i(2);
    s.n3 = i(3);
    s.points = static_cast<int>(i(4));
  } else if (f[0] == "blockdiag") {
    need(5);
    s.kind = Kind::kBlockDiag;
    s.n = i(1);
    s.block = i(2);
    s.density = d(3);
    s.seed = u(4);
  } else if (f[0] == "road") {
    need(3);
    s.kind = Kind::kRoadLike;
    s.n = i(1);
    s.seed = u(2);
  } else {
    throw std::runtime_error("bad spec kind: " + text);
  }
  return s;
}

LabelSet load_labels(const std::string& path,
                     const std::vector<std::string>& expected) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read labels " + path);
  LabelSet set;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string head;
    fields >> head;
    if (head == "configs") {
      std::size_t n = 0;
      fields >> n;
      set.configs.resize(n);
      for (auto& c : set.configs) fields >> c;
      if (set.configs != expected) {
        throw std::runtime_error(path +
                                 ": config names differ from the library "
                                 "registry; refresh with --make-labels");
      }
      continue;
    }
    LabeledSpec row{head, std::vector<double>(set.configs.size())};
    for (auto& s : row.seconds) {
      if (!(fields >> s) || !(s > 0)) {
        throw std::runtime_error(path + ": bad timing for " + head);
      }
    }
    set.rows.push_back(std::move(row));
  }
  if (set.configs.empty() || set.rows.empty()) {
    throw std::runtime_error(path + ": no labels");
  }
  return set;
}

namespace {

/// Spec strings of the frozen training set.
std::vector<std::string> training_specs() {
  std::vector<std::string> out;
  std::uint64_t seed = 1000;
  for (const auto cls : kClasses) {
    for (const int n : {1 << 11, 1 << 13}) {
      for (const double degree : {4.0, 16.0}) {
        out.push_back(rmat(cls, n, degree, ++seed));
      }
    }
    out.push_back(rmat(cls, 1 << 14, 8.0, ++seed));
  }
  out.push_back("rgg:4096:6:2001");
  out.push_back("rgg:16384:16:2002");
  out.push_back("rgg:32768:8:2003");
  out.push_back("banded:8192:8:0.5:2011");
  out.push_back("banded:32768:4:0.9:2012");
  out.push_back("banded:16384:48:0.12:2013");
  out.push_back("st2d:64:64:5");
  out.push_back("st2d:160:160:5");
  out.push_back("st2d:96:96:9");
  out.push_back("st3d:24:24:24:7");
  out.push_back("st3d:14:14:14:27");
  out.push_back("blockdiag:8192:16:0.5:2021");
  out.push_back("blockdiag:16384:48:0.2:2022");
  out.push_back("road:8192:2031");
  out.push_back("road:32768:2032");
  return out;
}

/// Spec strings of the frozen held-out pool.
std::vector<std::string> heldout_specs() {
  // Disjoint from training: other seeds and other (size, degree) points,
  // nonzero counts from ~10^4 to ~10^6.
  std::vector<std::string> out;
  std::uint64_t seed = 5000;
  for (const auto cls : kClasses) {
    out.push_back(rmat(cls, 1 << 11, 6.0, ++seed));
    out.push_back(rmat(cls, 1 << 13, 8.0, ++seed));
    out.push_back(rmat(cls, 1 << 15, 10.0, ++seed));
  }
  out.push_back("rgg:8192:10:6001");
  out.push_back("rgg:65536:12:6002");
  out.push_back("banded:16384:16:0.3:6011");
  out.push_back("banded:65536:6:0.8:6012");
  out.push_back("st2d:100:100:5");
  out.push_back("st2d:300:300:5");
  out.push_back("st3d:30:30:30:7");
  out.push_back("st3d:16:16:16:27");
  out.push_back("blockdiag:16384:32:0.3:6021");
  out.push_back("road:16384:6031");
  out.push_back("road:65536:6032");
  return out;
}

}  // namespace

void make_labels(const std::string& dir) {
  const auto spmv_names = names_of(wise::all_method_configs());
  const auto spmm_names = names_of(wise::spmm::spmm_method_configs());
  wise::MeasureOptions opts;
  opts.repeats = 5;

  const auto measure_spmv = [&](const std::string& spec,
                                const wise::CsrMatrix& m) {
    const auto rec = wise::measure_matrix(m, spec, "label", opts);
    return LabeledSpec{spec, rec.config_seconds};
  };

  std::vector<LabeledSpec> spmv_train, spmm_train, heldout;
  for (const auto& spec : training_specs()) {
    const wise::CsrMatrix m = parse_spec(spec).materialize();
    std::cerr << "label train " << spec << " nnz=" << m.nnz() << "\n";
    spmv_train.push_back(measure_spmv(spec, m));
    // ~4 ms timing windows, like measure_matrix's adaptive count.
    const int iters = std::clamp(
        static_cast<int>(8e6 / static_cast<double>(m.nnz() * kSpmmCols)), 2,
        200);
    spmm_train.push_back(
        {spec, wise::spmm::measure_spmm_seconds(m, kSpmmCols, iters, 5)});
  }
  for (const auto& spec : heldout_specs()) {
    const wise::CsrMatrix m = parse_spec(spec).materialize();
    std::cerr << "label heldout " << spec << " nnz=" << m.nnz() << "\n";
    heldout.push_back(measure_spmv(spec, m));
  }
  const std::string how =
      "seconds per iteration, min of 5 timing passes, " +
      std::to_string(omp_get_max_threads()) + " OpenMP threads, " +
      cpu_model();
  write_labels(dir + "/spmv_train.txt", spmv_names, spmv_train,
               "SpMV training labels: " + how);
  write_labels(dir + "/spmm_train.txt", spmm_names, spmm_train,
               "SpMM training labels (k = " + std::to_string(kSpmmCols) +
                   " RHS columns): " + how);
  write_labels(dir + "/spmv_heldout.txt", spmv_names, heldout,
               "SpMV held-out labels: " + how);
}

}  // namespace wisebench
