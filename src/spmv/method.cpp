#include "spmv/method.hpp"

#include <sstream>
#include <stdexcept>

#include "util/ascii_plot.hpp"

namespace wise {

const char* method_kind_name(MethodKind k) {
  switch (k) {
    case MethodKind::kCsr: return "CSR";
    case MethodKind::kSellpack: return "SELLPACK";
    case MethodKind::kSellCSigma: return "Sell-c-s";
    case MethodKind::kSellCR: return "Sell-c-R";
    case MethodKind::kLav1Seg: return "LAV-1Seg";
    case MethodKind::kLav: return "LAV";
    case MethodKind::kBsr: return "BSR";
    case MethodKind::kDia: return "DIA";
  }
  return "?";
}

std::string MethodConfig::name() const {
  std::ostringstream out;
  out << method_kind_name(kind);
  switch (kind) {
    case MethodKind::kCsr:
      out << '/' << schedule_name(sched);
      break;
    case MethodKind::kSellpack:
      out << "/c" << c << '/' << schedule_name(sched);
      break;
    case MethodKind::kSellCSigma:
      out << "/c" << c << "/s" << sigma << '/' << schedule_name(sched);
      break;
    case MethodKind::kSellCR:
    case MethodKind::kLav1Seg:
      out << "/c" << c;
      break;
    case MethodKind::kLav:
      out << "/c" << c << "/T" << fmt(T, 2);
      break;
    case MethodKind::kBsr:
      out << "/b" << c;  // c doubles as the block size for BSR
      break;
    case MethodKind::kDia:
      break;  // parameterless: the layout is fully determined by the matrix
  }
  return out.str();
}

SrvBuildOptions MethodConfig::srv_options() const {
  SrvBuildOptions opts;
  opts.c = c;
  switch (kind) {
    case MethodKind::kCsr:
      throw std::logic_error("srv_options: CSR does not use SRVPack");
    case MethodKind::kSellpack:
      opts.sigma = 1;
      break;
    case MethodKind::kSellCSigma:
      opts.sigma = sigma;
      break;
    case MethodKind::kSellCR:
      opts.sigma = kSigmaAll;
      break;
    case MethodKind::kLav1Seg:
      opts.sigma = kSigmaAll;
      opts.cfs = true;
      break;
    case MethodKind::kLav:
      opts.sigma = kSigmaAll;
      opts.cfs = true;
      opts.segment_fractions = {T};
      break;
    case MethodKind::kBsr:
    case MethodKind::kDia:
      throw std::logic_error("srv_options: " +
                             std::string(method_kind_name(kind)) +
                             " has its own format");
  }
  return opts;
}

std::vector<double> MethodConfig::selection_rank() const {
  // Lexicographic: cheaper method first, then smaller c, σ, T; StCont (0)
  // before St (1) before Dyn (2) — static scheduling has no runtime queue.
  double sched_rank = 0;
  switch (sched) {
    case Schedule::kStCont: sched_rank = 0; break;
    case Schedule::kSt: sched_rank = 1; break;
    case Schedule::kDyn: sched_rank = 2; break;
  }
  return {static_cast<double>(preprocessing_rank()), static_cast<double>(c),
          static_cast<double>(sigma == kSigmaAll ? 1e18 : sigma), T,
          sched_rank};
}

std::vector<index_t> sigma_values() { return {1 << 9, 1 << 12, 1 << 14}; }
std::vector<int> c_values() { return {4, 8}; }
std::vector<double> t_values() { return {0.7, 0.8, 0.9}; }

std::vector<MethodConfig> csr_configs() {
  std::vector<MethodConfig> out;
  for (Schedule s : {Schedule::kDyn, Schedule::kSt, Schedule::kStCont}) {
    out.push_back({.kind = MethodKind::kCsr, .sched = s});
  }
  return out;
}

std::vector<MethodConfig> all_method_configs() {
  std::vector<MethodConfig> out = csr_configs();
  const auto cs = c_values();

  for (int c : cs) {
    for (Schedule s : {Schedule::kStCont, Schedule::kDyn}) {
      out.push_back({.kind = MethodKind::kSellpack, .sched = s, .c = c});
    }
  }
  for (int c : cs) {
    for (index_t sigma : sigma_values()) {
      for (Schedule s : {Schedule::kStCont, Schedule::kDyn}) {
        out.push_back({.kind = MethodKind::kSellCSigma,
                       .sched = s,
                       .c = c,
                       .sigma = sigma});
      }
    }
  }
  for (int c : cs) {
    out.push_back({.kind = MethodKind::kSellCR,
                   .sched = Schedule::kDyn,
                   .c = c,
                   .sigma = kSigmaAll});
  }
  for (int c : cs) {
    out.push_back({.kind = MethodKind::kLav1Seg,
                   .sched = Schedule::kDyn,
                   .c = c,
                   .sigma = kSigmaAll});
  }
  for (int c : cs) {
    for (double t : t_values()) {
      out.push_back({.kind = MethodKind::kLav,
                     .sched = Schedule::kDyn,
                     .c = c,
                     .sigma = kSigmaAll,
                     .T = t});
    }
  }
  return out;
}

MethodConfig parse_method_config(const std::string& name) {
  // Tokenize on '/'.
  std::vector<std::string> parts;
  std::string cur;
  for (char ch : name) {
    if (ch == '/') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(ch);
    }
  }
  parts.push_back(cur);
  if (parts.empty()) throw std::invalid_argument("empty method name");

  auto parse_sched = [](const std::string& s) {
    if (s == "Dyn") return Schedule::kDyn;
    if (s == "St") return Schedule::kSt;
    if (s == "StCont") return Schedule::kStCont;
    throw std::invalid_argument("unknown schedule: " + s);
  };
  auto expect = [&](std::size_t n) {
    if (parts.size() != n) {
      throw std::invalid_argument("malformed method name: " + name);
    }
  };
  auto num_after = [&](std::size_t i, char tag) -> double {
    if (parts[i].size() < 2 || parts[i][0] != tag) {
      throw std::invalid_argument("malformed method name: " + name);
    }
    return std::stod(parts[i].substr(1));
  };

  MethodConfig cfg;
  const std::string& head = parts[0];
  if (head == "CSR") {
    expect(2);
    cfg.kind = MethodKind::kCsr;
    cfg.sched = parse_sched(parts[1]);
  } else if (head == "SELLPACK") {
    expect(3);
    cfg.kind = MethodKind::kSellpack;
    cfg.c = static_cast<int>(num_after(1, 'c'));
    cfg.sched = parse_sched(parts[2]);
  } else if (head == "Sell-c-s") {
    expect(4);
    cfg.kind = MethodKind::kSellCSigma;
    cfg.c = static_cast<int>(num_after(1, 'c'));
    cfg.sigma = static_cast<index_t>(num_after(2, 's'));
    cfg.sched = parse_sched(parts[3]);
  } else if (head == "Sell-c-R") {
    expect(2);
    cfg.kind = MethodKind::kSellCR;
    cfg.c = static_cast<int>(num_after(1, 'c'));
    cfg.sigma = kSigmaAll;
    cfg.sched = Schedule::kDyn;
  } else if (head == "LAV-1Seg") {
    expect(2);
    cfg.kind = MethodKind::kLav1Seg;
    cfg.c = static_cast<int>(num_after(1, 'c'));
    cfg.sigma = kSigmaAll;
    cfg.sched = Schedule::kDyn;
  } else if (head == "LAV") {
    expect(3);
    cfg.kind = MethodKind::kLav;
    cfg.c = static_cast<int>(num_after(1, 'c'));
    cfg.T = num_after(2, 'T');
    cfg.sigma = kSigmaAll;
    cfg.sched = Schedule::kDyn;
  } else if (head == "BSR") {
    expect(2);
    cfg.kind = MethodKind::kBsr;
    cfg.c = static_cast<int>(num_after(1, 'b'));
    cfg.sched = Schedule::kStCont;
  } else if (head == "DIA") {
    expect(1);
    cfg.kind = MethodKind::kDia;
    cfg.sched = Schedule::kStCont;
  } else {
    throw std::invalid_argument("unknown method: " + head);
  }
  return cfg;
}

}  // namespace wise
