// Tests for the method registry (the paper's 29-configuration space).

#include <gtest/gtest.h>

#include <set>

#include "spmv/method.hpp"

namespace wise {
namespace {

TEST(MethodRegistry, HasExactly29Configurations) {
  EXPECT_EQ(all_method_configs().size(), 29u);  // paper §4.3
}

TEST(MethodRegistry, CompositionMatchesPaper) {
  int csr = 0, sellpack = 0, sigma = 0, sell_r = 0, lav1 = 0, lav = 0;
  for (const auto& cfg : all_method_configs()) {
    switch (cfg.kind) {
      case MethodKind::kCsr: ++csr; break;
      case MethodKind::kSellpack: ++sellpack; break;
      case MethodKind::kSellCSigma: ++sigma; break;
      case MethodKind::kSellCR: ++sell_r; break;
      case MethodKind::kLav1Seg: ++lav1; break;
      case MethodKind::kLav: ++lav; break;
      case MethodKind::kBsr:
      case MethodKind::kDia: break;  // extensions; never in the paper space
    }
  }
  EXPECT_EQ(csr, 3);        // Dyn, St, StCont
  EXPECT_EQ(sellpack, 4);   // {c4,c8} x {StCont,Dyn}
  EXPECT_EQ(sigma, 12);     // {c4,c8} x {2^9,2^12,2^14} x {StCont,Dyn}
  EXPECT_EQ(sell_r, 2);     // {c4,c8}
  EXPECT_EQ(lav1, 2);       // {c4,c8}
  EXPECT_EQ(lav, 6);        // {c4,c8} x {0.7,0.8,0.9}
}

TEST(MethodRegistry, NamesAreUnique) {
  std::set<std::string> names;
  for (const auto& cfg : all_method_configs()) {
    EXPECT_TRUE(names.insert(cfg.name()).second) << "duplicate " << cfg.name();
  }
}

TEST(MethodRegistry, NonCsrAndNonSigmaMethodsUseDynOnly) {
  // Paper Table 1: Sell-c-R, LAV-1Seg and LAV only use Dyn scheduling.
  for (const auto& cfg : all_method_configs()) {
    if (cfg.kind == MethodKind::kSellCR || cfg.kind == MethodKind::kLav1Seg ||
        cfg.kind == MethodKind::kLav) {
      EXPECT_EQ(cfg.sched, Schedule::kDyn) << cfg.name();
    }
  }
}

TEST(MethodConfig, NameParseRoundTrip) {
  for (const auto& cfg : all_method_configs()) {
    EXPECT_EQ(parse_method_config(cfg.name()), cfg) << cfg.name();
  }
}

TEST(MethodConfig, ParseRejectsGarbage) {
  EXPECT_THROW(parse_method_config(""), std::invalid_argument);
  EXPECT_THROW(parse_method_config("NOPE/c8"), std::invalid_argument);
  EXPECT_THROW(parse_method_config("CSR"), std::invalid_argument);
  EXPECT_THROW(parse_method_config("CSR/Weird"), std::invalid_argument);
  EXPECT_THROW(parse_method_config("SELLPACK/x8/Dyn"), std::invalid_argument);
}

TEST(MethodConfig, ParseRejectsRemovedFormats) {
  // Formats outside the registry must fail to parse, so a model bank
  // naming one skips that entry instead of loading a config nothing can
  // run (docs/FORMATS.md says why ELL and HYB are not in it).
  EXPECT_THROW(parse_method_config("ELL"), std::invalid_argument);
  EXPECT_THROW(parse_method_config("HYB/k8"), std::invalid_argument);
}

TEST(MethodConfig, NamesMatchExpectedFormat) {
  const MethodConfig lav{.kind = MethodKind::kLav,
                         .sched = Schedule::kDyn,
                         .c = 8,
                         .sigma = kSigmaAll,
                         .T = 0.8};
  EXPECT_EQ(lav.name(), "LAV/c8/T0.8");
  const MethodConfig sigma{.kind = MethodKind::kSellCSigma,
                           .sched = Schedule::kStCont,
                           .c = 4,
                           .sigma = 4096};
  EXPECT_EQ(sigma.name(), "Sell-c-s/c4/s4096/StCont");
  const MethodConfig csr{.kind = MethodKind::kCsr, .sched = Schedule::kDyn};
  EXPECT_EQ(csr.name(), "CSR/Dyn");
}

TEST(MethodConfig, SrvOptionsMapToPaperSemantics) {
  const MethodConfig sellpack{.kind = MethodKind::kSellpack,
                              .sched = Schedule::kDyn,
                              .c = 8};
  const auto sp = sellpack.srv_options();
  EXPECT_EQ(sp.sigma, 1);
  EXPECT_FALSE(sp.cfs);
  EXPECT_TRUE(sp.segment_fractions.empty());

  const MethodConfig lav{.kind = MethodKind::kLav,
                         .sched = Schedule::kDyn,
                         .c = 4,
                         .sigma = kSigmaAll,
                         .T = 0.7};
  const auto lv = lav.srv_options();
  EXPECT_EQ(lv.sigma, kSigmaAll);
  EXPECT_TRUE(lv.cfs);
  ASSERT_EQ(lv.segment_fractions.size(), 1u);
  EXPECT_DOUBLE_EQ(lv.segment_fractions[0], 0.7);

  const MethodConfig csr{.kind = MethodKind::kCsr, .sched = Schedule::kDyn};
  EXPECT_THROW(csr.srv_options(), std::logic_error);
}

TEST(MethodConfig, PreprocessingRankFollowsPaperOrder) {
  // §4.4: CSR < SELLPACK < Sell-c-σ < Sell-c-R < LAV-1Seg < LAV.
  auto rank = [](MethodKind k) {
    return MethodConfig{.kind = k}.preprocessing_rank();
  };
  EXPECT_LT(rank(MethodKind::kCsr), rank(MethodKind::kSellpack));
  EXPECT_LT(rank(MethodKind::kSellpack), rank(MethodKind::kSellCSigma));
  EXPECT_LT(rank(MethodKind::kSellCSigma), rank(MethodKind::kSellCR));
  EXPECT_LT(rank(MethodKind::kSellCR), rank(MethodKind::kLav1Seg));
  EXPECT_LT(rank(MethodKind::kLav1Seg), rank(MethodKind::kLav));
}

TEST(MethodConfig, SelectionRankPrefersSmallerParameters) {
  const MethodConfig lav_t7{.kind = MethodKind::kLav,
                            .sched = Schedule::kDyn,
                            .c = 8,
                            .sigma = kSigmaAll,
                            .T = 0.7};
  MethodConfig lav_t9 = lav_t7;
  lav_t9.T = 0.9;
  EXPECT_LT(lav_t7.selection_rank(), lav_t9.selection_rank());

  MethodConfig lav_c4 = lav_t7;
  lav_c4.c = 4;
  EXPECT_LT(lav_c4.selection_rank(), lav_t7.selection_rank());

  const MethodConfig sigma_small{.kind = MethodKind::kSellCSigma,
                                 .sched = Schedule::kStCont,
                                 .c = 4,
                                 .sigma = 512};
  MethodConfig sigma_large = sigma_small;
  sigma_large.sigma = 16384;
  EXPECT_LT(sigma_small.selection_rank(), sigma_large.selection_rank());
}

TEST(MethodConfig, CsrConfigsAreThreeSchedules) {
  const auto csr = csr_configs();
  ASSERT_EQ(csr.size(), 3u);
  std::set<Schedule> scheds;
  for (const auto& cfg : csr) {
    EXPECT_EQ(cfg.kind, MethodKind::kCsr);
    scheds.insert(cfg.sched);
  }
  EXPECT_EQ(scheds.size(), 3u);
}

TEST(MethodConfig, RegistryParameterValuesMatchPaper) {
  EXPECT_EQ(c_values(), (std::vector<int>{4, 8}));
  EXPECT_EQ(sigma_values(), (std::vector<index_t>{512, 4096, 16384}));
  EXPECT_EQ(t_values(), (std::vector<double>{0.7, 0.8, 0.9}));
}

}  // namespace
}  // namespace wise
