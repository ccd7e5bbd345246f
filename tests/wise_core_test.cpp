// Tests for the WISE core: speedup classes, selection heuristic, model
// bank, end-to-end pipeline, and the oracle/inspector-executor baselines.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "test_util.hpp"
#include "util/prng.hpp"
#include "wise/baselines.hpp"
#include "wise/model_bank.hpp"
#include "wise/pipeline.hpp"
#include "wise/selector.hpp"
#include "wise/speedup_class.hpp"

namespace wise {
namespace {

using testing::expect_vectors_near;
using testing::random_csr;
using testing::random_vector;

// --------------------------------------------------- speedup classes ----

TEST(SpeedupClass, BoundariesMatchPaper) {
  EXPECT_EQ(classify_relative_time(2.00), 0);   // slowdown
  EXPECT_EQ(classify_relative_time(1.06), 0);
  EXPECT_EQ(classify_relative_time(1.05), 1);   // boundary inclusive
  EXPECT_EQ(classify_relative_time(1.00), 1);
  EXPECT_EQ(classify_relative_time(0.95), 2);
  EXPECT_EQ(classify_relative_time(0.90), 2);
  EXPECT_EQ(classify_relative_time(0.85), 3);
  EXPECT_EQ(classify_relative_time(0.75), 4);
  EXPECT_EQ(classify_relative_time(0.65), 5);
  EXPECT_EQ(classify_relative_time(0.55), 6);   // ~2x speedup
  EXPECT_EQ(classify_relative_time(0.10), 6);
}

TEST(SpeedupClass, RejectsNonPositiveTimes) {
  EXPECT_THROW(classify_relative_time(0.0), std::invalid_argument);
  EXPECT_THROW(classify_relative_time(-1.0), std::invalid_argument);
}

TEST(SpeedupClass, RangesTileTheLine) {
  for (int k = 1; k < kNumSpeedupClasses; ++k) {
    EXPECT_DOUBLE_EQ(class_upper_rel(k), class_lower_rel(k - 1));
  }
  EXPECT_DOUBLE_EQ(class_lower_rel(6), 0.0);
}

TEST(SpeedupClass, MidpointsAreInsideRanges) {
  for (int k = 1; k <= 5; ++k) {
    const double mid = class_midpoint_rel(k);
    EXPECT_GT(mid, class_lower_rel(k));
    EXPECT_LE(mid, class_upper_rel(k));
    EXPECT_EQ(classify_relative_time(mid), k);
  }
}

TEST(SpeedupClass, NamesAndBoundsChecking) {
  EXPECT_EQ(class_name(0), "C0");
  EXPECT_EQ(class_name(6), "C6");
  EXPECT_THROW(class_name(7), std::out_of_range);
  EXPECT_THROW(class_upper_rel(-1), std::out_of_range);
}

// ------------------------------------------------------------ selector ----

TEST(Selector, PicksHighestPredictedClass) {
  const auto configs = all_method_configs();
  std::vector<int> classes(configs.size(), 2);
  classes[10] = 6;
  EXPECT_EQ(select_best_config(configs, classes), 10u);
}

TEST(Selector, TieBreaksByPreprocessingCost) {
  // All predicted equal → CSR (cheapest preprocessing) must win, and among
  // CSR variants StCont (cheapest schedule rank) wins.
  const auto configs = all_method_configs();
  std::vector<int> classes(configs.size(), 3);
  const auto& chosen = configs[select_best_config(configs, classes)];
  EXPECT_EQ(chosen.kind, MethodKind::kCsr);
  EXPECT_EQ(chosen.sched, Schedule::kStCont);
}

TEST(Selector, TieBreaksBySmallerParametersWithinMethod) {
  std::vector<MethodConfig> configs = {
      {.kind = MethodKind::kLav,
       .sched = Schedule::kDyn,
       .c = 8,
       .sigma = kSigmaAll,
       .T = 0.9},
      {.kind = MethodKind::kLav,
       .sched = Schedule::kDyn,
       .c = 8,
       .sigma = kSigmaAll,
       .T = 0.7},
  };
  const std::vector<int> classes = {5, 5};
  EXPECT_EQ(select_best_config(configs, classes), 1u);  // smaller T wins
}

TEST(Selector, RejectsMismatchedSizes) {
  EXPECT_THROW(select_best_config({}, {}), std::invalid_argument);
  EXPECT_THROW(select_best_config(csr_configs(), {1}), std::invalid_argument);
}

// ----------------------------------------------------------- model bank ----

/// Synthetic training data with a learnable rule: configurations "win" on
/// matrices whose first feature (n_rows) is large.
struct SyntheticBankData {
  std::vector<MethodConfig> configs;
  std::vector<std::vector<double>> features;
  std::vector<std::vector<double>> rel_times;
};

SyntheticBankData make_bank_data(int n_samples) {
  SyntheticBankData data;
  data.configs = csr_configs();  // 3 configs keeps it fast
  Xoshiro256 rng(3);
  for (int i = 0; i < n_samples; ++i) {
    std::vector<double> f(feature_count(), 0.0);
    const double size = rng.next_double();
    f[0] = size * 1e6;
    data.features.push_back(f);
    // Config 0 is fast (0.5) on big matrices, slow (1.2) otherwise;
    // config 1 the reverse; config 2 always neutral (1.0).
    data.rel_times.push_back(size > 0.5
                                 ? std::vector<double>{0.5, 1.2, 1.0}
                                 : std::vector<double>{1.2, 0.5, 1.0});
  }
  return data;
}

TEST(ModelBank, LearnsSyntheticRule) {
  const auto data = make_bank_data(200);
  ModelBank bank;
  bank.train(data.configs, data.features, data.rel_times,
             {.max_depth = 5, .ccp_alpha = 0.0});
  std::vector<double> big(feature_count(), 0.0);
  big[0] = 9e5;
  std::vector<double> small(feature_count(), 0.0);
  small[0] = 1e5;
  const auto big_cls = bank.predict_classes(big);
  const auto small_cls = bank.predict_classes(small);
  EXPECT_EQ(big_cls[0], 6);    // rel 0.5 → C6
  EXPECT_EQ(big_cls[1], 0);    // rel 1.2 → C0
  EXPECT_EQ(small_cls[0], 0);
  EXPECT_EQ(small_cls[1], 6);
  EXPECT_EQ(big_cls[2], 1);    // rel 1.0 → C1
}

TEST(ModelBank, ValidatesShapes) {
  ModelBank bank;
  EXPECT_THROW(bank.train({}, {{1.0}}, {{1.0}}), std::invalid_argument);
  EXPECT_THROW(bank.train(csr_configs(), {}, {}), std::invalid_argument);
  EXPECT_THROW(
      bank.train(csr_configs(), {{1.0}}, {{1.0}}),  // width 1 != 3 configs
      std::invalid_argument);
  EXPECT_THROW(bank.predict_classes(std::vector<double>{1.0}),
               std::logic_error);
}

TEST(ModelBank, SaveLoadRoundTrip) {
  const auto data = make_bank_data(100);
  ModelBank bank;
  bank.train(data.configs, data.features, data.rel_times, {.max_depth = 5});
  const auto dir =
      (std::filesystem::temp_directory_path() / "wise_bank_test").string();
  bank.save(dir);
  const ModelBank loaded = ModelBank::load(dir);
  ASSERT_EQ(loaded.configs().size(), bank.configs().size());
  for (std::size_t i = 0; i < loaded.configs().size(); ++i) {
    EXPECT_EQ(loaded.configs()[i], bank.configs()[i]);
  }
  std::vector<double> probe(feature_count(), 0.0);
  probe[0] = 7e5;
  EXPECT_EQ(loaded.predict_classes(probe), bank.predict_classes(probe));
  std::filesystem::remove_all(dir);
}

TEST(ModelBank, V2BankNamingRemovedFormatSkipsThatEntry) {
  // A legacy v2 bank whose second entry names HYB, a format this build no
  // longer has: the entry is skipped with exactly one warning and the
  // other trees still load.
  const auto data = make_bank_data(50);
  ModelBank bank;
  bank.train(data.configs, data.features, data.rel_times, {.max_depth = 3});
  const auto dir =
      (std::filesystem::temp_directory_path() / "wise_bank_v2_hyb").string();
  bank.save(dir);
  const std::string path = dir + "/models.txt";
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }
  const auto body = text.find('\n', text.find("features "));
  ASSERT_NE(body, std::string::npos);
  text = "wise-model-bank v2" + text.substr(body);
  const auto name = text.find("\nCSR/St\n");
  ASSERT_NE(name, std::string::npos);
  text.replace(name + 1, 6, "HYB/k8");
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }

  const ModelBank loaded = ModelBank::load(dir);
  ASSERT_EQ(loaded.configs().size(), 2u);
  EXPECT_EQ(loaded.configs()[0].name(), "CSR/Dyn");
  EXPECT_EQ(loaded.configs()[1].name(), "CSR/StCont");
  int skips = 0;
  for (const auto& w : loaded.warnings()) {
    if (w.rfind("skipping model for 'HYB/k8'", 0) == 0) ++skips;
  }
  EXPECT_EQ(skips, 1);
  // The only other warning is the legacy-format downgrade note.
  EXPECT_EQ(loaded.warnings().size(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(ModelBank, LoadRejectsMissingDirectory) {
  EXPECT_THROW(ModelBank::load("/nonexistent/wise/dir"), std::runtime_error);
}

// ------------------------------------------------------------- pipeline ----

/// Bank over the full 29-config space trained on trivial data (all rel
/// times 1.0) — selection then falls back to tie-breaking, which must pick
/// CSR. Used to exercise the pipeline plumbing deterministically.
ModelBank trivial_bank() {
  const auto configs = all_method_configs();
  std::vector<std::vector<double>> features;
  std::vector<std::vector<double>> rel;
  Xoshiro256 rng(5);
  for (int i = 0; i < 30; ++i) {
    std::vector<double> f(feature_count());
    for (auto& v : f) v = rng.next_double();
    features.push_back(std::move(f));
    rel.emplace_back(configs.size(), 1.0);
  }
  ModelBank bank;
  bank.train(configs, features, rel, {.max_depth = 3});
  return bank;
}

TEST(Pipeline, RejectsUntrainedBank) {
  EXPECT_THROW(Wise(ModelBank{}), std::invalid_argument);
}

TEST(Pipeline, ChoosesCsrWhenAllConfigsPredictedEqual) {
  const Wise predictor(trivial_bank());
  const CsrMatrix m = random_csr(300, 300, 5.0, 1);
  const WiseChoice choice = predictor.choose(m);
  EXPECT_EQ(choice.config.kind, MethodKind::kCsr);
  EXPECT_EQ(choice.predicted_class, 1);  // rel 1.0 → C1
  EXPECT_GT(choice.feature_seconds, 0.0);
  EXPECT_GE(choice.inference_seconds, 0.0);
}

TEST(Pipeline, PreparedMatrixComputesCorrectSpmv) {
  const Wise predictor(trivial_bank());
  const CsrMatrix m = random_csr(200, 200, 6.0, 2);
  PreparedMatrix pm = predictor.prepare(m);
  const auto x = random_vector(200, 3);
  std::vector<value_t> y(200), y_ref(200);
  pm.run(x, y);
  spmv_reference(m, x, y_ref);
  expect_vectors_near(y_ref, y);
}

// ------------------------------------------------------------ baselines ----

TEST(Baselines, OracleReturnsFastestCandidate) {
  const CsrMatrix m = random_csr(400, 400, 8.0, 4);
  const auto configs = csr_configs();
  const ExplorationResult res = oracle_select(m, configs, 2);
  EXPECT_GT(res.best_seconds, 0.0);
  EXPECT_GT(res.preprocessing_seconds, 0.0);
  EXPECT_EQ(res.best.kind, MethodKind::kCsr);
}

TEST(Baselines, InspectorExecutorCandidatesCoverAllFamilies) {
  const auto candidates = inspector_executor_candidates();
  std::set<MethodKind> kinds;
  for (const auto& c : candidates) kinds.insert(c.kind);
  EXPECT_EQ(kinds.size(), 6u);  // one per method family
}

TEST(Baselines, InspectorExecutorSelectsValidConfig) {
  const CsrMatrix m = random_csr(300, 300, 6.0, 5);
  const auto candidates = inspector_executor_candidates();
  const ExplorationResult res = inspector_executor_select(m, candidates, 1);
  // The winner is one of the candidates.
  bool found = false;
  for (const auto& c : candidates) found |= (c == res.best);
  EXPECT_TRUE(found);
}

TEST(Baselines, ExploreRejectsEmptyCandidates) {
  const CsrMatrix m = random_csr(10, 10, 2.0, 6);
  EXPECT_THROW(oracle_select(m, {}, 1), std::invalid_argument);
}

}  // namespace
}  // namespace wise
