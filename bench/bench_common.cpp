#include "bench_common.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "features/extractor.hpp"
#include "ml/validation.hpp"
#include "wise/model_bank.hpp"
#include "wise/selector.hpp"
#include "wise/speedup_class.hpp"

namespace wise::bench {

std::vector<MatrixRecord> load_records(const std::vector<MatrixSpec>& specs) {
  MeasurementCache cache;
  return cache.get_or_measure(specs);
}

MethodKind family_of(std::size_t config_index) {
  return all_method_configs().at(config_index).kind;
}

std::size_t best_config_in_family(const MatrixRecord& rec, MethodKind kind) {
  const auto configs = all_method_configs();
  std::size_t best = configs.size();
  double best_seconds = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < configs.size(); ++c) {
    if (configs[c].kind == kind && rec.config_seconds[c] < best_seconds) {
      best_seconds = rec.config_seconds[c];
      best = c;
    }
  }
  if (best == configs.size()) {
    throw std::logic_error("best_config_in_family: family absent");
  }
  return best;
}

MethodKind winning_family(const MatrixRecord& rec) {
  return family_of(rec.best_config_index());
}

char family_glyph(MethodKind kind) {
  switch (kind) {
    case MethodKind::kCsr: return 'o';
    case MethodKind::kSellpack: return 'A';
    case MethodKind::kSellCSigma: return '*';
    case MethodKind::kSellCR: return 'x';
    case MethodKind::kLav1Seg: return '+';
    case MethodKind::kLav: return 'v';
    case MethodKind::kBsr: return 'B';
    case MethodKind::kDia: return 'D';
  }
  return '?';
}

std::vector<WiseOutcome> wise_cross_validation(
    const std::vector<MatrixRecord>& records, const TreeParams& params,
    int folds, std::uint64_t seed) {
  if (records.size() < static_cast<std::size_t>(folds)) {
    throw std::invalid_argument("wise_cross_validation: too few records");
  }
  const auto configs = all_method_configs();

  // Stratify folds by the winning method family so every fold sees every
  // behavior class.
  std::vector<int> strata(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    strata[i] = static_cast<int>(winning_family(records[i]));
  }
  const auto fold_indices = stratified_kfold(strata, folds, seed);

  std::vector<WiseOutcome> outcomes(records.size());
  for (const auto& test_fold : fold_indices) {
    // Assemble the training split: everything outside this fold.
    std::vector<bool> in_test(records.size(), false);
    for (std::size_t idx : test_fold) in_test[idx] = true;

    std::vector<std::vector<double>> features;
    std::vector<std::vector<double>> rel_times;
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (in_test[i]) continue;
      features.push_back(records[i].features);
      std::vector<double> rel(configs.size());
      for (std::size_t c = 0; c < configs.size(); ++c) {
        rel[c] = records[i].rel_time(c);
      }
      rel_times.push_back(std::move(rel));
    }
    ModelBank bank;
    bank.train(configs, features, rel_times, params);

    for (std::size_t idx : test_fold) {
      const MatrixRecord& rec = records[idx];
      const auto classes = bank.predict_classes(rec.features);
      const std::size_t sel = select_best_config(configs, classes);

      WiseOutcome& out = outcomes[idx];
      out.id = rec.id;
      out.selected_config = sel;
      out.predicted_class = classes[sel];
      out.wise_seconds = rec.config_seconds[sel];
      out.speedup_over_mkl = rec.mkl_seconds / out.wise_seconds;
      out.oracle_speedup_over_mkl =
          rec.mkl_seconds / rec.config_seconds[rec.best_config_index()];
      out.overhead_mkl_iters =
          (rec.feature_seconds + rec.config_prep_seconds[sel]) /
          rec.mkl_seconds;
    }
  }
  return outcomes;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double record_feature(const MatrixRecord& rec, const std::string& name) {
  const auto& names = feature_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return rec.features[i];
  }
  throw std::out_of_range("record_feature: unknown feature " + name);
}

}  // namespace wise::bench
