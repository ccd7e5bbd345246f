// Tests for the machine probe (src/hw/) and the hardware-conditioned
// ModelBank v3: probe serialization, the machine-feature columns, the
// feature-dim record in save/load, legacy v2 compatibility, and the §7
// extended() path's existing-trees-stay-byte-identical guarantee.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "features/extractor.hpp"
#include "hw/probe.hpp"
#include "ml/decision_tree.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"
#include "wise/model_bank.hpp"
#include "wise/speedup_class.hpp"

namespace wise {
namespace {

// --------------------------------------------------------------- probe ----

TEST(HwProbe, MeasuredProbeIsPlausible) {
  const hw::MachineProbe p = hw::run_probe();
  EXPECT_TRUE(p.measured);
  EXPECT_GE(p.hardware_threads, 1);
  // Cache sizes may be 0 where sysfs is absent (containers), never negative.
  EXPECT_GE(p.l1d_bytes, 0);
  EXPECT_GE(p.l2_bytes, 0);
  EXPECT_GE(p.llc_bytes, 0);
  EXPECT_GT(p.stream_triad_gbs, 0.0);
}

TEST(HwProbe, SaveLoadRoundTrip) {
  hw::MachineProbe p;
  p.hardware_threads = 24;
  p.l1d_bytes = 32 * 1024;
  p.l2_bytes = 1024 * 1024;
  p.llc_bytes = 33 * 1024 * 1024;
  p.stream_triad_gbs = 87.5;
  p.measured = true;
  p.source = "measured";
  const std::string path = ::testing::TempDir() + "wise_hw_probe.txt";
  hw::save_probe(p, path);
  const hw::MachineProbe q = hw::load_probe(path);
  EXPECT_EQ(q.hardware_threads, p.hardware_threads);
  EXPECT_EQ(q.l1d_bytes, p.l1d_bytes);
  EXPECT_EQ(q.l2_bytes, p.l2_bytes);
  EXPECT_EQ(q.llc_bytes, p.llc_bytes);
  EXPECT_DOUBLE_EQ(q.stream_triad_gbs, p.stream_triad_gbs);
  EXPECT_TRUE(q.measured);
  std::filesystem::remove(path);
}

TEST(HwProbe, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "wise_hw_probe_bad.txt";
  {
    std::ofstream out(path);
    out << "not a probe file\n";
  }
  EXPECT_THROW(hw::load_probe(path), Error);
  EXPECT_THROW(hw::load_probe(path + ".does_not_exist"), Error);
  std::filesystem::remove(path);
}

TEST(HwProbe, MachineFeatureColumns) {
  ASSERT_EQ(hw::machine_feature_count(), 5u);
  ASSERT_EQ(hw::machine_feature_names().size(), 5u);
  EXPECT_EQ(hw::machine_feature_names()[0], "hw:threads");
  EXPECT_EQ(hw::machine_feature_names()[4], "hw:stream_gbs");

  hw::MachineProbe p;
  p.hardware_threads = 8;
  p.l1d_bytes = 48 * 1024;
  p.l2_bytes = 2 * 1024 * 1024;
  p.llc_bytes = 16 * 1024 * 1024;
  p.stream_triad_gbs = 42.0;
  const std::vector<double> f = hw::machine_features(p);
  ASSERT_EQ(f.size(), hw::machine_feature_count());
  EXPECT_DOUBLE_EQ(f[0], 8.0);
  EXPECT_DOUBLE_EQ(f[1], 48.0);     // KiB
  EXPECT_DOUBLE_EQ(f[2], 2048.0);   // KiB
  EXPECT_DOUBLE_EQ(f[3], 16384.0);  // KiB
  EXPECT_DOUBLE_EQ(f[4], 42.0);
}

TEST(HwProbe, BankFeatureNamesCompose) {
  const std::size_t base = feature_count();
  const auto plain = bank_feature_names(base);
  ASSERT_EQ(plain.size(), base);
  EXPECT_EQ(plain, feature_names());

  const auto wide = bank_feature_names(base + hw::machine_feature_count());
  ASSERT_EQ(wide.size(), base + 5);
  EXPECT_EQ(wide[base], "hw:threads");
  EXPECT_EQ(wide[base + 4], "hw:stream_gbs");
}

// --------------------------------------------------- ModelBank v3 ----

std::vector<MethodConfig> tiny_configs() {
  const auto all = all_method_configs();
  return {all.begin(), all.begin() + 3};  // the 3 CSR variants
}

/// A learnable bank over `width`-wide synthetic features.
ModelBank tiny_bank(std::size_t width, std::uint64_t seed = 21) {
  const auto configs = tiny_configs();
  Xoshiro256 rng(seed);
  std::vector<std::vector<double>> features;
  std::vector<std::vector<double>> rel;
  for (int i = 0; i < 40; ++i) {
    std::vector<double> f(width);
    for (auto& v : f) v = rng.next_double() * 10.0;
    const bool big = f[0] > 5.0;
    features.push_back(std::move(f));
    rel.push_back(big ? std::vector<double>{0.5, 1.2, 1.0}
                      : std::vector<double>{1.2, 0.5, 1.0});
  }
  ModelBank bank;
  bank.train(configs, features, rel, {.max_depth = 3});
  return bank;
}

TEST(ModelBankV3, TrainRecordsFeatureDim) {
  const std::size_t wide = feature_count() + hw::machine_feature_count();
  const ModelBank bank = tiny_bank(wide);
  EXPECT_EQ(bank.feature_dim(), wide);
  // Predictions demand exactly that width.
  EXPECT_THROW(
      bank.predict_classes(std::vector<double>(feature_count(), 1.0)),
      std::invalid_argument);
  EXPECT_NO_THROW(bank.predict_classes(std::vector<double>(wide, 1.0)));
}

TEST(ModelBankV3, SaveLoadPreservesFeatureDim) {
  const std::size_t wide = feature_count() + hw::machine_feature_count();
  const ModelBank bank = tiny_bank(wide);
  const std::string dir = ::testing::TempDir() + "wise_v3_bank";
  bank.save(dir);
  const ModelBank loaded = ModelBank::load(dir);
  EXPECT_TRUE(loaded.warnings().empty());  // v3 loads clean, no downgrade
  EXPECT_EQ(loaded.feature_dim(), wide);
  const std::vector<double> probe(wide, 3.0);
  EXPECT_EQ(loaded.predict_classes(probe), bank.predict_classes(probe));
  std::filesystem::remove_all(dir);
}

/// The FNV-1a the bank's checksum records use, reimplemented so the test
/// can author a valid legacy v2 file byte-by-byte.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(ModelBankV3, LegacyV2LoadsWithCountedWarning) {
  // Author a valid v2 file (one CSR config, one real tree) by hand: the
  // current save() only writes v3, so v2 exists solely as legacy data.
  Dataset ds({"f0"}, kNumSpeedupClasses);
  ds.add({0.0}, 0);
  ds.add({1.0}, 4);
  DecisionTree tree;
  tree.fit(ds, {.max_depth = 2});
  std::ostringstream payload;
  tree.save(payload);
  const std::string bytes = payload.str();

  const std::string dir = ::testing::TempDir() + "wise_v2_bank";
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir + "/models.txt");
    out << "wise-model-bank v2\n1\n";
    out << all_method_configs()[0].name() << '\n';
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fnv1a(bytes)));
    out << "tree " << bytes.size() << ' ' << hex << '\n' << bytes;
  }
  const ModelBank loaded = ModelBank::load(dir);
  ASSERT_TRUE(loaded.trained());
  // Exactly one warning — the counted legacy downgrade — and the bank is
  // pinned to the 67 matrix features.
  ASSERT_EQ(loaded.warnings().size(), 1u);
  EXPECT_NE(loaded.warnings()[0].find("legacy"), std::string::npos)
      << loaded.warnings()[0];
  EXPECT_EQ(loaded.feature_dim(), feature_count());
  std::filesystem::remove_all(dir);
}

TEST(ModelBankV3, LoadRejectsMalformedFeatureRecord) {
  const std::string dir = ::testing::TempDir() + "wise_v3_bad";
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir + "/models.txt");
    out << "wise-model-bank v3\nnot-features 7\n1\n";
  }
  EXPECT_THROW(ModelBank::load(dir), Error);
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------- the §7 extended path ----

std::string serialize_tree(const DecisionTree& tree) {
  std::ostringstream out;
  tree.save(out);
  return out.str();
}

TEST(ModelBankExtended, KeepsBaseTreesByteIdentical) {
  const ModelBank base = tiny_bank(feature_count());

  Dataset ds(bank_feature_names(feature_count()), kNumSpeedupClasses);
  std::vector<double> lo(feature_count(), 0.0), hi(feature_count(), 9.0);
  ds.add(lo, 0);
  ds.add(hi, 6);
  DecisionTree fresh;
  fresh.fit(ds, {.max_depth = 2});

  const MethodConfig dia = parse_method_config("DIA");
  const ModelBank ext = ModelBank::extended(base, {dia}, {fresh});
  ASSERT_EQ(ext.configs().size(), base.configs().size() + 1);
  EXPECT_EQ(ext.feature_dim(), base.feature_dim());
  for (std::size_t i = 0; i < base.trees().size(); ++i) {
    EXPECT_EQ(ext.configs()[i], base.configs()[i]);
    EXPECT_EQ(serialize_tree(ext.trees()[i]), serialize_tree(base.trees()[i]))
        << "tree " << i << " changed — §7 forbids touching existing models";
  }
  EXPECT_EQ(ext.configs().back(), dia);
}

TEST(ModelBankExtended, RejectsNameCollisionAndShapeMismatch) {
  const ModelBank base = tiny_bank(feature_count());
  DecisionTree tree = base.trees()[0];
  EXPECT_THROW(
      ModelBank::extended(base, {base.configs()[0]}, {tree}),
      std::invalid_argument);
  EXPECT_THROW(
      ModelBank::extended(base, {parse_method_config("DIA")}, {}),
      std::invalid_argument);
}

}  // namespace
}  // namespace wise
