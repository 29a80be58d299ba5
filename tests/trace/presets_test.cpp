#include "trace/presets.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <iterator>
#include <utility>

#include "trace/stats.hpp"
#include "util/assert.hpp"

namespace baps::trace {
namespace {

// Preset generation at full size is exercised by bench_table1; tests use the
// scaled loader to stay fast while checking the same invariants.
class PresetTest : public ::testing::TestWithParam<Preset> {};

TEST_P(PresetTest, ScaledPresetHasSaneTableOneShape) {
  const Trace t = load_preset_scaled(GetParam(), 0.08);
  const TraceStats s = compute_stats(t);
  EXPECT_GT(s.num_requests, 1000u);
  EXPECT_GT(s.num_clients, 0u);
  EXPECT_GT(s.total_bytes, 0u);
  EXPECT_GT(s.infinite_cache_bytes, 0u);
  EXPECT_LT(s.infinite_cache_bytes, s.total_bytes);
  // Every web trace in Table 1 shows nontrivial but bounded re-reference.
  EXPECT_GT(s.max_hit_ratio, 0.15);
  EXPECT_LT(s.max_hit_ratio, 0.95);
  EXPECT_GT(s.max_byte_hit_ratio, 0.05);
  EXPECT_LT(s.max_byte_hit_ratio, s.max_hit_ratio);
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetTest,
                         ::testing::ValuesIn(all_presets()),
                         [](const auto& param_info) {
                           std::string n = preset_name(param_info.param);
                           for (char& c : n) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return n;
                         });

TEST(PresetCatalogTest, FiveDistinctPresets) {
  const auto all = all_presets();
  EXPECT_EQ(all.size(), 5u);
  EXPECT_EQ(preset_name(Preset::kCanet2), "CA*netII");
}

TEST(PresetCatalogTest, ClientCountsMatchPaper) {
  // CA*netII is the 3-client limit case (Fig. 7); BU-95 used 37 machines.
  EXPECT_EQ(preset_params(Preset::kCanet2).num_clients, 3u);
  EXPECT_EQ(preset_params(Preset::kBu95).num_clients, 37u);
  EXPECT_GT(preset_params(Preset::kNlanrUc).num_clients, 100u);
}

TEST(PresetCatalogTest, Bu95HasStrongerLocalityThanBu98) {
  // Barford et al.: hit ratios dropped from 1995 to 1998. The presets encode
  // that via sharing and temporal-locality knobs; verify it survives into
  // measured max hit ratios.
  const TraceStats s95 = compute_stats(load_preset_scaled(Preset::kBu95, 0.15));
  const TraceStats s98 = compute_stats(load_preset_scaled(Preset::kBu98, 0.15));
  EXPECT_GT(s95.max_hit_ratio, s98.max_hit_ratio);
}

TEST(PresetCatalogTest, ScaledLoaderValidatesFactor) {
  EXPECT_THROW(load_preset_scaled(Preset::kBu95, 0.0), baps::InvariantError);
  EXPECT_THROW(load_preset_scaled(Preset::kBu95, 2.0), baps::InvariantError);
}

TEST(PresetCatalogTest, CommandLineNamesRoundTripEveryPreset) {
  const std::pair<const char*, Preset> names[] = {
      {"nlanr-uc", Preset::kNlanrUc}, {"nlanr-bo1", Preset::kNlanrBo1},
      {"bu95", Preset::kBu95},        {"bu98", Preset::kBu98},
      {"canet2", Preset::kCanet2},
  };
  ASSERT_EQ(std::size(names), all_presets().size());
  for (const Preset p : all_presets()) {
    std::size_t named = 0;
    for (const auto& [name, preset] : names) {
      if (preset != p) continue;
      ++named;
      EXPECT_EQ(preset_from_name(name), p) << name;
    }
    EXPECT_EQ(named, 1u) << preset_name(p);
  }
  EXPECT_EQ(preset_from_name("bogus"), std::nullopt);
  EXPECT_EQ(preset_from_name(""), std::nullopt);
  // Display names are not command-line names.
  EXPECT_EQ(preset_from_name(preset_name(Preset::kNlanrUc)), std::nullopt);
}

}  // namespace
}  // namespace baps::trace
