// Named workload presets standing in for the paper's five traces (Table 1).
//
// Volumes are scaled to laptop-size runs; the *shape* knobs (client counts,
// popularity skew, sharing degree, temporal locality, 1995-vs-1998 locality
// decay, the 3-client CA*netII limit case) follow the published trace
// characteristics. bench_table1 regenerates Table 1 from these presets.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/generator.hpp"

namespace baps::trace {

enum class Preset {
  kNlanrUc,    ///< NLANR "uc" proxy, 2000-07-14: many clients, modest locality
  kNlanrBo1,   ///< NLANR "bo1" proxy, 2000-08-29
  kBu95,       ///< Boston University 1995: strong locality, few clients
  kBu98,       ///< Boston University 1998: weaker locality (access variation up)
  kCanet2,     ///< CA*netII parent cache: only 3 clients — the limit case
};

/// All presets in Table 1 order.
std::vector<Preset> all_presets();

/// Display name, as Table 1 prints it ("NLANR-uc", "BU-95", ...).
std::string preset_name(Preset p);

/// The preset a command line names: "nlanr-uc", "nlanr-bo1", "bu95", "bu98"
/// or "canet2". nullopt for any other name.
std::optional<Preset> preset_from_name(std::string_view name);

/// Generator parameters for a preset.
GeneratorParams preset_params(Preset p);

/// Generates the preset's trace (deterministic: the preset fixes the seed).
Trace load_preset(Preset p);

/// Scales request count and universe by `factor` (for quick tests: 0.1
/// produces a 10x smaller but same-shaped trace).
Trace load_preset_scaled(Preset p, double factor);

}  // namespace baps::trace
