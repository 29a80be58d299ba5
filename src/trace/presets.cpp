#include "trace/presets.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace baps::trace {
namespace {

constexpr std::uint64_t kPresetSeedBase = 0xBA9500;

std::uint64_t preset_seed(Preset p) {
  return kPresetSeedBase + static_cast<std::uint64_t>(p);
}

}  // namespace

std::vector<Preset> all_presets() {
  return {Preset::kNlanrUc, Preset::kNlanrBo1, Preset::kBu95, Preset::kBu98,
          Preset::kCanet2};
}

std::string preset_name(Preset p) {
  switch (p) {
    case Preset::kNlanrUc: return "NLANR-uc";
    case Preset::kNlanrBo1: return "NLANR-bo1";
    case Preset::kBu95: return "BU-95";
    case Preset::kBu98: return "BU-98";
    case Preset::kCanet2: return "CA*netII";
  }
  BAPS_REQUIRE(false, "unknown preset");
  return {};
}

std::optional<Preset> preset_from_name(std::string_view name) {
  if (name == "nlanr-uc") return Preset::kNlanrUc;
  if (name == "nlanr-bo1") return Preset::kNlanrBo1;
  if (name == "bu95") return Preset::kBu95;
  if (name == "bu98") return Preset::kBu98;
  if (name == "canet2") return Preset::kCanet2;
  return std::nullopt;
}

GeneratorParams preset_params(Preset p) {
  GeneratorParams g;
  switch (p) {
    case Preset::kNlanrUc:
      // Large client population behind a busy proxy; modest per-client
      // locality, substantial cross-client sharing.
      g.num_requests = 300'000;
      g.num_clients = 200;
      g.shared_docs = 150'000;
      g.private_docs_per_client = 1'100;
      g.shared_alpha = 0.78;
      g.shared_prob = 0.62;
      g.temporal_prob = 0.22;
      g.client_rate_alpha = 0.55;
      break;
    case Preset::kNlanrBo1:
      g.num_requests = 250'000;
      g.num_clients = 150;
      g.shared_docs = 105'000;
      g.private_docs_per_client = 1'300;
      g.shared_alpha = 0.80;
      g.shared_prob = 0.60;
      g.temporal_prob = 0.26;
      g.client_rate_alpha = 0.50;
      break;
    case Preset::kBu95:
      // 1995 campus population: few machines, strong locality → the highest
      // max hit ratios in Table 1.
      g.num_requests = 150'000;
      g.num_clients = 37;
      g.shared_docs = 50'000;
      g.private_docs_per_client = 2'200;
      g.shared_alpha = 0.85;
      g.shared_prob = 0.68;
      g.temporal_prob = 0.30;
      g.client_rate_alpha = 0.45;
      // 1995-era web: smaller documents and a thinner tail.
      g.size_model.lognormal_mu = 8.0;
      g.size_model.pareto_min = 32 * 1024;
      g.size_model.max_size = 64ULL << 20;
      break;
    case Preset::kBu98:
      // 1998: access variation up, locality down (Barford et al. 1999) —
      // larger universe, weaker skew, more private browsing.
      g.num_requests = 200'000;
      g.num_clients = 45;
      g.shared_docs = 100'000;
      g.private_docs_per_client = 2'900;
      g.shared_alpha = 0.72;
      g.shared_prob = 0.55;
      g.temporal_prob = 0.24;
      g.client_rate_alpha = 0.45;
      break;
    case Preset::kCanet2:
      // Parent cache with just 3 (child-proxy) clients: the accumulated
      // browser space is tiny relative to the proxy — the paper's limit case.
      g.num_requests = 80'000;
      g.num_clients = 3;
      g.shared_docs = 42'000;
      g.private_docs_per_client = 8'000;
      g.shared_alpha = 0.74;
      g.shared_prob = 0.58;
      g.temporal_prob = 0.24;
      g.client_rate_alpha = 0.30;
      break;
  }
  return g;
}

Trace load_preset(Preset p) {
  return generate_trace(preset_name(p), preset_params(p), preset_seed(p));
}

Trace load_preset_scaled(Preset p, double factor) {
  BAPS_REQUIRE(factor > 0.0 && factor <= 1.0, "scale factor must be in (0,1]");
  GeneratorParams g = preset_params(p);
  const auto scale64 = [factor](std::uint64_t v) {
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(v) * factor));
  };
  g.num_requests = scale64(g.num_requests);
  g.shared_docs = scale64(g.shared_docs);
  g.private_docs_per_client = scale64(g.private_docs_per_client);
  return generate_trace(preset_name(p), g, preset_seed(p));
}

}  // namespace baps::trace
