#include "sim/organization.hpp"

#include "util/assert.hpp"

namespace baps::sim {

Organization::Organization(const SimConfig& config, std::uint32_t num_clients)
    : config_(config),
      num_clients_(num_clients),
      latency_(config.latency),
      lan_(config.lan) {
  BAPS_REQUIRE(num_clients > 0, "simulation needs at least one client");
  if (config.churn_rate > 0.0) {
    churn_ = std::make_unique<fault::ChurnModel>(config.churn_seed,
                                                 config.churn_rate,
                                                 num_clients);
  }
}

void Organization::churn_step_slow(const trace::Request& r) {
  // A request from a departed client means it came back online (cold cache:
  // wiped when it left).
  if (churn_->ensure_present(r.client)) ++metrics_.churn_rejoins;
  if (const auto ev = churn_->tick(r.client)) {
    if (ev->kind == fault::ChurnModel::Event::Kind::kDepart) {
      ++metrics_.churn_departures;
      wipe_client(ev->client);
    } else {
      ++metrics_.churn_rejoins;
    }
  }
}

}  // namespace baps::sim
