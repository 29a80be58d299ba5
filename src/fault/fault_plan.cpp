#include "fault/fault_plan.hpp"

#include "obs/registry.hpp"
#include "util/args.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace baps::fault {

namespace {

// Per-kind stream tags: decision and pick streams of one kind never overlap
// each other or another kind's, so interleaving cannot shift a schedule.
constexpr std::uint64_t kDecisionTag = 0xFA017D0000000000ULL;
constexpr std::uint64_t kPickTag = 0xFA017C0000000000ULL;

std::uint64_t stream_word(std::uint64_t seed, std::uint64_t tag,
                          FaultKind kind, std::uint64_t n) {
  // One SplitMix64 step over the combined identity: cheap, stateless, and a
  // pure function of (seed, tag, kind, n).
  SplitMix64 mixer(seed ^ tag ^
                   (static_cast<std::uint64_t>(kind) + 1) *
                       0x9E3779B97F4A7C15ULL ^
                   n * 0xD1B54A32D192ED03ULL);
  return mixer.next();
}

double word_to_unit(std::uint64_t word) {
  return static_cast<double>(word >> 11) * 0x1.0p-53;
}

obs::Counter& fault_counter(const char* family, FaultKind kind) {
  return obs::Registry::global().counter(family,
                                         {{"kind", fault_kind_name(kind)}});
}

}  // namespace

void register_fault_metric_families() {
  for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
    fault_counter("fault_injected_total", static_cast<FaultKind>(k));
    fault_counter("fault_recovered_total", static_cast<FaultKind>(k));
  }
  // The churn-visible staleness counter the proxy bumps; registered here so
  // fault-free runs export it as an explicit zero.
  obs::Registry::global().counter("stale_index_hits_total");
}

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPeerDisconnect: return "peer_disconnect";
    case FaultKind::kPeerDepart: return "peer_depart";
    case FaultKind::kPeerJoin: return "peer_join";
    case FaultKind::kSlowPeer: return "slow_peer";
    case FaultKind::kDropFrame: return "drop_frame";
    case FaultKind::kCorruptFrame: return "corrupt_frame";
    case FaultKind::kProxyRestart: return "proxy_restart";
  }
  BAPS_REQUIRE(false, "unknown fault kind");
  return "";
}

bool fault_kind_recoverable(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPeerDisconnect:
    case FaultKind::kSlowPeer:
    case FaultKind::kDropFrame:
    case FaultKind::kCorruptFrame:
    case FaultKind::kProxyRestart:
      return true;
    case FaultKind::kPeerDepart:
    case FaultKind::kPeerJoin:
      return false;
  }
  BAPS_REQUIRE(false, "unknown fault kind");
  return false;
}

std::optional<FaultRates> FaultRates::parse(std::string_view spec,
                                            std::string* error) {
  const auto fail = [error](const std::string& what) {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  FaultRates rates;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      return fail("fault rates: '" + std::string(item) + "' is not key=value");
    }
    const std::string key(item.substr(0, eq));
    const std::string value(item.substr(eq + 1));
    double parsed = 0.0;
    if (!util::parse_number(value, &parsed)) {
      return fail("fault rates: bad value for '" + key + "': " + value);
    }
    std::optional<FaultKind> rate_key;
    if (key == "disconnect") {
      rate_key = FaultKind::kPeerDisconnect;
    } else if (key == "depart") {
      rate_key = FaultKind::kPeerDepart;
    } else if (key == "join") {
      rate_key = FaultKind::kPeerJoin;
    } else if (key == "slow") {
      rate_key = FaultKind::kSlowPeer;
    } else if (key == "drop") {
      rate_key = FaultKind::kDropFrame;
    } else if (key == "corrupt") {
      rate_key = FaultKind::kCorruptFrame;
    } else if (key == "restart") {
      rate_key = FaultKind::kProxyRestart;
    }
    if (rate_key.has_value()) {
      if (parsed < 0.0 || parsed > 1.0) {
        return fail("fault rates: '" + key + "' must be in [0,1]");
      }
      rates.of(*rate_key) = parsed;
    } else if (key == "slow_ms") {
      if (parsed < 0.0) return fail("fault rates: slow_ms must be >= 0");
      rates.slow_peer_delay_ms = static_cast<int>(parsed);
    } else if (key == "slow_budget_ms") {
      if (parsed < 0.0) {
        return fail("fault rates: slow_budget_ms must be >= 0");
      }
      rates.slow_peer_budget_ms = static_cast<int>(parsed);
    } else if (key == "polite") {
      rates.polite_departures = parsed != 0.0;
    } else {
      return fail("fault rates: unknown key '" + key + "'");
    }
  }
  return rates;
}

FaultPlan::FaultPlan(std::uint64_t seed, const FaultRates& rates)
    : seed_(seed), rates_(rates) {}

std::uint64_t FaultPlan::decision_word(FaultKind kind, std::uint64_t n) const {
  return stream_word(seed_, kDecisionTag, kind, n);
}

bool FaultPlan::decide(FaultKind kind) {
  const std::size_t k = static_cast<std::size_t>(kind);
  const double rate = rates_.rate[k];
  std::scoped_lock lock(mu_);
  const std::uint64_t n = decisions_[k]++;
  if (rate <= 0.0) return false;
  return word_to_unit(decision_word(kind, n)) < rate;
}

void FaultPlan::note_injected(FaultKind kind) {
  const std::size_t k = static_cast<std::size_t>(kind);
  {
    std::scoped_lock lock(mu_);
    ++injected_[k];
    if (fault_kind_recoverable(kind)) ++pending_[k];
  }
  fault_counter("fault_injected_total", kind).inc();
}

bool FaultPlan::should_inject(FaultKind kind) {
  if (!decide(kind)) return false;
  note_injected(kind);
  return true;
}

std::uint32_t FaultPlan::pick(FaultKind kind, std::uint32_t n) {
  BAPS_REQUIRE(n > 0, "fault pick from an empty candidate set");
  const std::size_t k = static_cast<std::size_t>(kind);
  std::scoped_lock lock(mu_);
  const std::uint64_t word = stream_word(seed_, kPickTag, kind, picks_[k]++);
  return static_cast<std::uint32_t>(word % n);
}

void FaultPlan::begin_request() {
  std::scoped_lock lock(mu_);
  pending_.fill(0);
}

void FaultPlan::end_request_ok() {
  std::array<std::uint64_t, kNumFaultKinds> promoted{};
  {
    std::scoped_lock lock(mu_);
    for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
      recovered_[k] += pending_[k];
      promoted[k] = pending_[k];
    }
    pending_.fill(0);
  }
  for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
    if (promoted[k] > 0) {
      fault_counter("fault_recovered_total", static_cast<FaultKind>(k))
          .inc(promoted[k]);
    }
  }
}

std::uint64_t FaultPlan::injected(FaultKind kind) const {
  std::scoped_lock lock(mu_);
  return injected_[static_cast<std::size_t>(kind)];
}

std::uint64_t FaultPlan::recovered(FaultKind kind) const {
  std::scoped_lock lock(mu_);
  return recovered_[static_cast<std::size_t>(kind)];
}

std::uint64_t FaultPlan::injected_total() const {
  std::scoped_lock lock(mu_);
  std::uint64_t total = 0;
  for (const std::uint64_t v : injected_) total += v;
  return total;
}

std::uint64_t FaultPlan::recovered_total() const {
  std::scoped_lock lock(mu_);
  std::uint64_t total = 0;
  for (const std::uint64_t v : recovered_) total += v;
  return total;
}

bool FaultPlan::fully_recovered() const {
  std::scoped_lock lock(mu_);
  for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
    if (!fault_kind_recoverable(static_cast<FaultKind>(k))) continue;
    if (recovered_[k] != injected_[k]) return false;
  }
  return true;
}

}  // namespace baps::fault
