// Deterministic, seeded fault injection for the runtime protocol engine.
//
// The paper's title promises *reliable* sharing and §5 analyzes the failure
// modes of browser peers — dynamic joins and departures, silently evicted
// documents, the stale-index lookups that result. A FaultPlan makes every
// one of those shapes reproducible: per-kind rates drive injection decisions
// drawn from seeded per-kind streams, so the n-th decision for a kind is a
// pure function of (seed, kind, n) and never shifts when other kinds fire in
// between. Same seed + same rates ⇒ identical fault schedule, run after run.
//
// Accounting contract (the graceful-degradation proof): every injection
// bumps `fault_injected_total{kind}`; when the request that absorbed the
// fault completes correctly anyway (served from a different source), the
// pending injections are promoted to `fault_recovered_total{kind}`. A
// faulted run is healthy iff recovered == injected for every recoverable
// kind. Departures and joins are churn events, not per-request faults; their
// visible effect — false forwards against stale entries — is counted by the
// proxy as `stale_index_hits_total`.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace baps::fault {

enum class FaultKind : std::uint8_t {
  kPeerDisconnect = 0,  ///< holder vanishes mid-transfer (no delivery)
  kPeerDepart,          ///< browser leaves; its index entries go stale
  kPeerJoin,            ///< a departed browser comes back (cold cache)
  kSlowPeer,            ///< holder delays its delivery
  kDropFrame,           ///< a transport frame is lost in flight
  kCorruptFrame,        ///< a transport frame is corrupted in flight
  kProxyRestart,        ///< proxy loses cache + index, rebuilds the index
};
inline constexpr std::size_t kNumFaultKinds = 7;

const char* fault_kind_name(FaultKind kind);

/// Eagerly materializes fault_injected_total{kind} and
/// fault_recovered_total{kind} for every kind (plus the proxy's
/// stale_index_hits_total) in the global registry, zero-valued, so
/// first-interval time-series deltas and fault-free reports still carry the
/// full labeled families.
void register_fault_metric_families();

/// Recoverable kinds must leave the affected request served correctly from
/// another source; depart/join are membership events whose staleness effects
/// are accounted separately.
bool fault_kind_recoverable(FaultKind kind);

/// Per-kind injection probabilities plus the slow-peer shape. Parsed from
/// the compact CLI spec `disconnect=0.1,depart=0.01,join=0.5,slow=0.1,`
/// `drop=0.05,corrupt=0.02,restart=0.001` with optional tuning keys
/// `slow_ms=`, `slow_budget_ms=`, `polite=0|1`.
struct FaultRates {
  std::array<double, kNumFaultKinds> rate{};  ///< probability per decision

  /// Delay a slow peer injects before serving (real sleep over TCP).
  int slow_peer_delay_ms = 50;
  /// Loopback emulation of the proxy's peer read deadline: a slow-peer delay
  /// above this budget counts as an undelivered fetch. 0 tolerates any delay.
  int slow_peer_budget_ms = 0;
  /// Departing peers send index removes first (clean shutdown) instead of
  /// leaving stale entries behind (crash).
  bool polite_departures = false;

  double& of(FaultKind kind) { return rate[static_cast<std::size_t>(kind)]; }
  double of(FaultKind kind) const {
    return rate[static_cast<std::size_t>(kind)];
  }

  static std::optional<FaultRates> parse(std::string_view spec,
                                         std::string* error);
};

class FaultPlan {
 public:
  FaultPlan(std::uint64_t seed, const FaultRates& rates);

  std::uint64_t seed() const { return seed_; }
  const FaultRates& rates() const { return rates_; }

  /// Decides whether the next decision point for `kind` fires, WITHOUT
  /// recording an injection — for kinds whose effect may turn out to be a
  /// no-op (e.g. a departure with no eligible peer). Pair with
  /// note_injected() once the fault actually lands.
  bool decide(FaultKind kind);
  /// Records one landed injection (bumps `fault_injected_total{kind}` and
  /// the per-request pending set for recoverable kinds).
  void note_injected(FaultKind kind);
  /// decide() + note_injected() for kinds that always take effect.
  bool should_inject(FaultKind kind);

  /// Uniform draw in [0, n) from `kind`'s private selection stream (victim
  /// choice); n must be nonzero. Same determinism guarantee as decide().
  std::uint32_t pick(FaultKind kind, std::uint32_t n);

  // Per-request recovery window, driven by the client engine: begin_request
  // clears the pending set; end_request_ok promotes everything pending to
  // recovered — the request completed correctly despite the faults.
  void begin_request();
  void end_request_ok();

  std::uint64_t injected(FaultKind kind) const;
  std::uint64_t recovered(FaultKind kind) const;
  std::uint64_t injected_total() const;
  std::uint64_t recovered_total() const;
  /// True iff every recoverable kind has recovered == injected.
  bool fully_recovered() const;

 private:
  std::uint64_t decision_word(FaultKind kind, std::uint64_t n) const;

  const std::uint64_t seed_;
  const FaultRates rates_;

  // A TCP transport injects from its host's one peer-server loop thread,
  // inside the (synchronous) browse window; the plan is its own lock domain.
  mutable std::mutex mu_;
  std::array<std::uint64_t, kNumFaultKinds> decisions_{};  ///< stream cursors
  std::array<std::uint64_t, kNumFaultKinds> picks_{};
  std::array<std::uint64_t, kNumFaultKinds> injected_{};
  std::array<std::uint64_t, kNumFaultKinds> recovered_{};
  std::array<std::uint64_t, kNumFaultKinds> pending_{};
};

}  // namespace baps::fault
