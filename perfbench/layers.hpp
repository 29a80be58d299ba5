// Per-layer numbers for the traced run: joins the client's and the proxy's
// spans with the benchmark's own round-trip records, takes registry deltas
// across the traced rounds, and replays the layers that have no span
// (watermark sign/verify, HMAC, wire codec, origin bodies) on inputs recorded
// in the run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "crypto/rsa.hpp"
#include "host_transport.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "runtime/origin.hpp"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Nearest-rank quantile (q in [0,1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);

/// One browse() of a traced round, as the driver timed it.
struct BrowseRec {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  BrowseWire wire;
  FetchOutcome::Source source = FetchOutcome::Source::kOrigin;
};

/// Counter and histogram movement summed over several windows. Counters are
/// kept both per instance ("name{k=v}") and summed over labels ("name").
class RegistryDelta {
 public:
  void add(const baps::obs::Snapshot& before,
           const baps::obs::Snapshot& after);
  double counter(const std::string& key) const;
  /// Mean of the observations that landed in a histogram instance.
  double hist_mean(const std::string& key) const;

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, std::pair<double, double>> hists_;  ///< count, sum
};

struct LayerInputs {
  std::vector<baps::obs::SpanRecord> client_spans;
  std::vector<baps::obs::SpanRecord> proxy_spans;
  std::vector<BrowseRec> browses;
  std::vector<const Recorder*> recorders;  ///< one per client host
  RegistryDelta delta;
  baps::crypto::RsaKeyPair keys;  ///< the proxy's own key pair
  std::vector<std::string> mac_keys;
  baps::runtime::OriginServer* origin = nullptr;
};

/// Every runtime per-layer metric. A replay whose output differs from what
/// the run produced clears *ok and describes the mismatch in *error.
MetricMap layer_metrics(const LayerInputs& in, bool* ok, std::string* error);

}  // namespace perfbench
