// The client↔proxy exchange boundary of the runtime engine. BapsSystem's
// client side speaks only this interface; behind it sits either the
// deterministic in-process loopback (LoopbackTransport — synchronous
// dispatch into a ProxyCore, bit-for-bit the pre-transport behaviour) or
// one ordered TCP channel per client host to a proxy daemon (TcpTransport ↔
// ProxyServer), on which index updates are written without a reply.
//
// The peer direction (proxy → holder) flows the other way: the transport
// reaches back into the client host through PeerHost, which serves a
// holder's browser-cache contents. A PeerFetch names only the holder it is
// addressed to and the document key, never the requester, in both
// implementations (§6.2). Loopback calls serve_peer_fetch on the thread
// inside fetch(); TcpTransport calls it on its peer-server thread, so a
// PeerHost must serialise serves against its own use of the transport (see
// BapsSystem's host lock).
#pragma once

#include <cstdint>
#include <optional>

#include "crypto/md5.hpp"
#include "crypto/rsa.hpp"
#include "obs/trace_context.hpp"
#include "runtime/proxy_core.hpp"
#include "runtime/types.hpp"

namespace baps::fault {
class FaultPlan;
}
namespace baps::obs {
class Tracer;
}

namespace baps::runtime {

/// The client host's peer-serving surface: lets a transport deliver
/// peer-fetch requests to the browser stores it fronts.
class PeerHost {
 public:
  virtual ~PeerHost() = default;
  virtual std::uint32_t num_clients() const = 0;
  /// Serve `key` from `holder`'s browser cache (tampering clients corrupt
  /// the copy they serve). nullopt when the holder no longer has it.
  virtual std::optional<Document> serve_peer_fetch(ClientId holder,
                                                   DocStore::Key key) = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Wires the transport to the client host so proxy-initiated peer fetches
  /// can reach the browser stores. Called once before any other method.
  virtual void bind_peer_host(PeerHost* host) = 0;

  /// Client `client` asks the proxy for `url`; avoid_peers is the §6.1
  /// retry that bypasses the browser index. `trace` is the caller's span
  /// context: the loopback hands it to the core directly, the TCP transport
  /// embeds it in the request frame (sampled traces only) so the proxy's
  /// spans stitch to the client's.
  virtual ProxyCore::Reply fetch(ClientId client, const Url& url,
                                 bool avoid_peers,
                                 const obs::TraceContext& trace) = 0;

  /// Index add/remove for `claimed_sender`, authenticated by `mac`.
  /// Returns true once the update is handed over; whether the proxy
  /// accepted it shows only in stats().rejected_index_updates. Ordering
  /// contract: the proxy applies a host's updates before any later request
  /// from the same host, so one host sees exactly the loopback's index.
  /// Across hosts, an update takes effect when the proxy reads it, which
  /// may be after the call that sent it has returned.
  virtual bool index_update(ClientId claimed_sender, bool is_add,
                            DocStore::Key key,
                            const crypto::Md5Digest& mac) = 0;

  /// The proxy's watermark-verification key.
  virtual crypto::RsaPublicKey proxy_public_key() = 0;

  /// Proxy-side protocol counters.
  virtual ProxyStats stats() = 0;

  /// Attaches a fault plan so the transport can inject faults at its own
  /// seam (frame drops/corruption on the wire, delivery delays). nullptr
  /// detaches; the plan is not owned and must outlive the transport's use
  /// of it. Transports without an injectable seam ignore it.
  virtual void set_fault_plan(fault::FaultPlan* plan) { (void)plan; }

  /// Attaches a tracer for the transport's own spans (frame send/recv,
  /// peer-serve). nullptr detaches; not owned. Attach before traffic flows.
  /// Transports with nothing of their own to trace ignore it.
  virtual void set_tracer(obs::Tracer* tracer) { (void)tracer; }
};

}  // namespace baps::runtime
