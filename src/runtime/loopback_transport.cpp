#include "runtime/loopback_transport.hpp"

#include <utility>

#include "util/assert.hpp"

namespace baps::runtime {

void LoopbackTransport::bind_peer_host(PeerHost* host) {
  BAPS_REQUIRE(host != nullptr, "loopback needs a peer host");
  BAPS_REQUIRE(host->num_clients() == core_.num_clients(),
               "peer host and proxy disagree on client count");
  host_ = host;
}

ProxyCore::Reply LoopbackTransport::fetch(ClientId client, const Url& url,
                                          bool avoid_peers,
                                          const obs::TraceContext& trace) {
  ProxyCore::Step step = core_.begin_fetch(client, url, avoid_peers, trace);
  if (auto* reply = std::get_if<ProxyCore::Reply>(&step)) {
    return std::move(*reply);
  }
  auto& need = std::get<ProxyCore::NeedPeer>(step);
  // The trace context stops here: the in-process serve is already inside
  // the core's peer_transfer span, so there is nothing downstream to stitch.
  std::optional<Document> delivered =
      host_ != nullptr ? host_->serve_peer_fetch(need.holder, need.key)
                       : std::nullopt;
  return core_.finish_fetch(std::move(need), std::move(delivered));
}

}  // namespace baps::runtime
