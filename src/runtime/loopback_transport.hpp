// The deterministic in-process transport: every Transport call dispatches
// synchronously into an owned ProxyCore. It is the synchronous driver of the
// core's two-step fetch: begin_fetch(), then — when the index names a holder
// — a plain serve_peer_fetch() call back into the client host, then
// finish_fetch(). This is the pre-wire behaviour of BapsSystem, preserved
// bit-for-bit — same call order, same cache and round-robin state evolution,
// same MessageTrace interleaving.
#pragma once

#include "runtime/proxy_core.hpp"
#include "runtime/transport.hpp"

namespace baps::runtime {

class LoopbackTransport final : public Transport {
 public:
  explicit LoopbackTransport(const ProxyCore::Params& params) : core_(params) {}

  void bind_peer_host(PeerHost* host) override;

  ProxyCore::Reply fetch(ClientId client, const Url& url, bool avoid_peers,
                         const obs::TraceContext& trace) override;

  bool index_update(ClientId claimed_sender, bool is_add, DocStore::Key key,
                    const crypto::Md5Digest& mac) override {
    core_.apply_index_update(claimed_sender, is_add, key, mac);
    return true;
  }

  crypto::RsaPublicKey proxy_public_key() override {
    return core_.public_key();
  }

  ProxyStats stats() override { return core_.stats(); }

  /// In-process: the embedded core records the proxy-side stage spans; no
  /// frames exist, so client and proxy spans already share one tracer.
  void set_tracer(obs::Tracer* tracer) override { core_.set_tracer(tracer); }

  /// The embedded proxy — loopback-only observability (origin, index).
  ProxyCore& core() { return core_; }
  const ProxyCore& core() const { return core_; }

 private:
  ProxyCore core_;
  PeerHost* host_ = nullptr;  ///< not owned; null until bound
};

}  // namespace baps::runtime
