// A client host spoken frame by frame: a FrameChannel session to a live
// ProxyServer that sends Hello with any peer port, MAC'd index adds and
// fetches. The peer-path tests use it to point the proxy's index at a
// holder host of their own making (a scripted peer server, a black hole)
// without a BapsSystem behind it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "netio/frame_channel.hpp"
#include "runtime/types.hpp"
#include "runtime/wire_bridge.hpp"
#include "wire/messages.hpp"

namespace baps::runtime::testing {

class RawHost {
 public:
  /// Dials the proxy and says Hello, advertising `peer_port`. `seed` and
  /// `num_clients` must match the proxy's, so the MAC keys agree.
  RawHost(std::uint16_t proxy_port, std::uint16_t peer_port,
          std::uint64_t seed, std::uint32_t num_clients)
      : mac_keys_(derive_client_mac_keys(seed, num_clients)) {
    netio::NetError err;
    auto conn =
        netio::TcpConnection::connect("127.0.0.1", proxy_port, 2000, &err);
    if (!conn.has_value()) return;
    channel_.emplace(std::move(*conn), netio::Deadlines{2000, 5000, 5000});
    wire::Hello hello;
    hello.peer_port = peer_port;
    if (!channel_->send_msg(hello, &err) ||
        !channel_->recv_msg<wire::HelloAck>(&err).has_value()) {
      channel_.reset();
    }
  }

  bool ok() const { return channel_.has_value(); }

  /// Tells the proxy `holder` caches `url`, and waits until it has applied
  /// the update: the introspection reply on the same session comes after.
  bool announce(ClientId holder, const Url& url) {
    if (!ok()) return false;
    wire::IndexUpdate update;
    update.sender = holder;
    update.is_add = true;
    update.key = url_key(url);
    update.mac = mac_to_wire(
        index_update_mac(mac_keys_[holder], holder, true, update.key));
    wire::IntrospectRequest fence;
    fence.sections = wire::kIntrospectProxy;
    netio::NetError err;
    return channel_->send_msg(update, &err) &&
           channel_->send_msg(fence, &err) &&
           channel_->recv_msg<wire::IntrospectResponse>(&err).has_value();
  }

  /// Writes a FetchRequest without reading the reply.
  bool send_fetch(ClientId client, const Url& url) {
    if (!ok()) return false;
    wire::FetchRequest request;
    request.client = client;
    request.url = url;
    netio::NetError err;
    return channel_->send_msg(request, &err);
  }

  std::optional<wire::FetchResponse> recv_fetch() {
    if (!ok()) return std::nullopt;
    netio::NetError err;
    return channel_->recv_msg<wire::FetchResponse>(&err);
  }

  std::optional<wire::FetchResponse> fetch(ClientId client, const Url& url) {
    if (!send_fetch(client, url)) return std::nullopt;
    return recv_fetch();
  }

 private:
  std::vector<std::string> mac_keys_;
  std::optional<netio::FrameChannel> channel_;
};

}  // namespace baps::runtime::testing
