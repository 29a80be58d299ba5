// A keyed pool of idle FrameChannels: the proxy's peer fetches reuse a warm
// connection per holder host instead of dialing one per fetch, which spares
// each fetch a TCP handshake and slow start. At most one channel is parked
// per host:port target: the proxy runs its peer fetches one at a time on its
// loop thread, each acquire paired with a release, so a second one would
// never be used. Channels are returned to the pool only when the full
// request/response exchange succeeded; any failure discards the channel so
// a stale half-dead socket can never serve a second request.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "netio/frame_channel.hpp"
#include "netio/socket.hpp"

namespace baps::netio {

class ChannelPool {
 public:
  struct Params {
    Deadlines deadlines;
    std::uint64_t max_frame_payload = wire::kDefaultMaxPayload;
  };

  struct Acquired {
    std::unique_ptr<FrameChannel> channel;  ///< null when the dial failed
    bool reused = false;  ///< true: pooled socket — retry-once on failure
  };

  explicit ChannelPool(Params params) : params_(params) {}

  /// Takes the channel parked for host:port, or dials a new one within the
  /// connect deadline. `reused` tells the caller whether a failure should be
  /// retried on a fresh dial (a pooled socket may have died while parked) or
  /// reported.
  Acquired acquire(const std::string& host, std::uint16_t port, NetError* err);

  /// Parks a healthy channel for reuse, closing any channel already parked
  /// for the target; an invalid channel is dropped. Never park a channel
  /// after a failed or half-finished exchange.
  void release(const std::string& host, std::uint16_t port,
               std::unique_ptr<FrameChannel> channel);

  /// Closes every idle channel (shutdown path).
  void clear();

  std::size_t idle_count() const;

 private:
  static std::string key_of(const std::string& host, std::uint16_t port) {
    return host + ":" + std::to_string(port);
  }

  Params params_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<FrameChannel>> idle_;
};

}  // namespace baps::netio
