#include "netio/channel_pool.hpp"

#include "obs/registry.hpp"

namespace baps::netio {

namespace {

struct PoolCounters {
  obs::Counter& reuse;
  obs::Counter& dial;

  static PoolCounters& get() {
    auto& reg = obs::Registry::global();
    static PoolCounters c{
        reg.counter("netio_pool_reuse_total"),
        reg.counter("netio_pool_dial_total"),
    };
    return c;
  }
};

}  // namespace

ChannelPool::Acquired ChannelPool::acquire(const std::string& host,
                                           std::uint16_t port, NetError* err) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = idle_.find(key_of(host, port));
    if (it != idle_.end()) {
      auto channel = std::move(it->second);
      idle_.erase(it);
      PoolCounters::get().reuse.inc();
      return Acquired{std::move(channel), /*reused=*/true};
    }
  }
  auto conn = TcpConnection::connect(host, port,
                                     params_.deadlines.connect_ms, err);
  if (!conn.has_value()) return Acquired{};
  PoolCounters::get().dial.inc();
  return Acquired{std::make_unique<FrameChannel>(std::move(*conn),
                                                 params_.deadlines,
                                                 params_.max_frame_payload),
                  /*reused=*/false};
}

void ChannelPool::release(const std::string& host, std::uint16_t port,
                          std::unique_ptr<FrameChannel> channel) {
  if (channel == nullptr || !channel->valid()) return;
  std::lock_guard<std::mutex> lock(mu_);
  idle_[key_of(host, port)] = std::move(channel);
}

void ChannelPool::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  idle_.clear();
}

std::size_t ChannelPool::idle_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return idle_.size();
}

}  // namespace baps::netio
