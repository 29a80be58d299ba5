// Two client hosts share one proxy over TCP and are driven concurrently, one
// thread each, with no lock in the caller: every serve of a peer fetch runs on
// the holder host's peer-server thread and is serialised with that host's
// browse() by BapsSystem's own host lock. The browser caches are small, so
// evictions send index removes while the other host's requests are routed to
// the evicting browsers. Every outcome must verify, both hosts must serve
// peer fetches, and the proxy's served-from counters plus the hosts' local
// hits must account for every browse exactly. CI runs this under TSan.
//
// The workload runs in phases. In each phase a host asks for the documents
// the other host fetched in the previous phase (peer hits, as the proxy cache
// is tiny) and, in between, reads its own previous-phase documents again
// (local hits). So one host's browsing thread touches the browser cache its
// peer-server thread is serving from at the same moment; local hits cross no
// wire and take no lock outside BapsSystem, so only the host lock orders the
// two. Then it fetches new documents. A barrier between phases only keeps
// the previous phase's documents in the other host's browser cache; within a
// phase both hosts browse at once. No tracer is attached: its mutex would
// order the two threads and hide a missing host lock from TSan.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/proxy_server.hpp"
#include "runtime/system.hpp"
#include "runtime/tcp_transport.hpp"

namespace baps::runtime {
namespace {

constexpr std::uint64_t kSeed = 13;
constexpr std::uint32_t kHosts = 2;
constexpr std::uint32_t kBrowsersPerHost = 2;
constexpr std::uint32_t kClients = kHosts * kBrowsersPerHost;
constexpr int kPhases = 40;
constexpr int kDocsPerPhase = 2;
constexpr int kRereads = 4;

Url doc_url(std::uint32_t host, int phase, int j) {
  return "http://host" + std::to_string(host) + ".test/p" +
         std::to_string(phase) + "/" + std::to_string(j);
}

/// Forwards to the host's TcpTransport and counts the peer fetches the host
/// answers, with relaxed atomics only: the test adds no synchronisation of
/// its own between a host's serves and its browses.
class CountingTransport final : public Transport, private PeerHost {
 public:
  explicit CountingTransport(TcpTransport& wire) : wire_(wire) {}

  void bind_peer_host(PeerHost* host) override {
    host_ = host;
    wire_.bind_peer_host(this);
  }
  ProxyCore::Reply fetch(ClientId client, const Url& url, bool avoid_peers,
                         const obs::TraceContext& trace) override {
    return wire_.fetch(client, url, avoid_peers, trace);
  }
  bool index_update(ClientId claimed_sender, bool is_add, DocStore::Key key,
                    const crypto::Md5Digest& mac) override {
    return wire_.index_update(claimed_sender, is_add, key, mac);
  }
  crypto::RsaPublicKey proxy_public_key() override {
    return wire_.proxy_public_key();
  }
  ProxyStats stats() override { return wire_.stats(); }

  std::atomic<std::uint64_t> delivered{0};  ///< serves that found the key
  std::atomic<std::uint64_t> missed{0};     ///< serves that did not

 private:
  std::uint32_t num_clients() const override { return host_->num_clients(); }
  std::optional<Document> serve_peer_fetch(ClientId holder,
                                           DocStore::Key key) override {
    std::optional<Document> doc = host_->serve_peer_fetch(holder, key);
    (doc.has_value() ? delivered : missed)
        .fetch_add(1, std::memory_order_relaxed);
    return doc;
  }

  TcpTransport& wire_;
  PeerHost* host_ = nullptr;
};

/// One client host: its TcpTransport, the counting seam and the BapsSystem
/// on top. Every host knows all kClients browser ids (the proxy's MAC keys
/// and id range are shared) but drives only its own kBrowsersPerHost of
/// them, so only those Hello the proxy with this host's peer port.
struct Host {
  explicit Host(std::uint16_t proxy_port)
      : wire(wire_params(proxy_port)), counting(wire) {
    BapsSystem::Params params;
    params.num_clients = kClients;
    params.proxy_cache_bytes = 2 << 10;
    // Always holds a browser's last two phases of documents (bodies are at
    // most 2175 B) and fills up a few phases later, so evictions run
    // throughout.
    params.browser_cache_bytes = 10 << 10;
    params.seed = kSeed;
    system = std::make_unique<BapsSystem>(params, counting);
  }

  static TcpTransport::Params wire_params(std::uint16_t proxy_port) {
    TcpTransport::Params tp;
    tp.proxy_port = proxy_port;
    return tp;
  }

  TcpTransport wire;
  CountingTransport counting;
  std::unique_ptr<BapsSystem> system;  // destroyed before its transports
};

TEST(TwoHostTcpTest, ConcurrentHostsServeEachOthersPeerFetches) {
  ProxyServer::Params sp;
  sp.core.num_clients = kClients;
  sp.core.proxy_cache_bytes = 2 << 10;  // about one document
  sp.core.seed = kSeed;
  sp.peer_connect_ms = 1000;
  sp.peer_reply_ms = 5000;
  ProxyServer server(sp);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  std::vector<std::unique_ptr<Host>> hosts;
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    hosts.push_back(std::make_unique<Host>(server.port()));
  }

  std::array<std::atomic<int>, kHosts> browses{};
  std::array<std::atomic<int>, kHosts> unverified{};
  std::array<std::atomic<int>, kHosts> failed{};
  std::barrier phase_end(kHosts);
  std::vector<std::thread> threads;
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    threads.emplace_back([&, h] {
      BapsSystem& sys = *hosts[h]->system;
      const ClientId own = h * kBrowsersPerHost;  // fetches new documents
      const ClientId asker = own + 1;  // asks for the other host's documents
      const std::uint32_t other = (h + 1) % kHosts;
      const auto browse = [&](ClientId client, const Url& url) {
        browses[h].fetch_add(1);
        if (!sys.browse(client, url).verified) unverified[h].fetch_add(1);
      };
      for (int phase = 0; phase < kPhases; ++phase) {
        try {
          for (int j = 0; phase > 0 && j < kDocsPerPhase; ++j) {
            browse(asker, doc_url(other, phase - 1, j));
            for (int r = 0; r < kRereads; ++r) {
              browse(own, doc_url(h, phase - 1, j));
            }
          }
          for (int j = 0; j < kDocsPerPhase; ++j) {
            browse(own, doc_url(h, phase, j));
          }
        } catch (const std::exception&) {
          failed[h].fetch_add(1);
        }
        phase_end.arrive_and_wait();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::uint64_t local_hits = 0;
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    EXPECT_EQ(failed[h].load(), 0) << "host " << h << " threw";
    EXPECT_EQ(unverified[h].load(), 0) << "host " << h;
    local_hits += hosts[h]->system->local_hits();
    // Small browser caches really evicted: removes went out mid-run.
    EXPECT_GT(hosts[h]->system->messages().count(MsgKind::kIndexRemove), 0u)
        << "host " << h;
  }

  const ProxyStats stats = hosts[0]->wire.stats();
  std::uint64_t total_browses = 0;
  for (const std::atomic<int>& n : browses) {
    total_browses += static_cast<std::uint64_t>(n.load());
  }
  EXPECT_EQ(local_hits + stats.proxy_hits + stats.peer_hits +
                stats.origin_fetches,
            total_browses);
  EXPECT_GT(stats.peer_hits, 0u);

  // Both hosts served, and every peer fetch the proxy sent was answered by
  // exactly one serve: a delivery (peer hit) or a miss (false forward).
  std::uint64_t delivered = 0;
  std::uint64_t missed = 0;
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    const std::uint64_t n = hosts[h]->counting.delivered.load();
    EXPECT_GT(n, 0u) << "host " << h << " served no peer hit";
    delivered += n;
    missed += hosts[h]->counting.missed.load();
  }
  EXPECT_EQ(delivered, stats.peer_hits);
  EXPECT_EQ(missed, stats.false_forwards);

  hosts.clear();
  server.stop();
}

}  // namespace
}  // namespace baps::runtime
