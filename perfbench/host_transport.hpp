// The Transport the benchmark puts between each client host (a BapsSystem)
// and its TcpTransport.
//
// Host lock. BapsSystem is single-threaded, but the TcpTransport's peer
// listener threads call back into it (serve_peer_fetch) when the proxy asks
// this host for a document. The driver thread holds host_mutex() for the
// whole of browse(); this class releases it exactly while a request is on the
// wire, and takes it to serve a peer fetch. With one host the lock never
// contends. With two hosts it is what makes one host's serve safe while its
// own driver is mid-browse.
//
// Recording. While a Recorder is attached (the traced run), each round trip
// is timed from the client's side, and a few of its inputs are kept for the
// layer replays: signed documents and index-update MACs.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "crypto/md5.hpp"
#include "crypto/watermark.hpp"
#include "obs/span.hpp"
#include "runtime/transport.hpp"

namespace perfbench {

using baps::runtime::ClientId;
using baps::runtime::DocStore;
using baps::runtime::FetchOutcome;

/// Samples kept per host for the layer replays.
inline constexpr std::size_t kReplaySamples = 48;

struct FetchRec {
  std::uint64_t trace_id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  FetchOutcome::Source source = FetchOutcome::Source::kOrigin;
  bool false_forward = false;
};

struct CallRec {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// A peer fetch served by this host: arrival, host lock taken, done.
struct ServeRec {
  std::uint64_t arrive_ns = 0;
  std::uint64_t locked_ns = 0;
  std::uint64_t end_ns = 0;
};

struct SignedDoc {
  std::string url;
  FetchOutcome::Source source = FetchOutcome::Source::kOrigin;
  std::string body;
  baps::crypto::Watermark mark;
};

struct IndexMsg {
  ClientId sender = 0;
  bool is_add = false;
  DocStore::Key key = 0;
  baps::crypto::Md5Digest mac;
};

/// What one host saw on the wire during the traced rounds.
struct Recorder {
  std::vector<FetchRec> fetches;
  std::vector<CallRec> index_updates;
  std::vector<SignedDoc> docs;      ///< first kReplaySamples fetch replies
  std::vector<IndexMsg> index_msgs;  ///< first kReplaySamples index updates
  std::mutex serve_mu;
  std::vector<ServeRec> serves;  ///< guarded by serve_mu
};

/// The wire share of the browse in progress (driver thread only).
struct BrowseWire {
  std::uint64_t trace_id = 0;
  std::uint64_t fetch_ns = 0;
  std::uint64_t index_ns = 0;
  std::uint32_t fetches = 0;
  std::uint32_t index_updates = 0;
};

class HostTransport final : public baps::runtime::Transport,
                            private baps::runtime::PeerHost {
 public:
  explicit HostTransport(baps::runtime::Transport& wire) : wire_(wire) {}
  HostTransport(const HostTransport&) = delete;
  HostTransport& operator=(const HostTransport&) = delete;

  /// Held by the driver around every browse() on this host.
  std::mutex& host_mutex() { return host_mu_; }

  /// Called by the driver before it takes the host lock: a peer serve that
  /// is already waiting goes first, so back-to-back local hits cannot
  /// starve it.
  void yield_to_serves() const {
    while (serves_waiting_.load() > 0) std::this_thread::yield();
  }

  /// Attach between rounds only (nullptr detaches; not owned).
  void set_recorder(Recorder* recorder) { recorder_.store(recorder); }

  void begin_browse() { browse_ = BrowseWire{}; }
  const BrowseWire& browse_wire() const { return browse_; }

  void bind_peer_host(baps::runtime::PeerHost* host) override {
    host_ = host;
    wire_.bind_peer_host(this);
  }

  baps::runtime::ProxyCore::Reply fetch(
      ClientId client, const baps::runtime::Url& url, bool avoid_peers,
      const baps::obs::TraceContext& trace) override {
    Recorder* rec = recorder_.load();
    const std::uint64_t t0 = rec != nullptr ? baps::obs::monotonic_ns() : 0;
    baps::runtime::ProxyCore::Reply reply;
    {
      const Unlocked unlocked(host_mu_);
      reply = wire_.fetch(client, url, avoid_peers, trace);
    }
    if (rec != nullptr) {
      const std::uint64_t t1 = baps::obs::monotonic_ns();
      rec->fetches.push_back(
          {trace.trace_id, t0, t1, reply.source, reply.false_forward});
      browse_.trace_id = trace.trace_id;
      browse_.fetch_ns += t1 - t0;
      ++browse_.fetches;
      if (rec->docs.size() < kReplaySamples) {
        rec->docs.push_back({url, reply.source, reply.doc.body, reply.doc.mark});
      }
    }
    return reply;
  }

  bool index_update(ClientId claimed_sender, bool is_add, DocStore::Key key,
                    const baps::crypto::Md5Digest& mac) override {
    Recorder* rec = recorder_.load();
    const std::uint64_t t0 = rec != nullptr ? baps::obs::monotonic_ns() : 0;
    bool accepted = false;
    {
      const Unlocked unlocked(host_mu_);
      accepted = wire_.index_update(claimed_sender, is_add, key, mac);
    }
    if (rec != nullptr) {
      const std::uint64_t t1 = baps::obs::monotonic_ns();
      rec->index_updates.push_back({t0, t1});
      browse_.index_ns += t1 - t0;
      ++browse_.index_updates;
      if (rec->index_msgs.size() < kReplaySamples) {
        rec->index_msgs.push_back({claimed_sender, is_add, key, mac});
      }
    }
    return accepted;
  }

  baps::crypto::RsaPublicKey proxy_public_key() override {
    return wire_.proxy_public_key();
  }
  baps::runtime::ProxyStats stats() override { return wire_.stats(); }

  /// The wire transport's tracer is fixed when it is built, before any
  /// traffic; BapsSystem::set_tracer then only toggles its root spans.
  void set_tracer(baps::obs::Tracer* tracer) override { (void)tracer; }

 private:
  /// Releases a held mutex for a scope and takes it back on exit, also when
  /// the wire call throws.
  class Unlocked {
   public:
    explicit Unlocked(std::mutex& mu) : mu_(mu) { mu_.unlock(); }
    ~Unlocked() { mu_.lock(); }
    Unlocked(const Unlocked&) = delete;
    Unlocked& operator=(const Unlocked&) = delete;

   private:
    std::mutex& mu_;
  };

  std::uint32_t num_clients() const override { return host_->num_clients(); }

  std::optional<baps::runtime::Document> serve_peer_fetch(
      ClientId holder, DocStore::Key key) override {
    Recorder* rec = recorder_.load();
    const std::uint64_t t0 = rec != nullptr ? baps::obs::monotonic_ns() : 0;
    ++serves_waiting_;
    const std::lock_guard<std::mutex> lock(host_mu_);
    --serves_waiting_;
    const std::uint64_t t1 = rec != nullptr ? baps::obs::monotonic_ns() : 0;
    std::optional<baps::runtime::Document> doc =
        host_->serve_peer_fetch(holder, key);
    if (rec != nullptr) {
      const std::uint64_t t2 = baps::obs::monotonic_ns();
      const std::lock_guard<std::mutex> serve_lock(rec->serve_mu);
      rec->serves.push_back({t0, t1, t2});
    }
    return doc;
  }

  baps::runtime::Transport& wire_;
  baps::runtime::PeerHost* host_ = nullptr;
  std::mutex host_mu_;
  std::atomic<Recorder*> recorder_{nullptr};
  std::atomic<int> serves_waiting_{0};
  BrowseWire browse_;
};

}  // namespace perfbench
