// Shared vocabulary of the runtime protocol engine: URL keys and the
// message-trace records the anonymity tests audit.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/md5.hpp"
#include "obs/events.hpp"
#include "trace/record.hpp"

namespace baps::runtime {

using Url = std::string;
using trace::ClientId;

/// Documents are keyed by the first 8 bytes of the URL's MD5 signature —
/// the paper's index keys entries by a 16-byte MD5 of the URL; the 64-bit
/// prefix keeps in-memory keys compact (collision odds are negligible at
/// browser-cache scale and a collision only costs a false forward).
inline std::uint64_t url_key(const Url& url) {
  return crypto::md5(url).prefix64();
}

/// The node name a client appears under in message envelopes.
inline std::string client_name(ClientId c) {
  return "client" + std::to_string(c);
}

/// What a client-side fetch ultimately resolved to.
struct FetchOutcome {
  enum class Source { kLocalBrowser, kProxy, kRemoteBrowser, kOrigin };
  Source source = Source::kOrigin;
  bool verified = false;         ///< watermark check passed at the requester
  bool tamper_recovered = false; ///< a peer delivery failed verification and
                                 ///< the request was re-served from origin
  std::string body;
};

std::string source_name(FetchOutcome::Source source);

/// The per-client symmetric keys shared with the proxy that authenticate
/// index updates (§6 assumes such a channel; establishment is out of band).
/// Deterministic in the seed so a client daemon and a proxy daemon started
/// with the same seed agree without any key exchange on the wire.
std::vector<std::string> derive_client_mac_keys(std::uint64_t seed,
                                                std::uint32_t num_clients);

/// The MAC over one index update, computed by the client that sends it and
/// recomputed by the proxy that checks it:
/// HMAC-MD5(mac_key, "add:"|"remove:" + sender + ':' + url key).
crypto::Md5Digest index_update_mac(std::string_view mac_key, ClientId sender,
                                   bool is_add, std::uint64_t key);

/// Every protocol message kind that crosses the simulated wire.
enum class MsgKind {
  kClientRequest,   ///< client → proxy: "I want this URL"
  kProxyResponse,   ///< proxy → client: document (+watermark)
  kPeerFetch,       ///< proxy → holder: "send me this URL" (no requester id!)
  kPeerDeliver,     ///< holder → proxy: document
  kOriginFetch,     ///< proxy → origin server
  kOriginResponse,  ///< origin server → proxy
  kIndexAdd,        ///< client → proxy: "my cache now holds this URL"
  kIndexRemove,     ///< client → proxy: "I replaced/deleted this URL"
};

std::string msg_kind_name(MsgKind kind);

/// Envelope metadata recorded for every delivered message. The payloads are
/// typed C++ structs passed by call; this record is what an on-path observer
/// (or a curious peer) could see — which is precisely what the §6.2
/// anonymity property constrains.
struct MsgRecord {
  MsgKind kind;
  std::string from;
  std::string to;
  std::uint64_t url = 0;  ///< url_key of the subject document (0 if none)
};

/// Append-only message trace shared by all nodes. When a sink is attached,
/// every envelope is also emitted as a structured "message" event — the
/// JSONL mirror of what the in-memory log holds.
class MessageTrace {
 public:
  void record(MsgKind kind, std::string from, std::string to,
              std::uint64_t url) {
    if (sink_ != nullptr) {
      sink_->emit(obs::Event("message")
                      .with("kind", msg_kind_name(kind))
                      .with("from", from)
                      .with("to", to)
                      .with("url", url));
    }
    log_.push_back(MsgRecord{kind, std::move(from), std::move(to), url});
  }
  const std::vector<MsgRecord>& log() const { return log_; }
  std::uint64_t count(MsgKind kind) const {
    std::uint64_t n = 0;
    for (const auto& r : log_) {
      if (r.kind == kind) ++n;
    }
    return n;
  }
  void clear() { log_.clear(); }

  /// Mirrors future envelopes to `sink` (nullptr detaches). Not owned.
  void set_sink(obs::EventSink* sink) { sink_ = sink; }

 private:
  std::vector<MsgRecord> log_;
  obs::EventSink* sink_ = nullptr;
};

}  // namespace baps::runtime
