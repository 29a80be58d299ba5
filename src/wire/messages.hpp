// Typed payloads for every wire frame: the protocol messages of the runtime
// BAPS engine, serialized with wire/codec.hpp. Each message declares its
// FrameKind and round-trips through encode()/decode(); decode() is strict —
// truncated, oversized, or trailing-byte payloads are rejected.
//
// The §6.2 anonymity property is structural here: PeerFetch has exactly two
// fields, the addressee (the holder whose browser cache serves it) and the
// document key. There is no slot a requester identity could ride in, and the
// integration tests assert the frames a holder receives are byte-for-byte
// this minimal shape.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "wire/frame.hpp"

namespace baps::wire {

// Field ceilings enforced by decode(); anything larger is rejected before
// allocation.
inline constexpr std::uint32_t kMaxUrlLen = 64u << 10;
inline constexpr std::uint32_t kMaxBodyLen = 8u << 20;
inline constexpr std::uint32_t kMaxWatermarkLen = 4u << 10;
inline constexpr std::uint32_t kMaxErrorLen = 4u << 10;
inline constexpr std::uint32_t kMaxKeyLen = 1u << 10;

/// Document source as it crosses the wire (a local-browser hit never does).
enum class WireSource : std::uint8_t {
  kProxy = 1,
  kRemoteBrowser = 2,
  kOrigin = 3,
};
bool wire_source_valid(std::uint8_t v);

/// Opens a client host's session. It names no browser: every FetchRequest
/// and IndexUpdate carries its own browser id, so one session serves all of
/// a host's browsers (and any session may introspect).
struct Hello {
  static constexpr FrameKind kKind = FrameKind::kHello;
  /// Port of the host's peer server; 0 when the host serves no peer fetches
  /// (a dashboard or an introspection poll).
  std::uint16_t peer_port = 0;
};

struct HelloAck {
  static constexpr FrameKind kKind = FrameKind::kHelloAck;
  /// Proxy RSA public key, big-endian magnitude bytes (BigUInt::to_bytes).
  std::vector<std::uint8_t> rsa_n;
  std::vector<std::uint8_t> rsa_e;
  std::uint32_t max_clients = 0;
};

struct FetchRequest {
  static constexpr FrameKind kKind = FrameKind::kFetchRequest;
  std::uint32_t client = 0;  ///< the requesting browser, below max_clients
  std::string url;
  /// §6.1 retry: skip the browser index after a failed watermark.
  bool avoid_peers = false;
};

struct FetchResponse {
  static constexpr FrameKind kKind = FrameKind::kFetchResponse;
  WireSource source = WireSource::kOrigin;
  bool false_forward = false;
  std::string body;
  std::vector<std::uint8_t> watermark;  ///< RSA signature bytes
};

/// Written without a reply: the proxy applies it (or counts it rejected)
/// before the next frame on the same session, so ordering needs no ack.
struct IndexUpdate {
  static constexpr FrameKind kKind = FrameKind::kIndexUpdate;
  std::uint32_t sender = 0;  ///< the claimed browser; the MAC must match it
  bool is_add = false;
  std::uint64_t key = 0;
  std::array<std::uint8_t, 16> mac{};  ///< HMAC-MD5 under the sender's key
};

/// Retired: the proxy no longer answers IndexUpdate. The kind number is
/// never reused, and the codec stays while perfbench's layer replay
/// (perfbench/layers.cpp) still round-trips it.
struct IndexAck {
  static constexpr FrameKind kKind = FrameKind::kIndexAck;
  bool accepted = false;
};

struct PeerFetch {
  static constexpr FrameKind kKind = FrameKind::kPeerFetch;
  /// The addressee: which of the host's browsers serves the key. The whole
  /// message is holder + key — no requester identity (§6.2).
  std::uint32_t holder = 0;
  std::uint64_t key = 0;
};

struct PeerDeliver {
  static constexpr FrameKind kKind = FrameKind::kPeerDeliver;
  bool found = false;
  std::string body;
  std::vector<std::uint8_t> watermark;
};

struct ErrorMsg {
  static constexpr FrameKind kKind = FrameKind::kError;
  std::string message;
};

/// Introspection sections, one bit each. Each names the member of the
/// baps.introspect.v1 reply that carries it.
inline constexpr std::uint32_t kIntrospectProxy = 1u << 0;
inline constexpr std::uint32_t kIntrospectRegistry = 1u << 1;
inline constexpr std::uint32_t kIntrospectSpans = 1u << 2;
inline constexpr std::uint32_t kIntrospectTimeSeries = 1u << 3;
inline constexpr std::uint32_t kIntrospectAll = (1u << 4) - 1;
inline constexpr std::pair<std::uint32_t, const char*> kIntrospectSections[] =
    {{kIntrospectProxy, "proxy"},
     {kIntrospectRegistry, "registry"},
     {kIntrospectSpans, "spans"},
     {kIntrospectTimeSeries, "timeseries"}};
inline constexpr const char* kIntrospectSchema = "baps.introspect.v1";

/// The one live-introspection request, valid on any session: the proxy
/// answers without interrupting service. decode() rejects a section bit
/// outside kIntrospectAll.
struct IntrospectRequest {
  static constexpr FrameKind kKind = FrameKind::kIntrospectRequest;
  std::uint32_t sections = 0;
  /// spans: most recent spans to include; 0 = none, just the totals.
  std::uint32_t max_spans = 0;
  /// timeseries: most recent intervals; 0 = the sampler's whole ring.
  std::uint32_t max_intervals = 0;
};

/// One baps.introspect.v1 JSON document holding exactly the requested
/// sections: `proxy` (the five ProxyStats counters), `registry` (snapshot
/// with latency quantiles), `spans` (tracer totals, recent spans, slow
/// traces) and `timeseries` (the baps.timeseries_window.v1 sampler window).
/// JSON so sections can grow fields without a wire rev.
struct IntrospectResponse {
  static constexpr FrameKind kKind = FrameKind::kIntrospectResponse;
  std::string json;
};

struct Bye {
  static constexpr FrameKind kKind = FrameKind::kBye;
};

std::string encode(const Hello& m);
std::string encode(const HelloAck& m);
std::string encode(const FetchRequest& m);
std::string encode(const FetchResponse& m);
std::string encode(const IndexUpdate& m);
std::string encode(const IndexAck& m);
std::string encode(const PeerFetch& m);
std::string encode(const PeerDeliver& m);
std::string encode(const ErrorMsg& m);
std::string encode(const Bye& m);
std::string encode(const IntrospectRequest& m);
std::string encode(const IntrospectResponse& m);

bool decode(std::string_view payload, Hello* out);
bool decode(std::string_view payload, HelloAck* out);
bool decode(std::string_view payload, FetchRequest* out);
bool decode(std::string_view payload, FetchResponse* out);
bool decode(std::string_view payload, IndexUpdate* out);
bool decode(std::string_view payload, IndexAck* out);
bool decode(std::string_view payload, PeerFetch* out);
bool decode(std::string_view payload, PeerDeliver* out);
bool decode(std::string_view payload, ErrorMsg* out);
bool decode(std::string_view payload, Bye* out);
bool decode(std::string_view payload, IntrospectRequest* out);
bool decode(std::string_view payload, IntrospectResponse* out);

}  // namespace baps::wire
