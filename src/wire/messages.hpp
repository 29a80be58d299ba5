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

/// Client id a stats/inspection connection identifies with: the proxy
/// answers Hello but registers nothing.
inline constexpr std::uint32_t kObserverClientId = 0xFFFFFFFFu;

/// Document source as it crosses the wire (a local-browser hit never does).
enum class WireSource : std::uint8_t {
  kProxy = 1,
  kRemoteBrowser = 2,
  kOrigin = 3,
};
bool wire_source_valid(std::uint8_t v);

struct Hello {
  static constexpr FrameKind kKind = FrameKind::kHello;
  std::uint32_t client_id = 0;
  /// Port of the client's peer-serving listener; 0 when the client does not
  /// serve peer fetches (or is an observer).
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

struct IndexUpdate {
  static constexpr FrameKind kKind = FrameKind::kIndexUpdate;
  bool is_add = false;
  std::uint64_t key = 0;
  std::array<std::uint8_t, 16> mac{};  ///< HMAC-MD5 under the sender's key
};

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

struct StatsRequest {
  static constexpr FrameKind kKind = FrameKind::kStatsRequest;
};

struct StatsResponse {
  static constexpr FrameKind kKind = FrameKind::kStatsResponse;
  std::uint64_t proxy_hits = 0;
  std::uint64_t peer_hits = 0;
  std::uint64_t origin_fetches = 0;
  std::uint64_t false_forwards = 0;
  std::uint64_t rejected_index_updates = 0;
};

struct ErrorMsg {
  static constexpr FrameKind kKind = FrameKind::kError;
  std::string message;
};

/// Live-introspection request: the proxy answers with a registry snapshot
/// (current counters/gauges/histograms) and up to `max_spans` most recent
/// spans, without interrupting service. Live rates are TimeSeriesRequest's.
struct TraceStatsRequest {
  static constexpr FrameKind kKind = FrameKind::kTraceStatsRequest;
  /// 0 = no spans, just the metrics snapshot.
  std::uint32_t max_spans = 0;
};

/// Introspection payload: one JSON document (schema baps.trace_stats.v1,
/// the proxy's registry snapshot plus its tracer's spans). JSON rather than
/// a fixed struct so the snapshot can grow fields without a wire rev.
struct TraceStatsResponse {
  static constexpr FrameKind kKind = FrameKind::kTraceStatsResponse;
  std::string json;
};

/// Live time-series request: the proxy answers with the most recent interval
/// records from its TimeSeriesSampler ring — per-interval counter rates,
/// gauge levels, and windowed histogram quantiles — without interrupting
/// service. `baps_top` polls this frame.
struct TimeSeriesRequest {
  static constexpr FrameKind kKind = FrameKind::kTimeSeriesRequest;
  /// 0 = everything in the ring.
  std::uint32_t max_intervals = 0;
};

/// Time-series payload: one JSON document (schema baps.timeseries_window.v1,
/// an envelope of baps.timeseries.v1 interval records). JSON rather than a
/// fixed struct so records can grow fields without a wire rev — the same
/// choice TraceStatsResponse made.
struct TimeSeriesResponse {
  static constexpr FrameKind kKind = FrameKind::kTimeSeriesResponse;
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
std::string encode(const StatsRequest& m);
std::string encode(const StatsResponse& m);
std::string encode(const ErrorMsg& m);
std::string encode(const Bye& m);
std::string encode(const TraceStatsRequest& m);
std::string encode(const TraceStatsResponse& m);
std::string encode(const TimeSeriesRequest& m);
std::string encode(const TimeSeriesResponse& m);

bool decode(std::string_view payload, Hello* out);
bool decode(std::string_view payload, HelloAck* out);
bool decode(std::string_view payload, FetchRequest* out);
bool decode(std::string_view payload, FetchResponse* out);
bool decode(std::string_view payload, IndexUpdate* out);
bool decode(std::string_view payload, IndexAck* out);
bool decode(std::string_view payload, PeerFetch* out);
bool decode(std::string_view payload, PeerDeliver* out);
bool decode(std::string_view payload, StatsRequest* out);
bool decode(std::string_view payload, StatsResponse* out);
bool decode(std::string_view payload, ErrorMsg* out);
bool decode(std::string_view payload, Bye* out);
bool decode(std::string_view payload, TraceStatsRequest* out);
bool decode(std::string_view payload, TraceStatsResponse* out);
bool decode(std::string_view payload, TimeSeriesRequest* out);
bool decode(std::string_view payload, TimeSeriesResponse* out);

}  // namespace baps::wire
