#include "wire/messages.hpp"

#include "wire/codec.hpp"

namespace baps::wire {

bool wire_source_valid(std::uint8_t v) { return v >= 1 && v <= 3; }

namespace {

bool read_bool(Reader& r, bool* out) {
  std::uint8_t v = 0;
  if (!r.u8(&v) || v > 1) return false;  // anything but 0/1 is corruption
  *out = (v != 0);
  return true;
}

}  // namespace

// --- Hello ----------------------------------------------------------------

std::string encode(const Hello& m) {
  Writer w;
  w.u16(m.peer_port);
  return w.take();
}

bool decode(std::string_view payload, Hello* out) {
  Reader r(payload);
  return r.u16(&out->peer_port) && r.at_end();
}

// --- HelloAck -------------------------------------------------------------

std::string encode(const HelloAck& m) {
  Writer w;
  w.bytes(m.rsa_n);
  w.bytes(m.rsa_e);
  w.u32(m.max_clients);
  return w.take();
}

bool decode(std::string_view payload, HelloAck* out) {
  Reader r(payload);
  return r.bytes(&out->rsa_n, kMaxKeyLen) && r.bytes(&out->rsa_e, kMaxKeyLen) &&
         r.u32(&out->max_clients) && r.at_end();
}

// --- FetchRequest ---------------------------------------------------------

std::string encode(const FetchRequest& m) {
  Writer w;
  w.u32(m.client);
  w.str(m.url);
  w.u8(m.avoid_peers ? 1 : 0);
  return w.take();
}

bool decode(std::string_view payload, FetchRequest* out) {
  Reader r(payload);
  return r.u32(&out->client) && r.str(&out->url, kMaxUrlLen) &&
         read_bool(r, &out->avoid_peers) && r.at_end();
}

// --- FetchResponse --------------------------------------------------------

std::string encode(const FetchResponse& m) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(m.source));
  w.u8(m.false_forward ? 1 : 0);
  w.str(m.body);
  w.bytes(m.watermark);
  return w.take();
}

bool decode(std::string_view payload, FetchResponse* out) {
  Reader r(payload);
  std::uint8_t source = 0;
  if (!r.u8(&source) || !wire_source_valid(source)) return false;
  out->source = static_cast<WireSource>(source);
  return read_bool(r, &out->false_forward) && r.str(&out->body, kMaxBodyLen) &&
         r.bytes(&out->watermark, kMaxWatermarkLen) && r.at_end();
}

// --- IndexUpdate ----------------------------------------------------------

std::string encode(const IndexUpdate& m) {
  Writer w;
  w.u32(m.sender);
  w.u8(m.is_add ? 1 : 0);
  w.u64(m.key);
  w.raw(m.mac.data(), m.mac.size());
  return w.take();
}

bool decode(std::string_view payload, IndexUpdate* out) {
  Reader r(payload);
  return r.u32(&out->sender) && read_bool(r, &out->is_add) &&
         r.u64(&out->key) &&
         r.raw(out->mac.data(), out->mac.size()) && r.at_end();
}

// --- IndexAck -------------------------------------------------------------

std::string encode(const IndexAck& m) {
  Writer w;
  w.u8(m.accepted ? 1 : 0);
  return w.take();
}

bool decode(std::string_view payload, IndexAck* out) {
  Reader r(payload);
  return read_bool(r, &out->accepted) && r.at_end();
}

// --- PeerFetch ------------------------------------------------------------

std::string encode(const PeerFetch& m) {
  Writer w;
  w.u32(m.holder);
  w.u64(m.key);
  return w.take();
}

bool decode(std::string_view payload, PeerFetch* out) {
  Reader r(payload);
  return r.u32(&out->holder) && r.u64(&out->key) && r.at_end();
}

// --- PeerDeliver ----------------------------------------------------------

std::string encode(const PeerDeliver& m) {
  Writer w;
  w.u8(m.found ? 1 : 0);
  w.str(m.body);
  w.bytes(m.watermark);
  return w.take();
}

bool decode(std::string_view payload, PeerDeliver* out) {
  Reader r(payload);
  return read_bool(r, &out->found) && r.str(&out->body, kMaxBodyLen) &&
         r.bytes(&out->watermark, kMaxWatermarkLen) && r.at_end();
}

// --- ErrorMsg -------------------------------------------------------------

std::string encode(const ErrorMsg& m) {
  Writer w;
  w.str(m.message);
  return w.take();
}

bool decode(std::string_view payload, ErrorMsg* out) {
  Reader r(payload);
  return r.str(&out->message, kMaxErrorLen) && r.at_end();
}

// --- Bye ------------------------------------------------------------------

std::string encode(const Bye&) { return {}; }

bool decode(std::string_view payload, Bye*) { return payload.empty(); }

// --- IntrospectRequest ----------------------------------------------------

std::string encode(const IntrospectRequest& m) {
  Writer w;
  w.u32(m.sections);
  w.u32(m.max_spans);
  w.u32(m.max_intervals);
  return w.take();
}

bool decode(std::string_view payload, IntrospectRequest* out) {
  Reader r(payload);
  return r.u32(&out->sections) && (out->sections & ~kIntrospectAll) == 0 &&
         r.u32(&out->max_spans) && r.u32(&out->max_intervals) && r.at_end();
}

// --- IntrospectResponse ---------------------------------------------------

std::string encode(const IntrospectResponse& m) {
  Writer w;
  w.str(m.json);
  return w.take();
}

bool decode(std::string_view payload, IntrospectResponse* out) {
  Reader r(payload);
  return r.str(&out->json, kMaxBodyLen) && r.at_end();
}

}  // namespace baps::wire
