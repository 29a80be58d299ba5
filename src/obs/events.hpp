// Structured event tracing: instrumented components emit events into an
// EventSink. Each event is a JSON object whose first member is "event" (the
// event's name) followed by its fields. The runtime protocol engine feeds
// one event per fetch and one per message envelope, so audits (e.g. the §6.2
// anonymity property) query records instead of poking at counters.
//
// Sinks: MemorySink buffers events for tests and in-process queries;
// JsonlSink streams one JSON object per line (the standard greppable /
// jq-able trace format). Both are thread-safe.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace baps::obs {

class EventSink {
 public:
  virtual ~EventSink() = default;
  /// `event` is an object whose first member is "event".
  virtual void emit(const JsonValue& event) = 0;
};

/// Buffers events in memory up to a capacity cap; the query surface for
/// tests and in-process introspection. Once full, new events are dropped
/// (oldest retained — the buffer is evidence of how a run started, and
/// replacing old events would silently rewrite it) and the drop is counted
/// both locally (dropped()) and in the global `events_dropped_total`
/// counter so reports surface the truncation.
class MemorySink final : public EventSink {
 public:
  /// Default cap fits any test workload while bounding a pathological trace.
  static constexpr std::size_t kDefaultCapacity = 1 << 20;

  explicit MemorySink(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void emit(const JsonValue& event) override;

  std::vector<JsonValue> events() const;
  /// Events whose "event" member is `name`.
  std::vector<JsonValue> named(const std::string& name) const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  /// Events rejected because the sink was full.
  std::uint64_t dropped() const;
  void clear();

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<JsonValue> events_;
  std::uint64_t dropped_ = 0;
};

/// Streams events as JSON Lines to an ostream the caller keeps alive.
/// Flushes on destruction (and on request) so buffered lines survive an
/// abnormal daemon exit; set flush_each for crash-proof-per-line logging at
/// the cost of one flush per event.
class JsonlSink final : public EventSink {
 public:
  explicit JsonlSink(std::ostream& os, bool flush_each = false)
      : os_(os), flush_each_(flush_each) {}
  ~JsonlSink() override;

  void emit(const JsonValue& event) override;
  void flush();

 private:
  std::mutex mu_;
  std::ostream& os_;
  const bool flush_each_;
};

}  // namespace baps::obs
