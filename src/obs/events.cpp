#include "obs/events.hpp"

#include <ostream>

#include "obs/registry.hpp"

namespace baps::obs {

void MemorySink::emit(const JsonValue& event) {
  {
    std::scoped_lock lock(mu_);
    if (events_.size() < capacity_) {
      events_.push_back(event);
      return;
    }
    ++dropped_;
  }
  // Counter bump outside the sink lock: the registry has its own locking
  // and an emitter may already hold instrument handles.
  Registry::global().counter("events_dropped_total").inc();
}

std::vector<JsonValue> MemorySink::events() const {
  std::scoped_lock lock(mu_);
  return events_;
}

std::vector<JsonValue> MemorySink::named(const std::string& name) const {
  std::scoped_lock lock(mu_);
  std::vector<JsonValue> out;
  for (const auto& e : events_) {
    const JsonValue* n = e.find("event");
    if (n != nullptr && n->is_string() && n->as_string() == name) {
      out.push_back(e);
    }
  }
  return out;
}

std::size_t MemorySink::size() const {
  std::scoped_lock lock(mu_);
  return events_.size();
}

std::uint64_t MemorySink::dropped() const {
  std::scoped_lock lock(mu_);
  return dropped_;
}

void MemorySink::clear() {
  std::scoped_lock lock(mu_);
  events_.clear();
  dropped_ = 0;
}

JsonlSink::~JsonlSink() { flush(); }

void JsonlSink::emit(const JsonValue& event) {
  const std::string line = event.dump();
  std::scoped_lock lock(mu_);
  os_ << line << '\n';
  if (flush_each_) os_.flush();
}

void JsonlSink::flush() {
  std::scoped_lock lock(mu_);
  os_.flush();
}

}  // namespace baps::obs
