// Process self-profiling for the time-series sampler: resident set size,
// process CPU time, and per-thread CPU time for threads that register
// themselves with the ThreadCpuTracker. All readings come straight from the
// OS (`/proc/self/statm`, `clock_gettime`) with no caching, so a sampler
// tick sees the process as it is at that instant. On platforms without the
// needed interfaces every reader degrades to "absent" (valid == false or an
// empty vector) rather than to a lie.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace baps::obs {

/// One point-in-time reading of the process.
struct ProcessSample {
  bool valid = false;
  std::uint64_t rss_bytes = 0;   ///< resident set size
  double cpu_seconds = 0.0;      ///< CLOCK_PROCESS_CPUTIME_ID
};

/// Reads RSS + process CPU. valid == false when the platform offers neither.
ProcessSample sample_process();

/// Registry of named threads whose CPU time the sampler reads cross-thread
/// (pthread_getcpuclockid). Threads MUST unregister before exiting — reading
/// the clock of a dead thread is undefined — so use ScopedThreadCpu, whose
/// destructor unregisters, rather than the raw calls.
class ThreadCpuTracker {
 public:
  struct ThreadCpu {
    std::string name;
    double cpu_seconds = 0.0;
  };

  /// Registers the calling thread under `name`; returns a token for
  /// unregister(). Names need not be unique (e.g. one "netio_epoll" for the
  /// proxy and one per in-process client host).
  std::uint64_t register_current_thread(std::string name);
  void unregister(std::uint64_t token);

  /// CPU seconds of every registered thread, registration order. Threads
  /// whose clock cannot be read (or on platforms without per-thread clocks)
  /// are omitted.
  std::vector<ThreadCpu> sample() const;

  /// The process-wide tracker the sampler reads.
  static ThreadCpuTracker& global();

 private:
  struct Impl;
};

/// RAII registration with the global tracker.
class ScopedThreadCpu {
 public:
  explicit ScopedThreadCpu(std::string name)
      : token_(ThreadCpuTracker::global().register_current_thread(
            std::move(name))) {}
  ScopedThreadCpu(const ScopedThreadCpu&) = delete;
  ScopedThreadCpu& operator=(const ScopedThreadCpu&) = delete;
  ~ScopedThreadCpu() { ThreadCpuTracker::global().unregister(token_); }

 private:
  std::uint64_t token_;
};

}  // namespace baps::obs
