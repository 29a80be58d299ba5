#include "obs/proc_stats.hpp"

#include <cstdio>
#include <mutex>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <pthread.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>
#endif

namespace baps::obs {

namespace {

double clock_seconds(clockid_t id) {
#if defined(__unix__) || defined(__APPLE__)
  struct timespec ts;
  if (clock_gettime(id, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
#else
  (void)id;
  return 0.0;
#endif
}

std::uint64_t read_rss_bytes() {
#if defined(__linux__)
  // /proc/self/statm: size resident shared text lib data dt (pages).
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    unsigned long long size = 0, resident = 0;
    int n = std::fscanf(f, "%llu %llu", &size, &resident);
    std::fclose(f);
    if (n == 2) {
      long page = ::sysconf(_SC_PAGESIZE);
      if (page > 0) return resident * static_cast<std::uint64_t>(page);
    }
  }
#endif
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0 && ru.ru_maxrss > 0) {
    // ru_maxrss is KiB on Linux, bytes on macOS; Linux is handled above, so
    // this fallback only fires where KiB is the worse guess.
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(ru.ru_maxrss);
#else
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024u;
#endif
  }
#endif
  return 0;
}

}  // namespace

ProcessSample sample_process() {
  ProcessSample s;
#if defined(__unix__) || defined(__APPLE__)
  s.rss_bytes = read_rss_bytes();
  s.cpu_seconds = clock_seconds(CLOCK_PROCESS_CPUTIME_ID);
  s.valid = s.rss_bytes > 0 || s.cpu_seconds > 0.0;
#endif
  return s;
}

// ---------------------------------------------------------------------------
// ThreadCpuTracker
// ---------------------------------------------------------------------------

namespace {

struct TrackedThread {
  std::uint64_t token = 0;
  std::string name;
#if defined(__unix__) || defined(__APPLE__)
  pthread_t handle{};
#endif
};

struct TrackerState {
  mutable std::mutex mu;
  std::vector<TrackedThread> threads;
  std::uint64_t next_token = 1;
};

TrackerState& tracker_state() {
  static TrackerState* state = new TrackerState();  // leaked: outlive exit
  return *state;
}

}  // namespace

std::uint64_t ThreadCpuTracker::register_current_thread(std::string name) {
  TrackerState& st = tracker_state();
  std::lock_guard<std::mutex> lock(st.mu);
  TrackedThread t;
  t.token = st.next_token++;
  t.name = std::move(name);
#if defined(__unix__) || defined(__APPLE__)
  t.handle = pthread_self();
#endif
  st.threads.push_back(std::move(t));
  return st.threads.back().token;
}

void ThreadCpuTracker::unregister(std::uint64_t token) {
  TrackerState& st = tracker_state();
  std::lock_guard<std::mutex> lock(st.mu);
  for (std::size_t i = 0; i < st.threads.size(); ++i) {
    if (st.threads[i].token == token) {
      st.threads.erase(st.threads.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

std::vector<ThreadCpuTracker::ThreadCpu> ThreadCpuTracker::sample() const {
  std::vector<ThreadCpu> out;
  TrackerState& st = tracker_state();
  std::lock_guard<std::mutex> lock(st.mu);
  out.reserve(st.threads.size());
  for (const TrackedThread& t : st.threads) {
#if defined(__linux__)
    // The registration contract (unregister before thread exit, enforced by
    // ScopedThreadCpu) makes reading the clock of every listed thread safe.
    clockid_t id;
    if (pthread_getcpuclockid(t.handle, &id) != 0) continue;
    ThreadCpu tc;
    tc.name = t.name;
    tc.cpu_seconds = clock_seconds(id);
    out.push_back(std::move(tc));
#else
    (void)t;
#endif
  }
  return out;
}

ThreadCpuTracker& ThreadCpuTracker::global() {
  static ThreadCpuTracker* tracker = new ThreadCpuTracker();  // leaked
  return *tracker;
}

}  // namespace baps::obs
