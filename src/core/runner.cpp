#include "core/runner.hpp"

#include <mutex>

#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "sim/config.hpp"
#include "util/assert.hpp"

namespace baps::core {

namespace {

/// Folds one finished run's Metrics into the global registry. This is the
/// labeled-family backbone of the report: counts keyed by organization and,
/// for hits, by the location that served them (§4's three hit locations).
void publish_run(OrgKind kind, const Metrics& m, double wall_seconds) {
  auto& reg = obs::Registry::global();
  const std::string org = sim::org_name(kind);
  reg.histogram("runner_run_seconds", -3.0, 4.0, 70, obs::HistScale::kLog10,
                {{"org", org}})
      .observe(wall_seconds);
  reg.counter("sim_requests_total", {{"org", org}}).inc(m.hits.total());
  reg.counter("sim_hits_total", {{"org", org}, {"location", "local_browser"}})
      .inc(m.local_browser_hits);
  reg.counter("sim_hits_total", {{"org", org}, {"location", "proxy"}})
      .inc(m.proxy_hits);
  reg.counter("sim_hits_total", {{"org", org}, {"location", "remote_browser"}})
      .inc(m.remote_browser_hits);
  reg.counter("sim_misses_total", {{"org", org}})
      .inc(m.hits.total() - m.hits.hits());
}

/// Times a whole sweep into `sweep_seconds{kind=...}`.
class SweepTimer {
 public:
  explicit SweepTimer(const char* kind)
      : hist_(&obs::Registry::global().histogram(
            "sweep_seconds", -3.0, 5.0, 80, obs::HistScale::kLog10,
            {{"kind", kind}})),
        start_(obs::monotonic_seconds()) {}
  ~SweepTimer() { hist_->observe(obs::monotonic_seconds() - start_); }

  SweepTimer(const SweepTimer&) = delete;
  SweepTimer& operator=(const SweepTimer&) = delete;

 private:
  obs::Histogram* hist_;
  double start_;
};

}  // namespace

sim::SimConfig build_config(const trace::TraceStats& stats,
                            const RunSpec& spec) {
  sim::SimConfig cfg;
  cfg.proxy_cache_bytes =
      sim::proxy_cache_bytes_for(stats, spec.relative_cache_size);
  if (spec.sizing == BrowserSizing::kMinimum) {
    cfg.browser_cache_bytes =
        sim::min_browser_caches(cfg.proxy_cache_bytes, stats.num_clients);
  } else {
    cfg.browser_cache_bytes =
        sim::avg_browser_caches(stats, spec.relative_cache_size);
  }
  cfg.policy = spec.policy;
  cfg.memory_fraction = spec.memory_fraction;
  cfg.index_mode = spec.index_mode;
  cfg.index_threshold = spec.index_threshold;
  cfg.index_kind = spec.index_kind;
  cfg.bloom_expected_docs_per_client = spec.bloom_expected_docs_per_client;
  cfg.bloom_target_fp = spec.bloom_target_fp;
  cfg.relay_via_proxy = spec.relay_via_proxy;
  cfg.lan = spec.lan;
  cfg.latency = spec.latency;
  cfg.churn_rate = spec.churn_rate;
  cfg.churn_seed = spec.churn_seed;
  // Capacity hints: let every cache table and the browser index reserve up
  // front instead of rehashing through the replay.
  cfg.doc_universe = stats.doc_universe;
  cfg.distinct_docs = stats.unique_docs;
  cfg.client_distinct_docs = stats.distinct_docs_per_client;
  return cfg;
}

Metrics run_one(OrgKind kind, const trace::Trace& trace,
                const trace::TraceStats& stats, const RunSpec& spec) {
  const double start = obs::monotonic_seconds();
  const Metrics m =
      sim::run_organization(kind, build_config(stats, spec), trace);
  publish_run(kind, m, obs::monotonic_seconds() - start);
  return m;
}

std::vector<CacheSizePoint> sweep_cache_sizes(
    const trace::Trace& trace, const std::vector<double>& relative_sizes,
    const std::vector<OrgKind>& orgs, const RunSpec& spec, ThreadPool* pool,
    ProgressFn progress) {
  BAPS_REQUIRE(!relative_sizes.empty(), "sweep needs at least one size");
  BAPS_REQUIRE(!orgs.empty(), "sweep needs at least one organization");
  const SweepTimer sweep_timer("cache_sizes");
  const trace::TraceStats stats = trace::compute_stats(trace);

  std::vector<CacheSizePoint> points(relative_sizes.size());
  for (std::size_t i = 0; i < relative_sizes.size(); ++i) {
    points[i].relative_cache_size = relative_sizes[i];
  }

  struct Task {
    std::size_t point;
    OrgKind org;
  };
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < relative_sizes.size(); ++i) {
    for (const OrgKind org : orgs) tasks.push_back({i, org});
  }

  std::mutex mu;  // guards the result maps and the progress count
  std::size_t done = 0;
  const auto run_task = [&](std::size_t t) {
    const Task& task = tasks[t];
    RunSpec point_spec = spec;
    point_spec.relative_cache_size = relative_sizes[task.point];
    Metrics m = run_one(task.org, trace, stats, point_spec);
    std::scoped_lock lock(mu);
    points[task.point].by_org.emplace(task.org, std::move(m));
    ++done;
    if (progress) progress(done, tasks.size());
  };

  if (pool) {
    pool->parallel_for(tasks.size(), run_task);
  } else {
    for (std::size_t t = 0; t < tasks.size(); ++t) run_task(t);
  }
  return points;
}

std::vector<ClientScalingPoint> client_scaling_sweep(
    const trace::Trace& trace, const std::vector<double>& client_fractions,
    const RunSpec& spec, ThreadPool* pool, ProgressFn progress) {
  BAPS_REQUIRE(!client_fractions.empty(), "sweep needs at least one fraction");
  const SweepTimer sweep_timer("client_scaling");
  // The proxy size is pinned to the FULL population's infinite cache size.
  const trace::TraceStats full_stats = trace::compute_stats(trace);
  const std::uint64_t fixed_proxy_bytes =
      sim::proxy_cache_bytes_for(full_stats, spec.relative_cache_size);

  std::vector<ClientScalingPoint> points(client_fractions.size());
  std::mutex mu;  // guards the progress count
  std::size_t done = 0;
  const auto run_point = [&](std::size_t i) {
    const double start = obs::monotonic_seconds();
    const double fraction = client_fractions[i];
    const trace::Trace sub = trace.restrict_clients(fraction);
    const trace::TraceStats sub_stats = trace::compute_stats(sub);

    sim::SimConfig cfg = build_config(sub_stats, spec);
    cfg.proxy_cache_bytes = fixed_proxy_bytes;
    if (spec.sizing == BrowserSizing::kMinimum) {
      // Minimum sizing derives from the (fixed) proxy size and the subset's
      // population.
      cfg.browser_cache_bytes =
          sim::min_browser_caches(fixed_proxy_bytes, sub_stats.num_clients);
    }

    ClientScalingPoint p;
    p.client_fraction = fraction;
    p.num_clients = sub.num_clients();
    p.browsers_aware =
        sim::run_organization(OrgKind::kBrowsersAware, cfg, sub);
    p.proxy_and_local =
        sim::run_organization(OrgKind::kProxyAndLocalBrowser, cfg, sub);

    const auto increment = [](double baps, double base) {
      return base > 0.0 ? 100.0 * (baps - base) / base : 0.0;
    };
    p.hit_ratio_increment_pct = increment(p.browsers_aware.hit_ratio(),
                                          p.proxy_and_local.hit_ratio());
    p.byte_hit_ratio_increment_pct =
        increment(p.browsers_aware.byte_hit_ratio(),
                  p.proxy_and_local.byte_hit_ratio());
    // Both organizations share one wall-clock sample: the point is the unit
    // of work here, and the split is visible in the per-org counters anyway.
    const double wall = (obs::monotonic_seconds() - start) / 2.0;
    publish_run(OrgKind::kBrowsersAware, p.browsers_aware, wall);
    publish_run(OrgKind::kProxyAndLocalBrowser, p.proxy_and_local, wall);
    points[i] = std::move(p);
    std::scoped_lock lock(mu);
    ++done;
    if (progress) progress(done, points.size());
  };

  if (pool) {
    pool->parallel_for(points.size(), run_point);
  } else {
    for (std::size_t i = 0; i < points.size(); ++i) run_point(i);
  }
  return points;
}

}  // namespace baps::core
