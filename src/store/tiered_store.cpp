#include "store/tiered_store.hpp"

#include "obs/registry.hpp"
#include "obs/timer.hpp"

namespace baps::store {

namespace {

// Same log10 domain as trace_stage_seconds so stage timings across the
// report line up on one axis.
constexpr double kStageLo = -7.0;
constexpr double kStageHi = 3.0;
constexpr std::size_t kStageBuckets = 50;

obs::Histogram& stage_hist(const char* op) {
  return obs::Registry::global().histogram("store_stage_seconds", kStageLo,
                                           kStageHi, kStageBuckets,
                                           obs::HistScale::kLog10,
                                           {{"op", op}});
}

}  // namespace

struct StoreInstruments {
  obs::Counter& probes;
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& demotions;
  obs::Counter& promotions;
  obs::Counter& bytes_read;
  obs::Counter& bytes_written;
  obs::Histogram& probe_seconds;
  obs::Histogram& demote_seconds;
  obs::Histogram& promote_seconds;
  StoreInstruments();
};

StoreInstruments::StoreInstruments()
    : probes(obs::Registry::global().counter("store_probes_total")),
      hits(obs::Registry::global().counter("store_hits_total")),
      misses(obs::Registry::global().counter("store_misses_total")),
      demotions(obs::Registry::global().counter("store_demotions_total")),
      promotions(obs::Registry::global().counter("store_promotions_total")),
      bytes_read(obs::Registry::global().counter("store_bytes_total",
                                                 {{"dir", "read"}})),
      bytes_written(obs::Registry::global().counter("store_bytes_total",
                                                    {{"dir", "written"}})),
      probe_seconds(stage_hist("probe")),
      demote_seconds(stage_hist("demote")),
      promote_seconds(stage_hist("promote")) {}

TieredObjectStore::TieredObjectStore(const Params& params)
    : ram_(params.ram_bytes) {
  if (!params.disk.dir.empty()) {
    disk_ = std::make_unique<DiskStore>(params.disk);
    // Resolved only when the tier exists, so the store-off path keeps its
    // metrics silence.
    metrics_ = std::make_unique<StoreInstruments>();
  }
}

TieredObjectStore::~TieredObjectStore() = default;

bool TieredObjectStore::open(std::string* error) {
  if (disk_ == nullptr) return true;
  return disk_->open(error);
}

bool TieredObjectStore::demote(Key key, const runtime::Document& doc) {
  const obs::ScopedTimer timer(&metrics_->demote_seconds);
  if (!disk_->put(key, doc)) return false;
  metrics_->demotions.inc();
  metrics_->bytes_written.inc(doc.body.size());
  return true;
}

bool TieredObjectStore::put_ram(Key key, runtime::Document doc) {
  runtime::DocStore::Evicted evicted;
  const bool stored = ram_.put(key, std::move(doc), &evicted);
  for (const auto& [gone, body] : evicted) demote(gone, body);
  return stored;
}

std::optional<runtime::Document> TieredObjectStore::get(Key key) {
  if (const runtime::Document* doc = ram_.get(key)) return *doc;
  if (disk_ == nullptr) return std::nullopt;

  metrics_->probes.inc();
  runtime::Document doc;
  DiskStore::Load load = DiskStore::Load::kMiss;
  {
    const obs::ScopedTimer timer(&metrics_->probe_seconds);
    load = disk_->get(key, &doc);
  }
  if (load != DiskStore::Load::kHit) {
    // kCorrupt quarantined inside DiskStore; either way nothing was served.
    metrics_->misses.inc();
    return std::nullopt;
  }
  metrics_->hits.inc();
  metrics_->bytes_read.inc(doc.body.size());
  {
    // Promote so the next access is a RAM hit. The insertion may evict the
    // RAM LRU tail, which demotes in turn — one hop, no recursion.
    const obs::ScopedTimer timer(&metrics_->promote_seconds);
    if (put_ram(key, doc)) metrics_->promotions.inc();
  }
  return doc;
}

bool TieredObjectStore::put(Key key, runtime::Document doc) {
  if (disk_ == nullptr) return ram_.put(key, std::move(doc));
  if (put_ram(key, doc)) return true;
  // Too large for the RAM tier: straight to disk.
  return demote(key, doc);
}

bool TieredObjectStore::contains(Key key) const {
  if (ram_.contains(key)) return true;
  return disk_ != nullptr && disk_->contains(key);
}

bool TieredObjectStore::erase(Key key) {
  const bool from_ram = ram_.erase(key);
  const bool from_disk = disk_ != nullptr && disk_->erase(key);
  return from_ram || from_disk;
}

void TieredObjectStore::sync() {
  if (disk_ != nullptr) disk_->sync();
}

bool TieredObjectStore::restart(std::string* error) {
  // clear() reports no evictions, so nothing is demoted: a crashing proxy
  // writes nothing on its way down.
  ram_.clear();
  if (disk_ == nullptr) return true;
  return disk_->reopen(error);
}

void register_store_metric_families() {
  const StoreInstruments resolved;
  obs::Registry::global().counter("store_integrity_failures_total");
}

}  // namespace baps::store
