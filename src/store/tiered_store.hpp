// Two-tier object store behind the runtime proxy: the in-RAM DocStore LRU in
// front, the durable DiskStore slab log behind it (DESIGN.md §14).
//
// Tier movement policy:
//  * a RAM capacity eviction DEMOTES the document — each victim RAM put()
//    hands back is appended to the disk tier instead of vanishing;
//  * a disk hit PROMOTES the document back into RAM (which may in turn
//    demote whatever that insertion evicts);
//  * a document too large for RAM goes straight to disk.
//
// With no disk directory configured the class degrades to exactly the RAM
// DocStore it wraps: no disk I/O, and — deliberately — not a single metrics
// registry touch, so a store-off run's report is byte-identical to one from
// a build that never had a disk tier.
//
// Disk-tier traffic publishes to Registry::global(), resolved once per
// store (a lookup by name takes the registry's mutex):
//   store_probes_total / store_hits_total / store_misses_total
//     (hits + misses == probes; a quarantined-corrupt load counts as a miss
//      — the object was not served),
//   store_demotions_total / store_promotions_total,
//   store_bytes_total{dir=read|written},
//   store_stage_seconds{op=probe|demote|promote} (log10 histograms, same
//     domain as trace_stage_seconds),
// plus store_integrity_failures_total bumped inside DiskStore itself.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "runtime/doc_store.hpp"
#include "store/disk_store.hpp"

namespace baps::store {

struct StoreInstruments;

class TieredObjectStore {
 public:
  using Key = runtime::DocStore::Key;

  struct Params {
    std::uint64_t ram_bytes = 256 << 10;
    /// disk.dir empty ⇒ no disk tier (pure RAM passthrough).
    DiskStoreConfig disk;
  };

  explicit TieredObjectStore(const Params& params);
  ~TieredObjectStore();

  bool disk_enabled() const { return disk_ != nullptr; }

  /// Opens the disk tier (scan + index rebuild). True immediately when the
  /// disk tier is off.
  bool open(std::string* error);

  /// RAM first (LRU-touching), then the disk probe; a disk hit is promoted
  /// into RAM before returning. A copy, not a view: a document too large
  /// for RAM exists only on disk. nullopt on a full miss — including a
  /// quarantined-corrupt disk record, which is never served.
  std::optional<runtime::Document> get(Key key);

  /// Into RAM; an oversized document falls through to the disk tier. False
  /// only if no tier can hold it.
  bool put(Key key, runtime::Document doc);

  bool contains(Key key) const;
  bool erase(Key key);

  /// Durability point for the disk tier (no-op when off).
  void sync();

  /// Crash/warm-restart: RAM contents are lost (nothing is demoted — a
  /// crash writes nothing), then the disk tier reopens and rebuilds its index
  /// from the segment files. That surviving index IS the warm start.
  bool restart(std::string* error);

  runtime::DocStore& ram() { return ram_; }
  const runtime::DocStore& ram() const { return ram_; }
  /// nullptr when the disk tier is off.
  DiskStore* disk() { return disk_.get(); }
  const DiskStore* disk() const { return disk_.get(); }

 private:
  /// Puts into RAM and demotes whatever that evicts.
  bool put_ram(Key key, runtime::Document doc);
  /// Appends to the disk tier, counted as a demotion.
  bool demote(Key key, const runtime::Document& doc);

  runtime::DocStore ram_;
  std::unique_ptr<DiskStore> disk_;
  std::unique_ptr<StoreInstruments> metrics_;  ///< iff the disk tier exists
};

/// Eagerly materializes every store_* instrument — probes/hits/misses/
/// demotions/promotions, store_bytes_total{dir=read|written},
/// store_integrity_failures_total, and the store_stage_seconds{op}
/// histograms — zero-valued in the global registry. Keeps the report_check
/// hits + misses == probes and dir-label invariants intact (zeros satisfy
/// both) while making first-interval time-series deltas complete.
void register_store_metric_families();

}  // namespace baps::store
