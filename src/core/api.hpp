// Umbrella header: the public API of the baps library.
//
//   #include "core/api.hpp"
//
//   auto trace = baps::trace::load_preset(baps::trace::Preset::kNlanrUc);
//   baps::core::RunSpec spec;
//   spec.relative_cache_size = 0.10;
//   auto metrics = baps::core::run_one(
//       baps::core::OrgKind::kBrowsersAware, trace,
//       baps::trace::compute_stats(trace), spec);
//   std::cout << metrics.hit_ratio() << '\n';
//
// Layering (each header is usable on its own):
//   trace/   workload model: generator, presets, parsers, statistics
//   cache/   replacement policies, object cache, two-tier cache
//   index/   browser index, update protocols, counting-Bloom summaries
//   net/     shared-Ethernet LAN model
//   sim/     the five caching organizations and their metrics
//   core/    experiment runner and parameter sweeps (this layer)
//   crypto/  MD5 / RSA / HMAC-MD5 and the document watermark
//   fault/   seeded fault plans and peer churn
//   obs/     metrics registry, events, spans, reports, time series
//   wire/    binary frame format and message codecs
//   netio/   TCP sockets with deadlines and the epoll frame server
//   store/   durable slab-log tier of the proxy cache
//   runtime/ the BAPS protocol engine: proxy core, clients, origin, over a
//            loopback or a TCP transport
#pragma once

#include "core/runner.hpp"
#include "crypto/watermark.hpp"
#include "index/footprint.hpp"
#include "sim/orgs.hpp"
#include "trace/generator.hpp"
#include "trace/log_parser.hpp"
#include "trace/presets.hpp"
#include "trace/stats.hpp"
#include "util/table.hpp"
