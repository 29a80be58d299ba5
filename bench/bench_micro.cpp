// Substrate micro-benchmarks (google-benchmark): throughput of the hot
// primitives the simulator and runtime engine are built on.
#include <benchmark/benchmark.h>

#include "cache/object_cache.hpp"
#include "crypto/hmac.hpp"
#include "crypto/md5.hpp"
#include "crypto/rsa.hpp"
#include "index/bloom.hpp"
#include "trace/generator.hpp"
#include "trace/zipf.hpp"
#include "util/rng.hpp"

namespace {

void BM_Md5_8KB(benchmark::State& state) {
  const std::string body(8192, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(baps::crypto::md5(body));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          8192);
}
BENCHMARK(BM_Md5_8KB);

void BM_RsaSignDigest(benchmark::State& state) {
  const auto keys = baps::crypto::generate_rsa_keypair(256, 5);
  const auto digest = baps::crypto::md5("document");
  for (auto _ : state) {
    benchmark::DoNotOptimize(baps::crypto::rsa_sign_digest(digest, keys.priv));
  }
}
BENCHMARK(BM_RsaSignDigest);

void BM_RsaVerifyDigest(benchmark::State& state) {
  const auto keys = baps::crypto::generate_rsa_keypair(256, 5);
  const auto digest = baps::crypto::md5("document");
  const auto sig = baps::crypto::rsa_sign_digest(digest, keys.priv);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        baps::crypto::rsa_verify_digest(digest, sig, keys.pub));
  }
}
BENCHMARK(BM_RsaVerifyDigest);

void BM_HmacMd5_IndexUpdate(benchmark::State& state) {
  const std::string key = "per-client shared key";
  const std::string msg = "remove:17:1234567890123456";
  for (auto _ : state) {
    benchmark::DoNotOptimize(baps::crypto::hmac_md5(key, msg));
  }
}
BENCHMARK(BM_HmacMd5_IndexUpdate);

void BM_ZipfSample(benchmark::State& state) {
  const baps::trace::ZipfSampler zipf(
      static_cast<std::uint64_t>(state.range(0)), 0.75);
  baps::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000);

void BM_LruCacheChurn(benchmark::State& state) {
  baps::cache::ObjectCache cache(1 << 20, baps::cache::PolicyKind::kLru);
  baps::Xoshiro256 rng(2);
  for (auto _ : state) {
    const baps::trace::DocId doc = rng.below(4096);
    if (!cache.touch(doc)) cache.insert(doc, 1 + rng.below(2048));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LruCacheChurn);

void BM_CountingBloomAddRemove(benchmark::State& state) {
  auto bloom = baps::index::CountingBloomFilter::sized_for(10000, 0.01);
  std::uint64_t i = 0;
  for (auto _ : state) {
    bloom.add(i);
    if (i >= 1000) bloom.remove(i - 1000);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CountingBloomAddRemove);

void BM_TraceGeneration(benchmark::State& state) {
  baps::trace::GeneratorParams p;
  p.num_requests = static_cast<std::uint64_t>(state.range(0));
  p.num_clients = 20;
  p.shared_docs = 10000;
  p.private_docs_per_client = 500;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(baps::trace::generate_trace("bm", p, seed++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TraceGeneration)->Arg(10000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
