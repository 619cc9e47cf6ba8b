// Micro-benchmarks (google-benchmark) for the hot primitives underneath the
// experiment harnesses: bitset algebra, Jaccard, LCM mining, crossfilter
// brushes, and one greedy evaluation step.

#include <benchmark/benchmark.h>

#include "common/bitset.h"
#include "common/random.h"
#include "core/engine.h"
#include "core/greedy.h"
#include "data/generators/bookcrossing_gen.h"
#include "mining/descriptor_catalog.h"
#include "mining/lcm.h"
#include "viz/crossfilter.h"

namespace vexus {
namespace {

Bitset RandomBitset(size_t n, double density, uint64_t seed) {
  Rng rng(seed);
  Bitset b(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(density)) b.Set(i);
  }
  return b;
}

void BM_BitsetIntersectCount(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Bitset a = RandomBitset(n, 0.1, 1);
  Bitset b = RandomBitset(n, 0.1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.IntersectCount(b));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BitsetIntersectCount)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_BitsetJaccard(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Bitset a = RandomBitset(n, 0.1, 3);
  Bitset b = RandomBitset(n, 0.1, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Jaccard(b));
  }
}
BENCHMARK(BM_BitsetJaccard)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_BitsetForEach(benchmark::State& state) {
  Bitset a = RandomBitset(100000, 0.05, 5);
  for (auto _ : state) {
    uint64_t sum = 0;
    a.ForEach([&sum](uint32_t i) { sum += i; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BitsetForEach);

void BM_LcmMine(benchmark::State& state) {
  data::BookCrossingGenerator::Config cfg;
  cfg.num_users = static_cast<uint32_t>(state.range(0));
  cfg.num_books = cfg.num_users;
  cfg.num_ratings = cfg.num_users * 6;
  data::Dataset ds = data::BookCrossingGenerator::Generate(cfg);
  auto cat = mining::DescriptorCatalog::Build(ds);
  mining::LcmMiner::Config lcfg;
  lcfg.min_support = std::max<size_t>(2, ds.num_users() / 100);
  lcfg.max_description = 3;
  for (auto _ : state) {
    mining::GroupStore store(ds.num_users());
    mining::LcmMiner miner(&cat, lcfg);
    auto stats = miner.Mine(&store);
    benchmark::DoNotOptimize(stats.groups_emitted);
  }
}
BENCHMARK(BM_LcmMine)->Arg(1000)->Arg(5000)->Arg(20000);

void BM_CrossfilterBrush(benchmark::State& state) {
  size_t records = static_cast<size_t>(state.range(0));
  Rng rng(7);
  viz::Crossfilter cf(records);
  std::vector<size_t> dims;
  for (int d = 0; d < 4; ++d) {
    std::vector<double> col(records);
    for (auto& v : col) v = rng.UniformDouble(0, 100);
    dims.push_back(cf.AddNumericDimension(std::move(col)));
  }
  for (size_t d : dims) cf.AddHistogram(d, 20, 0, 100);
  double lo = 0;
  for (auto _ : state) {
    cf.FilterRange(dims[0], lo, lo + 20);
    lo = lo >= 60 ? 0 : lo + 2;
    benchmark::DoNotOptimize(cf.PassingCount());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records));
}
BENCHMARK(BM_CrossfilterBrush)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_GreedySelectNext(benchmark::State& state) {
  static data::Dataset ds = data::BookCrossingGenerator::Generate([] {
    data::BookCrossingGenerator::Config cfg;
    cfg.num_users = 5000;
    cfg.num_books = 5000;
    cfg.num_ratings = 30000;
    return cfg;
  }());
  // Build once.
  static auto* engine = [] {
    mining::DiscoveryOptions dopt;
    dopt.min_support_fraction = 0.01;
    auto r = core::VexusEngine::Preprocess(std::move(ds), dopt, {});
    return new core::VexusEngine(std::move(r).ValueOrDie());
  }();
  static auto* session = engine->CreateSession({}).release();
  core::GreedySelector selector(&engine->groups(), &engine->index());
  core::FeedbackVector feedback(&session->tokens());
  core::GreedyOptions opt;
  opt.k = 5;
  opt.time_limit_ms = static_cast<double>(state.range(0));
  Rng rng(9);
  for (auto _ : state) {
    mining::GroupId anchor =
        rng.UniformU32(static_cast<uint32_t>(engine->groups().size()));
    benchmark::DoNotOptimize(selector.SelectNext(anchor, feedback, opt));
  }
}
BENCHMARK(BM_GreedySelectNext)->Arg(1)->Arg(10)->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vexus

BENCHMARK_MAIN();
