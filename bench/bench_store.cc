// Substrate microbenchmarks: the triple store primitives every technique
// sits on — insert, point lookup, and the prefix scans behind each index —
// measured on the flat store (sorted arrays + delta log).
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"

#include "common/rng.h"
#include "rdf/flat_triple_store.h"

namespace {

using wdr::rdf::FlatTripleStore;
using wdr::rdf::TermId;
using wdr::rdf::Triple;

std::vector<Triple> RandomTriples(size_t n, uint64_t seed) {
  wdr::Rng rng(seed);
  std::vector<Triple> triples;
  triples.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    triples.push_back(Triple(static_cast<TermId>(rng.Uniform(1, 5000)),
                             static_cast<TermId>(rng.Uniform(1, 50)),
                             static_cast<TermId>(rng.Uniform(1, 5000))));
  }
  return triples;
}

// A populated store, built by the batch path, so scans measure the merged
// layout.
FlatTripleStore Populated(const std::vector<Triple>& triples) {
  FlatTripleStore store;
  store.InsertBatch(triples);
  return store;
}

void BM_Insert(benchmark::State& state) {
  std::vector<Triple> triples =
      RandomTriples(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    FlatTripleStore store;
    for (const Triple& t : triples) store.Insert(t);
    benchmark::DoNotOptimize(store.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Insert)
    ->ArgName("n")
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_InsertBatch(benchmark::State& state) {
  std::vector<Triple> triples =
      RandomTriples(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    FlatTripleStore store;
    benchmark::DoNotOptimize(store.InsertBatch(triples));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InsertBatch)
    ->ArgName("n")
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_Contains(benchmark::State& state) {
  std::vector<Triple> triples = RandomTriples(100000, 2);
  FlatTripleStore store = Populated(triples);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Contains(triples[i % triples.size()]));
    ++i;
  }
}
BENCHMARK(BM_Contains);

void BM_EraseInsertChurn(benchmark::State& state) {
  std::vector<Triple> triples = RandomTriples(100000, 3);
  FlatTripleStore store = Populated(triples);
  size_t i = 0;
  for (auto _ : state) {
    const Triple& t = triples[i % triples.size()];
    store.Erase(t);
    store.Insert(t);
    ++i;
  }
}
BENCHMARK(BM_EraseInsertChurn);

void BM_FullScan(benchmark::State& state) {
  std::vector<Triple> triples = RandomTriples(100000, 4);
  FlatTripleStore store = Populated(triples);
  size_t matched = 0;
  for (auto _ : state) {
    matched = 0;
    store.Match(0, 0, 0, [&](const Triple&) { ++matched; });
    benchmark::DoNotOptimize(matched);
  }
  state.counters["rows/scan"] = static_cast<double>(matched);
}
BENCHMARK(BM_FullScan)->Unit(benchmark::kMillisecond);

// The three prefix-scan shapes, one per index.
template <int kBound>  // 0: s (SPO), 1: p (POS), 2: o (OSP)
void BM_PrefixScan(benchmark::State& state) {
  std::vector<Triple> triples = RandomTriples(100000, 4);
  FlatTripleStore store = Populated(triples);
  size_t i = 0;
  size_t matched = 0;
  for (auto _ : state) {
    const Triple& probe = triples[i % triples.size()];
    TermId s = kBound == 0 ? probe.s : 0;
    TermId p = kBound == 1 ? probe.p : 0;
    TermId o = kBound == 2 ? probe.o : 0;
    matched = 0;
    store.Match(s, p, o, [&](const Triple&) { ++matched; });
    benchmark::DoNotOptimize(matched);
    ++i;
  }
  state.counters["rows/scan"] = static_cast<double>(matched);
}
void BM_ScanBySubject(benchmark::State& state) { BM_PrefixScan<0>(state); }
void BM_ScanByProperty(benchmark::State& state) { BM_PrefixScan<1>(state); }
void BM_ScanByObject(benchmark::State& state) { BM_PrefixScan<2>(state); }
BENCHMARK(BM_ScanBySubject);
BENCHMARK(BM_ScanByProperty)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ScanByObject);

void BM_CountEstimate(benchmark::State& state) {
  std::vector<Triple> triples = RandomTriples(100000, 5);
  FlatTripleStore store = Populated(triples);
  size_t i = 0;
  for (auto _ : state) {
    const Triple& probe = triples[i % triples.size()];
    benchmark::DoNotOptimize(store.EstimateCount(probe.s, 0, 0));
    ++i;
  }
}
BENCHMARK(BM_CountEstimate);

}  // namespace

WDR_BENCH_MAIN();
