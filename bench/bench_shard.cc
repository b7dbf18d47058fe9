// Sharded-execution scaling: closure construction and the standard
// Q1-Q10 workload over the hash-partitioned store at 1/2/4/8 shards.
//
// Saturation runs with threads equal to the shard count, so on a
// multi-core host the shard-parallel semi-naive rounds (shard-local
// deltas, broadcast schema) turn partitioning into wall-clock speedup; on
// a single core the numbers mostly show the partitioning overhead, which
// is the honest baseline. Queries run in plan mode so the scans carry
// exchange operators; answers are identical at every shard count (locked
// by the differential harness), so every `speedup` counter compares
// like-for-like work.
//
//   --metrics-json=PATH  dump wdr.* counters/gauges (wdr.shard.sizes,
//                        skew, exchange rows/bytes, per-shard rounds)
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_util.h"

#include "query/evaluator.h"
#include "rdf/graph.h"
#include "rdf/sharded_store.h"
#include "reasoning/saturated_graph.h"
#include "workload/queries.h"
#include "workload/university.h"

namespace {

using wdr::rdf::ShardedStore;

struct Fixture {
  wdr::workload::UniversityData data;
  std::vector<wdr::query::UnionQuery> queries;  // Q1..Q10

  Fixture() {
    wdr::workload::UniversityConfig config;
    config.universities = 2;
    data = wdr::workload::GenerateUniversityData(config);
    for (wdr::workload::NamedQuery& q :
         wdr::workload::StandardQuerySet(data.graph.dict())) {
      queries.push_back(wdr::query::UnionQuery::Single(std::move(q.query)));
    }
  }

  // The university graph re-homed onto a hash-partitioned store.
  wdr::rdf::Graph ShardedGraph(size_t shards) const {
    wdr::rdf::Graph g = data.graph;
    auto store = std::make_unique<ShardedStore>(shards);
    store->SetBroadcastPredicates(
        {data.vocab.sub_class_of, data.vocab.sub_property_of,
         data.vocab.domain, data.vocab.range});
    g.AdoptStore(std::move(store));
    return g;
  }

  wdr::reasoning::SaturationOptions Options(size_t shards) const {
    wdr::reasoning::SaturationOptions options;
    options.threads = static_cast<int>(shards);
    return options;
  }
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

// Closure construction over the sharded base, threads = shards. The
// `speedup` counter is measured against a 1-shard sequential build through
// the same TimeReps harness.
void BM_ShardSaturate(benchmark::State& state) {
  Fixture& fixture = SharedFixture();
  const size_t shards = static_cast<size_t>(state.range(0));
  const wdr::rdf::Graph graph = fixture.ShardedGraph(shards);
  const auto options = fixture.Options(shards);
  size_t closure_size = 0;
  for (auto _ : state) {
    wdr::reasoning::SaturatedGraph sat(graph, fixture.data.vocab,
                                       /*enable_owl=*/false, options);
    closure_size = sat.closure().size();
    benchmark::DoNotOptimize(closure_size);
  }
  const wdr::rdf::Graph baseline_graph = fixture.ShardedGraph(1);
  const auto baseline_options = fixture.Options(1);
  const wdr::bench::RepStats baseline = wdr::bench::TimeReps(1, 3, [&] {
    wdr::reasoning::SaturatedGraph sat(baseline_graph, fixture.data.vocab,
                                       /*enable_owl=*/false,
                                       baseline_options);
    benchmark::DoNotOptimize(sat.closure().size());
  });
  const wdr::bench::RepStats mine = wdr::bench::TimeReps(1, 3, [&] {
    wdr::reasoning::SaturatedGraph sat(graph, fixture.data.vocab,
                                       /*enable_owl=*/false, options);
    benchmark::DoNotOptimize(sat.closure().size());
  });
  state.counters["closure"] = static_cast<double>(closure_size);
  state.counters["speedup"] = baseline.p50_us / mine.p50_us;
}
BENCHMARK(BM_ShardSaturate)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// One pass over Q1..Q10 in plan mode (exchange-wrapped partitioned scans)
// against the sharded closure. Setup saturates once; the timed region is
// queries only.
void BM_ShardQueries(benchmark::State& state) {
  Fixture& fixture = SharedFixture();
  const size_t shards = static_cast<size_t>(state.range(0));
  const wdr::rdf::Graph graph = fixture.ShardedGraph(shards);
  wdr::reasoning::SaturatedGraph sat(graph, fixture.data.vocab,
                                     /*enable_owl=*/false,
                                     fixture.Options(shards));
  wdr::query::EvaluatorOptions options;
  options.plan = true;
  wdr::query::Evaluator eval(sat.closure(), options);
  size_t rows = 0;
  for (auto _ : state) {
    rows = 0;
    for (const wdr::query::UnionQuery& q : fixture.queries) {
      rows += eval.Evaluate(q).rows.size();
    }
    benchmark::DoNotOptimize(rows);
  }
  // Baseline: the same workload on the 1-shard layout.
  const wdr::rdf::Graph baseline_graph = fixture.ShardedGraph(1);
  wdr::reasoning::SaturatedGraph baseline_sat(baseline_graph,
                                              fixture.data.vocab,
                                              /*enable_owl=*/false,
                                              fixture.Options(1));
  wdr::query::Evaluator baseline_eval(baseline_sat.closure(), options);
  const wdr::bench::RepStats baseline = wdr::bench::TimeReps(1, 3, [&] {
    size_t n = 0;
    for (const wdr::query::UnionQuery& q : fixture.queries) {
      n += baseline_eval.Evaluate(q).rows.size();
    }
    benchmark::DoNotOptimize(n);
  });
  const wdr::bench::RepStats mine = wdr::bench::TimeReps(1, 3, [&] {
    size_t n = 0;
    for (const wdr::query::UnionQuery& q : fixture.queries) {
      n += eval.Evaluate(q).rows.size();
    }
    benchmark::DoNotOptimize(n);
  });
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["speedup"] = baseline.p50_us / mine.p50_us;
  // Leave the layout gauges behind for --metrics-json artifacts.
  if (const auto* sharded =
          dynamic_cast<const ShardedStore*>(&sat.closure())) {
    sharded->PublishGauges();
  }
}
BENCHMARK(BM_ShardQueries)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

WDR_BENCH_MAIN();
