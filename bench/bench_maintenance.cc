// Ablation: incremental closure maintenance vs. full re-saturation, by
// update kind (§II-B: "saturation ... must be recomputed upon updates" —
// unless maintained incrementally, which is what makes the Fig. 3
// maintenance thresholds finite).
#include <benchmark/benchmark.h>

#include "bench_util.h"

#include "common/rng.h"
#include "reasoning/saturated_graph.h"
#include "workload/university.h"
#include "workload/updates.h"

namespace {

struct Fixture {
  wdr::workload::UniversityData data;
  wdr::workload::UpdateSet updates;

  explicit Fixture(int universities) {
    wdr::workload::UniversityConfig config;
    config.universities = universities;
    data = wdr::workload::GenerateUniversityData(config);
    wdr::Rng rng(31);
    updates = wdr::workload::MakeUpdateSet(data.graph, data.vocab, 8, rng);
  }
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture(2);
  return *fixture;
}

// Baseline: recompute the whole closure after one instance insertion.
void BM_RecomputeAfterInstanceInsert(benchmark::State& state) {
  Fixture& f = SharedFixture();
  for (auto _ : state) {
    state.PauseTiming();
    wdr::rdf::Graph g = f.data.graph;
    g.Insert(f.updates.instance_insertions[0]);
    state.ResumeTiming();
    wdr::rdf::FlatTripleStore closure =
        wdr::reasoning::Saturator::SaturateGraph(g, f.data.vocab);
    benchmark::DoNotOptimize(closure.size());
  }
}
BENCHMARK(BM_RecomputeAfterInstanceInsert)->Unit(benchmark::kMillisecond);

// Incremental: maintain the existing closure through the same insertion.
void BM_MaintainInstanceInsert(benchmark::State& state) {
  Fixture& f = SharedFixture();
  wdr::reasoning::SaturatedGraph sg(f.data.graph, f.data.vocab);
  size_t i = 0;
  for (auto _ : state) {
    const wdr::rdf::Triple& t =
        f.updates.instance_insertions[i % f.updates.instance_insertions.size()];
    benchmark::DoNotOptimize(sg.Insert(t));
    state.PauseTiming();
    sg.Erase(t);
    state.ResumeTiming();
    ++i;
  }
}
BENCHMARK(BM_MaintainInstanceInsert)->Unit(benchmark::kMicrosecond);

void BM_MaintainInstanceDelete(benchmark::State& state) {
  Fixture& f = SharedFixture();
  wdr::reasoning::SaturatedGraph sg(f.data.graph, f.data.vocab);
  size_t i = 0;
  for (auto _ : state) {
    const wdr::rdf::Triple& t =
        f.updates.instance_deletions[i % f.updates.instance_deletions.size()];
    benchmark::DoNotOptimize(sg.Erase(t));
    state.PauseTiming();
    sg.Insert(t);
    state.ResumeTiming();
    ++i;
  }
}
BENCHMARK(BM_MaintainInstanceDelete)->Unit(benchmark::kMicrosecond);

// Schema updates touch many instances: the expensive maintenance case the
// paper singles out ("one constraint is typically used to derive more than
// one new fact").
void BM_MaintainSchemaInsert(benchmark::State& state) {
  Fixture& f = SharedFixture();
  wdr::reasoning::SaturatedGraph sg(f.data.graph, f.data.vocab);
  size_t i = 0;
  for (auto _ : state) {
    const wdr::rdf::Triple& t =
        f.updates.schema_insertions[i % f.updates.schema_insertions.size()];
    benchmark::DoNotOptimize(sg.Insert(t));
    state.PauseTiming();
    sg.Erase(t);
    state.ResumeTiming();
    ++i;
  }
}
BENCHMARK(BM_MaintainSchemaInsert)->Unit(benchmark::kMicrosecond);

void BM_MaintainSchemaDelete(benchmark::State& state) {
  Fixture& f = SharedFixture();
  wdr::reasoning::SaturatedGraph sg(f.data.graph, f.data.vocab);
  size_t i = 0;
  for (auto _ : state) {
    const wdr::rdf::Triple& t =
        f.updates.schema_deletions[i % f.updates.schema_deletions.size()];
    benchmark::DoNotOptimize(sg.Erase(t));
    state.PauseTiming();
    sg.Insert(t);
    state.ResumeTiming();
    ++i;
  }
}
BENCHMARK(BM_MaintainSchemaDelete)->Unit(benchmark::kMicrosecond);

// DRed scaling: deleting the schema edge at the top of a chain retracts a
// cascade proportional to depth.
void BM_SchemaDeleteCascadeDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  wdr::rdf::Graph g;
  wdr::schema::Vocabulary vocab = wdr::schema::Vocabulary::Intern(g.dict());
  auto cls = [&](int i) {
    return g.dict().InternIri("http://b.org/C" + std::to_string(i));
  };
  for (int i = 0; i + 1 < depth; ++i) {
    g.Insert(wdr::rdf::Triple(cls(i), vocab.sub_class_of, cls(i + 1)));
  }
  for (int i = 0; i < 500; ++i) {
    g.Insert(wdr::rdf::Triple(
        g.dict().InternIri("http://b.org/i" + std::to_string(i)), vocab.type,
        cls(0)));
  }
  wdr::reasoning::SaturatedGraph sg(g, vocab);
  wdr::rdf::Triple top(cls(0), vocab.sub_class_of, cls(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sg.Erase(top));
    state.PauseTiming();
    sg.Insert(top);
    state.ResumeTiming();
  }
  state.counters["closure"] = static_cast<double>(sg.closure().size());
}
BENCHMARK(BM_SchemaDeleteCascadeDepth)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

WDR_BENCH_MAIN();
