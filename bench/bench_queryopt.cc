// Ablations on the query evaluator, all feeding the paper's "efficient
// evaluation [of reformulated queries] remains challenging" (§II-B):
//   - greedy bound-first join ordering vs. the query's written atom order
//     (reformulated unions multiply whatever the per-CQ join costs);
//   - union evaluation on a real reformulated workload (Q6's 36-CQ union).
#include <benchmark/benchmark.h>

#include "bench_util.h"

#include "query/evaluator.h"
#include "query/query.h"
#include "reasoning/saturation.h"
#include "reformulation/reformulator.h"
#include "schema/schema.h"
#include "workload/queries.h"
#include "workload/university.h"

namespace {

using wdr::query::BgpQuery;
using wdr::query::PatternTerm;
using wdr::query::TriplePattern;

struct Fixture {
  wdr::workload::UniversityData data;
  wdr::rdf::FlatTripleStore closure;

  Fixture() {
    wdr::workload::UniversityConfig config;
    config.universities = 2;
    data = wdr::workload::GenerateUniversityData(config);
    closure = wdr::reasoning::Saturator::SaturateGraph(data.graph, data.vocab);
  }
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

// A deliberately badly-written query: the unselective atom first.
// (?s takesCourse ?c) . (?s type PhdStudent) . (?c type GraduateCourse)
BgpQuery BadlyOrderedQuery(const wdr::workload::UniversityData& data) {
  // Work on a const_cast-free copy of the dictionary via lookup only; all
  // IRIs exist in the generated data.
  const wdr::rdf::Dictionary& dict = data.graph.dict();
  BgpQuery q;
  q.SetDistinct(true);
  wdr::query::VarId s = q.AddVar("s");
  wdr::query::VarId c = q.AddVar("c");
  q.AddAtom(TriplePattern{
      PatternTerm::Variable(s),
      PatternTerm::Constant(dict.LookupIri(wdr::workload::univ::kTakesCourse)),
      PatternTerm::Variable(c)});
  q.AddAtom(TriplePattern{
      PatternTerm::Variable(s), PatternTerm::Constant(data.vocab.type),
      PatternTerm::Constant(dict.LookupIri(wdr::workload::univ::kPhdStudent))});
  q.AddAtom(TriplePattern{
      PatternTerm::Variable(c), PatternTerm::Constant(data.vocab.type),
      PatternTerm::Constant(
          dict.LookupIri(wdr::workload::univ::kGraduateCourse))});
  q.Project(s);
  q.Project(c);
  return q;
}

void RunOrderingBenchmark(benchmark::State& state, bool greedy) {
  Fixture& f = SharedFixture();
  wdr::query::Evaluator::Options options;
  options.greedy_join_order = greedy;
  wdr::query::Evaluator evaluator(f.closure, options);
  BgpQuery q = BadlyOrderedQuery(f.data);
  size_t answers = 0;
  for (auto _ : state) {
    answers = evaluator.Evaluate(q).rows.size();
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
}

void BM_GreedyJoinOrder(benchmark::State& state) {
  RunOrderingBenchmark(state, true);
}
void BM_WrittenJoinOrder(benchmark::State& state) {
  RunOrderingBenchmark(state, false);
}
BENCHMARK(BM_GreedyJoinOrder)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WrittenJoinOrder)->Unit(benchmark::kMicrosecond);

// The same ablation over a whole reformulated union (Q10, the largest of
// the standard set): the ordering benefit compounds across disjuncts.
void RunUnionOrdering(benchmark::State& state, bool greedy) {
  Fixture& f = SharedFixture();
  wdr::query::Evaluator::Options options;
  options.greedy_join_order = greedy;
  wdr::query::Evaluator evaluator(f.closure, options);
  auto queries = wdr::workload::StandardQuerySet(f.data.graph.dict());
  const BgpQuery& q = queries[9].query;  // Q10
  size_t answers = 0;
  for (auto _ : state) {
    answers = evaluator.Evaluate(q).rows.size();
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
}

void BM_GreedyJoinOrderQ10(benchmark::State& state) {
  RunUnionOrdering(state, true);
}
void BM_WrittenJoinOrderQ10(benchmark::State& state) {
  RunUnionOrdering(state, false);
}
BENCHMARK(BM_GreedyJoinOrderQ10)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WrittenJoinOrderQ10)->Unit(benchmark::kMicrosecond);

// Reformulated-union evaluation: Q6 (Faculty ⋈ teacherOf ⋈ Course)
// reformulates into a 36-CQ grid of overlapping branches, evaluated over
// the BASE graph (that is the reformulation technique: q_ref on G).
struct ReformulationFixture {
  wdr::workload::UniversityData data;
  wdr::query::UnionQuery q6_ref;

  ReformulationFixture() {
    wdr::workload::UniversityConfig config;
    config.universities = 8;
    data = wdr::workload::GenerateUniversityData(config);
    // Reformulation is exact only over a schema-closed graph.
    wdr::reformulation::CloseSchema(data.graph, data.vocab);
    wdr::schema::Schema schema =
        wdr::schema::Schema::FromGraph(data.graph, data.vocab);
    wdr::reformulation::Reformulator reformulator(schema, data.vocab);
    auto queries = wdr::workload::StandardQuerySet(data.graph.dict());
    auto reformulated = reformulator.Reformulate(queries[5].query);  // Q6
    q6_ref = std::move(reformulated).value();
  }
};

ReformulationFixture& SharedReformulationFixture() {
  static ReformulationFixture* fixture = new ReformulationFixture();
  return *fixture;
}

void BM_ReformulatedUnionQ6(benchmark::State& state) {
  ReformulationFixture& f = SharedReformulationFixture();
  wdr::query::Evaluator evaluator(f.data.graph.store());
  size_t answers = 0;
  for (auto _ : state) {
    answers = evaluator.Evaluate(f.q6_ref).rows.size();
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["CQs"] = static_cast<double>(f.q6_ref.size());
}
BENCHMARK(BM_ReformulatedUnionQ6)->Unit(benchmark::kMillisecond);

}  // namespace

WDR_BENCH_MAIN();
