// Ablation: federated reformulation-based answering vs. centralizing
// everything into one saturated store (§I: integrating autonomous
// endpoints; §II-D: maintaining saturation "especially in a distributed
// setting" is open — reformulation sidesteps it entirely).
#include <string>

#include <benchmark/benchmark.h>

#include "bench_util.h"

#include "federation/federation.h"
#include "query/evaluator.h"
#include "reasoning/saturation.h"
#include "workload/queries.h"
#include "workload/university.h"

namespace {

// Splits a university dataset across `endpoints` federation members,
// round-robin by triple.
wdr::federation::Federation MakeFederation(
    const wdr::workload::UniversityData& data, int endpoints) {
  wdr::federation::Federation fed;
  for (int e = 0; e < endpoints; ++e) {
    fed.AddEndpoint("endpoint" + std::to_string(e));
  }
  size_t i = 0;
  data.graph.store().Match(0, 0, 0, [&](const wdr::rdf::Triple& t) {
    wdr::rdf::Triple encoded(
        fed.dict().Intern(data.graph.dict().term(t.s)),
        fed.dict().Intern(data.graph.dict().term(t.p)),
        fed.dict().Intern(data.graph.dict().term(t.o)));
    fed.Insert(i % endpoints, encoded);
    ++i;
  });
  return fed;
}

constexpr const char* kPersonsQuery =
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
    "PREFIX u: <http://wdr.example.org/univ#>\n"
    "SELECT ?x WHERE { ?x rdf:type u:Person }";

// Federated query latency vs. endpoint count (same total data).
void BM_FederatedQuery(benchmark::State& state) {
  wdr::workload::UniversityConfig config;
  config.universities = 2;
  wdr::workload::UniversityData data =
      wdr::workload::GenerateUniversityData(config);
  wdr::federation::Federation fed =
      MakeFederation(data, static_cast<int>(state.range(0)));
  size_t answers = 0;
  for (auto _ : state) {
    auto result = fed.Query(kPersonsQuery);
    answers = result.ok() ? result->rows.size() : 0;
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["endpoints"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_FederatedQuery)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The centralized alternative: merge + saturate once, then query. The
// per-query cost is lower, but every endpoint update would invalidate the
// central closure — the trade-off Fig. 3 quantifies.
void BM_CentralizedSaturatedQuery(benchmark::State& state) {
  wdr::workload::UniversityConfig config;
  config.universities = 2;
  wdr::workload::UniversityData data =
      wdr::workload::GenerateUniversityData(config);
  wdr::rdf::FlatTripleStore closure =
      wdr::reasoning::Saturator::SaturateGraph(data.graph, data.vocab);
  auto queries = wdr::workload::StandardQuerySet(data.graph.dict());
  wdr::query::Evaluator evaluator(closure);
  size_t answers = 0;
  for (auto _ : state) {
    answers = evaluator.Evaluate(queries[0].query).rows.size();  // Q1
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_CentralizedSaturatedQuery)->Unit(benchmark::kMillisecond);

// One-time cost of centralizing: merging + saturating the union — what a
// federation would have to redo whenever any endpoint changes.
void BM_CentralizeAndSaturate(benchmark::State& state) {
  wdr::workload::UniversityConfig config;
  config.universities = 2;
  wdr::workload::UniversityData data =
      wdr::workload::GenerateUniversityData(config);
  wdr::federation::Federation fed = MakeFederation(data, 4);
  for (auto _ : state) {
    wdr::rdf::FlatTripleStore merged;
    for (wdr::federation::EndpointId e = 0; e < fed.endpoint_count(); ++e) {
      fed.endpoint_store(e).Match(0, 0, 0, [&](const wdr::rdf::Triple& t) {
        merged.Insert(t);
      });
    }
    wdr::reasoning::Saturator saturator(fed.vocab(), &fed.dict());
    wdr::rdf::FlatTripleStore closure = saturator.Saturate(merged);
    benchmark::DoNotOptimize(closure.size());
  }
}
BENCHMARK(BM_CentralizeAndSaturate)->Unit(benchmark::kMillisecond);

}  // namespace

WDR_BENCH_MAIN();
