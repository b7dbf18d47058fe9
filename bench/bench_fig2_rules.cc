// Fig. 2 of the paper, executably: the four instance-level immediate
// entailment rules (rdfs9, rdfs7, rdfs2, rdfs3), each printed with a live
// example derivation, then benchmarked in isolation: a store is built that
// exercises exactly one rule and saturation throughput (derivations/sec)
// is measured per rule at increasing scale.
#include <cstdio>
#include <string>

#include <benchmark/benchmark.h>

#include "bench_util.h"

#include "reasoning/rules.h"
#include "reasoning/saturation.h"
#include "rdf/graph.h"
#include "schema/vocabulary.h"

namespace {

using wdr::rdf::Graph;
using wdr::rdf::Triple;
using wdr::schema::Vocabulary;

constexpr const char* kNs = "http://bench.example.org/";

wdr::rdf::TermId Id(Graph& g, const std::string& name) {
  return g.dict().InternIri(std::string(kNs) + name);
}

void PrintFig2Table() {
  std::printf("=== Fig. 2 — sample immediate entailment rules ===\n\n");
  struct Row {
    const char* rule;
    const char* premises;
    const char* conclusion;
  };
  const Row rows[] = {
      {"rdfs9", "c1 rdfs:subClassOf c2  AND  s rdf:type c1", "s rdf:type c2"},
      {"rdfs7", "p1 rdfs:subPropertyOf p2  AND  s p1 o", "s p2 o"},
      {"rdfs2", "p rdfs:domain c  AND  s p o", "s rdf:type c"},
      {"rdfs3", "p rdfs:range c  AND  s p o", "o rdf:type c"},
  };
  for (const Row& row : rows) {
    std::printf("%-7s %-48s |= %s\n", row.rule, row.premises, row.conclusion);
  }

  // A live derivation per rule, through the engine itself.
  Graph g;
  Vocabulary v = Vocabulary::Intern(g.dict());
  g.Insert(Triple(Id(g, "Cat"), v.sub_class_of, Id(g, "Mammal")));
  g.Insert(Triple(Id(g, "meows"), v.sub_property_of, Id(g, "speaks")));
  g.Insert(Triple(Id(g, "hasPet"), v.domain, Id(g, "Owner")));
  g.Insert(Triple(Id(g, "hasPet"), v.range, Id(g, "Pet")));
  g.Insert(Triple(Id(g, "tom"), v.type, Id(g, "Cat")));
  g.Insert(Triple(Id(g, "tom"), Id(g, "meows"), Id(g, "loudly")));
  g.Insert(Triple(Id(g, "anne"), Id(g, "hasPet"), Id(g, "tom")));
  wdr::reasoning::SaturationStats stats;
  wdr::reasoning::Saturator::SaturateGraph(g, v, &stats);
  std::printf("\nlive check on the paper's examples: ");
  for (int r = 0; r < wdr::reasoning::kRuleCount; ++r) {
    auto rule = static_cast<wdr::reasoning::RuleId>(r);
    std::printf("%s=%llu ", wdr::reasoning::RuleName(rule),
                static_cast<unsigned long long>(stats.firings[rule]));
  }
  std::printf("\n\n");
}

// One store per rule shape: `n` instance triples that each fire the rule
// exactly once.
enum class Shape { kRdfs9, kRdfs7, kRdfs2, kRdfs3 };

Graph MakeRuleGraph(Shape shape, int n, Vocabulary* vocab) {
  Graph g;
  *vocab = Vocabulary::Intern(g.dict());
  switch (shape) {
    case Shape::kRdfs9:
      g.Insert(Triple(Id(g, "Sub"), vocab->sub_class_of, Id(g, "Super")));
      for (int i = 0; i < n; ++i) {
        g.Insert(Triple(Id(g, "i" + std::to_string(i)), vocab->type,
                        Id(g, "Sub")));
      }
      break;
    case Shape::kRdfs7:
      g.Insert(Triple(Id(g, "sub"), vocab->sub_property_of, Id(g, "super")));
      for (int i = 0; i < n; ++i) {
        g.Insert(Triple(Id(g, "i" + std::to_string(i)), Id(g, "sub"),
                        Id(g, "j" + std::to_string(i))));
      }
      break;
    case Shape::kRdfs2:
      g.Insert(Triple(Id(g, "p"), vocab->domain, Id(g, "C")));
      for (int i = 0; i < n; ++i) {
        g.Insert(Triple(Id(g, "i" + std::to_string(i)), Id(g, "p"),
                        Id(g, "j" + std::to_string(i))));
      }
      break;
    case Shape::kRdfs3:
      g.Insert(Triple(Id(g, "p"), vocab->range, Id(g, "C")));
      for (int i = 0; i < n; ++i) {
        g.Insert(Triple(Id(g, "i" + std::to_string(i)), Id(g, "p"),
                        Id(g, "j" + std::to_string(i))));
      }
      break;
  }
  return g;
}

void RunRuleBenchmark(benchmark::State& state, Shape shape) {
  const int n = static_cast<int>(state.range(0));
  Vocabulary vocab;
  Graph g = MakeRuleGraph(shape, n, &vocab);
  wdr::reasoning::SaturationStats stats;
  for (auto _ : state) {
    wdr::rdf::FlatTripleStore closure =
        wdr::reasoning::Saturator::SaturateGraph(g, vocab, &stats);
    benchmark::DoNotOptimize(closure.size());
  }
  state.counters["derived"] = static_cast<double>(stats.derived_triples);
  state.counters["derivations/s"] = benchmark::Counter(
      static_cast<double>(stats.derived_triples) * state.iterations(),
      benchmark::Counter::kIsRate);
}

void BM_Rdfs9(benchmark::State& state) {
  RunRuleBenchmark(state, Shape::kRdfs9);
}
void BM_Rdfs7(benchmark::State& state) {
  RunRuleBenchmark(state, Shape::kRdfs7);
}
void BM_Rdfs2(benchmark::State& state) {
  RunRuleBenchmark(state, Shape::kRdfs2);
}
void BM_Rdfs3(benchmark::State& state) {
  RunRuleBenchmark(state, Shape::kRdfs3);
}
BENCHMARK(BM_Rdfs9)->Arg(1000)->Arg(10000);
BENCHMARK(BM_Rdfs7)->Arg(1000)->Arg(10000);
BENCHMARK(BM_Rdfs2)->Arg(1000)->Arg(10000);
BENCHMARK(BM_Rdfs3)->Arg(1000)->Arg(10000);

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_path = wdr::bench::ConsumeMetricsJsonFlag(&argc, argv);
  PrintFig2Table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!metrics_path.empty() && !wdr::bench::ExportMetricsJson(metrics_path)) {
    return 1;
  }
  return 0;
}
