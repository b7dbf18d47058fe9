// Quickstart: the paper's running examples, end to end.
//
//   1. Load a tiny graph (Turtle) with an RDFS schema.
//   2. Answer a query by SATURATION: materialize G∞, evaluate q on it.
//   3. Answer the same query by REFORMULATION: rewrite q into q_ref and
//      evaluate it on the *original* graph.
//   Both return the same answers — that is the defining equation
//   q_ref(G) = q(G∞).
#include <cstdlib>
#include <iostream>

#include "io/turtle.h"
#include "query/evaluator.h"
#include "query/sparql_parser.h"
#include "reasoning/saturation.h"
#include "reformulation/reformulator.h"
#include "schema/schema.h"
#include "schema/vocabulary.h"

namespace {

constexpr const char* kData = R"(
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex:   <http://example.org/> .

# Schema ("semantic constraints", Fig. 1 bottom)
ex:Cat       rdfs:subClassOf ex:Mammal .
ex:hasFriend rdfs:domain     ex:Person ;
             rdfs:range      ex:Person .

# Facts
ex:tom  a ex:Cat .
ex:anne ex:hasFriend ex:marie .
)";

constexpr const char* kQuery = R"(
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX ex:  <http://example.org/>
SELECT ?x WHERE { ?x rdf:type ex:Mammal }
)";

constexpr const char* kPersonQuery = R"(
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX ex:  <http://example.org/>
SELECT ?x WHERE { ?x rdf:type ex:Person }
)";

void PrintRows(const wdr::rdf::Graph& g, const wdr::query::ResultSet& rs) {
  for (const wdr::query::Row& row : rs.rows) {
    std::cout << "   ";
    for (wdr::rdf::TermId id : row) {
      std::cout << " " << g.dict().term(id).ToNTriples();
    }
    std::cout << "\n";
  }
  if (rs.rows.empty()) std::cout << "    (no answers)\n";
}

}  // namespace

int main() {
  wdr::rdf::Graph graph;
  wdr::schema::Vocabulary vocab =
      wdr::schema::Vocabulary::Intern(graph.dict());

  auto parsed = wdr::io::ParseTurtle(kData, graph);
  if (!parsed.ok()) {
    std::cerr << "parse error: " << parsed.status() << "\n";
    return EXIT_FAILURE;
  }
  std::cout << "Loaded " << *parsed << " triples.\n\n";

  for (const char* sparql : {kQuery, kPersonQuery}) {
    auto query = wdr::query::ParseSparql(sparql, graph.dict());
    if (!query.ok()) {
      std::cerr << "query error: " << query.status() << "\n";
      return EXIT_FAILURE;
    }

    std::cout << "Query:" << sparql;

    // Route 1 — saturation: compile the knowledge into the data.
    wdr::reasoning::SaturationStats stats;
    wdr::rdf::FlatTripleStore closure =
        wdr::reasoning::Saturator::SaturateGraph(graph, vocab, &stats);
    wdr::query::Evaluator closure_eval(closure);
    wdr::query::ResultSet via_saturation = closure_eval.Evaluate(*query);
    std::cout << "  via saturation   (" << stats.derived_triples
              << " triples materialized):\n";
    PrintRows(graph, via_saturation);

    // Route 2 — reformulation: compile the knowledge into the query.
    wdr::reformulation::CloseSchema(graph, vocab);
    wdr::schema::Schema schema = wdr::schema::Schema::FromGraph(graph, vocab);
    wdr::reformulation::Reformulator reformulator(schema, vocab);
    auto reformulated = reformulator.Reformulate(*query);
    if (!reformulated.ok()) {
      std::cerr << "reformulation error: " << reformulated.status() << "\n";
      return EXIT_FAILURE;
    }
    wdr::query::Evaluator base_eval(graph.store());
    wdr::query::ResultSet via_reformulation =
        base_eval.Evaluate(*reformulated);
    std::cout << "  via reformulation (union of " << reformulated->size()
              << " conjunctive queries, data untouched):\n";
    PrintRows(graph, via_reformulation);
    std::cout << "\n";
  }

  std::cout << "Both routes return the same answers: q_ref(G) = q(G∞).\n";
  return EXIT_SUCCESS;
}
