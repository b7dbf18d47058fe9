// The §II-D open issue: answering RDF queries "based on translation to
// Datalog". Shows both halves of the Datalog module:
//
//   1. A plain Datalog program (parsed from text, materialized bottom-up).
//   2. An RDF graph translated to Datalog: the RDFS rules become six
//      Datalog rules over a reified triple(s,p,o) predicate, and
//      materializing them computes exactly the saturation G∞.
#include <cstdlib>
#include <iostream>

#include "datalog/parser.h"
#include "datalog/rdf_datalog.h"
#include "io/turtle.h"
#include "query/sparql_parser.h"
#include "reasoning/saturation.h"

namespace {

constexpr const char* kGenealogy = R"(
% A classic: ancestors.
parent(margaret, victoria).
parent(victoria, edward).
parent(edward, george).
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
)";

constexpr const char* kRdfData = R"(
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:PhdStudent rdfs:subClassOf ex:GradStudent .
ex:GradStudent rdfs:subClassOf ex:Student .
ex:advisor rdfs:domain ex:Student ;
           rdfs:range  ex:Professor .
ex:dana a ex:PhdStudent ;
        ex:advisor ex:ada .
)";

}  // namespace

int main() {
  // --- Part 1: plain Datalog ---------------------------------------------
  auto program = wdr::datalog::ParseDatalog(kGenealogy);
  if (!program.ok()) {
    std::cerr << "datalog parse error: " << program.status() << "\n";
    return EXIT_FAILURE;
  }
  wdr::datalog::EvalStats stats;
  auto db = wdr::datalog::Materialize(*program,
                                      wdr::datalog::Strategy::kSemiNaive,
                                      &stats);
  if (!db.ok()) {
    std::cerr << "materialization error: " << db.status() << "\n";
    return EXIT_FAILURE;
  }
  auto ancestor = program->PredByName("ancestor");
  std::cout << "Genealogy program: " << stats.derived_tuples
            << " tuples derived in " << stats.iterations
            << " semi-naive rounds; ancestor relation:\n";
  for (const wdr::datalog::Tuple& t : db->relation(*ancestor).tuples()) {
    std::cout << "  ancestor(" << program->sym_name(t[0]) << ", "
              << program->sym_name(t[1]) << ")\n";
  }

  // --- Part 2: RDF through Datalog ---------------------------------------
  wdr::rdf::Graph graph;
  wdr::schema::Vocabulary vocab =
      wdr::schema::Vocabulary::Intern(graph.dict());
  auto parsed = wdr::io::ParseTurtle(kRdfData, graph);
  if (!parsed.ok()) {
    std::cerr << "turtle parse error: " << parsed.status() << "\n";
    return EXIT_FAILURE;
  }

  wdr::datalog::RdfDatalogTranslation xlat =
      wdr::datalog::TranslateGraph(graph, vocab);
  auto rdf_db = wdr::datalog::MaterializeTranslation(xlat, {}, &stats);
  if (!rdf_db.ok()) {
    std::cerr << "materialization error: " << rdf_db.status() << "\n";
    return EXIT_FAILURE;
  }
  std::cout << "\nRDF graph (" << graph.size() << " triples) translated to "
            << xlat.program.rules().size()
            << " rules over the store (a bridge + the RDFS rules, no facts); "
            << stats.derived_tuples << " triples derived.\n";

  // Cross-check against the native saturator.
  wdr::rdf::FlatTripleStore native =
      wdr::reasoning::Saturator::SaturateGraph(graph, vocab);
  std::cout << "Native saturator closure: " << native.size()
            << " triples; Datalog triple relation: "
            << rdf_db->relation(xlat.triple_pred).size()
            << " tuples (must match).\n";

  // Answer a SPARQL query through the Datalog route.
  auto query = wdr::query::ParseSparql(
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?x WHERE { ?x rdf:type ex:Student }",
      graph.dict());
  if (!query.ok()) {
    std::cerr << "query error: " << query.status() << "\n";
    return EXIT_FAILURE;
  }
  auto answers = wdr::datalog::AnswerViaDatalog(xlat, *rdf_db, *query);
  if (!answers.ok()) {
    std::cerr << "query answering error: " << answers.status() << "\n";
    return EXIT_FAILURE;
  }
  std::cout << "\nStudents (via Datalog):\n";
  for (const wdr::query::Row& row : answers->rows) {
    std::cout << "  " << graph.dict().term(row[0]).ToNTriples() << "\n";
  }
  return EXIT_SUCCESS;
}
