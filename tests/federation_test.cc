#include "federation/federation.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "query/evaluator.h"
#include "query/sparql_parser.h"
#include "rdf/graph.h"
#include "rdf/union_store.h"
#include "reasoning/saturation.h"
#include "tests/test_util.h"

namespace wdr::federation {
namespace {

TEST(UnionStoreTest, ReportsEachTripleOnce) {
  rdf::FlatTripleStore a, b;
  a.Insert(rdf::Triple(1, 2, 3));
  a.Insert(rdf::Triple(4, 2, 5));
  b.Insert(rdf::Triple(1, 2, 3));  // duplicate across members
  b.Insert(rdf::Triple(6, 2, 7));
  rdf::UnionStore view({&a, &b});
  EXPECT_EQ(view.Count(0, 0, 0), 3u);
  EXPECT_EQ(view.Count(0, 2, 0), 3u);
  EXPECT_EQ(view.Count(1, 2, 3), 1u);
  EXPECT_TRUE(view.Contains(rdf::Triple(6, 2, 7)));
  EXPECT_FALSE(view.Contains(rdf::Triple(9, 9, 9)));
  EXPECT_EQ(view.size(), 4u);  // upper bound, duplicates included
  EXPECT_GE(view.EstimateCount(0, 2, 0), 3u);
}

TEST(UnionStoreTest, EarlyTerminationPropagates) {
  rdf::FlatTripleStore a, b;
  for (rdf::TermId i = 1; i <= 5; ++i) a.Insert(rdf::Triple(i, 1, 1));
  for (rdf::TermId i = 6; i <= 9; ++i) b.Insert(rdf::Triple(i, 1, 1));
  rdf::UnionStore view({&a, &b});
  int seen = 0;
  view.Match(0, 0, 0, [&](const rdf::Triple&) { return ++seen < 3; });
  EXPECT_EQ(seen, 3);
}

constexpr const char* kEndpointSocial = R"(
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix soc: <http://social.org/> .
soc:follows rdfs:domain soc:Account .
soc:alice soc:follows soc:bob .
)";

constexpr const char* kEndpointHr = R"(
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix soc: <http://social.org/> .
@prefix hr: <http://hr.org/> .
hr:Employee rdfs:subClassOf soc:Account .
hr:carol a hr:Employee .
)";

constexpr const char* kAccountsQuery =
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
    "PREFIX soc: <http://social.org/>\n"
    "SELECT ?x WHERE { ?x rdf:type soc:Account }";

TEST(FederationTest, CrossEndpointEntailment) {
  Federation fed;
  EndpointId social = fed.AddEndpoint("social");
  EndpointId hr = fed.AddEndpoint("hr");
  ASSERT_TRUE(fed.LoadTurtle(social, kEndpointSocial).ok());
  ASSERT_TRUE(fed.LoadTurtle(hr, kEndpointHr).ok());
  EXPECT_EQ(fed.endpoint_count(), 2u);
  EXPECT_EQ(fed.endpoint_name(hr), "hr");

  FederationQueryInfo info;
  auto result = fed.Query(kAccountsQuery, &info);
  ASSERT_TRUE(result.ok()) << result.status();
  // alice via social's own domain constraint; carol via hr's subclass
  // constraint — an hr constraint applied to hr facts, and a social
  // constraint applied to social facts, answered in one query.
  EXPECT_EQ(result->rows.size(), 2u);
  EXPECT_GT(info.union_size, 1u);
  EXPECT_EQ(info.endpoints_scanned, 2u);
}

TEST(FederationTest, ConstraintsFromOneEndpointApplyToFactsFromAnother) {
  Federation fed;
  EndpointId schema_ep = fed.AddEndpoint("ontology");
  EndpointId data_ep = fed.AddEndpoint("data");
  ASSERT_TRUE(fed.LoadTurtle(schema_ep,
                             "@prefix rdfs: "
                             "<http://www.w3.org/2000/01/rdf-schema#> .\n"
                             "@prefix ex: <http://ex.org/> .\n"
                             "ex:Cat rdfs:subClassOf ex:Mammal .")
                  .ok());
  ASSERT_TRUE(fed.LoadTurtle(data_ep,
                             "@prefix ex: <http://ex.org/> .\n"
                             "ex:tom a ex:Cat .")
                  .ok());
  auto result = fed.Query(
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT ?x WHERE { ?x rdf:type ex:Mammal }");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows.size(), 1u);
}

TEST(FederationTest, UpdatesTakeEffectImmediately) {
  Federation fed;
  EndpointId ep = fed.AddEndpoint("e");
  ASSERT_TRUE(fed.LoadTurtle(ep, kEndpointSocial).ok());
  auto before = fed.Query(kAccountsQuery);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->rows.size(), 1u);

  // A second endpoint appears with a schema revision and data; no closure
  // to maintain anywhere.
  EndpointId late = fed.AddEndpoint("late");
  ASSERT_TRUE(fed.LoadTurtle(late, kEndpointHr).ok());
  auto after = fed.Query(kAccountsQuery);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows.size(), 2u);

  // Retract carol's typing.
  rdf::Triple carol(fed.dict().InternIri("http://hr.org/carol"),
                    fed.vocab().type,
                    fed.dict().InternIri("http://hr.org/Employee"));
  EXPECT_TRUE(fed.Erase(late, carol));
  EXPECT_FALSE(fed.Erase(late, carol));
  auto retracted = fed.Query(kAccountsQuery);
  ASSERT_TRUE(retracted.ok());
  EXPECT_EQ(retracted->rows.size(), 1u);
}

TEST(FederationTest, LoadIntoUnknownEndpointFails) {
  Federation fed;
  EXPECT_FALSE(fed.LoadTurtle(3, "").ok());
}

// Property: federation answers equal merging all endpoints into one graph
// and saturating it — on random data split across random endpoints.
TEST(FederationPropertyTest, EqualsMergedSaturation) {
  for (uint64_t seed = 600; seed < 615; ++seed) {
    Rng rng(seed);
    test::RandomGraph rg = test::MakeRandomGraph(rng, {});

    Federation fed;
    const int endpoint_count = 3;
    for (int e = 0; e < endpoint_count; ++e) {
      fed.AddEndpoint("e" + std::to_string(e));
    }
    // Re-encode each triple into the federation dictionary, assigning it
    // to a random endpoint (some triples to several endpoints).
    rg.graph.store().Match(0, 0, 0, [&](const rdf::Triple& t) {
      rdf::Triple encoded(fed.dict().Intern(rg.graph.dict().term(t.s)),
                          fed.dict().Intern(rg.graph.dict().term(t.p)),
                          fed.dict().Intern(rg.graph.dict().term(t.o)));
      fed.Insert(static_cast<EndpointId>(rng.Uniform(0, endpoint_count - 1)),
                 encoded);
      if (rng.Chance(0.2)) {
        fed.Insert(
            static_cast<EndpointId>(rng.Uniform(0, endpoint_count - 1)),
            encoded);
      }
    });

    // Ground truth: merged + saturated, evaluated directly.
    rdf::FlatTripleStore closure =
        reasoning::Saturator::SaturateGraph(rg.graph, rg.vocab);
    query::Evaluator closure_eval(closure);

    for (int qi = 0; qi < 3; ++qi) {
      query::BgpQuery q = test::MakeRandomQuery(rng, rg);
      // The query was built against rg's dictionary; ids match because the
      // federation interned the same terms in the same order... which is
      // NOT guaranteed. Translate the constants explicitly.
      query::BgpQuery translated = q;
      for (query::TriplePattern& atom : translated.mutable_atoms()) {
        for (query::PatternTerm* pos : {&atom.s, &atom.p, &atom.o}) {
          if (pos->is_const()) {
            pos->id = fed.dict().Intern(rg.graph.dict().term(pos->id));
          }
        }
      }
      auto federated = fed.Query(query::UnionQuery::Single(translated));
      ASSERT_TRUE(federated.ok()) << federated.status();
      federated->Normalize();
      std::set<std::vector<std::string>> result_rows;
      for (const query::Row& row : federated->rows) {
        std::vector<std::string> decoded;
        for (rdf::TermId id : row) {
          decoded.push_back(id == rdf::kNullTermId
                                ? "<unbound>"
                                : fed.dict().term(id).ToNTriples());
        }
        result_rows.insert(decoded);
      }

      query::ResultSet expected = closure_eval.Evaluate(q);
      expected.Normalize();
      ASSERT_EQ(result_rows, test::Rows(rg.graph, expected))
          << "seed " << seed << " query " << qi;
    }
  }
}

}  // namespace
}  // namespace wdr::federation
