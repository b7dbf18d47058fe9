#include "backward/backward_evaluator.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "query/evaluator.h"
#include "query/sparql_parser.h"
#include "reasoning/saturation.h"
#include "reformulation/reformulator.h"
#include "schema/schema.h"
#include "tests/test_util.h"

namespace wdr::backward {
namespace {

using query::BgpQuery;
using query::Evaluator;
using query::ResultSet;
using query::UnionQuery;
using rdf::FlatTripleStore;
using rdf::Graph;
using schema::Schema;
using schema::Vocabulary;
using test::Add;
using test::Rows;

class BackwardTest : public ::testing::Test {
 protected:
  Graph g_;
  Vocabulary v_ = Vocabulary::Intern(g_.dict());

  UnionQuery MustParse(const std::string& sparql) {
    auto q = query::ParseSparql(sparql, g_.dict());
    EXPECT_TRUE(q.ok()) << q.status();
    return *q;
  }

  ResultSet AnswerBackward(const UnionQuery& q, BackwardStats* stats = nullptr) {
    reformulation::CloseSchema(g_, v_);
    Schema schema = Schema::FromGraph(g_, v_);
    BackwardChainingEvaluator evaluator(g_.store(), schema, v_);
    ResultSet result = evaluator.Evaluate(q, stats);
    result.Normalize();
    return result;
  }

  ResultSet AnswerSaturated(const UnionQuery& q) {
    FlatTripleStore closure = reasoning::Saturator::SaturateGraph(g_, v_);
    Evaluator evaluator(closure);
    ResultSet result = evaluator.Evaluate(q);
    result.Normalize();
    return result;
  }
};

constexpr const char* kPrefixes =
    "PREFIX t: <http://test.example.org/>\n"
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n";

TEST_F(BackwardTest, FindsEntailedTypesAtRunTime) {
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Tom", schema::iri::kType, "Cat");
  UnionQuery q = MustParse(std::string(kPrefixes) +
                           "SELECT ?x WHERE { ?x rdf:type t:Mammal }");
  EXPECT_EQ(Rows(g_, AnswerBackward(q)),
            (std::set<std::vector<std::string>>{
                {"<http://test.example.org/Tom>"}}));
}

TEST_F(BackwardTest, NoMaterializationHappens) {
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Tom", schema::iri::kType, "Cat");
  size_t before = g_.size();
  UnionQuery q = MustParse(std::string(kPrefixes) +
                           "SELECT ?x WHERE { ?x rdf:type t:Mammal }");
  AnswerBackward(q);
  // CloseSchema may add schema triples, but no instance triple appears.
  EXPECT_FALSE(
      g_.Contains(test::Enc(g_, "Tom", schema::iri::kType, "Mammal")));
  EXPECT_EQ(g_.size(), before);  // no transitive schema edges to add here
}

TEST_F(BackwardTest, JoinPushesBindingsAcrossExpandedAtoms) {
  Add(g_, "GradStudent", schema::iri::kSubClassOf, "Student");
  Add(g_, "advisor", schema::iri::kDomain, "Student");
  Add(g_, "sam", schema::iri::kType, "GradStudent");
  Add(g_, "sam", "advisor", "ada");
  Add(g_, "kim", "advisor", "ada");
  UnionQuery q = MustParse(
      std::string(kPrefixes) +
      "SELECT ?s WHERE { ?s rdf:type t:Student . ?s t:advisor t:ada }");
  BackwardStats stats;
  ResultSet result = AnswerBackward(q, &stats);
  EXPECT_EQ(result.rows.size(), 2u);
  EXPECT_GT(stats.atom_alternatives, 2u);
  EXPECT_GT(stats.index_probes, 0u);
}

TEST_F(BackwardTest, VariablePropertyAndClassPositions) {
  Add(g_, "headOf", schema::iri::kSubPropertyOf, "worksFor");
  Add(g_, "alice", "headOf", "dept");
  UnionQuery q = MustParse(std::string(kPrefixes) +
                           "SELECT ?p WHERE { t:alice ?p t:dept }");
  EXPECT_EQ(Rows(g_, AnswerBackward(q)),
            (std::set<std::vector<std::string>>{
                {"<http://test.example.org/headOf>"},
                {"<http://test.example.org/worksFor>"}}));
}

// Invariant 1 of DESIGN.md, third leg: backward chaining agrees with both
// saturation and reformulation on random instances.
TEST(BackwardPropertyTest, AgreesWithSaturationAndReformulation) {
  for (uint64_t seed = 200; seed < 240; ++seed) {
    Rng rng(seed);
    test::RandomGraph rg = test::MakeRandomGraph(rng, {});
    reformulation::CloseSchema(rg.graph, rg.vocab);
    Schema schema = Schema::FromGraph(rg.graph, rg.vocab);

    FlatTripleStore closure =
        reasoning::Saturator::SaturateGraph(rg.graph, rg.vocab);
    Evaluator closure_eval(closure);
    Evaluator base_eval(rg.graph.store());
    BackwardChainingEvaluator backward(rg.graph.store(), schema, rg.vocab);
    reformulation::Reformulator reformulator(schema, rg.vocab);

    for (int qi = 0; qi < 4; ++qi) {
      BgpQuery q = test::MakeRandomQuery(rng, rg);

      ResultSet via_backward = backward.Evaluate(q);
      ResultSet via_sat = closure_eval.Evaluate(q);
      via_backward.Normalize();
      via_sat.Normalize();
      ASSERT_EQ(test::Rows(rg.graph, via_backward),
                test::Rows(rg.graph, via_sat))
          << "backward vs saturation, seed " << seed << " query " << qi;

      auto reformulated = reformulator.Reformulate(q);
      ASSERT_TRUE(reformulated.ok());
      ResultSet via_ref = base_eval.Evaluate(*reformulated);
      via_ref.Normalize();
      ASSERT_EQ(test::Rows(rg.graph, via_backward),
                test::Rows(rg.graph, via_ref))
          << "backward vs reformulation, seed " << seed << " query " << qi;
    }
  }
}

}  // namespace
}  // namespace wdr::backward
