#include "datalog/rdf_datalog.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "query/evaluator.h"
#include "reasoning/saturation.h"
#include "tests/test_util.h"

namespace wdr::datalog {
namespace {

using rdf::FlatTripleStore;
using rdf::Graph;
using schema::Vocabulary;
using test::Add;
using test::Enc;

class RdfDatalogTest : public ::testing::Test {
 protected:
  Graph g_;
  Vocabulary v_ = Vocabulary::Intern(g_.dict());
};

TEST_F(RdfDatalogTest, TranslationShape) {
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Tom", schema::iri::kType, "Cat");
  RdfDatalogTranslation xlat = TranslateGraph(g_, v_);
  EXPECT_EQ(xlat.program.rules().size(), 6u);  // the RDFS rule set
  // One triple fact per graph triple + one resource fact per non-literal.
  size_t triple_facts = 0, resource_facts = 0;
  for (const DlAtom& fact : xlat.program.facts()) {
    if (fact.pred == xlat.triple_pred) ++triple_facts;
    if (fact.pred == xlat.resource_pred) ++resource_facts;
  }
  EXPECT_EQ(triple_facts, g_.size());
  EXPECT_EQ(resource_facts, g_.dict().size());
  EXPECT_TRUE(xlat.program.Validate().ok());
}

TEST_F(RdfDatalogTest, LiteralsGetNoResourceFact) {
  Add(g_, "x", "name", "\"Bob");
  RdfDatalogTranslation xlat = TranslateGraph(g_, v_);
  size_t resource_facts = 0;
  for (const DlAtom& fact : xlat.program.facts()) {
    if (fact.pred == xlat.resource_pred) ++resource_facts;
  }
  EXPECT_EQ(resource_facts, g_.dict().size() - 1);
}

TEST_F(RdfDatalogTest, MaterializationMatchesNativeSaturatorSmall) {
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Mammal", schema::iri::kSubClassOf, "Animal");
  Add(g_, "hasPet", schema::iri::kRange, "Animal");
  Add(g_, "Tom", schema::iri::kType, "Cat");
  Add(g_, "anne", "hasPet", "Tom");
  auto via_datalog = MaterializeViaDatalog(g_, v_);
  ASSERT_TRUE(via_datalog.ok()) << via_datalog.status();
  FlatTripleStore native = reasoning::Saturator::SaturateGraph(g_, v_);
  EXPECT_EQ(via_datalog->ToVector(), native.ToVector());
}

TEST_F(RdfDatalogTest, QueryAnsweringThroughDatalog) {
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Tom", schema::iri::kType, "Cat");
  RdfDatalogTranslation xlat = TranslateGraph(g_, v_);
  auto db = Materialize(xlat.program, Strategy::kSemiNaive);
  ASSERT_TRUE(db.ok());

  query::BgpQuery q;
  query::VarId x = q.AddVar("x");
  q.AddAtom({query::PatternTerm::Variable(x),
             query::PatternTerm::Constant(v_.type),
             query::PatternTerm::Constant(g_.dict().Intern(test::T("Mammal")))});
  q.Project(x);
  auto result = AnswerViaDatalog(xlat, *db, query::UnionQuery::Single(q));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(test::Rows(g_, *result),
            (std::set<std::vector<std::string>>{
                {"<http://test.example.org/Tom>"}}));
}

// Invariant: the Datalog route computes exactly G∞ on random graphs, with
// both strategies.
TEST(RdfDatalogPropertyTest, MaterializationEqualsNativeSaturation) {
  for (uint64_t seed = 300; seed < 320; ++seed) {
    Rng rng(seed);
    test::RandomGraph rg = test::MakeRandomGraph(rng, {});
    FlatTripleStore native =
        reasoning::Saturator::SaturateGraph(rg.graph, rg.vocab);
    for (Strategy strategy : {Strategy::kNaive, Strategy::kSemiNaive}) {
      auto via_datalog = MaterializeViaDatalog(rg.graph, rg.vocab, strategy);
      ASSERT_TRUE(via_datalog.ok()) << via_datalog.status();
      ASSERT_EQ(via_datalog->ToVector(), native.ToVector())
          << "seed " << seed << " strategy "
          << (strategy == Strategy::kNaive ? "naive" : "semi-naive");
    }
  }
}

// And query answers through Datalog match query answers over the closure.
TEST(RdfDatalogPropertyTest, QueryAnswersMatchSaturatedEvaluation) {
  for (uint64_t seed = 400; seed < 415; ++seed) {
    Rng rng(seed);
    test::RandomGraph rg = test::MakeRandomGraph(rng, {});
    FlatTripleStore closure =
        reasoning::Saturator::SaturateGraph(rg.graph, rg.vocab);
    query::Evaluator closure_eval(closure);

    RdfDatalogTranslation xlat = TranslateGraph(rg.graph, rg.vocab);
    auto db = Materialize(xlat.program, Strategy::kSemiNaive);
    ASSERT_TRUE(db.ok());

    for (int qi = 0; qi < 4; ++qi) {
      query::BgpQuery q = test::MakeRandomQuery(rng, rg);
      auto via_datalog =
          AnswerViaDatalog(xlat, *db, query::UnionQuery::Single(q));
      ASSERT_TRUE(via_datalog.ok()) << via_datalog.status();
      query::ResultSet via_sat = closure_eval.Evaluate(q);
      via_datalog->Normalize();
      via_sat.Normalize();
      ASSERT_EQ(test::Rows(rg.graph, *via_datalog),
                test::Rows(rg.graph, via_sat))
          << "seed " << seed << " query " << qi;
    }
  }
}

}  // namespace
}  // namespace wdr::datalog
