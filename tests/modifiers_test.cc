// Solution modifiers (ASK / LIMIT / OFFSET) across every answering route:
// all routes must honor them identically.
#include <gtest/gtest.h>

#include "backward/backward_evaluator.h"
#include "datalog/rdf_datalog.h"
#include "query/evaluator.h"
#include "query/sparql_parser.h"
#include "reasoning/saturation.h"
#include "reformulation/reformulator.h"
#include "schema/schema.h"
#include "store/reasoning_store.h"
#include "tests/test_util.h"

namespace wdr::query {
namespace {

using rdf::Graph;
using schema::Vocabulary;
using test::Add;

class ModifiersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    v_ = Vocabulary::Intern(g_.dict());
    Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
    for (int i = 0; i < 6; ++i) {
      Add(g_, "cat" + std::to_string(i), schema::iri::kType, "Cat");
    }
  }

  UnionQuery MustParse(const std::string& sparql) {
    auto q = ParseSparql(sparql, g_.dict());
    EXPECT_TRUE(q.ok()) << q.status();
    return *q;
  }

  Graph g_;
  Vocabulary v_;
};

constexpr const char* kPrefixes =
    "PREFIX t: <http://test.example.org/>\n"
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n";

TEST_F(ModifiersTest, LimitTruncatesAndOffsetSkips) {
  Evaluator eval(g_.store());
  UnionQuery q = MustParse(std::string(kPrefixes) +
                           "SELECT ?x WHERE { ?x rdf:type t:Cat } LIMIT 2");
  EXPECT_EQ(eval.Evaluate(q).rows.size(), 2u);

  UnionQuery offset = MustParse(
      std::string(kPrefixes) +
      "SELECT ?x WHERE { ?x rdf:type t:Cat } OFFSET 4");
  EXPECT_EQ(eval.Evaluate(offset).rows.size(), 2u);  // 6 - 4

  UnionQuery both = MustParse(
      std::string(kPrefixes) +
      "SELECT ?x WHERE { ?x rdf:type t:Cat } LIMIT 3 OFFSET 5");
  EXPECT_EQ(eval.Evaluate(both).rows.size(), 1u);  // only one row remains

  UnionQuery over = MustParse(
      std::string(kPrefixes) +
      "SELECT ?x WHERE { ?x rdf:type t:Cat } OFFSET 100");
  EXPECT_TRUE(eval.Evaluate(over).rows.empty());
}

TEST_F(ModifiersTest, AskReportsBooleanInEveryRoute) {
  UnionQuery yes = MustParse(std::string(kPrefixes) +
                             "ASK { ?x rdf:type t:Mammal }");
  UnionQuery no = MustParse(std::string(kPrefixes) +
                            "ASK { ?x rdf:type t:Dog }");

  reformulation::CloseSchema(g_, v_);
  schema::Schema schema = schema::Schema::FromGraph(g_, v_);
  rdf::FlatTripleStore closure = reasoning::Saturator::SaturateGraph(g_, v_);

  // Saturation route.
  Evaluator closure_eval(closure);
  EXPECT_EQ(closure_eval.Evaluate(yes).rows.size(), 1u);
  EXPECT_TRUE(closure_eval.Evaluate(yes).rows[0].empty());
  EXPECT_TRUE(closure_eval.Evaluate(no).rows.empty());

  // Reformulation route (entailed Mammals found on the base graph).
  reformulation::Reformulator reformulator(schema, v_);
  Evaluator base_eval(g_.store());
  auto yes_ref = reformulator.Reformulate(yes);
  ASSERT_TRUE(yes_ref.ok());
  EXPECT_TRUE(yes_ref->ask());
  EXPECT_EQ(base_eval.Evaluate(*yes_ref).rows.size(), 1u);

  // Backward route.
  backward::BackwardChainingEvaluator backward_eval(g_.store(), schema, v_);
  EXPECT_EQ(backward_eval.Evaluate(yes).rows.size(), 1u);
  EXPECT_TRUE(backward_eval.Evaluate(no).rows.empty());

  // Datalog route.
  datalog::RdfDatalogTranslation xlat = datalog::TranslateGraph(g_, v_);
  auto db = datalog::MaterializeTranslation(xlat);
  ASSERT_TRUE(db.ok());
  auto via_dl = datalog::AnswerViaDatalog(xlat, *db, yes);
  ASSERT_TRUE(via_dl.ok());
  EXPECT_EQ(via_dl->rows.size(), 1u);
}

TEST_F(ModifiersTest, ReformulationPreservesLimit) {
  reformulation::CloseSchema(g_, v_);
  schema::Schema schema = schema::Schema::FromGraph(g_, v_);
  reformulation::Reformulator reformulator(schema, v_);
  UnionQuery q = MustParse(
      std::string(kPrefixes) +
      "SELECT ?x WHERE { ?x rdf:type t:Mammal } LIMIT 3");
  auto reformulated = reformulator.Reformulate(q);
  ASSERT_TRUE(reformulated.ok());
  EXPECT_EQ(reformulated->limit(), 3u);
  Evaluator base_eval(g_.store());
  EXPECT_EQ(base_eval.Evaluate(*reformulated).rows.size(), 3u);
}

TEST_F(ModifiersTest, StoreQueryHonorsModifiers) {
  store::ReasoningStore store_instance;
  ASSERT_TRUE(store_instance
                  .Update(std::string(kPrefixes) +
                          "INSERT DATA { t:Cat "
                          "<http://www.w3.org/2000/01/rdf-schema#subClassOf>"
                          " t:Mammal . t:a a t:Cat . t:b a t:Cat }")
                  .ok());
  auto ask = store_instance.Query(std::string(kPrefixes) +
                                  "ASK { ?x rdf:type t:Mammal }");
  ASSERT_TRUE(ask.ok()) << ask.status();
  EXPECT_EQ(ask->rows.size(), 1u);

  auto limited = store_instance.Query(
      std::string(kPrefixes) +
      "SELECT ?x WHERE { ?x rdf:type t:Mammal } LIMIT 1");
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->rows.size(), 1u);
}

}  // namespace
}  // namespace wdr::query
