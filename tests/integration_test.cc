// End-to-end integration: the full pipeline on the university workload.
// All four query-answering routes (saturation, reformulation, backward
// chaining, Datalog translation) must agree on every standard query; and
// the saturation side must stay correct across a mixed update stream.
#include <gtest/gtest.h>

#include "backward/backward_evaluator.h"
#include "common/rng.h"
#include "datalog/rdf_datalog.h"
#include "io/ntriples.h"
#include "query/evaluator.h"
#include "reasoning/saturated_graph.h"
#include "reformulation/reformulator.h"
#include "schema/schema.h"
#include "tests/test_util.h"
#include "workload/queries.h"
#include "workload/university.h"
#include "workload/updates.h"

namespace wdr {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::UniversityConfig config;
    config.universities = 1;
    config.departments_per_university = 2;
    config.students_per_department = 25;
    config.professors_per_department = 5;
    data_ = new workload::UniversityData(
        workload::GenerateUniversityData(config));
    reformulation::CloseSchema(data_->graph, data_->vocab);
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static workload::UniversityData* data_;
};

workload::UniversityData* IntegrationTest::data_ = nullptr;

TEST_F(IntegrationTest, AllFourStrategiesAgreeOnStandardQueries) {
  workload::UniversityData& data = *data_;
  schema::Schema schema = schema::Schema::FromGraph(data.graph, data.vocab);

  reasoning::SaturatedGraph saturated(data.graph, data.vocab);
  query::Evaluator closure_eval(saturated.closure());
  query::Evaluator base_eval(data.graph.store());
  reformulation::Reformulator reformulator(schema, data.vocab);
  backward::BackwardChainingEvaluator backward_eval(data.graph.store(),
                                                    schema, data.vocab);
  datalog::RdfDatalogTranslation xlat =
      datalog::TranslateGraph(data.graph, data.vocab);
  auto db = datalog::MaterializeTranslation(xlat);
  ASSERT_TRUE(db.ok());

  for (const workload::NamedQuery& nq :
       workload::StandardQuerySet(data.graph.dict())) {
    query::UnionQuery q = query::UnionQuery::Single(nq.query);

    query::ResultSet via_sat = closure_eval.Evaluate(q);
    via_sat.Normalize();

    auto reformulated = reformulator.Reformulate(q);
    ASSERT_TRUE(reformulated.ok()) << nq.name << ": "
                                   << reformulated.status();
    query::ResultSet via_ref = base_eval.Evaluate(*reformulated);
    via_ref.Normalize();

    query::ResultSet via_bwd = backward_eval.Evaluate(q);
    via_bwd.Normalize();

    auto via_dl = datalog::AnswerViaDatalog(xlat, *db, q);
    ASSERT_TRUE(via_dl.ok()) << nq.name;
    via_dl->Normalize();

    ASSERT_EQ(test::Rows(data.graph, via_ref),
              test::Rows(data.graph, via_sat))
        << nq.name << ": reformulation vs saturation";
    ASSERT_EQ(test::Rows(data.graph, via_bwd),
              test::Rows(data.graph, via_sat))
        << nq.name << ": backward chaining vs saturation";
    ASSERT_EQ(test::Rows(data.graph, *via_dl),
              test::Rows(data.graph, via_sat))
        << nq.name << ": datalog vs saturation";
  }
}

TEST_F(IntegrationTest, MaintainedClosureSurvivesMixedUpdateStream) {
  workload::UniversityData data = *data_;  // private copy, mutated below
  reasoning::SaturatedGraph saturated(data.graph, data.vocab);

  Rng rng(77);
  workload::UpdateSet updates =
      workload::MakeUpdateSet(data.graph, data.vocab, 8, rng);

  for (const rdf::Triple& t : updates.instance_insertions) {
    saturated.Insert(t);
  }
  for (const rdf::Triple& t : updates.schema_insertions) saturated.Insert(t);
  for (const rdf::Triple& t : updates.instance_deletions) saturated.Erase(t);
  for (const rdf::Triple& t : updates.schema_deletions) saturated.Erase(t);

  reasoning::Saturator saturator(data.vocab, &saturated.base().dict());
  rdf::FlatTripleStore expected = saturator.Saturate(saturated.base().store());
  EXPECT_EQ(saturated.closure().ToVector(), expected.ToVector());
  EXPECT_EQ(saturated.stats().inserts, 16u);
  EXPECT_EQ(saturated.stats().deletes, 16u);
}

TEST_F(IntegrationTest, SerializationRoundTripPreservesAnswers) {
  workload::UniversityData& data = *data_;
  std::string ntriples = io::WriteNTriples(data.graph);

  rdf::Graph reloaded;
  schema::Vocabulary vocab = schema::Vocabulary::Intern(reloaded.dict());
  auto parsed = io::ParseNTriples(ntriples, reloaded);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, data.graph.size());

  // Answers over the reloaded graph's closure match the original's.
  rdf::FlatTripleStore closure_a =
      reasoning::Saturator::SaturateGraph(data.graph, data.vocab);
  rdf::FlatTripleStore closure_b =
      reasoning::Saturator::SaturateGraph(reloaded, vocab);
  query::Evaluator eval_a(closure_a);
  query::Evaluator eval_b(closure_b);
  for (const workload::NamedQuery& nq :
       workload::StandardQuerySet(data.graph.dict())) {
    // Rebuild the query against the reloaded dictionary by name lookup.
    auto queries_b = workload::StandardQuerySet(reloaded.dict());
    const workload::NamedQuery* match = nullptr;
    for (const auto& candidate : queries_b) {
      if (candidate.name == nq.name) match = &candidate;
    }
    ASSERT_NE(match, nullptr);
    query::ResultSet a = eval_a.Evaluate(nq.query);
    query::ResultSet b = eval_b.Evaluate(match->query);
    a.Normalize();
    b.Normalize();
    ASSERT_EQ(test::Rows(data.graph, a), test::Rows(reloaded, b)) << nq.name;
  }
}

}  // namespace
}  // namespace wdr
