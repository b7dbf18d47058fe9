#include "workload/university.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "io/ntriples.h"
#include "query/evaluator.h"
#include "reasoning/saturation.h"
#include "workload/queries.h"
#include "workload/synthetic.h"
#include "workload/updates.h"

namespace wdr::workload {
namespace {

TEST(UniversityGeneratorTest, DeterministicForSameSeed) {
  UniversityConfig config;
  UniversityData a = GenerateUniversityData(config);
  UniversityData b = GenerateUniversityData(config);
  EXPECT_EQ(io::WriteNTriples(a.graph), io::WriteNTriples(b.graph));
}

TEST(UniversityGeneratorTest, DifferentSeedsDiffer) {
  UniversityConfig a_config, b_config;
  b_config.seed = 43;
  UniversityData a = GenerateUniversityData(a_config);
  UniversityData b = GenerateUniversityData(b_config);
  EXPECT_NE(io::WriteNTriples(a.graph), io::WriteNTriples(b.graph));
}

TEST(UniversityGeneratorTest, ScalesWithConfig) {
  UniversityConfig small;
  small.universities = 1;
  small.departments_per_university = 1;
  UniversityConfig large;
  large.universities = 3;
  large.departments_per_university = 3;
  size_t small_size = GenerateUniversityData(small).graph.size();
  size_t large_size = GenerateUniversityData(large).graph.size();
  EXPECT_GT(large_size, 4 * small_size);
}

TEST(UniversityGeneratorTest, GenericClassesPopulatedOnlyByEntailment) {
  UniversityData data = GenerateUniversityData({});
  rdf::TermId person = data.graph.dict().LookupIri(univ::kPerson);
  ASSERT_NE(person, rdf::kNullTermId);
  // No explicit Person typing...
  EXPECT_EQ(data.graph.store().Count(0, data.vocab.type, person), 0u);
  // ...but plenty after saturation.
  rdf::FlatTripleStore closure =
      reasoning::Saturator::SaturateGraph(data.graph, data.vocab);
  EXPECT_GT(closure.Count(0, data.vocab.type, person), 100u);
}

TEST(UniversityGeneratorTest, OntologyAloneIsPureSchema) {
  rdf::Graph g;
  schema::Vocabulary vocab = schema::Vocabulary::Intern(g.dict());
  size_t added = AddUniversityOntology(g);
  EXPECT_EQ(added, g.size());
  g.store().Match(0, 0, 0, [&](const rdf::Triple& t) {
    EXPECT_TRUE(vocab.IsSchemaProperty(t.p));
  });
}

TEST(StandardQuerySetTest, TenWellFormedQueries) {
  UniversityData data = GenerateUniversityData({});
  std::vector<NamedQuery> queries = StandardQuerySet(data.graph.dict());
  ASSERT_EQ(queries.size(), 10u);
  for (const NamedQuery& nq : queries) {
    EXPECT_FALSE(nq.name.empty());
    EXPECT_FALSE(nq.description.empty());
    EXPECT_FALSE(nq.query.atoms().empty());
    EXPECT_FALSE(nq.query.projection().empty());
  }
}

TEST(StandardQuerySetTest, QueriesHaveAnswersOverTheClosure) {
  UniversityData data = GenerateUniversityData({});
  rdf::FlatTripleStore closure =
      reasoning::Saturator::SaturateGraph(data.graph, data.vocab);
  query::Evaluator evaluator(closure);
  for (const NamedQuery& nq : StandardQuerySet(data.graph.dict())) {
    EXPECT_GT(evaluator.Evaluate(nq.query).rows.size(), 0u)
        << nq.name << " should not be empty on the closure";
  }
}

TEST(StandardQuerySetTest, ReasoningMattersForHierarchyQueries) {
  UniversityData data = GenerateUniversityData({});
  rdf::FlatTripleStore closure =
      reasoning::Saturator::SaturateGraph(data.graph, data.vocab);
  query::Evaluator base_eval(data.graph.store());
  query::Evaluator closure_eval(closure);
  auto queries = StandardQuerySet(data.graph.dict());
  // Q1 (Persons) is empty without reasoning, non-empty with.
  EXPECT_EQ(base_eval.Evaluate(queries[0].query).rows.size(), 0u);
  EXPECT_GT(closure_eval.Evaluate(queries[0].query).rows.size(), 0u);
  // Q2 (FullProfessor, leaf) is identical with and without reasoning.
  EXPECT_EQ(base_eval.Evaluate(queries[1].query).rows.size(),
            closure_eval.Evaluate(queries[1].query).rows.size());
}

TEST(UpdatesTest, SamplesRespectTheSchemaSplit) {
  UniversityData data = GenerateUniversityData({});
  Rng rng(5);
  auto instance =
      SampleInstanceTriples(data.graph, data.vocab, 20, rng);
  auto schema = SampleSchemaTriples(data.graph, data.vocab, 20, rng);
  EXPECT_EQ(instance.size(), 20u);
  EXPECT_EQ(schema.size(), 20u);
  for (const rdf::Triple& t : instance) {
    EXPECT_FALSE(data.vocab.IsSchemaProperty(t.p));
    EXPECT_TRUE(data.graph.Contains(t));
  }
  for (const rdf::Triple& t : schema) {
    EXPECT_TRUE(data.vocab.IsSchemaProperty(t.p));
    EXPECT_TRUE(data.graph.Contains(t));
  }
}

TEST(UpdatesTest, UpdateSetShape) {
  UniversityData data = GenerateUniversityData({});
  Rng rng(6);
  UpdateSet updates = MakeUpdateSet(data.graph, data.vocab, 10, rng);
  EXPECT_EQ(updates.instance_insertions.size(), 10u);
  EXPECT_EQ(updates.instance_deletions.size(), 10u);
  EXPECT_EQ(updates.schema_insertions.size(), 10u);
  EXPECT_EQ(updates.schema_deletions.size(), 10u);
  for (const rdf::Triple& t : updates.instance_insertions) {
    EXPECT_FALSE(data.graph.Contains(t)) << "insertion must be new";
  }
  for (const rdf::Triple& t : updates.schema_insertions) {
    EXPECT_FALSE(data.graph.Contains(t));
    EXPECT_TRUE(data.vocab.IsSchemaProperty(t.p));
  }
}

TEST(SyntheticTest, TreeShapes) {
  SyntheticConfig config;
  config.class_depth = 2;
  config.class_fanout = 3;
  config.property_depth = 1;
  config.property_fanout = 4;
  SyntheticData data = GenerateSyntheticData(config);
  EXPECT_EQ(data.classes.size(), 1u + 3u + 9u);
  EXPECT_EQ(data.properties.size(), 1u + 4u);
  EXPECT_GT(data.schema_triples, 0u);
  EXPECT_GT(data.instance_triples, 0u);
}

TEST(SyntheticTest, DeterministicAndSeedSensitive) {
  SyntheticConfig config;
  SyntheticData a = GenerateSyntheticData(config);
  SyntheticData b = GenerateSyntheticData(config);
  EXPECT_EQ(io::WriteNTriples(a.graph), io::WriteNTriples(b.graph));
  config.seed = 8;
  SyntheticData c = GenerateSyntheticData(config);
  EXPECT_NE(io::WriteNTriples(a.graph), io::WriteNTriples(c.graph));
}

TEST(SyntheticTest, DeeperSchemaDerivesMore) {
  SyntheticConfig shallow;
  shallow.class_depth = 1;
  SyntheticConfig deep;
  deep.class_depth = 4;
  deep.class_fanout = 2;
  auto measure = [](const SyntheticConfig& config) {
    SyntheticData data = GenerateSyntheticData(config);
    reasoning::SaturationStats stats;
    reasoning::Saturator::SaturateGraph(data.graph, data.vocab, &stats);
    return static_cast<double>(stats.derived_triples) /
           static_cast<double>(stats.base_triples);
  };
  EXPECT_GT(measure(deep), measure(shallow));
}

}  // namespace
}  // namespace wdr::workload
