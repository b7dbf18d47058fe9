#include "reasoning/explain.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "reasoning/saturation.h"
#include "tests/test_util.h"

namespace wdr::reasoning {
namespace {

using rdf::FlatTripleStore;
using rdf::Graph;
using rdf::Triple;
using schema::Vocabulary;
using test::Add;
using test::Enc;

class ExplainTest : public ::testing::Test {
 protected:
  Graph g_;
  Vocabulary v_ = Vocabulary::Intern(g_.dict());

  Result<Explanation> ExplainTriple(const Triple& t) {
    FlatTripleStore closure = Saturator::SaturateGraph(g_, v_);
    return Explain(g_.store(), closure, v_, &g_.dict(), t);
  }
};

TEST_F(ExplainTest, AssertedTripleHasEmptyProof) {
  Add(g_, "Tom", schema::iri::kType, "Cat");
  auto proof = ExplainTriple(Enc(g_, "Tom", schema::iri::kType, "Cat"));
  ASSERT_TRUE(proof.ok()) << proof.status();
  EXPECT_TRUE(proof->steps.empty());
}

TEST_F(ExplainTest, NotEntailedTripleIsNotFound) {
  Add(g_, "Tom", schema::iri::kType, "Cat");
  auto proof = ExplainTriple(Enc(g_, "Tom", schema::iri::kType, "Dog"));
  ASSERT_FALSE(proof.ok());
  EXPECT_EQ(proof.status().code(), StatusCode::kNotFound);
}

TEST_F(ExplainTest, OneStepProof) {
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Tom", schema::iri::kType, "Cat");
  Triple target = Enc(g_, "Tom", schema::iri::kType, "Mammal");
  auto proof = ExplainTriple(target);
  ASSERT_TRUE(proof.ok()) << proof.status();
  ASSERT_EQ(proof->steps.size(), 1u);
  EXPECT_EQ(proof->steps[0].conclusion, target);
  EXPECT_EQ(proof->steps[0].rule, RuleId::kRdfs9);
  ASSERT_EQ(proof->steps[0].premises.size(), 2u);
}

TEST_F(ExplainTest, MultiStepProofIsDependencyOrdered) {
  Add(g_, "doctoralDegreeFrom", schema::iri::kSubPropertyOf, "degreeFrom");
  Add(g_, "degreeFrom", schema::iri::kRange, "University");
  Add(g_, "University", schema::iri::kSubClassOf, "Organization");
  Add(g_, "carol", "doctoralDegreeFrom", "mit");
  Triple target = Enc(g_, "mit", schema::iri::kType, "Organization");
  auto proof = ExplainTriple(target);
  ASSERT_TRUE(proof.ok()) << proof.status();
  ASSERT_GE(proof->steps.size(), 2u);
  EXPECT_EQ(proof->steps.back().conclusion, target);
  // Every premise of every step is asserted or concluded earlier.
  FlatTripleStore seen;
  g_.store().Match(0, 0, 0, [&](const Triple& t) { seen.Insert(t); });
  for (const DerivationStep& step : proof->steps) {
    for (const Triple& premise : step.premises) {
      EXPECT_TRUE(seen.Contains(premise))
          << "premise used before it was derived";
    }
    seen.Insert(step.conclusion);
  }
}

TEST_F(ExplainTest, CyclicSchemaStillYieldsFiniteProof) {
  Add(g_, "A", schema::iri::kSubClassOf, "B");
  Add(g_, "B", schema::iri::kSubClassOf, "C");
  Add(g_, "C", schema::iri::kSubClassOf, "A");
  Add(g_, "x", schema::iri::kType, "A");
  auto proof = ExplainTriple(Enc(g_, "x", schema::iri::kType, "C"));
  ASSERT_TRUE(proof.ok()) << proof.status();
  EXPECT_FALSE(proof->steps.empty());
  EXPECT_LT(proof->steps.size(), 10u);
}

TEST_F(ExplainTest, OutOfSyncClosureIsReported) {
  Add(g_, "Tom", schema::iri::kType, "Cat");
  FlatTripleStore fake_closure;
  g_.store().Match(0, 0, 0,
                   [&](const Triple& t) { fake_closure.Insert(t); });
  Triple bogus = Enc(g_, "Tom", schema::iri::kType, "Mammal");
  fake_closure.Insert(bogus);
  auto proof = Explain(g_.store(), fake_closure, v_, &g_.dict(), bogus);
  ASSERT_FALSE(proof.ok());
  EXPECT_EQ(proof.status().code(), StatusCode::kInternal);
}

TEST_F(ExplainTest, FormattingMentionsRuleAndAssertedpremises) {
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Tom", schema::iri::kType, "Cat");
  auto proof = ExplainTriple(Enc(g_, "Tom", schema::iri::kType, "Mammal"));
  ASSERT_TRUE(proof.ok());
  std::string text = FormatExplanation(g_, g_.store(), *proof);
  EXPECT_NE(text.find("rdfs9"), std::string::npos);
  EXPECT_NE(text.find("[asserted]"), std::string::npos);
  EXPECT_NE(text.find("Mammal"), std::string::npos);

  Explanation empty;
  EXPECT_NE(FormatExplanation(g_, g_.store(), empty).find("asserted"),
            std::string::npos);
}

// Property: every derived triple of a random graph has a well-formed
// proof whose steps re-derive it through the rule engine.
TEST(ExplainPropertyTest, EveryDerivedTripleHasACheckableProof) {
  for (uint64_t seed = 700; seed < 710; ++seed) {
    Rng rng(seed);
    test::RandomGraph rg = test::MakeRandomGraph(rng, {});
    FlatTripleStore closure =
        Saturator::SaturateGraph(rg.graph, rg.vocab);

    closure.Match(0, 0, 0, [&](const Triple& t) {
      if (rg.graph.store().Contains(t)) return;
      auto proof =
          Explain(rg.graph.store(), closure, rg.vocab, &rg.graph.dict(), t);
      ASSERT_TRUE(proof.ok()) << proof.status();
      ASSERT_FALSE(proof->steps.empty());
      ASSERT_EQ(proof->steps.back().conclusion, t);
      // Replay: premises must be available when used.
      FlatTripleStore replay;
      rg.graph.store().Match(0, 0, 0,
                             [&](const Triple& b) { replay.Insert(b); });
      for (const DerivationStep& step : proof->steps) {
        for (const Triple& premise : step.premises) {
          ASSERT_TRUE(replay.Contains(premise)) << "seed " << seed;
        }
        replay.Insert(step.conclusion);
      }
    });
  }
}

}  // namespace
}  // namespace wdr::reasoning
