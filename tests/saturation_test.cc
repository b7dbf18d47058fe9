#include "reasoning/saturation.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "reasoning/rules.h"
#include "schema/vocabulary.h"
#include "tests/test_util.h"

namespace wdr::reasoning {
namespace {

using rdf::FlatTripleStore;
using rdf::Graph;
using rdf::Triple;
using schema::Vocabulary;
using test::Add;
using test::Enc;

class SaturationTest : public ::testing::Test {
 protected:
  Graph g_;
  Vocabulary v_ = Vocabulary::Intern(g_.dict());

  FlatTripleStore Saturate(SaturationStats* stats = nullptr) {
    return Saturator::SaturateGraph(g_, v_, stats);
  }
};

TEST_F(SaturationTest, EmptyGraphHasEmptyClosure) {
  EXPECT_EQ(Saturate().size(), 0u);
}

TEST_F(SaturationTest, PaperExampleTomTheCat) {
  // §I: "Tom is a cat" + "any cat is a mammal" |= "Tom is a mammal".
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Tom", schema::iri::kType, "Cat");
  FlatTripleStore closure = Saturate();
  EXPECT_TRUE(closure.Contains(Enc(g_, "Tom", schema::iri::kType, "Mammal")));
  EXPECT_EQ(closure.size(), 3u);
}

TEST_F(SaturationTest, PaperExampleDomainTyping) {
  // §II-A: hasFriend domain Person + Anne hasFriend Marie
  //        |= Anne rdf:type Person.
  Add(g_, "hasFriend", schema::iri::kDomain, "Person");
  Add(g_, "Anne", "hasFriend", "Marie");
  FlatTripleStore closure = Saturate();
  EXPECT_TRUE(
      closure.Contains(Enc(g_, "Anne", schema::iri::kType, "Person")));
}

TEST_F(SaturationTest, SubClassChainIsTransitivelyClosed) {
  Add(g_, "A", schema::iri::kSubClassOf, "B");
  Add(g_, "B", schema::iri::kSubClassOf, "C");
  Add(g_, "C", schema::iri::kSubClassOf, "D");
  Add(g_, "x", schema::iri::kType, "A");
  FlatTripleStore closure = Saturate();
  // rdfs11 closes the chain; rdfs9 types x at every level.
  EXPECT_TRUE(closure.Contains(Enc(g_, "A", schema::iri::kSubClassOf, "C")));
  EXPECT_TRUE(closure.Contains(Enc(g_, "A", schema::iri::kSubClassOf, "D")));
  EXPECT_TRUE(closure.Contains(Enc(g_, "B", schema::iri::kSubClassOf, "D")));
  EXPECT_TRUE(closure.Contains(Enc(g_, "x", schema::iri::kType, "B")));
  EXPECT_TRUE(closure.Contains(Enc(g_, "x", schema::iri::kType, "C")));
  EXPECT_TRUE(closure.Contains(Enc(g_, "x", schema::iri::kType, "D")));
}

TEST_F(SaturationTest, SubPropertyChainPropagatesAssertions) {
  Add(g_, "headOf", schema::iri::kSubPropertyOf, "worksFor");
  Add(g_, "worksFor", schema::iri::kSubPropertyOf, "memberOf");
  Add(g_, "alice", "headOf", "dept");
  FlatTripleStore closure = Saturate();
  EXPECT_TRUE(closure.Contains(Enc(g_, "alice", "worksFor", "dept")));
  EXPECT_TRUE(closure.Contains(Enc(g_, "alice", "memberOf", "dept")));
  EXPECT_TRUE(closure.Contains(
      Enc(g_, "headOf", schema::iri::kSubPropertyOf, "memberOf")));
}

TEST_F(SaturationTest, RangeTypesTheObject) {
  Add(g_, "teaches", schema::iri::kRange, "Course");
  Add(g_, "bob", "teaches", "cs101");
  FlatTripleStore closure = Saturate();
  EXPECT_TRUE(
      closure.Contains(Enc(g_, "cs101", schema::iri::kType, "Course")));
  EXPECT_FALSE(closure.Contains(Enc(g_, "bob", schema::iri::kType, "Course")));
}

TEST_F(SaturationTest, RangeDoesNotTypeLiteralObjects) {
  Add(g_, "name", schema::iri::kRange, "Name");
  Add(g_, "bob", "name", "\"Bob");  // literal object
  FlatTripleStore closure = Saturate();
  // No (literal rdf:type Name) triple: literals cannot be subjects.
  rdf::TermId name_class = g_.dict().Intern(test::T("Name"));
  size_t typed = closure.Count(0, v_.type, name_class);
  EXPECT_EQ(typed, 0u);
}

TEST_F(SaturationTest, CombinedRulesCompose) {
  // degree chain: doctoralDegreeFrom ⊑ degreeFrom, degreeFrom range
  // University, University ⊑ Organization.
  Add(g_, "doctoralDegreeFrom", schema::iri::kSubPropertyOf, "degreeFrom");
  Add(g_, "degreeFrom", schema::iri::kRange, "University");
  Add(g_, "University", schema::iri::kSubClassOf, "Organization");
  Add(g_, "carol", "doctoralDegreeFrom", "mit");
  FlatTripleStore closure = Saturate();
  EXPECT_TRUE(closure.Contains(Enc(g_, "carol", "degreeFrom", "mit")));
  EXPECT_TRUE(
      closure.Contains(Enc(g_, "mit", schema::iri::kType, "University")));
  EXPECT_TRUE(
      closure.Contains(Enc(g_, "mit", schema::iri::kType, "Organization")));
}

TEST_F(SaturationTest, SubClassCycleIsHandled) {
  // A ⊑ B ⊑ C ⊑ A: all three classes are equivalent; typing at one types
  // at all, and saturation terminates.
  Add(g_, "A", schema::iri::kSubClassOf, "B");
  Add(g_, "B", schema::iri::kSubClassOf, "C");
  Add(g_, "C", schema::iri::kSubClassOf, "A");
  Add(g_, "x", schema::iri::kType, "B");
  FlatTripleStore closure = Saturate();
  EXPECT_TRUE(closure.Contains(Enc(g_, "x", schema::iri::kType, "A")));
  EXPECT_TRUE(closure.Contains(Enc(g_, "x", schema::iri::kType, "C")));
  EXPECT_TRUE(closure.Contains(Enc(g_, "A", schema::iri::kSubClassOf, "A")));
}

TEST_F(SaturationTest, StatsCountDerivations) {
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Tom", schema::iri::kType, "Cat");
  SaturationStats stats;
  FlatTripleStore closure = Saturate(&stats);
  EXPECT_EQ(stats.base_triples, 2u);
  EXPECT_EQ(stats.closure_triples, closure.size());
  EXPECT_EQ(stats.derived_triples, 1u);
  EXPECT_EQ(stats.firings[RuleId::kRdfs9], 1u);
  EXPECT_EQ(stats.firings.Total(), 1u);
}

TEST_F(SaturationTest, SaturationIsIdempotent) {
  Add(g_, "A", schema::iri::kSubClassOf, "B");
  Add(g_, "p", schema::iri::kDomain, "A");
  Add(g_, "x", "p", "y");
  Saturator saturator(v_, &g_.dict());
  FlatTripleStore once = saturator.Saturate(g_.store());
  FlatTripleStore twice = saturator.Saturate(once);
  EXPECT_EQ(once.ToVector(), twice.ToVector());
}

// Property: the closure is the same regardless of base insertion order.
TEST(SaturationPropertyTest, ClosureIsOrderIndependent) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    test::RandomGraph rg = test::MakeRandomGraph(rng, {});
    Saturator saturator(rg.vocab, &rg.graph.dict());
    FlatTripleStore forward = saturator.Saturate(rg.graph.store());

    // Re-insert the triples in reverse order into a fresh store.
    std::vector<Triple> triples = rg.graph.store().ToVector();
    FlatTripleStore reversed;
    for (auto it = triples.rbegin(); it != triples.rend(); ++it) {
      reversed.Insert(*it);
    }
    FlatTripleStore backward = saturator.Saturate(reversed);
    EXPECT_EQ(forward.ToVector(), backward.ToVector()) << "seed " << seed;
  }
}

// Property: every closure triple is either a base triple or one-step
// derivable from the closure (soundness of the fixpoint's support), and
// no rule application escapes the closure (it is a fixpoint).
TEST(SaturationPropertyTest, ClosureIsASupportedFixpoint) {
  for (uint64_t seed = 100; seed < 115; ++seed) {
    Rng rng(seed);
    test::RandomGraph rg = test::MakeRandomGraph(rng, {});
    Saturator saturator(rg.vocab, &rg.graph.dict());
    RuleEngine engine(rg.vocab, &rg.graph.dict());
    FlatTripleStore closure = saturator.Saturate(rg.graph.store());

    closure.Match(0, 0, 0, [&](const Triple& t) {
      // Fixpoint: consequences stay inside.
      engine.ForEachConsequence(closure, t, [&](const Triple& c, RuleId) {
        EXPECT_TRUE(closure.Contains(c))
            << "seed " << seed << ": consequence escapes the closure";
      });
      // Support: derived triples are one-step derivable.
      if (!rg.graph.store().Contains(t)) {
        EXPECT_TRUE(engine.IsOneStepDerivable(closure, t))
            << "seed " << seed << ": unsupported derived triple";
      }
    });
  }
}

}  // namespace
}  // namespace wdr::reasoning
