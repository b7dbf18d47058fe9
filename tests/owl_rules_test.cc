// The RDFS++ extension (§II-C: the OWL predicates AllegroGraph/Virtuoso
// layer on top of RDFS): owl:inverseOf, owl:SymmetricProperty,
// owl:TransitiveProperty — saturation, incremental maintenance and
// provenance, all behind the opt-in engine flag.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "reasoning/explain.h"
#include "reasoning/saturated_graph.h"
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

class OwlRulesTest : public ::testing::Test {
 protected:
  Graph g_;
  Vocabulary v_ = Vocabulary::Intern(g_.dict());

  FlatTripleStore Saturate(SaturationStats* stats = nullptr) {
    Saturator saturator(v_, &g_.dict(), /*enable_owl=*/true);
    return saturator.Saturate(g_.store(), stats);
  }
};

TEST_F(OwlRulesTest, InverseOfBothDirections) {
  Add(g_, "hasChild", schema::iri::kOwlInverseOf, "hasParent");
  Add(g_, "ada", "hasChild", "bob");
  Add(g_, "carl", "hasParent", "dan");
  FlatTripleStore closure = Saturate();
  EXPECT_TRUE(closure.Contains(Enc(g_, "bob", "hasParent", "ada")));
  EXPECT_TRUE(closure.Contains(Enc(g_, "dan", "hasChild", "carl")));
}

TEST_F(OwlRulesTest, InverseDeclarationAfterFactsStillFires) {
  // Schema premise as delta: facts exist before the declaration.
  Add(g_, "ada", "hasChild", "bob");
  SaturatedGraph sg(g_, v_, /*enable_owl=*/true);
  sg.Insert(Enc(g_, "hasChild", schema::iri::kOwlInverseOf, "hasParent"));
  EXPECT_TRUE(sg.closure().Contains(Enc(g_, "bob", "hasParent", "ada")));
}

TEST_F(OwlRulesTest, SymmetricProperty) {
  Add(g_, "marriedTo", schema::iri::kType,
      schema::iri::kOwlSymmetricProperty);
  Add(g_, "ada", "marriedTo", "bob");
  FlatTripleStore closure = Saturate();
  EXPECT_TRUE(closure.Contains(Enc(g_, "bob", "marriedTo", "ada")));
}

TEST_F(OwlRulesTest, TransitivePropertyClosesChains) {
  Add(g_, "partOf", schema::iri::kType,
      schema::iri::kOwlTransitiveProperty);
  Add(g_, "a", "partOf", "b");
  Add(g_, "b", "partOf", "c");
  Add(g_, "c", "partOf", "d");
  FlatTripleStore closure = Saturate();
  EXPECT_TRUE(closure.Contains(Enc(g_, "a", "partOf", "c")));
  EXPECT_TRUE(closure.Contains(Enc(g_, "a", "partOf", "d")));
  EXPECT_TRUE(closure.Contains(Enc(g_, "b", "partOf", "d")));
  EXPECT_FALSE(closure.Contains(Enc(g_, "b", "partOf", "a")));
}

TEST_F(OwlRulesTest, OwlRulesComposeWithRdfs) {
  // ancestorOf transitive, ancestorOf ⊒ parentOf, domain typing on top.
  Add(g_, "ancestorOf", schema::iri::kType,
      schema::iri::kOwlTransitiveProperty);
  Add(g_, "parentOf", schema::iri::kSubPropertyOf, "ancestorOf");
  Add(g_, "ancestorOf", schema::iri::kDomain, "Person");
  Add(g_, "a", "parentOf", "b");
  Add(g_, "b", "parentOf", "c");
  FlatTripleStore closure = Saturate();
  EXPECT_TRUE(closure.Contains(Enc(g_, "a", "ancestorOf", "c")));
  EXPECT_TRUE(closure.Contains(Enc(g_, "a", schema::iri::kType, "Person")));
  EXPECT_TRUE(closure.Contains(Enc(g_, "b", schema::iri::kType, "Person")));
}

TEST_F(OwlRulesTest, DisabledByDefault) {
  Add(g_, "marriedTo", schema::iri::kType,
      schema::iri::kOwlSymmetricProperty);
  Add(g_, "ada", "marriedTo", "bob");
  FlatTripleStore closure = Saturator::SaturateGraph(g_, v_);  // RDFS only
  EXPECT_FALSE(closure.Contains(Enc(g_, "bob", "marriedTo", "ada")));
}

TEST_F(OwlRulesTest, LiteralObjectsNeverBecomeSubjects) {
  Add(g_, "label", schema::iri::kType, schema::iri::kOwlSymmetricProperty);
  Add(g_, "x", "label", "\"lit");
  FlatTripleStore closure = Saturate();
  EXPECT_EQ(closure.size(), g_.size());  // nothing derived
}

TEST_F(OwlRulesTest, IncrementalDeleteRetractsOwlConsequences) {
  Add(g_, "partOf", schema::iri::kType,
      schema::iri::kOwlTransitiveProperty);
  Add(g_, "a", "partOf", "b");
  Add(g_, "b", "partOf", "c");
  SaturatedGraph sg(g_, v_, /*enable_owl=*/true);
  ASSERT_TRUE(sg.closure().Contains(Enc(g_, "a", "partOf", "c")));
  sg.Erase(Enc(g_, "b", "partOf", "c"));
  EXPECT_FALSE(sg.closure().Contains(Enc(g_, "a", "partOf", "c")));
  Saturator saturator(v_, &g_.dict(), true);
  // Rebuild-equivalence after the delete.
  FlatTripleStore expected = saturator.Saturate(sg.base().store());
  EXPECT_EQ(sg.closure().ToVector(), expected.ToVector());
}

TEST_F(OwlRulesTest, ExplainTransitiveChainHasCompleteProof) {
  Add(g_, "partOf", schema::iri::kType,
      schema::iri::kOwlTransitiveProperty);
  Add(g_, "a", "partOf", "b");
  Add(g_, "b", "partOf", "c");
  Add(g_, "c", "partOf", "d");
  FlatTripleStore closure = Saturate();
  Triple target = Enc(g_, "a", "partOf", "d");
  auto proof = Explain(g_.store(), closure, v_, &g_.dict(), target,
                       /*enable_owl=*/true);
  ASSERT_TRUE(proof.ok()) << proof.status();
  ASSERT_FALSE(proof->steps.empty());
  EXPECT_EQ(proof->steps.back().conclusion, target);
  // Replay: every premise must be asserted or previously concluded, and
  // every transitive step lists three premises including the declaration.
  FlatTripleStore replay;
  g_.store().Match(0, 0, 0, [&](const Triple& t) { replay.Insert(t); });
  Triple decl = Enc(g_, "partOf", schema::iri::kType,
                    schema::iri::kOwlTransitiveProperty);
  for (const DerivationStep& step : proof->steps) {
    if (step.rule == RuleId::kOwlTransitive) {
      ASSERT_EQ(step.premises.size(), 3u);
      EXPECT_EQ(step.premises.back(), decl);
    }
    for (const Triple& premise : step.premises) {
      ASSERT_TRUE(replay.Contains(premise));
    }
    replay.Insert(step.conclusion);
  }
}

TEST_F(OwlRulesTest, RuleNamesAreStable) {
  EXPECT_STREQ(RuleName(RuleId::kOwlInverse), "owl-inv");
  EXPECT_STREQ(RuleName(RuleId::kOwlSymmetric), "owl-sym");
  EXPECT_STREQ(RuleName(RuleId::kOwlTransitive), "owl-trans");
}

// Property: incremental maintenance with the OWL rules enabled matches
// rebuild-from-scratch under random update streams over an RDFS++ schema.
TEST(OwlRulesPropertyTest, IncrementalMatchesRebuild) {
  for (uint64_t seed = 900; seed < 910; ++seed) {
    Rng rng(seed);
    Graph g;
    Vocabulary v = Vocabulary::Intern(g.dict());
    auto id = [&](const std::string& name) {
      return g.dict().Intern(test::T(name));
    };
    std::vector<rdf::TermId> props = {id("p0"), id("p1"), id("p2")};
    std::vector<rdf::TermId> nodes;
    for (int i = 0; i < 6; ++i) nodes.push_back(id("n" + std::to_string(i)));

    // Random RDFS++ schema.
    if (rng.Chance(0.8)) {
      g.Insert(Triple(props[0], v.type, v.owl_transitive));
    }
    if (rng.Chance(0.8)) g.Insert(Triple(props[1], v.type, v.owl_symmetric));
    if (rng.Chance(0.8)) {
      g.Insert(Triple(props[2], v.owl_inverse_of, props[0]));
    }
    if (rng.Chance(0.5)) {
      g.Insert(Triple(props[1], v.sub_property_of, props[0]));
    }

    SaturatedGraph sg(g, v, /*enable_owl=*/true);
    auto pick = [&](const std::vector<rdf::TermId>& pool) {
      return pool[static_cast<size_t>(rng.Uniform(0, pool.size() - 1))];
    };
    std::vector<Triple> base = g.store().ToVector();
    for (int step = 0; step < 30; ++step) {
      if (rng.Chance(0.4) && !base.empty()) {
        size_t i = static_cast<size_t>(rng.Uniform(0, base.size() - 1));
        sg.Erase(base[i]);
        base.erase(base.begin() + i);
      } else {
        Triple t(pick(nodes), pick(props), pick(nodes));
        sg.Insert(t);
        if (std::find(base.begin(), base.end(), t) == base.end()) {
          base.push_back(t);
        }
      }
    }
    Saturator saturator(v, &sg.base().dict(), true);
    FlatTripleStore expected = saturator.Saturate(sg.base().store());
    ASSERT_EQ(sg.closure().ToVector(), expected.ToVector()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace wdr::reasoning
