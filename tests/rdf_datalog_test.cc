#include "datalog/rdf_datalog.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datalog/magic.h"
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
  // Rules only: the bridge from the store plus the six RDFS rules. No
  // fact is copied, and no symbol is interned — symbols are TermIds.
  EXPECT_EQ(xlat.program.rules().size(), 7u);
  EXPECT_TRUE(xlat.program.facts().empty());
  EXPECT_EQ(xlat.program.sym_count(), 0u);
  EXPECT_EQ(xlat.store, &g_.store());
  size_t bridges = 0;
  for (const DlRule& rule : xlat.program.rules()) {
    EXPECT_EQ(rule.head.pred, xlat.triple_pred);
    for (const DlAtom& atom : rule.body) {
      if (atom.pred == xlat.base_pred) ++bridges;
    }
  }
  EXPECT_EQ(bridges, 1u);
  // The rules name vocabulary TermIds directly.
  const DlRule& rdfs9 = xlat.program.rules()[1];
  EXPECT_EQ(rdfs9.head.args[1], DlTerm::Constant(v_.type));
  EXPECT_EQ(rdfs9.body[0].args[1], DlTerm::Constant(v_.sub_class_of));
  EXPECT_TRUE(xlat.program.Validate().ok());
}

TEST_F(RdfDatalogTest, LiteralsGetNoResourceFact) {
  const rdf::Triple bob = Add(g_, "x", "name", "\"Bob");
  RdfDatalogTranslation xlat = TranslateGraph(g_, v_);
  EXPECT_TRUE(xlat.program.facts().empty());
  // One literal flag per interned term, plus the null id.
  ASSERT_EQ(xlat.literal.size(), g_.dict().size() + 1);
  EXPECT_NE(xlat.literal[bob.o], 0);
  EXPECT_EQ(xlat.literal[bob.s], 0);

  // resource() answers from the flags: every term but the literal and
  // the null id, and no id past the end of the vector.
  const TranslationEdb edb(xlat);
  const exec::TupleSource* resource = edb.sources()->Find(xlat.resource_pred);
  ASSERT_NE(resource, nullptr);
  const uint8_t unbound = exec::TupleSource::kUnbound;
  const uint8_t point = exec::TupleSource::kPoint;
  size_t resources = 0;
  resource->Scan(nullptr, &unbound, [&](const exec::Value*) {
    ++resources;
    return true;
  });
  EXPECT_EQ(resources, g_.dict().size() - 1);
  auto is_resource = [&](rdf::TermId id) {
    const exec::Value value = id;
    bool found = false;
    resource->Scan(&value, &point, [&](const exec::Value*) {
      found = true;
      return true;
    });
    return found;
  };
  EXPECT_TRUE(is_resource(bob.s));
  EXPECT_FALSE(is_resource(bob.o));
  EXPECT_FALSE(is_resource(rdf::kNullTermId));
  // A term interned after the translation (a query constant) is past the
  // end: not a resource, and the dictionary is never consulted.
  const rdf::TermId fresh = g_.dict().Intern(test::T("fresh"));
  EXPECT_FALSE(is_resource(fresh));

  // A write that stores new terms extends the flags.
  const rdf::Triple alice = Add(g_, "y", "name", "\"Alice");
  ExtendLiteralFlags(xlat, g_.dict());
  ASSERT_EQ(xlat.literal.size(), g_.dict().size() + 1);
  EXPECT_TRUE(is_resource(fresh));
  EXPECT_TRUE(is_resource(alice.s));
  EXPECT_FALSE(is_resource(alice.o));
}

// Magic sets over the translation: the transformed program carries only
// the query's seed fact, and the base triples come from the store.
TEST_F(RdfDatalogTest, MagicProgramCarriesOnlyItsSeed) {
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  const rdf::Triple tom = Add(g_, "Tom", schema::iri::kType, "Cat");
  Add(g_, "Rex", schema::iri::kType, "Mammal");
  RdfDatalogTranslation xlat = TranslateGraph(g_, v_);
  DlAtom query;
  query.pred = xlat.triple_pred;
  query.args = {DlTerm::Constant(tom.s), DlTerm::Constant(v_.type),
                DlTerm::Variable(0)};
  auto magic = MagicTransform(xlat.program, query);
  ASSERT_TRUE(magic.ok()) << magic.status();
  EXPECT_EQ(magic->program.facts().size(), 1u);

  const TranslationEdb edb(xlat);
  auto rows = AnswerWithMagic(xlat.program, query, nullptr, edb.sources());
  ASSERT_TRUE(rows.ok()) << rows.status();
  const rdf::TermId mammal = g_.dict().Lookup(test::T("Mammal"));
  EXPECT_EQ(*rows, (std::vector<Tuple>{{std::min(tom.o, mammal)},
                                       {std::max(tom.o, mammal)}}));
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
  auto db = MaterializeTranslation(xlat);
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
    auto db = MaterializeTranslation(xlat);
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
