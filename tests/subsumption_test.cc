#include "reformulation/subsumption.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "query/evaluator.h"
#include "reasoning/saturation.h"
#include "reformulation/reformulator.h"
#include "schema/schema.h"
#include "tests/test_util.h"

namespace wdr::reformulation {
namespace {

using query::BgpQuery;
using query::PatternTerm;
using query::TriplePattern;
using query::UnionQuery;
using query::VarId;

PatternTerm C(rdf::TermId id) { return PatternTerm::Constant(id); }

// (?x p ?y) with x projected.
BgpQuery GeneralEdge(rdf::TermId p) {
  BgpQuery q;
  VarId x = q.AddVar("x");
  VarId y = q.AddVar("y");
  q.AddAtom({PatternTerm::Variable(x), C(p), PatternTerm::Variable(y)});
  q.Project(x);
  return q;
}

// (?x p c) with x projected: strictly more specific than GeneralEdge.
BgpQuery SpecificEdge(rdf::TermId p, rdf::TermId c) {
  BgpQuery q;
  VarId x = q.AddVar("x");
  q.AddAtom({PatternTerm::Variable(x), C(p), C(c)});
  q.Project(x);
  return q;
}

TEST(SubsumptionTest, GeneralSubsumesSpecific) {
  EXPECT_TRUE(Subsumes(GeneralEdge(7), SpecificEdge(7, 9)));
  EXPECT_FALSE(Subsumes(SpecificEdge(7, 9), GeneralEdge(7)));
}

TEST(SubsumptionTest, DifferentConstantsDoNotSubsume) {
  EXPECT_FALSE(Subsumes(SpecificEdge(7, 9), SpecificEdge(7, 8)));
  EXPECT_FALSE(Subsumes(GeneralEdge(7), SpecificEdge(6, 9)));
}

TEST(SubsumptionTest, IdenticalQueriesSubsumeEachOther) {
  EXPECT_TRUE(Subsumes(GeneralEdge(7), GeneralEdge(7)));
  EXPECT_TRUE(Subsumes(SpecificEdge(7, 9), SpecificEdge(7, 9)));
}

TEST(SubsumptionTest, ExtraAtomMakesMoreSpecific) {
  BgpQuery general = GeneralEdge(7);
  BgpQuery specific = GeneralEdge(7);
  VarId x = *specific.VarByName("x");
  specific.AddAtom({PatternTerm::Variable(x), C(8), C(9)});
  EXPECT_TRUE(Subsumes(general, specific));
  EXPECT_FALSE(Subsumes(specific, general));
}

TEST(SubsumptionTest, HeadAlignmentBlocksVariableSwap) {
  // q1 = (?x p ?y) select x; q2 = (?x p ?y) select y. Same atoms, but the
  // answer variable differs, so neither subsumes the other.
  BgpQuery q1;
  {
    VarId x = q1.AddVar("x");
    VarId y = q1.AddVar("y");
    q1.AddAtom({PatternTerm::Variable(x), C(7), PatternTerm::Variable(y)});
    q1.Project(x);
  }
  BgpQuery q2;
  {
    VarId x = q2.AddVar("x");
    VarId y = q2.AddVar("y");
    q2.AddAtom({PatternTerm::Variable(x), C(7), PatternTerm::Variable(y)});
    q2.Project(y);
  }
  EXPECT_FALSE(Subsumes(q1, q2));
  EXPECT_FALSE(Subsumes(q2, q1));
}

TEST(SubsumptionTest, PresetVariableCountsAsConstantInTheHead) {
  // general: (?x type ?c) select x,c — covers the grounded disjunct
  // (?x type 9) select x, c preset to 9.
  BgpQuery general;
  {
    VarId x = general.AddVar("x");
    VarId c = general.AddVar("c");
    general.AddAtom(
        {PatternTerm::Variable(x), C(5), PatternTerm::Variable(c)});
    general.Project(x);
    general.Project(c);
  }
  BgpQuery grounded;
  {
    VarId x = grounded.AddVar("x");
    VarId c = grounded.AddVar("c");
    grounded.AddAtom({PatternTerm::Variable(x), C(5), C(9)});
    grounded.Preset(c, 9);
    grounded.Project(x);
    grounded.Project(c);
  }
  EXPECT_TRUE(Subsumes(general, grounded));
  EXPECT_FALSE(Subsumes(grounded, general));
}

TEST(SubsumptionTest, ArityMismatchNeverSubsumes) {
  BgpQuery one = GeneralEdge(7);
  BgpQuery two = GeneralEdge(7);
  two.Project(*two.VarByName("y"));
  EXPECT_FALSE(Subsumes(one, two));
}

TEST(MinimizeUnionTest, DropsSubsumedDisjunctsKeepsEarliestDuplicate) {
  UnionQuery ucq;
  ucq.AddBranch(SpecificEdge(7, 9));  // subsumed by the general one
  ucq.AddBranch(GeneralEdge(7));
  ucq.AddBranch(GeneralEdge(7));      // duplicate
  ucq.AddBranch(SpecificEdge(6, 1));  // unrelated, survives
  size_t pruned = 0;
  UnionQuery minimized = MinimizeUnion(ucq, &pruned);
  EXPECT_EQ(minimized.size(), 2u);
  EXPECT_EQ(pruned, 2u);
}

TEST(MinimizeUnionTest, EmptyAndSingleton) {
  UnionQuery empty;
  EXPECT_EQ(MinimizeUnion(empty).size(), 0u);
  UnionQuery single = UnionQuery::Single(GeneralEdge(3));
  size_t pruned = 9;
  EXPECT_EQ(MinimizeUnion(single, &pruned).size(), 1u);
  EXPECT_EQ(pruned, 0u);
}

// Property: a minimized reformulation answers exactly like the full one
// (and like saturation) on random graphs, while never being larger.
TEST(MinimizePropertyTest, MinimizedReformulationIsAnswerEquivalent) {
  size_t total_pruned = 0;
  for (uint64_t seed = 500; seed < 540; ++seed) {
    Rng rng(seed);
    test::RandomGraph rg = test::MakeRandomGraph(rng, {});
    CloseSchema(rg.graph, rg.vocab);
    schema::Schema schema = schema::Schema::FromGraph(rg.graph, rg.vocab);

    ReformulationOptions minimize_options;
    minimize_options.minimize = true;
    Reformulator plain(schema, rg.vocab);
    Reformulator minimizing(schema, rg.vocab, minimize_options);

    rdf::FlatTripleStore closure =
        reasoning::Saturator::SaturateGraph(rg.graph, rg.vocab);
    query::Evaluator base_eval(rg.graph.store());
    query::Evaluator closure_eval(closure);

    for (int qi = 0; qi < 4; ++qi) {
      BgpQuery q = test::MakeRandomQuery(rng, rg);
      auto full = plain.Reformulate(q);
      ReformulationStats stats;
      auto minimized = minimizing.Reformulate(q, &stats);
      ASSERT_TRUE(full.ok());
      ASSERT_TRUE(minimized.ok());
      ASSERT_LE(minimized->size(), full->size());
      total_pruned += stats.pruned_cqs;

      query::ResultSet via_full = base_eval.Evaluate(*full);
      query::ResultSet via_min = base_eval.Evaluate(*minimized);
      query::ResultSet via_sat = closure_eval.Evaluate(q);
      via_full.Normalize();
      via_min.Normalize();
      via_sat.Normalize();
      ASSERT_EQ(test::Rows(rg.graph, via_min), test::Rows(rg.graph, via_full))
          << "seed " << seed << " query " << qi;
      ASSERT_EQ(test::Rows(rg.graph, via_min), test::Rows(rg.graph, via_sat))
          << "seed " << seed << " query " << qi;
    }
  }
  // Minimization must actually bite on a healthy share of instances.
  EXPECT_GT(total_pruned, 50u);
}

}  // namespace
}  // namespace wdr::reformulation
