// Semantics of union (UCQ) evaluation. Evaluate(UnionQuery) runs the
// branches in order through one global dedup set, so its row stream is
// fully determined: the first occurrence of every row in the concatenation
// of the branches' own streams. ASK and LIMIT stop enumerating early, and
// every bounded answer must still be the matching slice of the unbounded
// stream — same rows, same order. Each case runs on the legacy join and in
// plan mode. The corners pinned here are the ones random workloads rarely
// hit: overlapping and duplicated branches, LIMIT/OFFSET/ASK, within-branch
// duplicates under a row bound, and streaming counts.
#include "query/evaluator.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "query/query.h"
#include "rdf/graph.h"
#include "reformulation/reformulator.h"
#include "schema/schema.h"
#include "tests/test_util.h"

namespace wdr::query {
namespace {

using test::Add;
using test::MakeRandomGraph;
using test::MakeRandomQuery;
using test::RandomGraphConfig;

EvaluatorOptions ModeOptions(bool plan) {
  EvaluatorOptions options;
  options.plan = plan;
  return options;
}

std::string ModeName(bool plan) { return plan ? "plan" : "legacy"; }

// The union's expected row stream, built without the union loop: each
// branch evaluated on its own, concatenated in branch order, first
// occurrences kept.
std::vector<Row> ConcatDedupOracle(const rdf::StoreView& store,
                                   const UnionQuery& q,
                                   const EvaluatorOptions& options) {
  const Evaluator evaluator(store, options);
  std::vector<Row> rows;
  std::unordered_set<Row, RowHash> seen;
  for (const BgpQuery& branch : q.branches()) {
    for (Row& row : evaluator.Evaluate(branch).rows) {
      if (seen.insert(row).second) rows.push_back(std::move(row));
    }
  }
  return rows;
}

// Asserts that `q`'s answer is the slice of its unbounded stream that its
// ASK/LIMIT/OFFSET select, and that the unbounded stream itself matches
// the concatenate-and-dedup oracle.
void ExpectSliceOfUnboundedStream(const rdf::StoreView& store,
                                  const UnionQuery& q, bool plan,
                                  const std::string& label) {
  const EvaluatorOptions options = ModeOptions(plan);
  const Evaluator evaluator(store, options);
  UnionQuery unbounded = q;
  unbounded.SetAsk(false);
  unbounded.SetLimit(UnionQuery::kNoLimit);
  unbounded.SetOffset(0);
  const ResultSet full = evaluator.Evaluate(unbounded);
  const std::string where = label + " (" + ModeName(plan) + ")";
  EXPECT_EQ(full.rows, ConcatDedupOracle(store, unbounded, options)) << where;

  const ResultSet got = evaluator.Evaluate(q);
  if (q.ask()) {
    EXPECT_TRUE(got.var_names.empty()) << where;
    EXPECT_EQ(got.rows.size(), full.rows.empty() ? 0u : 1u) << where;
    return;
  }
  EXPECT_EQ(got.var_names, full.var_names) << where;
  const size_t begin = std::min(q.offset(), full.rows.size());
  const size_t end = q.limit() == UnionQuery::kNoLimit
                         ? full.rows.size()
                         : std::min(full.rows.size(), begin + q.limit());
  const std::vector<Row> expected(full.rows.begin() + begin,
                                  full.rows.begin() + end);
  EXPECT_EQ(got.rows, expected) << where;
}

// A small graph with enough row multiplicity to make dedup observable:
// every student takes several courses, some students are also tutors.
struct StudentGraph {
  rdf::Graph graph;

  StudentGraph() {
    for (int s = 0; s < 6; ++s) {
      const std::string student = "s" + std::to_string(s);
      Add(graph, student, "type", "Student");
      if (s % 2 == 0) Add(graph, student, "type", "Tutor");
      for (int c = 0; c < 4; ++c) {
        Add(graph, student, "takes", "c" + std::to_string((s + c) % 5));
      }
    }
  }

  PatternTerm Const(const std::string& name) {
    return PatternTerm::Constant(graph.dict().Intern(test::T(name)));
  }
};

// One-variable branch (?x type <cls>), optionally DISTINCT.
BgpQuery TypeBranch(StudentGraph& g, const std::string& cls,
                    bool distinct = true) {
  BgpQuery q;
  q.SetDistinct(distinct);
  VarId x = q.AddVar("x");
  q.AddAtom(TriplePattern{PatternTerm::Variable(x), g.Const("type"),
                          g.Const(cls)});
  q.Project(x);
  return q;
}

// One-variable NON-distinct branch (?x takes ?c) projecting only ?x —
// each student surfaces once per course, so the projected stream is full
// of within-branch duplicates.
BgpQuery TakesBranch(StudentGraph& g) {
  BgpQuery q;
  VarId x = q.AddVar("x");
  VarId c = q.AddVar("c");
  q.AddAtom(TriplePattern{PatternTerm::Variable(x), g.Const("takes"),
                          PatternTerm::Variable(c)});
  q.Project(x);
  return q;
}

TEST(UnionEvalTest, OverlappingBranchesDedupInBranchOrder) {
  StudentGraph g;
  // Tutor ⊂ Student and the Student branch appears twice: every Tutor
  // row is produced by three branches, so cross-branch dedup is load
  // bearing.
  UnionQuery q;
  q.AddBranch(TypeBranch(g, "Tutor"));
  q.AddBranch(TypeBranch(g, "Student"));
  q.AddBranch(TypeBranch(g, "Student"));
  for (bool plan : {false, true}) {
    ExpectSliceOfUnboundedStream(g.graph.store(), q, plan,
                                 "overlapping branches");
    // The six students, once each, tutors first (branch order).
    const ResultSet rs = Evaluator(g.graph.store(), ModeOptions(plan))
                             .Evaluate(q);
    ASSERT_EQ(rs.rows.size(), 6u) << ModeName(plan);
    const TermId tutor = g.Const("Tutor").id;
    const TermId type = g.Const("type").id;
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(g.graph.store().Contains({rs.rows[i][0], type, tutor}))
          << ModeName(plan) << " row " << i;
    }
  }
}

TEST(UnionEvalTest, LimitOffsetAskAreSlicesOfTheUnboundedStream) {
  StudentGraph g;
  UnionQuery base;
  base.AddBranch(TakesBranch(g));
  base.AddBranch(TypeBranch(g, "Tutor"));
  base.AddBranch(TypeBranch(g, "Student"));

  for (bool plan : {false, true}) {
    for (size_t limit : {size_t{0}, size_t{1}, size_t{2}, size_t{5},
                         size_t{100}, UnionQuery::kNoLimit}) {
      for (size_t offset : {size_t{0}, size_t{1}, size_t{4}, size_t{50}}) {
        UnionQuery q = base;
        q.SetLimit(limit);
        q.SetOffset(offset);
        ExpectSliceOfUnboundedStream(g.graph.store(), q, plan,
                                     "limit=" + std::to_string(limit) +
                                         " offset=" + std::to_string(offset));
      }
    }

    UnionQuery ask = base;
    ask.SetAsk(true);
    ExpectSliceOfUnboundedStream(g.graph.store(), ask, plan,
                                 "ask over matching union");

    UnionQuery empty_ask;
    empty_ask.AddBranch(TypeBranch(g, "NoSuchClass"));
    empty_ask.AddBranch(TypeBranch(g, "AlsoMissing"));
    empty_ask.SetAsk(true);
    ExpectSliceOfUnboundedStream(g.graph.store(), empty_ask, plan,
                                 "ask over empty union");
  }
}

TEST(UnionEvalTest, RowBudgetStopsLaterBranches) {
  StudentGraph g;
  UnionQuery q;
  q.AddBranch(TypeBranch(g, "Student"));
  q.AddBranch(TypeBranch(g, "Tutor"));
  q.AddBranch(TakesBranch(g));
  for (bool plan : {false, true}) {
    // ASK and a LIMIT the first branch already meets evaluate one branch;
    // an unbounded union evaluates all three.
    for (auto [ask, limit, branches] :
         {std::tuple{true, UnionQuery::kNoLimit, 1u},
          std::tuple{false, size_t{3}, 1u},
          std::tuple{false, UnionQuery::kNoLimit, 3u}}) {
      UnionQuery bounded = q;
      bounded.SetAsk(ask);
      bounded.SetLimit(limit);
      EvalStats stats;
      EvaluatorOptions options = ModeOptions(plan);
      options.collect = &stats;
      Evaluator(g.graph.store(), options).Evaluate(bounded);
      EXPECT_EQ(stats.branches, branches)
          << ModeName(plan) << " ask=" << ask << " limit=" << limit;
    }
  }
}

TEST(UnionEvalTest, WithinBranchDuplicatesUnderLimit) {
  StudentGraph g;
  // The duplicate-heavy branch alone, bounded: the row budget must count
  // DISTINCT kept rows, not raw enumerated rows, or LIMIT would undershoot
  // after dedup collapses the stream.
  for (bool plan : {false, true}) {
    for (size_t limit : {size_t{1}, size_t{3}, size_t{6}, size_t{7}}) {
      UnionQuery q = UnionQuery::Single(TakesBranch(g));
      q.SetLimit(limit);
      ExpectSliceOfUnboundedStream(
          g.graph.store(), q, plan,
          "duplicate branch limit=" + std::to_string(limit));
      const ResultSet rs =
          Evaluator(g.graph.store(), ModeOptions(plan)).Evaluate(q);
      EXPECT_EQ(rs.rows.size(), std::min<size_t>(limit, 6));
    }
  }
}

TEST(UnionEvalTest, ReformulatedRandomUnionsFollowBranchOrder) {
  for (uint64_t seed : {1ull, 7ull, 23ull, 71ull, 2026ull}) {
    Rng rng(seed);
    test::RandomGraph rg = MakeRandomGraph(rng, RandomGraphConfig{});
    reformulation::CloseSchema(rg.graph, rg.vocab);
    schema::Schema schema = schema::Schema::FromGraph(rg.graph, rg.vocab);
    reformulation::Reformulator reformulator(schema, rg.vocab);
    for (int k = 0; k < 3; ++k) {
      auto reformulated = reformulator.Reformulate(
          UnionQuery::Single(MakeRandomQuery(rng, rg)));
      ASSERT_TRUE(reformulated.ok()) << reformulated.status();
      const std::string label =
          "seed " + std::to_string(seed) + " query " + std::to_string(k);
      for (bool plan : {false, true}) {
        for (size_t limit : {size_t{1}, size_t{3}, UnionQuery::kNoLimit}) {
          UnionQuery q = *reformulated;
          q.SetLimit(limit);
          q.SetOffset(limit == 3 ? 1 : 0);
          ExpectSliceOfUnboundedStream(rg.graph.store(), q, plan,
                                       label + " limit=" +
                                           std::to_string(limit));
        }
      }
    }
  }
}

TEST(UnionEvalTest, CountAnswersMatchesEvaluate) {
  StudentGraph g;
  for (bool plan : {false, true}) {
    Evaluator evaluator(g.graph.store(), ModeOptions(plan));
    for (bool distinct : {false, true}) {
      BgpQuery takes = TakesBranch(g);
      takes.SetDistinct(distinct);
      EXPECT_EQ(evaluator.CountAnswers(takes),
                evaluator.Evaluate(takes).rows.size())
          << ModeName(plan) << " distinct=" << distinct;
    }
    // Random property check on top of the fixed fixture.
    Rng rng(99);
    test::RandomGraph rg = MakeRandomGraph(rng, RandomGraphConfig{});
    Evaluator random_evaluator(rg.graph.store(), ModeOptions(plan));
    for (int k = 0; k < 10; ++k) {
      BgpQuery q = MakeRandomQuery(rng, rg);
      EXPECT_EQ(random_evaluator.CountAnswers(q),
                random_evaluator.Evaluate(q).rows.size())
          << ModeName(plan) << " query " << k;
    }
  }
}

}  // namespace
}  // namespace wdr::query
