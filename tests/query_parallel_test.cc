// Determinism contract of branch-parallel union evaluation: for EVERY
// query, Evaluate() must return the exact sequential row stream — same
// rows, same order — at every thread count, with the scan cache on or
// off. The differential harness checks
// this on random reformulated workloads; this suite pins down the corners
// that randomness rarely hits: LIMIT/OFFSET/ASK early cancellation,
// overlapping and duplicated branches, within-branch duplicates under a
// row bound, streaming counts, and the thread knob as exposed through
// Federation and ReasoningStore.
#include "query/evaluator.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "federation/federation.h"
#include "query/query.h"
#include "rdf/graph.h"
#include "reformulation/reformulator.h"
#include "schema/schema.h"
#include "store/reasoning_store.h"
#include "tests/test_util.h"

namespace wdr::query {
namespace {

using test::Add;
using test::MakeRandomGraph;
using test::MakeRandomQuery;
using test::RandomGraphConfig;

// Asserts that every (threads, cache) configuration reproduces the
// sequential/no-cache row stream bit for bit.
void ExpectGridIdentical(const rdf::StoreView& store, const UnionQuery& q,
                         const std::string& label) {
  EvaluatorOptions reference_options;
  reference_options.threads = 1;
  reference_options.scan_cache = false;
  const ResultSet reference = Evaluator(store, reference_options).Evaluate(q);
  for (int threads : {1, 2, 3, 8}) {
    for (bool cache : {false, true}) {
      EvaluatorOptions options;
      options.threads = threads;
      options.scan_cache = cache;
      const ResultSet got = Evaluator(store, options).Evaluate(q);
      EXPECT_EQ(got.rows, reference.rows)
          << label << " differs at threads=" << threads
          << " cache=" << (cache ? "on" : "off");
      EXPECT_EQ(got.var_names, reference.var_names) << label;
    }
  }
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

TEST(QueryParallelTest, OverlappingBranchesStayBitIdentical) {
  StudentGraph g;
  // Tutor ⊂ Student and the Student branch appears twice: every Tutor
  // row is produced by three branches, so cross-branch dedup is load
  // bearing on every merge path.
  UnionQuery q;
  q.AddBranch(TypeBranch(g, "Student"));
  q.AddBranch(TypeBranch(g, "Tutor"));
  q.AddBranch(TypeBranch(g, "Student"));
  ExpectGridIdentical(g.graph.store(), q, "overlapping branches");

  // Sanity: the union answers are the six students, once each.
  EXPECT_EQ(Evaluator(g.graph.store()).Evaluate(q).rows.size(), 6u);
}

TEST(QueryParallelTest, LimitOffsetAskAreDeterministic) {
  StudentGraph g;
  UnionQuery base;
  base.AddBranch(TakesBranch(g));
  base.AddBranch(TypeBranch(g, "Tutor"));
  base.AddBranch(TypeBranch(g, "Student"));

  for (size_t limit : {size_t{0}, size_t{1}, size_t{2}, size_t{5},
                       size_t{100}, UnionQuery::kNoLimit}) {
    for (size_t offset : {size_t{0}, size_t{1}, size_t{4}, size_t{50}}) {
      UnionQuery q = base;
      q.SetLimit(limit);
      q.SetOffset(offset);
      ExpectGridIdentical(g.graph.store(), q,
                          "limit=" + std::to_string(limit) +
                              " offset=" + std::to_string(offset));
    }
  }

  UnionQuery ask = base;
  ask.SetAsk(true);
  ExpectGridIdentical(g.graph.store(), ask, "ask over matching union");

  // ASK with no answers: cancellation must not fire, every branch runs.
  UnionQuery empty_ask;
  empty_ask.AddBranch(TypeBranch(g, "NoSuchClass"));
  empty_ask.AddBranch(TypeBranch(g, "AlsoMissing"));
  empty_ask.SetAsk(true);
  ExpectGridIdentical(g.graph.store(), empty_ask, "ask over empty union");
  EXPECT_TRUE(Evaluator(g.graph.store()).Evaluate(empty_ask).rows.empty());
}

TEST(QueryParallelTest, WithinBranchDuplicatesUnderLimit) {
  StudentGraph g;
  // The duplicate-heavy branch alone, bounded: the row-budget trigger must
  // count DISTINCT kept rows, not raw enumerated rows, or LIMIT would
  // undershoot after dedup collapses the stream.
  for (size_t limit : {size_t{1}, size_t{3}, size_t{6}, size_t{7}}) {
    UnionQuery q = UnionQuery::Single(TakesBranch(g));
    q.SetLimit(limit);
    ExpectGridIdentical(g.graph.store(), q,
                        "duplicate branch limit=" + std::to_string(limit));
    const ResultSet rs = Evaluator(g.graph.store()).Evaluate(q);
    EXPECT_EQ(rs.rows.size(), std::min<size_t>(limit, 6));
  }
}

TEST(QueryParallelTest, ReformulatedRandomUnionsAreBitIdentical) {
  for (uint64_t seed : {1ull, 7ull, 23ull, 71ull, 2026ull}) {
    Rng rng(seed);
    test::RandomGraph rg = MakeRandomGraph(rng, RandomGraphConfig{});
    reformulation::CloseSchema(rg.graph, rg.vocab);
    schema::Schema schema = schema::Schema::FromGraph(rg.graph, rg.vocab);
    reformulation::Reformulator reformulator(schema, rg.vocab);
    for (int k = 0; k < 3; ++k) {
      auto reformulated =
          reformulator.Reformulate(UnionQuery::Single(MakeRandomQuery(rng, rg)));
      ASSERT_TRUE(reformulated.ok()) << reformulated.status();
      ExpectGridIdentical(rg.graph.store(), *reformulated,
                          "seed " + std::to_string(seed) + " query " +
                              std::to_string(k));
    }
  }
}

TEST(QueryParallelTest, CountAnswersMatchesEvaluate) {
  StudentGraph g;
  for (bool distinct : {false, true}) {
    BgpQuery takes = TakesBranch(g);
    takes.SetDistinct(distinct);
    Evaluator evaluator(g.graph.store());
    EXPECT_EQ(evaluator.CountAnswers(takes),
              evaluator.Evaluate(takes).rows.size())
        << "distinct=" << distinct;
  }
  // Random property check on top of the fixed fixture.
  Rng rng(99);
  test::RandomGraph rg = MakeRandomGraph(rng, RandomGraphConfig{});
  Evaluator evaluator(rg.graph.store());
  for (int k = 0; k < 10; ++k) {
    BgpQuery q = MakeRandomQuery(rng, rg);
    EXPECT_EQ(evaluator.CountAnswers(q), evaluator.Evaluate(q).rows.size());
  }
}

constexpr const char* kEndpointSocial = R"(
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix soc: <http://social.org/> .
soc:follows rdfs:domain soc:Account .
soc:alice soc:follows soc:bob .
soc:bob soc:follows soc:alice .
)";

constexpr const char* kEndpointHr = R"(
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix soc: <http://social.org/> .
@prefix hr: <http://hr.org/> .
hr:Employee rdfs:subClassOf soc:Account .
hr:carol a hr:Employee .
hr:dave a hr:Employee .
)";

constexpr const char* kAccountsQuery =
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
    "PREFIX soc: <http://social.org/>\n"
    "SELECT ?x WHERE { ?x rdf:type soc:Account }";

TEST(QueryParallelTest, FederationQueryThreadsPreserveAnswers) {
  auto build = [](int threads) {
    auto fed = std::make_unique<federation::Federation>();
    EXPECT_TRUE(
        fed->LoadTurtle(fed->AddEndpoint("social"), kEndpointSocial).ok());
    EXPECT_TRUE(fed->LoadTurtle(fed->AddEndpoint("hr"), kEndpointHr).ok());
    fed->SetQueryThreads(threads);
    return fed;
  };
  auto reference = build(1);
  auto ref_result = reference->Query(kAccountsQuery);
  ASSERT_TRUE(ref_result.ok()) << ref_result.status();
  EXPECT_EQ(ref_result->rows.size(), 4u);  // alice, bob, carol, dave
  for (int threads : {2, 8}) {
    auto fed = build(threads);
    EXPECT_EQ(fed->query_threads(), threads);
    auto result = fed->Query(kAccountsQuery);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->rows, ref_result->rows) << "threads=" << threads;
  }
}

TEST(QueryParallelTest, ReasoningStoreQueryThreadsPreserveAnswers) {
  auto build = [](int threads) {
    store::ReasoningStoreOptions options;
    options.mode = store::ReasoningMode::kReformulation;
    auto rs = std::make_unique<store::ReasoningStore>(options);
    EXPECT_TRUE(rs->LoadTurtle(kEndpointSocial).ok());
    EXPECT_TRUE(rs->LoadTurtle(kEndpointHr).ok());
    rs->SetQueryThreads(threads);
    return rs;
  };
  auto reference = build(1);
  auto ref_result = reference->Query(kAccountsQuery);
  ASSERT_TRUE(ref_result.ok()) << ref_result.status();
  EXPECT_EQ(ref_result->rows.size(), 4u);
  for (int threads : {2, 8}) {
    auto rs = build(threads);
    EXPECT_EQ(rs->query_threads(), threads);
    auto result = rs->Query(kAccountsQuery);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->rows, ref_result->rows) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace wdr::query
