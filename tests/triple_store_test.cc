#include "rdf/flat_triple_store.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "rdf/triple.h"

namespace wdr::rdf {
namespace {

TEST(TripleStoreTest, InsertEraseContains) {
  FlatTripleStore store;
  Triple t(1, 2, 3);
  EXPECT_TRUE(store.Insert(t));
  EXPECT_FALSE(store.Insert(t));  // duplicate
  EXPECT_TRUE(store.Contains(t));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.Erase(t));
  EXPECT_FALSE(store.Erase(t));
  EXPECT_FALSE(store.Contains(t));
  EXPECT_TRUE(store.empty());
}

TEST(TripleStoreTest, ClearEmptiesAllIndexes) {
  FlatTripleStore store;
  store.Insert(Triple(1, 2, 3));
  store.Insert(Triple(4, 5, 6));
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.Count(0, 0, 0), 0u);
  EXPECT_EQ(store.Count(0, 5, 0), 0u);
  EXPECT_EQ(store.Count(0, 0, 6), 0u);
}

TEST(TripleStoreTest, MatchFullScanIsSpoOrdered) {
  FlatTripleStore store;
  store.Insert(Triple(2, 1, 1));
  store.Insert(Triple(1, 2, 2));
  store.Insert(Triple(1, 1, 3));
  std::vector<Triple> seen;
  store.Match(0, 0, 0, [&](const Triple& t) { seen.push_back(t); });
  std::vector<Triple> expected = {Triple(1, 1, 3), Triple(1, 2, 2),
                                  Triple(2, 1, 1)};
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(store.ToVector(), expected);
}

TEST(TripleStoreTest, MatchStopsWhenCallbackReturnsFalse) {
  FlatTripleStore store;
  for (TermId i = 1; i <= 10; ++i) store.Insert(Triple(i, 1, 1));
  int seen = 0;
  store.Match(0, 0, 0, [&](const Triple&) { return ++seen < 3; });
  EXPECT_EQ(seen, 3);
}

TEST(TripleStoreTest, EstimateCountExactForSmallResults) {
  FlatTripleStore store;
  store.Insert(Triple(1, 2, 3));
  store.Insert(Triple(1, 2, 4));
  store.Insert(Triple(5, 2, 3));
  EXPECT_EQ(store.EstimateCount(1, 2, 3), 1u);
  EXPECT_EQ(store.EstimateCount(1, 2, 9), 0u);
  EXPECT_EQ(store.EstimateCount(1, 2, 0), 2u);
  EXPECT_EQ(store.EstimateCount(0, 2, 0), 3u);
  EXPECT_EQ(store.EstimateCount(0, 0, 0), 3u);
}

// Parameterized sweep over all eight pattern shapes: Match must agree with
// a naive filter over the full triple list, on a randomized store.
class MatchPatternTest : public ::testing::TestWithParam<int> {};

TEST_P(MatchPatternTest, MatchAgreesWithNaiveFilter) {
  const int mask = GetParam();  // bit 0: s bound, 1: p bound, 2: o bound
  Rng rng(1234 + mask);
  FlatTripleStore store;
  std::vector<Triple> all;
  for (int i = 0; i < 500; ++i) {
    Triple t(static_cast<TermId>(rng.Uniform(1, 12)),
             static_cast<TermId>(rng.Uniform(1, 8)),
             static_cast<TermId>(rng.Uniform(1, 12)));
    if (store.Insert(t)) all.push_back(t);
  }
  std::sort(all.begin(), all.end());

  for (int probe = 0; probe < 50; ++probe) {
    TermId s = (mask & 1) ? static_cast<TermId>(rng.Uniform(1, 12)) : 0;
    TermId p = (mask & 2) ? static_cast<TermId>(rng.Uniform(1, 8)) : 0;
    TermId o = (mask & 4) ? static_cast<TermId>(rng.Uniform(1, 12)) : 0;

    std::vector<Triple> expected;
    for (const Triple& t : all) {
      if ((s == 0 || t.s == s) && (p == 0 || t.p == p) &&
          (o == 0 || t.o == o)) {
        expected.push_back(t);
      }
    }
    std::vector<Triple> actual;
    store.Match(s, p, o, [&](const Triple& t) { actual.push_back(t); });
    std::sort(actual.begin(), actual.end());
    ASSERT_EQ(actual, expected) << "mask " << mask << " probe " << probe;
    ASSERT_EQ(store.Count(s, p, o), expected.size());
  }
}

INSTANTIATE_TEST_SUITE_P(AllPatternShapes, MatchPatternTest,
                         ::testing::Range(0, 8));

// Random insert/erase interleaving keeps the three indexes consistent.
TEST(TripleStorePropertyTest, IndexesStayConsistentUnderChurn) {
  Rng rng(99);
  FlatTripleStore store;
  std::vector<Triple> present;
  for (int step = 0; step < 2000; ++step) {
    if (!present.empty() && rng.Chance(0.4)) {
      size_t pick = static_cast<size_t>(rng.Uniform(0, present.size() - 1));
      ASSERT_TRUE(store.Erase(present[pick]));
      present.erase(present.begin() + pick);
    } else {
      Triple t(static_cast<TermId>(rng.Uniform(1, 20)),
               static_cast<TermId>(rng.Uniform(1, 6)),
               static_cast<TermId>(rng.Uniform(1, 20)));
      if (store.Insert(t)) present.push_back(t);
    }
  }
  std::sort(present.begin(), present.end());
  ASSERT_EQ(store.ToVector(), present);
  // Spot-check each index direction against the ground truth.
  for (const Triple& t : present) {
    ASSERT_GE(store.Count(t.s, 0, 0), 1u);
    ASSERT_GE(store.Count(0, t.p, 0), 1u);
    ASSERT_GE(store.Count(0, 0, t.o), 1u);
    ASSERT_EQ(store.Count(t.s, t.p, t.o), 1u);
  }
}

TEST(TripleHashTest, DistinctTriplesRarelyCollide) {
  TripleHash hash;
  std::vector<size_t> hashes;
  for (TermId s = 1; s <= 20; ++s) {
    for (TermId p = 1; p <= 20; ++p) {
      hashes.push_back(hash(Triple(s, p, s ^ p)));
    }
  }
  std::sort(hashes.begin(), hashes.end());
  size_t distinct =
      std::unique(hashes.begin(), hashes.end()) - hashes.begin();
  EXPECT_EQ(distinct, hashes.size());
}

}  // namespace
}  // namespace wdr::rdf
