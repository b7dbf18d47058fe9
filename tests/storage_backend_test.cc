// Storage-seam correctness: the flat store must be observationally
// identical to a naive in-test model (a std::set plus a brute-force pattern
// filter) through the StoreView interface, and every reasoning mode must
// produce the same answers on every backend.
#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "query/evaluator.h"
#include "rdf/flat_triple_store.h"
#include "rdf/store_view.h"
#include "reasoning/saturated_graph.h"
#include "reasoning/saturation.h"
#include "store/reasoning_store.h"
#include "tests/test_util.h"

namespace wdr {
namespace {

using rdf::FlatTripleStore;
using rdf::StorageBackend;
using rdf::StoreView;
using rdf::TermId;
using rdf::Triple;

Triple RandomTriple(Rng& rng, TermId universe) {
  return Triple(static_cast<TermId>(rng.Uniform(1, universe)),
                static_cast<TermId>(rng.Uniform(1, 8)),
                static_cast<TermId>(rng.Uniform(1, universe)));
}

// The reference model: a set of triples and a brute-force pattern filter,
// too simple to be wrong.
class OracleStore {
 public:
  bool Insert(const Triple& t) { return triples_.insert(t).second; }
  bool Erase(const Triple& t) { return triples_.erase(t) > 0; }
  size_t InsertBatch(std::span<const Triple> batch) {
    size_t added = 0;
    for (const Triple& t : batch) added += Insert(t) ? 1 : 0;
    return added;
  }
  bool Contains(const Triple& t) const { return triples_.count(t) > 0; }
  size_t size() const { return triples_.size(); }
  std::vector<Triple> ToVector() const {
    return std::vector<Triple>(triples_.begin(), triples_.end());
  }
  // Matches in SPO order; kNullTermId is a wildcard.
  std::vector<Triple> Match(TermId s, TermId p, TermId o) const {
    std::vector<Triple> out;
    for (const Triple& t : triples_) {
      if ((s == 0 || t.s == s) && (p == 0 || t.p == p) &&
          (o == 0 || t.o == o)) {
        out.push_back(t);
      }
    }
    return out;
  }

 private:
  std::set<Triple> triples_;
};

// Every pattern shape over a small probe set, checked for identical Match
// enumeration and Count.
void ExpectSameObservations(const OracleStore& oracle, const StoreView& store,
                            const std::vector<Triple>& probes) {
  ASSERT_EQ(oracle.size(), store.size());
  EXPECT_EQ(oracle.ToVector(), store.ToVector());
  for (const Triple& probe : probes) {
    EXPECT_EQ(oracle.Contains(probe), store.Contains(probe));
    for (int mask = 0; mask < 8; ++mask) {
      TermId s = (mask & 1) ? probe.s : 0;
      TermId p = (mask & 2) ? probe.p : 0;
      TermId o = (mask & 4) ? probe.o : 0;
      const std::vector<Triple> expected = oracle.Match(s, p, o);
      std::vector<Triple> got;
      store.Match(s, p, o, [&](const Triple& t) { got.push_back(t); });
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, expected) << "pattern (" << s << "," << p << "," << o
                               << ")";
      EXPECT_EQ(store.Count(s, p, o), expected.size());
    }
  }
}

TEST(StorageBackendTest, RandomizedWorkloadAgreement) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    OracleStore oracle;
    FlatTripleStore flat;
    std::vector<Triple> probes;
    // Interleaved inserts and erases; the flat store crosses its merge
    // threshold several times at this volume.
    for (int round = 0; round < 2000; ++round) {
      Triple t = RandomTriple(rng, 40);
      if (rng.Chance(0.25)) {
        EXPECT_EQ(oracle.Erase(t), flat.Erase(t)) << "seed " << seed;
      } else {
        EXPECT_EQ(oracle.Insert(t), flat.Insert(t)) << "seed " << seed;
      }
      if (probes.size() < 32 && rng.Chance(0.05)) probes.push_back(t);
    }
    ExpectSameObservations(oracle, flat, probes);
  }
}

TEST(StorageBackendTest, BatchInsertMatchesIncremental) {
  Rng rng(7);
  std::vector<Triple> batch;
  for (int i = 0; i < 3000; ++i) batch.push_back(RandomTriple(rng, 60));

  OracleStore oracle;
  FlatTripleStore flat_bulk;
  FlatTripleStore flat_incremental;
  size_t added_oracle = oracle.InsertBatch(batch);
  size_t added_bulk = flat_bulk.InsertBatch(batch);
  size_t added_incremental = 0;
  for (const Triple& t : batch) {
    if (flat_incremental.Insert(t)) ++added_incremental;
  }
  EXPECT_EQ(added_oracle, added_bulk);
  EXPECT_EQ(added_oracle, added_incremental);
  EXPECT_EQ(oracle.ToVector(), flat_bulk.ToVector());
  EXPECT_EQ(oracle.ToVector(), flat_incremental.ToVector());
}

// A store whose main arrays are fully tombstoned (fewer erases than the
// merge floor, so no merge ran) reads as empty, yet an open cursor still
// points into those arrays. InsertBatch must not rebuild them from under
// the cursor, with or without an epoch pin held beside it.
void ExpectInsertBatchKeepsTombstonedMain(bool pin_epoch) {
  const std::vector<Triple> initial = {Triple(1, 1, 1), Triple(2, 2, 2),
                                       Triple(3, 3, 3)};
  const Triple fresh(4, 4, 4);
  FlatTripleStore store;
  ASSERT_EQ(store.InsertBatch(initial), 3u);
  for (const Triple& t : initial) ASSERT_TRUE(store.Erase(t));
  ASSERT_TRUE(store.empty());
  ASSERT_EQ(store.tombstone_size(), 3u);

  rdf::EpochPin pin;
  if (pin_epoch) pin = rdf::EpochPin(store);
  rdf::ScanHandle cursor;
  store.OpenScan(cursor, 0, 0, 0);
  EXPECT_EQ(store.InsertBatch(std::vector<Triple>{fresh}), 1u);
  Triple rows[8];
  EXPECT_EQ(cursor->NextBatch(rows, 8), 0u);
  cursor.Reset();
  pin.Release();
  EXPECT_EQ(store.ToVector(), std::vector<Triple>{fresh});
}

TEST(StorageBackendTest, InsertBatchIntoTombstonedStoreUnderOpenCursor) {
  ExpectInsertBatchKeepsTombstonedMain(/*pin_epoch=*/false);
}

TEST(StorageBackendTest, InsertBatchIntoTombstonedStoreUnderEpochPin) {
  ExpectInsertBatchKeepsTombstonedMain(/*pin_epoch=*/true);
}

TEST(StorageBackendTest, InsertWhileScanningDoesNotInvalidateCursors) {
  // The saturation loop inserts into the store it is scanning; the flat
  // backend must defer compaction while a cursor is live.
  FlatTripleStore flat;
  std::vector<Triple> batch;
  for (TermId i = 1; i <= 600; ++i) batch.push_back(Triple(i, 1, i + 1));
  flat.InsertBatch(batch);

  size_t seen = 0;
  flat.Match(0, 1, 0, [&](const Triple& t) {
    ++seen;
    // Enough inserts to cross the merge threshold mid-scan.
    flat.Insert(Triple(t.s, 2, t.o));
    return true;
  });
  EXPECT_EQ(seen, 600u);
  EXPECT_EQ(flat.size(), 1200u);
  EXPECT_EQ(flat.Count(0, 2, 0), 600u);
}

TEST(StorageBackendTest, CloneIsIndependent) {
  FlatTripleStore flat;
  flat.Insert(Triple(1, 2, 3));
  std::unique_ptr<StoreView> copy = flat.Clone();
  copy->Insert(Triple(4, 5, 6));
  EXPECT_EQ(flat.size(), 1u);
  EXPECT_EQ(copy->size(), 2u);
  EXPECT_EQ(copy->backend(), StorageBackend::kFlat);
}

// The reasoning modes must answer identically over the flat store behind
// ReasoningStore.
TEST(StorageBackendTest, ReasoningModesAgreeOnFlatStore) {
  constexpr const char* kData = R"(
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix : <http://test.example.org/> .
:Professor rdfs:subClassOf :Faculty .
:Faculty rdfs:subClassOf :Person .
:teaches rdfs:domain :Faculty .
:teaches rdfs:range :Course .
:advises rdfs:subPropertyOf :knows .
:alice rdf:type :Professor .
:alice :teaches :cs101 .
:alice :advises :bob .
:bob rdf:type :Person .
)";
  constexpr const char* kQueries[] = {
      "SELECT ?x WHERE { ?x a <http://test.example.org/Person> }",
      "SELECT ?x ?c WHERE { ?x a ?c }",
      "SELECT ?x ?y WHERE { ?x <http://test.example.org/knows> ?y }",
      "SELECT ?c WHERE { ?c a <http://test.example.org/Course> }",
  };
  using store::ReasoningMode;
  constexpr ReasoningMode kModes[] = {
      ReasoningMode::kSaturation, ReasoningMode::kReformulation,
      ReasoningMode::kBackward};

  for (const char* sparql : kQueries) {
    std::set<std::vector<std::string>> reference;
    bool have_reference = false;
    for (ReasoningMode mode : kModes) {
      store::ReasoningStoreOptions options;
      options.mode = mode;
      store::ReasoningStore rs(options);
      ASSERT_TRUE(rs.LoadTurtle(kData).ok());
      EXPECT_EQ(rs.backend(), StorageBackend::kFlat);
      auto result = rs.Query(sparql);
      ASSERT_TRUE(result.ok()) << sparql;
      auto rows = test::Rows(rs.graph(), *result);
      if (!have_reference) {
        reference = rows;
        have_reference = true;
      } else {
        EXPECT_EQ(rows, reference)
            << sparql << " mode=" << store::ReasoningModeName(mode);
      }
    }
    EXPECT_FALSE(reference.empty()) << sparql;
  }
}

// SaturatedGraph on a flat-backed graph: incremental insert/delete (DRed)
// agrees with recomputation — the self-inserting-scan stress path.
TEST(StorageBackendTest, IncrementalMaintenanceOnFlatBackend) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    test::RandomGraphConfig config;
    test::RandomGraph rg = test::MakeRandomGraph(rng, config);

    reasoning::SaturatedGraph sg(rg.graph, rg.vocab);
    EXPECT_EQ(sg.closure().backend(), StorageBackend::kFlat);
    const reasoning::Saturator saturator(rg.vocab, &rg.graph.dict());
    EXPECT_EQ(test::Triples(sg.closure()),
              test::Triples(saturator.Saturate(sg.base().store())));

    // Random churn, checking against recomputation after each operation.
    std::vector<Triple> pool = rg.graph.store().ToVector();
    for (int i = 0; i < 10; ++i) {
      Triple t = pool[static_cast<size_t>(
          rng.Uniform(0, pool.size() - 1))];
      if (rng.Chance(0.5)) {
        sg.Erase(t);
      } else {
        sg.Insert(t);
      }
      ASSERT_EQ(test::Triples(sg.closure()),
                test::Triples(saturator.Saturate(sg.base().store())))
          << "seed " << seed << " op " << i;
    }
  }
}

}  // namespace
}  // namespace wdr
