// ShardedStore edge cases: routing disjointness, empty shards, adversarial
// skew, lazy re-partition under open scans and epoch pins, permutation
// remaps, statistics merging, and delta maintenance (insert + DRed) landing
// on the correct shard. The broad equivalence properties (closure and
// answer identity across shard counts) live in the differential harness;
// this file pins down the corners a random workload rarely hits.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/statistics.h"
#include "obs/metrics.h"
#include "rdf/flat_triple_store.h"
#include "rdf/graph.h"
#include "rdf/sharded_store.h"
#include "reasoning/saturated_graph.h"
#include "server/snapshot_store.h"
#include "store/reasoning_store.h"
#include "tests/test_util.h"

namespace wdr {
namespace {

using rdf::ShardedStore;
using rdf::StorageBackend;
using rdf::TermId;
using rdf::Triple;

// First `n` term ids >= `from` owned by shard `target` — the adversarial
// workload generator (every instance triple hashes to one shard).
std::vector<TermId> SubjectsOwnedBy(const ShardedStore& store, size_t target,
                                    size_t n, TermId from = 100) {
  std::vector<TermId> out;
  for (TermId s = from; out.size() < n; ++s) {
    if (store.OwnerShard(s) == target) out.push_back(s);
  }
  return out;
}

TEST(ShardedStoreTest, RoutingIsDisjointAndExhaustive) {
  ShardedStore store(4);
  const TermId kSchemaPred = 10;
  store.SetBroadcastPredicates({kSchemaPred});

  const Triple schema(1, kSchemaPred, 2);
  const Triple instance(5, 7, 9);
  EXPECT_TRUE(store.Insert(schema));
  EXPECT_TRUE(store.Insert(instance));

  // A triple lives in the schema store iff its predicate is broadcast,
  // else in exactly the subject's owner shard — never anywhere else.
  EXPECT_TRUE(store.schema_store().Contains(schema));
  EXPECT_FALSE(store.schema_store().Contains(instance));
  const size_t owner = store.OwnerShard(5);
  for (size_t i = 0; i < store.shard_count(); ++i) {
    EXPECT_EQ(store.shard(i).Contains(instance), i == owner);
    EXPECT_FALSE(store.shard(i).Contains(schema));
  }
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.Contains(schema));
  EXPECT_TRUE(store.Contains(instance));
  EXPECT_EQ(store.Count(0, 0, 0), 2u);

  // Changing the broadcast set re-routes existing triples.
  store.SetBroadcastPredicates({kSchemaPred, 7});
  EXPECT_TRUE(store.schema_store().Contains(instance));
  EXPECT_FALSE(store.shard(owner).Contains(instance));
  EXPECT_EQ(store.size(), 2u);
}

TEST(ShardedStoreTest, EmptyShardsScanAndCountCorrectly) {
  ShardedStore store(8);
  rdf::FlatTripleStore reference;
  // Adversarial skew: every subject hashes to shard 3; shards 0-2 and 4-7
  // stay empty for the whole test.
  for (TermId s : SubjectsOwnedBy(store, 3, 16)) {
    const Triple t(s, 7, s + 1);
    EXPECT_TRUE(store.Insert(t));
    reference.Insert(t);
  }
  const std::vector<size_t> sizes = store.ShardSizes();
  for (size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i], i == 3 ? 16u : 0u);
  }
  // All triples on one of eight shards: skew = max/mean = 16/(16/8) = 8.
  EXPECT_DOUBLE_EQ(store.SkewRatio(), 8.0);
  EXPECT_EQ(store.ToVector(), reference.ToVector());
  EXPECT_EQ(store.Count(0, 7, 0), 16u);
  EXPECT_EQ(store.Count(0, 0, 0), 16u);
  EXPECT_EQ(store.EstimateCount(0, 7, 0), reference.EstimateCount(0, 7, 0));

  store.PublishGauges();
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Get().Snapshot();
  const auto gauge = [&](const std::string& name) -> int64_t {
    for (const auto& [gauge_name, value] : snapshot.gauges) {
      if (gauge_name == name) return value;
    }
    return -1;
  };
  EXPECT_EQ(gauge("wdr.shard.count"), 8);
  EXPECT_EQ(gauge("wdr.shard.skew_x100"), 800);
  EXPECT_EQ(gauge("wdr.shard.size.3"), 16);
}

TEST(ShardedStoreTest, EmptyStoreSkewIsZero) {
  ShardedStore store(4);
  EXPECT_DOUBLE_EQ(store.SkewRatio(), 0.0);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.ToVector().empty());
}

TEST(ShardedStoreTest, RepartitionDefersUnderOpenScan) {
  ShardedStore store(4);
  for (TermId s = 100; s < 120; ++s) store.Insert(Triple(s, 7, s + 1));
  const std::vector<Triple> before = store.ToVector();

  {
    rdf::ScanHandle scan;
    store.OpenScan(scan, 0, 0, 0);
    EXPECT_EQ(store.open_scans(), 1u);
    // Re-partition must not move triples under a live cursor: recorded,
    // not applied.
    EXPECT_FALSE(store.SetShardCount(8));
    EXPECT_EQ(store.shard_count(), 4u);
    EXPECT_EQ(store.pending_shard_count(), 8u);
    // The open cursor still streams the pre-request layout, completely.
    Triple buffer[rdf::StoreView::kMatchBatch];
    size_t seen = 0;
    for (;;) {
      const size_t n = scan->NextBatch(buffer, rdf::StoreView::kMatchBatch);
      if (n == 0) break;
      seen += n;
    }
    EXPECT_EQ(seen, before.size());
  }

  // Cursor closed: the next mutation applies the pending layout first.
  EXPECT_EQ(store.open_scans(), 0u);
  EXPECT_TRUE(store.Insert(Triple(500, 7, 501)));
  EXPECT_EQ(store.shard_count(), 8u);
  EXPECT_EQ(store.pending_shard_count(), 0u);
  EXPECT_EQ(store.size(), before.size() + 1);
  // Every triple ends up on its new owner shard.
  for (const Triple& t : store.ToVector()) {
    EXPECT_TRUE(store.shard(store.OwnerShard(t.s)).Contains(t));
  }
}

TEST(ShardedStoreTest, RepartitionDefersUnderEpochPinUntilCompact) {
  ShardedStore store(4);
  for (TermId s = 100; s < 110; ++s) store.Insert(Triple(s, 7, s + 1));

  store.PinEpoch();
  EXPECT_FALSE(store.SetShardCount(2));
  EXPECT_EQ(store.shard_count(), 4u);
  EXPECT_EQ(store.pending_shard_count(), 2u);
  // Pinned: even TryCompact must leave the layout alone (and report
  // incomplete work).
  EXPECT_FALSE(store.TryCompact());
  EXPECT_EQ(store.shard_count(), 4u);
  store.UnpinEpoch();

  EXPECT_TRUE(store.TryCompact());
  EXPECT_EQ(store.shard_count(), 2u);
  EXPECT_EQ(store.pending_shard_count(), 0u);
  EXPECT_EQ(store.size(), 10u);
}

TEST(ShardedStoreTest, SettingCurrentCountCancelsPending) {
  ShardedStore store(4);
  store.Insert(Triple(1, 2, 3));
  store.PinEpoch();
  EXPECT_FALSE(store.SetShardCount(8));
  EXPECT_EQ(store.pending_shard_count(), 8u);
  // Requesting the current count again withdraws the pending request.
  EXPECT_TRUE(store.SetShardCount(4));
  EXPECT_EQ(store.pending_shard_count(), 0u);
  store.UnpinEpoch();
  EXPECT_TRUE(store.TryCompact());
  EXPECT_EQ(store.shard_count(), 4u);
}

TEST(ShardedStoreTest, MakeEmptyResolvesPendingLayout) {
  ShardedStore store(4);
  store.SetBroadcastPredicates({10});
  store.PinEpoch();
  EXPECT_FALSE(store.SetShardCount(6));
  // A fresh store built from this one starts on the *requested* layout
  // (this is how a closure rebuild picks up a deferred re-partition).
  std::unique_ptr<rdf::StoreView> empty = store.MakeEmpty();
  auto* sharded = dynamic_cast<ShardedStore*>(empty.get());
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->shard_count(), 6u);
  EXPECT_EQ(sharded->broadcast_predicates(), store.broadcast_predicates());
  store.UnpinEpoch();
}

TEST(ShardedStoreTest, EstimatesDependOnlyOnContents) {
  // The bit-identity keystone: estimates depend only on contents, so the
  // legacy join order cannot drift across shard counts.
  rdf::FlatTripleStore reference;
  std::vector<std::unique_ptr<ShardedStore>> stores;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    stores.push_back(std::make_unique<ShardedStore>(shards));
    stores.back()->SetBroadcastPredicates({10});
  }
  for (TermId s = 1; s <= 200; ++s) {
    const Triple t(s, s % 3 == 0 ? 10 : 7, 1 + s % 5);
    for (auto& store : stores) store->Insert(t);
    reference.Insert(t);
  }
  for (const auto& [s, p, o] :
       {std::tuple<TermId, TermId, TermId>{0, 0, 0},
        {0, 7, 0},
        {0, 10, 0},
        {5, 0, 0},
        {0, 0, 3},
        {0, 7, 3},
        {5, 7, 0},
        {12, 10, 1}}) {
    for (const auto& store : stores) {
      EXPECT_EQ(store->EstimateCount(s, p, o),
                stores.front()->EstimateCount(s, p, o))
          << "pattern (" << s << "," << p << "," << o << ") at "
          << store->shard_count() << " shards";
      EXPECT_EQ(store->Count(s, p, o), reference.Count(s, p, o));
    }
  }
}

TEST(ShardedStoreTest, StatisticsMergeComposesShardLocalBuilds) {
  ShardedStore store(4);
  store.SetBroadcastPredicates({10});
  for (TermId s = 1; s <= 300; ++s) {
    store.Insert(Triple(s, s % 4 == 0 ? 10 : 7, 1 + s % 9));
  }
  // Whole-store pass vs schema + per-shard builds folded with Merge.
  const exec::Statistics whole = exec::Statistics::Build(store);
  exec::Statistics merged = exec::Statistics::Build(store.schema_store());
  for (size_t i = 0; i < store.shard_count(); ++i) {
    merged.Merge(exec::Statistics::Build(store.shard(i)));
  }
  EXPECT_EQ(merged.total_triples(), whole.total_triples());
  EXPECT_EQ(merged.distinct_predicates(), whole.distinct_predicates());
  for (TermId p : {TermId{7}, TermId{10}}) {
    const exec::PredicateStats* w = whole.Predicate(p);
    const exec::PredicateStats* m = merged.Predicate(p);
    ASSERT_NE(w, nullptr);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->count, w->count);
    // Subject sets are disjoint across members (hash-partitioned or
    // all-schema), so distinct subjects merge exactly.
    EXPECT_EQ(m->distinct_subjects, w->distinct_subjects);
    // Objects repeat across shards: the merged count is an overcount,
    // bounded by the predicate count.
    EXPECT_GE(m->distinct_objects, w->distinct_objects);
    EXPECT_LE(m->distinct_objects, m->count);
  }
}

// Checks the disjointness invariant across an entire composite store:
// every triple is in exactly the member the routing function names.
void ExpectWellPartitioned(const ShardedStore& store) {
  store.Match(0, 0, 0, [&](const Triple& t) {
    if (store.IsBroadcast(t.p)) {
      EXPECT_TRUE(store.schema_store().Contains(t));
      for (size_t i = 0; i < store.shard_count(); ++i) {
        EXPECT_FALSE(store.shard(i).Contains(t));
      }
    } else {
      const size_t owner = store.OwnerShard(t.s);
      for (size_t i = 0; i < store.shard_count(); ++i) {
        EXPECT_EQ(store.shard(i).Contains(t), i == owner);
      }
    }
    return true;
  });
}

TEST(ShardedStoreTest, DeltaMaintenanceLandsOnOwnerShards) {
  // SaturatedGraph over a sharded base: semi-naive insert propagation and
  // DRed deletion must keep both the base and the closure well-partitioned,
  // and the closure itself equal to a from-scratch rebuild.
  rdf::Graph g;
  schema::Vocabulary vocab = schema::Vocabulary::Intern(g.dict());
  test::Add(g, "Cat", schema::iri::kSubClassOf, "Mammal");
  test::Add(g, "Mammal", schema::iri::kSubClassOf, "Animal");
  test::Add(g, "tom", schema::iri::kType, "Cat");

  auto sharded = std::make_unique<ShardedStore>(4);
  sharded->SetBroadcastPredicates({vocab.sub_class_of, vocab.sub_property_of,
                                   vocab.domain, vocab.range});
  g.AdoptStore(std::move(sharded));

  reasoning::SaturatedGraph sat(g, vocab);
  const TermId jerry = sat.dict().Intern(test::T("jerry"));
  const TermId cat = sat.dict().Intern(test::T("Cat"));
  const TermId animal = sat.dict().Intern(test::T("Animal"));

  // Insert: derived type triples land on jerry's owner shard in the
  // (sharded) closure store.
  EXPECT_GT(sat.Insert(Triple(jerry, vocab.type, cat)), 0u);
  const auto* closure = dynamic_cast<const ShardedStore*>(&sat.closure());
  ASSERT_NE(closure, nullptr);
  const Triple derived(jerry, vocab.type, animal);
  EXPECT_TRUE(closure->Contains(derived));
  EXPECT_TRUE(closure->shard(closure->OwnerShard(jerry)).Contains(derived));
  ExpectWellPartitioned(*closure);

  // Delete: DRed removes the derivations from the same shard.
  EXPECT_GT(sat.Erase(Triple(jerry, vocab.type, cat)), 0u);
  EXPECT_FALSE(closure->Contains(derived));
  EXPECT_FALSE(closure->shard(closure->OwnerShard(jerry)).Contains(derived));
  ExpectWellPartitioned(*closure);

  // The maintained closure equals a from-scratch rebuild.
  reasoning::SaturatedGraph rebuilt(sat.base(), vocab);
  EXPECT_EQ(sat.closure().ToVector(), rebuilt.closure().ToVector());
}

TEST(ShardedStoreTest, PermutationRemapsBroadcastRouting) {
  // Graph::ApplyPermutation re-encodes every id; the sharded store must
  // re-route: broadcast predicates follow their new ids and instance
  // triples follow their re-hashed subjects.
  rdf::Graph g;
  schema::Vocabulary vocab = schema::Vocabulary::Intern(g.dict());
  test::Add(g, "Cat", schema::iri::kSubClassOf, "Mammal");
  test::Add(g, "tom", schema::iri::kType, "Cat");

  auto sharded = std::make_unique<ShardedStore>(4);
  sharded->SetBroadcastPredicates({vocab.sub_class_of, vocab.sub_property_of,
                                   vocab.domain, vocab.range});
  g.AdoptStore(std::move(sharded));

  // Reverse all ids (ids are 1..size(); perm entry 0 is ignored).
  const size_t n = g.dict().size();
  std::vector<TermId> perm(n + 1);
  for (size_t i = 1; i <= n; ++i) {
    perm[i] = static_cast<TermId>(n + 1 - i);
  }
  g.ApplyPermutation(perm);

  const auto* store = dynamic_cast<const ShardedStore*>(&g.store());
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->size(), 2u);
  ExpectWellPartitioned(*store);
  // The remapped subClassOf id is broadcast; its triple sits in the schema
  // store.
  schema::Vocabulary new_vocab = schema::Vocabulary::Intern(g.dict());
  EXPECT_TRUE(store->IsBroadcast(new_vocab.sub_class_of));
  EXPECT_EQ(store->schema_store().size(), 1u);
}

TEST(ShardedStoreTest, ExchangeOperatorsAppearInExplain) {
  // End to end through the store front door: plan-mode profiling over the
  // sharded backend shows the exchange wrapper and its per-fragment
  // est-vs-actual children.
  store::ReasoningStoreOptions options;
  options.mode = store::ReasoningMode::kSaturation;
  options.backend = StorageBackend::kSharded;
  options.shards = 4;
  store::ReasoningStore store(options);
  ASSERT_TRUE(store
                  .LoadTurtle("@prefix rdfs: "
                              "<http://www.w3.org/2000/01/rdf-schema#> .\n"
                              "@prefix ex: <http://ex.org/> .\n"
                              "ex:Cat rdfs:subClassOf ex:Mammal .\n"
                              "ex:tom a ex:Cat .\n"
                              "ex:bob a ex:Cat .\n")
                  .ok());
  store.SetPlanMode(true);
  store.SetProfiling(true);
  store::QueryInfo info;
  auto result = store.Query(
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
      "PREFIX ex: <http://ex.org/> "
      "SELECT ?x WHERE { ?x rdf:type ex:Mammal }",
      &info);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 2u);
  ASSERT_NE(info.profile, nullptr);
  const std::string rendered = info.profile->Render();
  EXPECT_NE(rendered.find("exchange["), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("fragment."), std::string::npos) << rendered;
}

TEST(ShardedStoreTest, ServerSetShardsRepartitionsBothSides) {
  // SET shards= goes through the writer path: after a re-partition, reads
  // keep answering identically and the layout is visible to INFO.
  server::SnapshotStore snapshot([] {
    store::ReasoningStoreOptions options;
    options.backend = StorageBackend::kSharded;
    options.shards = 2;
    return options;
  }());
  ASSERT_TRUE(snapshot
                  .LoadTurtle("@prefix rdfs: "
                              "<http://www.w3.org/2000/01/rdf-schema#> .\n"
                              "@prefix ex: <http://ex.org/> .\n"
                              "ex:Cat rdfs:subClassOf ex:Mammal .\n"
                              "ex:tom a ex:Cat .\n")
                  .ok());
  const auto query = [&] {
    auto r = snapshot.Query(
        "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
        "PREFIX ex: <http://ex.org/> "
        "SELECT ?x WHERE { ?x rdf:type ex:Mammal }",
        store::ReadOptions{});
    return r.ok() ? r->row_count : size_t{0};
  };
  EXPECT_EQ(query(), 1u);
  EXPECT_EQ(snapshot.shard_layout().shard_count, 2u);

  EXPECT_TRUE(snapshot.SetShardCount(8));
  EXPECT_EQ(snapshot.shard_layout().shard_count, 8u);
  EXPECT_EQ(query(), 1u);

  // Non-sharded stores refuse (and burn no epoch).
  server::SnapshotStore plain;
  const uint64_t epoch = plain.epoch();
  EXPECT_FALSE(plain.SetShardCount(4));
  EXPECT_EQ(plain.epoch(), epoch);
}

}  // namespace
}  // namespace wdr
