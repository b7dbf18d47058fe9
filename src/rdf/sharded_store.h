// Subject-hash-partitioned composite storage backend. Instance triples are
// routed to one of N member shards by a multiplicative hash of the subject
// id; triples whose predicate is in the configured *broadcast set* (the
// RDFS constraint predicates) live in a single shared schema store that is
// logically visible to every shard. The two kinds of member are disjoint
// by construction (a predicate is either broadcast or not), so every
// global read is an (N+1)-way ordered merge over disjoint cursors and
// needs no deduplication — scans enumerate in exactly the global index
// order a single store would produce, which is what keeps sharded
// execution bit-identical to the single-store reference.
//
// The shard count is runtime-selectable (SetShardCount). Re-partitioning
// is lazy: while scans are open or epochs pinned the new layout is only
// recorded, and applied at the next restructurable mutation or TryCompact
// — the same deferral contract the flat backend uses for compaction.
#ifndef WDR_RDF_SHARDED_STORE_H_
#define WDR_RDF_SHARDED_STORE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "rdf/store_view.h"
#include "rdf/triple.h"

namespace wdr::rdf {

class ShardedStore final : public StoreView {
 public:
  static constexpr size_t kDefaultShardCount = 4;

  explicit ShardedStore(size_t shard_count = kDefaultShardCount);

  // Copies and moves carry data and configuration but not the open-scan /
  // epoch-pin counters (those belong to readers of the source object).
  ShardedStore(const ShardedStore& other);
  ShardedStore& operator=(const ShardedStore& other);
  ShardedStore(ShardedStore&& other) noexcept;
  ShardedStore& operator=(ShardedStore&& other) noexcept;

  // --- Partitioning configuration ---------------------------------------

  size_t shard_count() const { return shards_.size(); }

  // Requests `n` shards. Applied immediately when no scans are open and no
  // epochs pinned (returns true); otherwise recorded and applied lazily at
  // the next restructurable mutation or TryCompact (returns false).
  bool SetShardCount(size_t n);
  size_t pending_shard_count() const { return pending_shard_count_; }

  // Replaces the broadcast-predicate set (predicates whose triples are
  // schema and live in the shared store). Existing triples are re-routed.
  void SetBroadcastPredicates(std::vector<TermId> preds);
  const std::vector<TermId>& broadcast_predicates() const {
    return broadcast_preds_;
  }
  bool IsBroadcast(TermId p) const {
    for (TermId b : broadcast_preds_) {
      if (b == p) return true;
    }
    return false;
  }

  // The shard owning instance triples with subject `s`.
  size_t OwnerShard(TermId s) const {
    uint64_t h = static_cast<uint64_t>(s) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 33;
    return static_cast<size_t>(h % shards_.size());
  }

  // --- Layout introspection (INFO, obs gauges, tests) -------------------

  const StoreView& shard(size_t i) const { return *shards_[i]; }
  const StoreView& schema_store() const { return *schema_; }
  size_t schema_size() const { return schema_->size(); }
  std::vector<size_t> ShardSizes() const;
  // max shard size / mean shard size; 1.0 = perfectly balanced, N = all
  // triples on one shard. 0 when the instance partition is empty.
  double SkewRatio() const;
  // Publishes wdr.shard.* gauges (per-shard sizes, skew, shard count).
  void PublishGauges() const;

  // Read-only view over {schema store, shard i}: the shard-local join view
  // shard-parallel saturation derives against. The view borrows the
  // members; it must not outlive the ShardedStore or a re-partition.
  class LocalView final : public StoreView {
   public:
    LocalView(const StoreView* schema, const StoreView* shard)
        : members_{schema, shard} {}

    // Read-only: mutations are contract violations and report no-ops.
    bool Insert(const Triple&) override { return false; }
    bool Erase(const Triple&) override { return false; }
    void Clear() override {}

    bool Contains(const Triple& t) const override {
      return members_[0]->Contains(t) || members_[1]->Contains(t);
    }
    size_t size() const override {
      return members_[0]->size() + members_[1]->size();
    }
    size_t Count(TermId s, TermId p, TermId o) const override {
      return members_[0]->Count(s, p, o) + members_[1]->Count(s, p, o);
    }
    size_t EstimateCount(TermId s, TermId p, TermId o) const override {
      return members_[0]->EstimateCount(s, p, o) +
             members_[1]->EstimateCount(s, p, o);
    }
    using StoreView::OpenScan;
    void OpenScan(ScanHandle& handle, const ScanPlan& plan) const override;
    StorageBackend backend() const override { return StorageBackend::kFlat; }
    std::unique_ptr<StoreView> Clone() const override;

   private:
    const StoreView* members_[2];
  };

  LocalView ShardLocalView(size_t i) const {
    return LocalView(schema_.get(), shards_[i].get());
  }

  // --- StoreView interface ----------------------------------------------

  bool Insert(const Triple& t) override;
  bool Erase(const Triple& t) override;
  size_t InsertBatch(std::span<const Triple> batch) override;
  void Clear() override;

  bool Contains(const Triple& t) const override;
  size_t size() const override;
  size_t Count(TermId s, TermId p, TermId o) const override;
  size_t CountRange(const ScanPlan& plan) const override;
  size_t EstimateCount(TermId s, TermId p, TermId o) const override;
  // EstimateCountRange intentionally inherits the StoreView default (capped
  // enumeration over the merged cursor + coarse size fallback): identical
  // inputs therefore produce identical estimates to a single store, which
  // keeps legacy-path join orders — and thus row streams — bit-identical
  // across shard counts.

  using StoreView::OpenScan;
  void OpenScan(ScanHandle& handle, const ScanPlan& plan) const override;

  void PinEpoch() const override;
  void UnpinEpoch() const override;
  size_t epoch_pins() const override {
    return epoch_pins_.load(std::memory_order_relaxed);
  }
  bool TryCompact() override;

  StorageBackend backend() const override { return StorageBackend::kSharded; }
  std::unique_ptr<StoreView> Clone() const override {
    return std::make_unique<ShardedStore>(*this);
  }
  std::unique_ptr<StoreView> MakeEmpty() const override;
  void OnIdsPermuted(std::span<const TermId> perm) override;

  // Live merged cursors, for the re-partition deferral tests.
  size_t open_scans() const {
    return open_scans_.load(std::memory_order_relaxed);
  }

 private:
  friend class ShardedScanCursor;

  bool Restructurable() const {
    return open_scans_.load(std::memory_order_relaxed) == 0 &&
           epoch_pins_.load(std::memory_order_relaxed) == 0;
  }
  // Applies a pending shard count if one is recorded and nothing forbids
  // restructuring. Called from every mutation entry point and TryCompact.
  void MaybeApplyPendingLayout();
  void RepartitionNow(size_t n);

  // Member stores a scan/count with this plan must consult, in merge order
  // (schema first, then shards). Prunes to the owner shard on a
  // subject-point plan and to the schema store alone on a broadcast
  // predicate point.
  void CollectMembers(const ScanPlan& plan,
                      std::vector<const StoreView*>* members) const;

  std::unique_ptr<StoreView> schema_;          // broadcast (schema) triples
  std::vector<std::unique_ptr<StoreView>> shards_;  // instance partitions
  std::vector<TermId> broadcast_preds_;
  size_t pending_shard_count_ = 0;  // 0 = no re-partition pending

  mutable std::atomic<size_t> open_scans_{0};
  mutable std::atomic<size_t> epoch_pins_{0};
};

}  // namespace wdr::rdf

#endif  // WDR_RDF_SHARDED_STORE_H_
