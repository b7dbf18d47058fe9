#include "rdf/sharded_store.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "rdf/flat_triple_store.h"

namespace wdr::rdf {
namespace {

// Compare two triples in the scan's permuted key order.
inline bool KeyLess(const Triple& a, const Triple& b, IndexOrder order) {
  return PermuteKey(a, order) < PermuteKey(b, order);
}

}  // namespace

// (N+1)-way ordered merge over the member cursors of one scan. Members are
// pairwise disjoint (a predicate is either broadcast or instance; instance
// subjects hash to exactly one shard), so the merge never deduplicates —
// it interleaves the member streams back into global index order. The
// per-child state is too large for ScanHandle's inline slot, so the cursor
// itself is a thin handle around one heap allocation.
class ShardedScanCursor final : public ScanCursor {
 public:
  struct Child {
    ScanHandle handle;
    Triple buf[StoreView::kMatchBatch];
    size_t pos = 0;
    size_t len = 0;
    bool done = false;

    // Ensures a head triple is buffered; false when exhausted.
    bool Ensure() {
      if (pos < len) return true;
      if (done) return false;
      pos = 0;
      len = (*handle).NextBatch(buf, StoreView::kMatchBatch);
      if (len == 0) done = true;
      return !done;
    }
    const Triple& Head() const { return buf[pos]; }
  };

  struct State {
    std::vector<std::unique_ptr<Child>> children;
    IndexOrder order = IndexOrder::kSpo;
  };

  ShardedScanCursor(const ShardedStore* store, const ScanPlan& plan,
                    const std::vector<const StoreView*>& members)
      : store_(store), state_(std::make_unique<State>()) {
    state_->order = plan.order;
    state_->children.reserve(members.size());
    for (const StoreView* m : members) {
      auto child = std::make_unique<Child>();
      m->OpenScan(child->handle, plan);
      state_->children.push_back(std::move(child));
    }
    if (store_ != nullptr) {
      store_->open_scans_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  ~ShardedScanCursor() override {
    if (store_ != nullptr) {
      store_->open_scans_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  size_t NextBatch(Triple* out, size_t cap) override {
    auto& children = state_->children;
    size_t n = 0;
    if (children.size() == 1) {
      // Single pruned member: stream through without compares.
      Child& c = *children[0];
      while (n < cap && c.Ensure()) {
        const size_t take = std::min(cap - n, c.len - c.pos);
        std::copy(c.buf + c.pos, c.buf + c.pos + take, out + n);
        c.pos += take;
        n += take;
      }
      return n;
    }
    const IndexOrder order = state_->order;
    while (n < cap) {
      Child* best = nullptr;
      for (auto& c : children) {
        if (!c->Ensure()) continue;
        if (best == nullptr || KeyLess(c->Head(), best->Head(), order)) {
          best = c.get();
        }
      }
      if (best == nullptr) break;
      out[n++] = best->Head();
      ++best->pos;
    }
    return n;
  }

  void SeekAtLeast(const Triple& key) override {
    const IndexOrder order = state_->order;
    const Triple pk = PermuteKey(key, order);
    for (auto& c : state_->children) {
      while (c->pos < c->len && PermuteKey(c->buf[c->pos], order) < pk) {
        ++c->pos;
      }
      if (c->pos < c->len || c->done) continue;
      // Buffer drained below the key: forward the seek to the member.
      (*c->handle).SeekAtLeast(key);
    }
  }

 private:
  const ShardedStore* store_;  // open-scan accounting; null for LocalView
  std::unique_ptr<State> state_;
};

static_assert(sizeof(ShardedScanCursor) <= ScanHandle::kInlineBytes);

ShardedStore::ShardedStore(size_t shard_count)
    : schema_(std::make_unique<FlatTripleStore>()) {
  if (shard_count == 0) shard_count = 1;
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<FlatTripleStore>());
  }
}

ShardedStore::ShardedStore(const ShardedStore& other)
    : schema_(other.schema_->Clone()),
      broadcast_preds_(other.broadcast_preds_),
      pending_shard_count_(other.pending_shard_count_) {
  shards_.reserve(other.shards_.size());
  for (const auto& s : other.shards_) shards_.push_back(s->Clone());
}

ShardedStore& ShardedStore::operator=(const ShardedStore& other) {
  if (this == &other) return *this;
  schema_ = other.schema_->Clone();
  shards_.clear();
  shards_.reserve(other.shards_.size());
  for (const auto& s : other.shards_) shards_.push_back(s->Clone());
  broadcast_preds_ = other.broadcast_preds_;
  pending_shard_count_ = other.pending_shard_count_;
  return *this;
}

ShardedStore::ShardedStore(ShardedStore&& other) noexcept
    : schema_(std::move(other.schema_)),
      shards_(std::move(other.shards_)),
      broadcast_preds_(std::move(other.broadcast_preds_)),
      pending_shard_count_(other.pending_shard_count_) {}

ShardedStore& ShardedStore::operator=(ShardedStore&& other) noexcept {
  if (this == &other) return *this;
  schema_ = std::move(other.schema_);
  shards_ = std::move(other.shards_);
  broadcast_preds_ = std::move(other.broadcast_preds_);
  pending_shard_count_ = other.pending_shard_count_;
  return *this;
}

bool ShardedStore::SetShardCount(size_t n) {
  if (n == 0) n = 1;
  if (n == shards_.size()) {
    pending_shard_count_ = 0;
    return true;
  }
  if (!Restructurable()) {
    pending_shard_count_ = n;
    return false;
  }
  RepartitionNow(n);
  return true;
}

void ShardedStore::SetBroadcastPredicates(std::vector<TermId> preds) {
  std::sort(preds.begin(), preds.end());
  preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
  if (preds == broadcast_preds_) return;
  std::vector<Triple> all = ToVector();
  broadcast_preds_ = std::move(preds);
  schema_->Clear();
  for (auto& s : shards_) s->Clear();
  InsertBatch(all);
}

std::vector<size_t> ShardedStore::ShardSizes() const {
  std::vector<size_t> sizes;
  sizes.reserve(shards_.size());
  for (const auto& s : shards_) sizes.push_back(s->size());
  return sizes;
}

double ShardedStore::SkewRatio() const {
  size_t total = 0;
  size_t max = 0;
  for (const auto& s : shards_) {
    const size_t n = s->size();
    total += n;
    max = std::max(max, n);
  }
  if (total == 0) return 0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(shards_.size());
  return static_cast<double>(max) / mean;
}

void ShardedStore::PublishGauges() const {
  auto& reg = obs::MetricsRegistry::Get();
  reg.GetGauge("wdr.shard.count")
      .Set(static_cast<int64_t>(shards_.size()));
  reg.GetGauge("wdr.shard.schema_size")
      .Set(static_cast<int64_t>(schema_->size()));
  reg.GetGauge("wdr.shard.skew_x100")
      .Set(static_cast<int64_t>(SkewRatio() * 100.0));
  for (size_t i = 0; i < shards_.size(); ++i) {
    reg.GetGauge("wdr.shard.size." + std::to_string(i))
        .Set(static_cast<int64_t>(shards_[i]->size()));
  }
}

void ShardedStore::OpenScan(ScanHandle& handle, const ScanPlan& plan) const {
  std::vector<const StoreView*> members;
  CollectMembers(plan, &members);
  handle.Emplace<ShardedScanCursor>(this, plan, members);
}

void ShardedStore::LocalView::OpenScan(ScanHandle& handle,
                                       const ScanPlan& plan) const {
  std::vector<const StoreView*> members{members_[0], members_[1]};
  handle.Emplace<ShardedScanCursor>(nullptr, plan, members);
}

std::unique_ptr<StoreView> ShardedStore::LocalView::Clone() const {
  // Snapshot clone: the view is a borrowing composite, so a deep copy
  // materializes into a plain flat store.
  auto copy = std::make_unique<FlatTripleStore>();
  copy->InsertBatch(ToVector());
  return copy;
}

bool ShardedStore::Insert(const Triple& t) {
  MaybeApplyPendingLayout();
  if (IsBroadcast(t.p)) return schema_->Insert(t);
  return shards_[OwnerShard(t.s)]->Insert(t);
}

bool ShardedStore::Erase(const Triple& t) {
  MaybeApplyPendingLayout();
  if (IsBroadcast(t.p)) return schema_->Erase(t);
  return shards_[OwnerShard(t.s)]->Erase(t);
}

size_t ShardedStore::InsertBatch(std::span<const Triple> batch) {
  MaybeApplyPendingLayout();
  // Partition first so each member gets one bulk-friendly sub-batch.
  std::vector<Triple> schema_batch;
  std::vector<std::vector<Triple>> shard_batch(shards_.size());
  for (const Triple& t : batch) {
    if (IsBroadcast(t.p)) {
      schema_batch.push_back(t);
    } else {
      shard_batch[OwnerShard(t.s)].push_back(t);
    }
  }
  size_t added = schema_->InsertBatch(schema_batch);
  for (size_t i = 0; i < shards_.size(); ++i) {
    added += shards_[i]->InsertBatch(shard_batch[i]);
  }
  return added;
}

void ShardedStore::Clear() {
  MaybeApplyPendingLayout();
  schema_->Clear();
  for (auto& s : shards_) s->Clear();
}

bool ShardedStore::Contains(const Triple& t) const {
  if (IsBroadcast(t.p)) return schema_->Contains(t);
  return shards_[OwnerShard(t.s)]->Contains(t);
}

size_t ShardedStore::size() const {
  size_t total = schema_->size();
  for (const auto& s : shards_) total += s->size();
  return total;
}

size_t ShardedStore::Count(TermId s, TermId p, TermId o) const {
  std::vector<const StoreView*> members;
  CollectMembers(PlanScan(s, p, o), &members);
  size_t total = 0;
  for (const StoreView* m : members) total += m->Count(s, p, o);
  return total;
}

size_t ShardedStore::CountRange(const ScanPlan& plan) const {
  std::vector<const StoreView*> members;
  CollectMembers(plan, &members);
  size_t total = 0;
  for (const StoreView* m : members) total += m->CountRange(plan);
  return total;
}

size_t ShardedStore::EstimateCount(TermId s, TermId p, TermId o) const {
  // StoreView's capped-enumeration estimate, run over the merged cursor:
  // estimates depend only on store *contents*, so the cost-based join
  // order — and the result row stream — is identical at every shard count.
  const bool bs = s != kNullTermId;
  const bool bp = p != kNullTermId;
  const bool bo = o != kNullTermId;
  if (bs && bp && bo) return Contains(Triple(s, p, o)) ? 1 : 0;
  if (!bs && !bp && !bo) return size();
  size_t n = 0;
  constexpr size_t kCap = 64;
  Match(s, p, o, [&n](const Triple&) { return ++n < kCap; });
  if (n < kCap) return n;
  const int bound = (bs ? 1 : 0) + (bp ? 1 : 0) + (bo ? 1 : 0);
  return size() >> (2 * bound);
}

void ShardedStore::PinEpoch() const {
  epoch_pins_.fetch_add(1, std::memory_order_relaxed);
  schema_->PinEpoch();
  for (const auto& s : shards_) s->PinEpoch();
}

void ShardedStore::UnpinEpoch() const {
  schema_->UnpinEpoch();
  for (const auto& s : shards_) s->UnpinEpoch();
  epoch_pins_.fetch_sub(1, std::memory_order_relaxed);
}

bool ShardedStore::TryCompact() {
  MaybeApplyPendingLayout();
  bool all = pending_shard_count_ == 0;
  if (!schema_->TryCompact()) all = false;
  for (auto& s : shards_) {
    if (!s->TryCompact()) all = false;
  }
  return all;
}

std::unique_ptr<StoreView> ShardedStore::MakeEmpty() const {
  const size_t n =
      pending_shard_count_ != 0 ? pending_shard_count_ : shards_.size();
  auto empty = std::make_unique<ShardedStore>(n);
  empty->broadcast_preds_ = broadcast_preds_;
  return empty;
}

void ShardedStore::OnIdsPermuted(std::span<const TermId> perm) {
  for (TermId& p : broadcast_preds_) {
    if (static_cast<size_t>(p) < perm.size()) p = perm[p];
  }
  std::sort(broadcast_preds_.begin(), broadcast_preds_.end());
}

void ShardedStore::MaybeApplyPendingLayout() {
  if (pending_shard_count_ == 0 || !Restructurable()) return;
  RepartitionNow(pending_shard_count_);
}

void ShardedStore::RepartitionNow(size_t n) {
  std::vector<Triple> instance;
  for (const auto& s : shards_) {
    s->Match(0, 0, 0, [&](const Triple& t) { instance.push_back(t); });
  }
  std::vector<std::unique_ptr<StoreView>> next;
  next.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    next.push_back(std::make_unique<FlatTripleStore>());
  }
  shards_ = std::move(next);
  pending_shard_count_ = 0;
  InsertBatch(instance);
  WDR_COUNTER_INC("wdr.shard.repartitions");
  PublishGauges();
}

void ShardedStore::CollectMembers(
    const ScanPlan& plan, std::vector<const StoreView*>* members) const {
  const bool p_point = plan.p.is_point();
  const bool p_broadcast = p_point && IsBroadcast(plan.p.lo);
  if (p_broadcast) {
    // All matches have a broadcast predicate: the schema store alone.
    members->push_back(schema_.get());
    return;
  }
  // A wild/range predicate may match schema triples too; a non-broadcast
  // point predicate cannot (the schema store only holds broadcast ones).
  if (!p_point) members->push_back(schema_.get());
  if (plan.s.is_point()) {
    members->push_back(shards_[OwnerShard(plan.s.lo)].get());
    return;
  }
  for (const auto& s : shards_) members->push_back(s.get());
}

}  // namespace wdr::rdf
