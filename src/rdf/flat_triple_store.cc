#include "rdf/flat_triple_store.h"

#include <algorithm>

#include "obs/metrics.h"

namespace wdr::rdf {

// Merging cursor over one flat index: the contiguous main range and the
// ordered delta range are interleaved by permuted key, tombstoned main
// entries skipped. When the delta is empty (the common state after a bulk
// build or merge) the scan degenerates to a straight array walk.
class FlatScanCursor final : public ScanCursor {
 public:
  FlatScanCursor(const FlatTripleStore& store, const ScanPlan& plan)
      : store_(&store), plan_(plan) {
    store_->open_scans_.fetch_add(1, std::memory_order_relaxed);
    std::tie(mcur_, mend_) = store_->MainRange(plan_);
    Triple lo;
    plan_.KeyBounds(&lo, &hi_);
    const std::set<Triple>& delta =
        store_->delta_[static_cast<size_t>(plan_.order)];
    dcur_ = delta.lower_bound(lo);
    dend_ = delta.end();
    check_tombstones_ = !store_->tombstones_.empty();
  }

  ~FlatScanCursor() override {
    store_->open_scans_.fetch_sub(1, std::memory_order_relaxed);
  }

  size_t NextBatch(Triple* out, size_t cap) override {
    size_t n = 0;
    while (n < cap) {
      const bool main_left = mcur_ != mend_;
      const bool delta_left = dcur_ != dend_ && !(hi_ < *dcur_);
      bool take_main;
      if (main_left && delta_left) {
        take_main = *mcur_ < *dcur_;
      } else if (main_left) {
        take_main = true;
      } else if (delta_left) {
        take_main = false;
      } else {
        break;
      }
      Triple key;
      if (take_main) {
        key = *mcur_++;
      } else {
        key = *dcur_++;
      }
      Triple t = UnpermuteKey(key, plan_.order);
      if (take_main && check_tombstones_ && store_->tombstones_.count(t) > 0) {
        continue;
      }
      if (!plan_.PassesFilter(t)) continue;
      out[n++] = t;
    }
    return n;
  }

  void SeekAtLeast(const Triple& key) override {
    Triple target = PermuteKey(key, plan_.order);
    if (mcur_ != mend_ && *mcur_ < target) {
      mcur_ = std::lower_bound(mcur_, mend_, target);
    }
    if (dcur_ != dend_ && *dcur_ < target) {
      dcur_ = store_->delta_[static_cast<size_t>(plan_.order)].lower_bound(
          target);
    }
  }

 private:
  const FlatTripleStore* store_;
  ScanPlan plan_;
  Triple hi_;
  const Triple* mcur_ = nullptr;
  const Triple* mend_ = nullptr;
  std::set<Triple>::const_iterator dcur_;
  std::set<Triple>::const_iterator dend_;
  bool check_tombstones_ = false;
};

void FlatTripleStore::Build(std::vector<Triple> triples) {
  std::sort(triples.begin(), triples.end());
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());
  main_[static_cast<size_t>(IndexOrder::kSpo)] = std::move(triples);
  const std::vector<Triple>& spo = main_[static_cast<size_t>(IndexOrder::kSpo)];
  for (IndexOrder order : {IndexOrder::kPos, IndexOrder::kOsp}) {
    std::vector<Triple>& index = main_[static_cast<size_t>(order)];
    index.clear();
    index.reserve(spo.size());
    for (const Triple& t : spo) index.push_back(PermuteKey(t, order));
    std::sort(index.begin(), index.end());
  }
  for (std::set<Triple>& d : delta_) d.clear();
  tombstones_.clear();
}

void FlatTripleStore::Compact() {
  if (delta_[0].empty() && tombstones_.empty()) return;
  WDR_COUNTER_INC("wdr.store.flat.compactions");
  WDR_COUNTER_ADD("wdr.store.flat.delta_merged", delta_[0].size());
  WDR_COUNTER_ADD("wdr.store.flat.tombstones_merged", tombstones_.size());
  for (size_t i = 0; i < kIndexOrderCount; ++i) {
    const IndexOrder order = static_cast<IndexOrder>(i);
    std::vector<Triple> merged;
    merged.reserve(size());
    const std::vector<Triple>& main = main_[i];
    const std::set<Triple>& delta = delta_[i];
    auto mit = main.begin();
    auto dit = delta.begin();
    while (mit != main.end() || dit != delta.end()) {
      // Delta and main are disjoint by invariant, so no equal-key case.
      if (dit == delta.end() || (mit != main.end() && *mit < *dit)) {
        if (tombstones_.empty() ||
            tombstones_.count(UnpermuteKey(*mit, order)) == 0) {
          merged.push_back(*mit);
        }
        ++mit;
      } else {
        merged.push_back(*dit);
        ++dit;
      }
    }
    main_[i] = std::move(merged);
  }
  for (std::set<Triple>& d : delta_) d.clear();
  tombstones_.clear();
}

void FlatTripleStore::MaybeCompact() {
  const size_t pending = delta_[0].size() + tombstones_.size();
  if (pending < kMergeFloor) return;
  if (pending * 4 < main_[0].size()) return;  // amortize the linear rebuild
  if (Restructurable()) {
    Compact();
  } else {
    // Cursors or pinned readers hold pointers into main_; the merge is
    // retried on the next mutation after they release.
    WDR_COUNTER_INC("wdr.store.flat.compactions_deferred");
  }
}

bool FlatTripleStore::TryCompact() {
  if (delta_[0].empty() && tombstones_.empty()) return true;
  if (!Restructurable()) {
    WDR_COUNTER_INC("wdr.store.flat.compactions_deferred");
    return false;
  }
  Compact();
  return true;
}

bool FlatTripleStore::Restructurable() const {
  return open_scans_.load(std::memory_order_relaxed) == 0 &&
         epoch_pins_.load(std::memory_order_relaxed) == 0;
}

bool FlatTripleStore::InMain(const Triple& t) const {
  const std::vector<Triple>& spo = main_[static_cast<size_t>(IndexOrder::kSpo)];
  return std::binary_search(spo.begin(), spo.end(), t);
}

bool FlatTripleStore::Insert(const Triple& t) {
  if (InMain(t)) {
    if (tombstones_.erase(t) > 0) {
      return true;  // resurrect a previously erased main triple
    }
    return false;
  }
  if (!delta_[static_cast<size_t>(IndexOrder::kSpo)].insert(t).second) {
    return false;
  }
  delta_[static_cast<size_t>(IndexOrder::kPos)].insert(
      PermuteKey(t, IndexOrder::kPos));
  delta_[static_cast<size_t>(IndexOrder::kOsp)].insert(
      PermuteKey(t, IndexOrder::kOsp));
  MaybeCompact();
  return true;
}

bool FlatTripleStore::Erase(const Triple& t) {
  if (delta_[static_cast<size_t>(IndexOrder::kSpo)].erase(t) > 0) {
    delta_[static_cast<size_t>(IndexOrder::kPos)].erase(
        PermuteKey(t, IndexOrder::kPos));
    delta_[static_cast<size_t>(IndexOrder::kOsp)].erase(
        PermuteKey(t, IndexOrder::kOsp));
    return true;
  }
  if (InMain(t) && tombstones_.insert(t).second) {
    MaybeCompact();
    return true;
  }
  return false;
}

size_t FlatTripleStore::InsertBatch(std::span<const Triple> batch) {
  if (batch.empty()) return 0;
  const size_t before = size();
  // An empty-looking store may still hold tombstoned main arrays that an
  // open cursor or epoch pin points into; Build frees them, so it needs
  // the same guard as a merge.
  if (before == 0 && Restructurable()) {
    Build(std::vector<Triple>(batch.begin(), batch.end()));
    return size();
  }
  if (Restructurable() && batch.size() >= kMergeFloor &&
      batch.size() * 2 >= before) {
    // Large batch relative to the store: one linear rebuild beats
    // per-triple delta maintenance.
    WDR_COUNTER_INC("wdr.store.flat.bulk_builds");
    std::vector<Triple> all = ToVector();
    all.insert(all.end(), batch.begin(), batch.end());
    Build(std::move(all));
  } else {
    for (const Triple& t : batch) Insert(t);
  }
  return size() - before;
}

void FlatTripleStore::Clear() {
  for (std::vector<Triple>& index : main_) index.clear();
  for (std::set<Triple>& d : delta_) d.clear();
  tombstones_.clear();
}

bool FlatTripleStore::Contains(const Triple& t) const {
  if (delta_[static_cast<size_t>(IndexOrder::kSpo)].count(t) > 0) return true;
  return InMain(t) && tombstones_.count(t) == 0;
}

std::pair<const Triple*, const Triple*> FlatTripleStore::MainRange(
    const ScanPlan& plan) const {
  const std::vector<Triple>& index = main_[static_cast<size_t>(plan.order)];
  Triple lo, hi;
  plan.KeyBounds(&lo, &hi);
  const Triple* first =
      std::lower_bound(index.data(), index.data() + index.size(), lo);
  const Triple* last =
      std::upper_bound(first, index.data() + index.size(), hi);
  return {first, last};
}

size_t FlatTripleStore::Count(TermId s, TermId p, TermId o) const {
  const bool bs = s != kNullTermId;
  const bool bp = p != kNullTermId;
  const bool bo = o != kNullTermId;
  if (!bs && !bp && !bo) return size();
  if (bs && bp && bo) return Contains(Triple(s, p, o)) ? 1 : 0;
  return CountRange(PlanScan(s, p, o));
}

size_t FlatTripleStore::CountRange(const ScanPlan& plan) const {
  if (plan.s.is_any() && plan.p.is_any() && plan.o.is_any()) return size();
  if (plan.s.is_point() && plan.p.is_point() && plan.o.is_point()) {
    return Contains(Triple(plan.s.lo, plan.p.lo, plan.o.lo)) ? 1 : 0;
  }
  if (!plan.Exact()) {
    // Residual-filter shape (e.g. (s ? o)): no closed-form window size.
    size_t n = 0;
    MatchPlan(plan, [&n](const Triple&) { ++n; });
    return n;
  }
  auto [first, last] = MainRange(plan);
  size_t n = static_cast<size_t>(last - first);
  if (!tombstones_.empty()) {
    for (const Triple& t : tombstones_) {
      if (plan.PassesFilter(t)) --n;
    }
  }
  const std::set<Triple>& delta = delta_[static_cast<size_t>(plan.order)];
  if (!delta.empty()) {
    Triple lo, hi;
    plan.KeyBounds(&lo, &hi);
    for (auto it = delta.lower_bound(lo); it != delta.end() && !(hi < *it);
         ++it) {
      ++n;
    }
  }
  return n;
}

size_t FlatTripleStore::EstimateCount(TermId s, TermId p, TermId o) const {
  const bool bs = s != kNullTermId;
  const bool bp = p != kNullTermId;
  const bool bo = o != kNullTermId;
  if (bs && bp && bo) return Contains(Triple(s, p, o)) ? 1 : 0;
  if (!bs && !bp && !bo) return size();
  return EstimateCountRange(PlanScan(s, p, o));
}

size_t FlatTripleStore::EstimateCountRange(const ScanPlan& plan) const {
  if (plan.s.is_point() && plan.p.is_point() && plan.o.is_point()) {
    return Contains(Triple(plan.s.lo, plan.p.lo, plan.o.lo)) ? 1 : 0;
  }
  if (plan.s.is_any() && plan.p.is_any() && plan.o.is_any()) return size();
  // Exact main-window width in O(log n) — a better join-ordering signal
  // than StoreView's capped enumeration — plus a capped walk of
  // the (small) delta range. Tombstones are ignored: estimates only rank.
  auto [first, last] = MainRange(plan);
  size_t n = static_cast<size_t>(last - first);
  const std::set<Triple>& delta = delta_[static_cast<size_t>(plan.order)];
  if (!delta.empty()) {
    Triple lo, hi;
    plan.KeyBounds(&lo, &hi);
    size_t walked = 0;
    for (auto it = delta.lower_bound(lo);
         it != delta.end() && !(hi < *it) && walked < 64; ++it) {
      ++walked;
    }
    n += walked;
  }
  return n;
}

void FlatTripleStore::OpenScan(ScanHandle& handle, const ScanPlan& plan) const {
  WDR_COUNTER_INC("wdr.store.flat.scans");
  handle.Emplace<FlatScanCursor>(*this, plan);
}

}  // namespace wdr::rdf
