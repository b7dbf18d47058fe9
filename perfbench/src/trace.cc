#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench::trace {
namespace {

struct SiteInfo {
  const char* layer;
  const char* function;
};

constexpr SiteInfo kSiteInfo[kSiteCount] = {
    {"client", "Client::Call"},
    {"bench", "EmbeddedRead"},
    {"bench", "Setup"},
    {"bench", "Probe"},
    {"server", "SnapshotStore::Query"},
    {"server", "SnapshotStore::Update"},
    {"store", "ReasoningStore::Prepare"},
    {"store", "ReasoningStore::Execute"},
    {"store", "ReasoningStore::DecodeRow"},
    {"store", "ReasoningStore::Update"},
    {"store", "ReasoningStore::Warm"},
    {"store", "ReasoningStore::LoadTurtle"},
    {"query", "ParseSparql"},
    {"query", "Evaluator::Evaluate"},
    {"reformulation", "Reformulator::Reformulate"},
    {"exec", "PlanConjunctive"},
    {"exec", "Run"},
    {"exec", "Statistics::Build"},
    {"backward", "BackwardChainingEvaluator::Evaluate"},
    {"datalog", "TranslateGraph"},
    {"datalog", "AnswerViaMagicUnion"},
    {"reasoning", "SaturatedGraph::SaturatedGraph"},
    {"reasoning", "SaturatedGraph::Insert"},
    {"reasoning", "SaturatedGraph::Erase"},
    {"io", "ParseTurtle"},
};

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Record {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: root
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  uint32_t calls = 0;
  Site site = Site::kCount;
};

struct Frame {
  size_t record = 0;
  uint64_t start_ns = 0;
  // Child records opened under this frame, by site, for sibling merging.
  std::vector<std::pair<Site, size_t>> children;
};

struct ThreadState {
  std::vector<Record> records;
  std::vector<Frame> stack;
  int session = -1;  // bound client session (server threads)
};

struct SessionRoot {
  std::atomic<uint64_t> request{0};
  std::atomic<uint64_t> span{0};
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<int> g_pending_session{-1};
SessionRoot g_session_roots[kMaxSessions];

// Owns every thread's state so records outlive the threads (server session
// threads end before the benchmark summarizes).
std::mutex g_threads_mu;
std::vector<std::unique_ptr<ThreadState>>& Threads() {
  static auto* threads = new std::vector<std::unique_ptr<ThreadState>>();
  return *threads;
}

thread_local ThreadState* tl_state = nullptr;

ThreadState& State() {
  if (tl_state == nullptr) {
    auto state = std::make_unique<ThreadState>();
    state->records.reserve(1024);
    tl_state = state.get();
    std::lock_guard<std::mutex> lock(g_threads_mu);
    Threads().push_back(std::move(state));
  }
  return *tl_state;
}

void Open(Site site, int session) {
  ThreadState& ts = State();
  const uint64_t now = NowNanos();
  size_t index;
  if (!ts.stack.empty()) {
    Frame& parent = ts.stack.back();
    index = ts.records.size();
    for (const auto& [child_site, child_index] : parent.children) {
      if (child_site == site) {
        index = child_index;
        break;
      }
    }
    if (index == ts.records.size()) {
      const Record& p = ts.records[parent.record];
      Record r;
      r.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
      r.parent = p.id;
      r.request = p.request;
      r.start_ns = now;
      r.site = site;
      ts.records.push_back(r);  // `p` is not used past this point
      parent.children.emplace_back(site, index);
    }
  } else {
    Record r;
    r.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
    r.start_ns = now;
    r.site = site;
    if (ts.session >= 0) {
      const SessionRoot& root = g_session_roots[ts.session];
      r.request = root.request.load(std::memory_order_acquire);
      r.parent = root.span.load(std::memory_order_acquire);
    } else {
      r.request = r.id;
    }
    index = ts.records.size();
    ts.records.push_back(r);
    if (session >= 0 && session < kMaxSessions) {
      g_session_roots[session].request.store(r.request,
                                             std::memory_order_release);
      g_session_roots[session].span.store(r.id, std::memory_order_release);
    }
  }
  ts.stack.push_back(Frame{index, now, {}});
}

void Close() {
  ThreadState& ts = State();
  const Frame& frame = ts.stack.back();
  Record& r = ts.records[frame.record];
  r.duration_ns += NowNanos() - frame.start_ns;
  ++r.calls;
  ts.stack.pop_back();
}

}  // namespace

const char* SiteLayer(Site site) {
  return kSiteInfo[static_cast<size_t>(site)].layer;
}

const char* SiteFunction(Site site) {
  return kSiteInfo[static_cast<size_t>(site)].function;
}

void Enable(bool on) { g_enabled.store(on, std::memory_order_release); }

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

// wraps.cc provides the strong definition.
__attribute__((weak)) bool LayerWrapsLinked() { return false; }

Span::Span(Site site, int session) : active_(Enabled()) {
  if (active_) Open(site, session);
}

Span::~Span() {
  if (active_) Close();
}

void BindNextServerThread(int session) {
  g_pending_session.store(session, std::memory_order_release);
}

void ClearPendingBinding() {
  g_pending_session.store(-1, std::memory_order_release);
}

void MaybeBindServerThread() {
  if (tl_state != nullptr && tl_state->session >= 0) return;
  const int pending = g_pending_session.load(std::memory_order_acquire);
  if (pending < 0) return;
  State().session = pending;
}

void Clear() {
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (auto& ts : Threads()) ts->records.clear();
}

Summary Summarize() {
  std::lock_guard<std::mutex> lock(g_threads_mu);
  std::unordered_map<uint64_t, const Record*> by_id;
  for (const auto& ts : Threads()) {
    for (const Record& r : ts->records) by_id.emplace(r.id, &r);
  }
  std::unordered_map<uint64_t, uint64_t> child_ns;
  for (const auto& [id, r] : by_id) {
    if (r->parent != 0) child_ns[r->parent] += r->duration_ns;
  }
  // Root site of each record (walks parent links, memoized).
  std::unordered_map<uint64_t, Site> root_site;
  Summary summary;
  const auto find_root = [&](const Record* r) {
    std::vector<uint64_t> path;
    Site site = Site::kCount;
    while (r != nullptr) {
      if (auto it = root_site.find(r->id); it != root_site.end()) {
        site = it->second;
        break;
      }
      path.push_back(r->id);
      if (r->parent == 0) {
        site = r->site;
        break;
      }
      auto parent = by_id.find(r->parent);
      if (parent == by_id.end()) {
        ++summary.orphans;
        break;
      }
      r = parent->second;
    }
    for (uint64_t id : path) root_site[id] = site;
    return site;
  };
  for (const auto& [id, r] : by_id) {
    const size_t s = static_cast<size_t>(r->site);
    const auto it = child_ns.find(id);
    const uint64_t children = it == child_ns.end() ? 0 : it->second;
    const double self_ms =
        (r->duration_ns > children ? r->duration_ns - children : 0) / 1e6;
    const auto add = [&](SiteTotals& totals) {
      totals.calls += r->calls;
      totals.total_ms += r->duration_ns / 1e6;
      totals.self_ms += self_ms;
    };
    add(summary.all[s]);
    const Site root = find_root(r);
    if (root == Site::kClientCall || root == Site::kBenchRead) {
      add(summary.in_ops[s]);
      if (r->parent == 0) summary.operations += r->calls;
    }
  }
  summary.records = by_id.size();
  return summary;
}

bool WriteTsv(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "id\tparent\trequest\tlayer\tfunction\tcalls\tstart_ns\t"
               "duration_ns\n");
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const auto& ts : Threads()) {
    for (const Record& r : ts->records) {
      std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%s\t%u\t%llu\t%llu\n",
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.request),
                   SiteLayer(r.site), SiteFunction(r.site), r.calls,
                   static_cast<unsigned long long>(r.start_ns),
                   static_cast<unsigned long long>(r.duration_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
