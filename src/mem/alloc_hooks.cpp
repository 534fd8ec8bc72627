#include "mem/alloc_hooks.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#if defined(__GLIBC__)
#include <execinfo.h>
#endif

namespace trim::mem {

namespace {

// One record per allocating thread, cache-line sized so two workers never
// bounce a line between cores while counting a parallel sweep.
struct alignas(64) ThreadRecord {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> frees{0};
  std::atomic<std::uint64_t> bytes{0};
};

std::atomic<bool> g_hooks_linked{false};
std::atomic<bool> g_counting{false};
std::atomic<std::uint32_t> g_trace_budget{0};

std::mutex g_records_mu;
std::vector<std::unique_ptr<ThreadRecord>>& records() {
  static auto* v = new std::vector<std::unique_ptr<ThreadRecord>>;
  return *v;
}

// Guards against counting the allocations made while registering a
// thread's own record (vector growth, the record itself).
thread_local bool t_in_hook = false;
thread_local ThreadRecord* t_record = nullptr;

ThreadRecord* my_record() noexcept {
  if (t_record == nullptr) {
    t_in_hook = true;
    auto rec = std::make_unique<ThreadRecord>();
    t_record = rec.get();
    {
      const std::lock_guard<std::mutex> lock{g_records_mu};
      records().push_back(std::move(rec));
    }
    t_in_hook = false;
  }
  return t_record;
}

}  // namespace

bool alloc_hooks_active() { return g_hooks_linked.load(std::memory_order_relaxed); }

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

bool alloc_counting() { return g_counting.load(std::memory_order_relaxed); }

void reset_alloc_counts() {
  const std::lock_guard<std::mutex> lock{g_records_mu};
  for (auto& r : records()) {
    r->allocs.store(0, std::memory_order_relaxed);
    r->frees.store(0, std::memory_order_relaxed);
    r->bytes.store(0, std::memory_order_relaxed);
  }
}

AllocTotals alloc_totals() {
  AllocTotals t;
  const std::lock_guard<std::mutex> lock{g_records_mu};
  for (auto& r : records()) {
    t.allocs += r->allocs.load(std::memory_order_relaxed);
    t.frees += r->frees.load(std::memory_order_relaxed);
    t.bytes += r->bytes.load(std::memory_order_relaxed);
  }
  return t;
}

std::size_t alloc_tracked_threads() {
  const std::lock_guard<std::mutex> lock{g_records_mu};
  return records().size();
}

void set_alloc_trace(std::uint32_t n) {
  g_trace_budget.store(n, std::memory_order_relaxed);
}

namespace detail {

void on_alloc(std::size_t bytes) noexcept {
  if (!g_counting.load(std::memory_order_relaxed) || t_in_hook) return;
  ThreadRecord* r = my_record();
  r->allocs.fetch_add(1, std::memory_order_relaxed);
  r->bytes.fetch_add(bytes, std::memory_order_relaxed);
#if defined(__GLIBC__)
  if (g_trace_budget.load(std::memory_order_relaxed) > 0 &&
      g_trace_budget.fetch_sub(1, std::memory_order_relaxed) > 0) {
    t_in_hook = true;  // backtrace_symbols_fd must not recurse into us
    std::fprintf(stderr, "[alloc-trace] counted allocation of %zu bytes:\n", bytes);
    void* frames[32];
    const int depth = backtrace(frames, 32);
    backtrace_symbols_fd(frames, depth, 2);
    t_in_hook = false;
  }
#endif
}

void on_free() noexcept {
  if (!g_counting.load(std::memory_order_relaxed) || t_in_hook) return;
  ThreadRecord* r = my_record();
  r->frees.fetch_add(1, std::memory_order_relaxed);
}

void mark_hooks_linked() noexcept {
  g_hooks_linked.store(true, std::memory_order_relaxed);
}

}  // namespace detail

}  // namespace trim::mem
