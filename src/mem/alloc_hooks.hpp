// Allocation-counting test harness.
//
// The zero-allocation steady-state gate needs to observe every global
// operator new/delete in a real scenario run. The counting itself lives
// here (thread-local records so parallel sweep workers never contend on a
// shared counter); the actual operator new/delete replacement lives in
// alloc_hooks_global.cpp, which is compiled *only* into the
// allocation-gated binaries (tests/mem, bench_memory, bench_engine_micro,
// perfbench) via the trim_alloc_hook OBJECT library — ordinary benches
// and the figure binaries keep the stock allocator and pay nothing.
//
// Usage in a gated binary:
//   ASSERT_TRUE(mem::alloc_hooks_active());   // hook is linked in
//   mem::set_alloc_counting(true);
//   ... warm up ...
//   mem::reset_alloc_counts();
//   ... steady-state window ...
//   EXPECT_EQ(mem::alloc_totals().allocs, 0u);
#pragma once

#include <cstddef>
#include <cstdint>

namespace trim::mem {

struct AllocTotals {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t bytes = 0;  // requested bytes across counted allocs
};

// True when the replacing operator new/delete from alloc_hooks_global.cpp
// is linked into this binary.
bool alloc_hooks_active();

// Global gate. Off (the default) makes a counted binary's hook cost one
// relaxed atomic load per allocation; on routes every allocation to the
// calling thread's record.
void set_alloc_counting(bool on);
bool alloc_counting();

// Zero every thread's record (the totals, not the thread registry).
void reset_alloc_counts();

// Sum over every thread that ever allocated while counting was on.
AllocTotals alloc_totals();

// Threads that have registered a record so far (tests assert that
// concurrent workers each got their own).
std::size_t alloc_tracked_threads();

// Diagnostics for a failing zero-alloc gate: print the call stack of the
// next `n` counted allocations to stderr (glibc backtrace, mangled
// symbols — feed through c++filt). Self-disarms at zero.
void set_alloc_trace(std::uint32_t n);

namespace detail {
// Called by the replacing operator new/delete. Reentrancy-safe: a thread
// registering its record allocates, and those allocations are not counted.
void on_alloc(std::size_t bytes) noexcept;
void on_free() noexcept;
void mark_hooks_linked() noexcept;
}  // namespace detail

}  // namespace trim::mem
