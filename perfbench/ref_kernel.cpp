#include "ref_kernel.hpp"

#include <algorithm>
#include <chrono>

namespace perfbench {

namespace {

constexpr std::size_t kTableBytes = 16u << 20;  // 16 MiB of records
constexpr std::size_t kPending = 50000;         // events pending at any time
constexpr int kEvents = 300000;                 // events handled per run

struct Xorshift {
  std::uint64_t s;
  std::uint64_t operator()() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

}  // namespace

RefKernel::RefKernel() : records_(kTableBytes / sizeof(Record)) {
  Xorshift rnd{0x9e3779b97f4a7c15ull};
  for (auto& r : records_) {
    for (auto& w : r.words) w = rnd();
  }
  initial_.reserve(kPending);
  for (std::size_t i = 0; i < kPending; ++i) {
    initial_.push_back({rnd() % 1000000, static_cast<std::uint32_t>(rnd() % records_.size())});
  }
  heap_.reserve(kPending);
  run();  // first touch of every page and cache line the kernel uses
}

double RefKernel::run() {
  // An untimed sweep first brings the table back into cache: the pass before
  // evicted it, by an amount that depends on the workload, not on the machine.
  for (const auto& r : records_) checksum_ += r.words[0];
  const auto later = [](const Event& a, const Event& b) { return a.due > b.due; };
  const auto start = std::chrono::steady_clock::now();
  heap_ = initial_;
  std::make_heap(heap_.begin(), heap_.end(), later);
  Xorshift rnd{0x2545f4914f6cdd1dull};
  const auto n = static_cast<std::uint64_t>(records_.size());
  std::uint64_t acc = 0;
  for (int i = 0; i < kEvents; ++i) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Event e = heap_.back();
    Record& r = records_[e.record];
    r.words[0] += e.due;
    acc += r.words[e.due & 7];
    // The successor depends only on the generator, never on record contents,
    // so every run handles the same events in the same order.
    heap_.back() = {e.due + 1 + rnd() % 100000,
                    static_cast<std::uint32_t>((e.record * 2654435761ull + rnd()) % n)};
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
  checksum_ += acc;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::size_t RefKernel::resident_bytes() const {
  return records_.capacity() * sizeof(Record) +
         (initial_.capacity() + heap_.capacity()) * sizeof(Event);
}

}  // namespace perfbench
