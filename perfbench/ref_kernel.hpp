// The reference kernel: a fixed, seed-independent stand-in for the
// simulator's hot loop, used to measure how fast the shared host is right now.
//
// The host's speed drifts by up to 1.6x over minutes. The drift moves the
// simulator's pass times and this kernel's times together, but not by the
// same factor: over 10 to 15 runs per workload, log(pass time) rose by 0.33
// to 0.80 times log(kernel time), depending on the workload. The driver runs the
// kernel before every timed pass and scales the end-to-end times by
// sqrt(kNominalS / median kernel time), half-way between no correction and
// a full one, which cuts the run-to-run spread of every workload.
// The kernel is the benchmark's own code: a change to ../src cannot move it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class RefKernel {
 public:
  // The kernel's time on the baseline VM of README.md when that VM is not
  // slowed down. Normalized times read as host seconds on it at that speed.
  static constexpr double kNominalS = 0.047;

  RefKernel();  // builds and touches the table, outside any timing

  // Runs the fixed event sequence once and returns its host seconds.
  double run();

  // Bytes the kernel keeps resident from construction to the end of the run.
  std::size_t resident_bytes() const;

 private:
  struct Record {
    std::uint64_t words[8];  // one cache line
  };
  struct Event {
    std::uint64_t due;
    std::uint32_t record;
  };

  std::vector<Record> records_;
  std::vector<Event> initial_;  // the pending set every run starts from
  std::vector<Event> heap_;
  std::uint64_t checksum_ = 0;
};

}  // namespace perfbench
