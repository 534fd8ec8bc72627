// Compile-time cache-line audit.
//
// Every layout guarantee the memory architecture relies on is asserted
// here, in one place, so a refactor that grows a hot struct past a cache
// line or drops an alignas fails the build instead of silently costing
// throughput. The matching .cpp is an otherwise-empty TU that instantiates
// these asserts inside trim_mem; the header can also be included by tests.
#pragma once

#include <cstddef>

#include "mem/arena.hpp"
#include "mem/flow_hot_state.hpp"
#include "mem/ring_buffer.hpp"
#include "mem/sim_memory.hpp"
#include "net/packet.hpp"

namespace trim::mem {

inline constexpr std::size_t kCacheLineBytes = 64;

// --- Packet: the unit the ring buffer and queues move around. Two
// packets per cache line; growing it past 64 bytes halves queue density.
static_assert(sizeof(net::Packet) <= kCacheLineBytes,
              "Packet must fit in one cache line");

// --- Per-world memory domain: alignas(64) keeps two worlds' domains off a
// shared line when parallel sweep jobs allocate them side by side.
static_assert(alignof(SimMemory) == kCacheLineBytes,
              "SimMemory must be cache-line aligned");

// --- SoA hot state: per-ACK fields only. One FlowHotState row (the AoS
// equivalent we split away from) must stay comfortably under a line, and
// the table hands out 4-byte slots so indices stay cheap in Flow/sender.
static_assert(sizeof(FlowHotState) <= kCacheLineBytes,
              "FlowHotState row outgrew a cache line; trim the hot set");
static_assert(sizeof(FlowHotTable::Slot) == 4,
              "hot-state slots are 32-bit indices");

// --- Ring buffer: header small enough that a Queue object (ring + stats)
// stays within two lines; the slab itself is heap-side.
static_assert(sizeof(RingBuffer<net::Packet>) <= kCacheLineBytes,
              "RingBuffer header must fit in one cache line");

// --- Arena: bump-pointer front (current chunk cursor) is the hot part;
// the chunk vector is cold. Keep the whole header within two lines.
static_assert(sizeof(Arena) <= 2 * kCacheLineBytes,
              "Arena header grew past two cache lines");

}  // namespace trim::mem
