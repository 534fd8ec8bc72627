#include <gtest/gtest.h>

#include "net/queue.hpp"

namespace trim::net {
namespace {

Packet data_packet(std::uint32_t payload, EcnCodepoint ecn = EcnCodepoint::kNotEct) {
  Packet p;
  p.payload_bytes = payload;
  p.ecn = ecn;
  return p;
}

TEST(DropTailQueue, FifoOrder) {
  Queue q{QueueConfig::droptail_packets(10)};
  for (std::uint32_t i = 0; i < 5; ++i) {
    Packet p = data_packet(100);
    p.seq = i;
    ASSERT_TRUE(q.enqueue(std::move(p)));
  }
  Packet p;
  for (std::uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.dequeue_into(p));
    EXPECT_EQ(p.seq, i);
  }
  EXPECT_FALSE(q.dequeue_into(p));
}

TEST(DropTailQueue, PacketCapacityDropsTail) {
  Queue q{QueueConfig::droptail_packets(3)};
  EXPECT_TRUE(q.enqueue(data_packet(100)));
  EXPECT_TRUE(q.enqueue(data_packet(100)));
  EXPECT_TRUE(q.enqueue(data_packet(100)));
  EXPECT_FALSE(q.enqueue(data_packet(100)));
  EXPECT_EQ(q.len_packets(), 3u);
  EXPECT_EQ(q.stats().dropped, 1u);
  EXPECT_EQ(q.stats().enqueued, 3u);
}

TEST(DropTailQueue, ByteCapacityDropsTail) {
  // 1000-byte budget; packets are payload + 40 header.
  Queue q{QueueConfig::droptail_bytes(1000)};
  EXPECT_TRUE(q.enqueue(data_packet(400)));   // 440
  EXPECT_TRUE(q.enqueue(data_packet(400)));   // 880
  EXPECT_FALSE(q.enqueue(data_packet(400)));  // would be 1320
  EXPECT_TRUE(q.enqueue(data_packet(60)));    // 980 fits
  EXPECT_EQ(q.len_bytes(), 980u);
  EXPECT_EQ(q.stats().bytes_dropped, 440u);
}

TEST(DropTailQueue, UnlimitedNeverDrops) {
  Queue q{QueueConfig{}};
  for (int i = 0; i < 10000; ++i) ASSERT_TRUE(q.enqueue(data_packet(1460)));
  EXPECT_EQ(q.stats().dropped, 0u);
  EXPECT_EQ(q.len_packets(), 10000u);
}

TEST(DropTailQueue, ConservationInvariant) {
  Queue q{QueueConfig::droptail_packets(5)};
  for (int i = 0; i < 20; ++i) q.enqueue(data_packet(10));
  Packet p;
  while (q.dequeue_into(p)) {
  }
  const auto& s = q.stats();
  EXPECT_EQ(s.enqueued, s.dequeued + q.len_packets());
  EXPECT_EQ(s.enqueued + s.dropped, 20u);
}

TEST(EcnDropTailQueue, MarksEctAboveThreshold) {
  Queue q{QueueConfig::ecn_packets(100, 3)};
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.enqueue(data_packet(100, EcnCodepoint::kEct)));
  // Occupancy is now 3 >= K: the next ECT packet is marked.
  ASSERT_TRUE(q.enqueue(data_packet(100, EcnCodepoint::kEct)));
  int marked = 0;
  Packet p;
  while (q.dequeue_into(p)) {
    if (p.ecn == EcnCodepoint::kCe) ++marked;
  }
  EXPECT_EQ(marked, 1);
  EXPECT_EQ(q.stats().marked_ce, 1u);
}

TEST(EcnDropTailQueue, DoesNotMarkNonEct) {
  Queue q{QueueConfig::ecn_packets(100, 1)};
  q.enqueue(data_packet(100, EcnCodepoint::kNotEct));
  q.enqueue(data_packet(100, EcnCodepoint::kNotEct));
  Packet p;
  while (q.dequeue_into(p)) EXPECT_NE(p.ecn, EcnCodepoint::kCe);
  EXPECT_EQ(q.stats().marked_ce, 0u);
}

TEST(EcnDropTailQueue, StillDropsWhenFull) {
  Queue q{QueueConfig::ecn_packets(2, 1)};
  q.enqueue(data_packet(1, EcnCodepoint::kEct));
  q.enqueue(data_packet(1, EcnCodepoint::kEct));
  EXPECT_FALSE(q.enqueue(data_packet(1, EcnCodepoint::kEct)));
}

}  // namespace
}  // namespace trim::net
