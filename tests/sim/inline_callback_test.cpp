#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_callback.hpp"

namespace trim::sim {
namespace {

TEST(InlineCallback, EmptyByDefault) {
  InlineCallback cb;
  EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(InlineCallback, InvokesSmallCapture) {
  int hits = 0;
  InlineCallback cb{[&hits] { ++hits; }};
  EXPECT_TRUE(static_cast<bool>(cb));
  EXPECT_FALSE(cb.heap_allocated());
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallback, PacketSizedCaptureStaysInline) {
  // The link pipeline's capture shape: a 56-byte packet plus a pointer.
  struct PacketSized {
    std::array<unsigned char, 56> bytes{};
    void* link = nullptr;
  };
  PacketSized payload;
  payload.bytes[0] = 42;
  unsigned char seen = 0;
  InlineCallback cb{[payload, &seen] { seen = payload.bytes[0]; }};
  EXPECT_FALSE(cb.heap_allocated());
  cb();
  EXPECT_EQ(seen, 42);
}

TEST(InlineCallback, OversizedCaptureFallsBackToHeap) {
  std::array<unsigned char, InlineCallback::kInlineBytes + 64> big{};
  big[3] = 7;
  unsigned char seen = 0;
  InlineCallback cb{[big, &seen] { seen = big[3]; }};
  EXPECT_TRUE(cb.heap_allocated());
  cb();
  EXPECT_EQ(seen, 7);
}

TEST(InlineCallback, MoveTransfersOwnershipInlineAndHeap) {
  int hits = 0;
  InlineCallback small{[&hits] { ++hits; }};
  InlineCallback moved{std::move(small)};
  EXPECT_FALSE(static_cast<bool>(small));  // NOLINT(bugprone-use-after-move)
  moved();
  EXPECT_EQ(hits, 1);

  std::array<unsigned char, InlineCallback::kInlineBytes + 1> big{};
  InlineCallback heap{[big, &hits] { hits += static_cast<int>(big.size()) > 0 ? 1 : 0; }};
  InlineCallback heap_moved;
  heap_moved = std::move(heap);
  EXPECT_FALSE(static_cast<bool>(heap));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(heap_moved.heap_allocated());
  heap_moved();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallback, DestructorRunsCaptureDestructors) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  {
    InlineCallback cb{[held = std::move(token)] { (void)held; }};
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(InlineCallback, ResetReleasesHeapCapture) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  std::array<unsigned char, InlineCallback::kInlineBytes + 1> big{};
  InlineCallback cb{[held = std::move(token), big] { (void)held, (void)big; }};
  EXPECT_TRUE(cb.heap_allocated());
  EXPECT_FALSE(watch.expired());
  cb.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(InlineCallback, MoveAssignDestroysPreviousTarget) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  InlineCallback victim{[held = std::move(token)] { (void)held; }};
  victim = InlineCallback{[] {}};
  EXPECT_TRUE(watch.expired());
  victim();  // the replacement must still be callable
}

TEST(InlineCallback, AssignConstructsInPlaceAndReplacesTarget) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  InlineCallback cb{[held = std::move(token)] { (void)held; }};
  int hits = 0;
  cb.assign([&hits] { hits += 1; });  // a callable: built in cb's storage
  EXPECT_TRUE(watch.expired());
  cb();
  cb.assign(InlineCallback{[&hits] { hits += 10; }});  // a callback: moved
  cb();
  std::array<unsigned char, InlineCallback::kInlineBytes + 1> big{};
  cb.assign([&hits, big] { hits += 100 + big[0]; });
  EXPECT_TRUE(cb.heap_allocated());
  cb();
  EXPECT_EQ(hits, 111);
}

TEST(InlineCallback, WorksAcrossVectorReallocation) {
  std::vector<InlineCallback> cbs;
  int sum = 0;
  for (int i = 0; i < 100; ++i) {
    cbs.emplace_back([&sum, i] { sum += i; });
  }
  for (auto& cb : cbs) cb();
  EXPECT_EQ(sum, 99 * 100 / 2);
}

}  // namespace
}  // namespace trim::sim
