/// Unit tests for the one-shot fork-join (common/thread_pool.hpp): full
/// job coverage, exception propagation, and degenerate widths.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace exadigit {
namespace {

TEST(ThreadPoolTest, Width1RunsEverythingOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> lane(16);
  parallel_for_dynamic(lane.size(), 1,
                       [&](std::size_t i) { lane[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : lane) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, RethrowsTheLowestLaneError) {
  // Every job throws and a lane stops at its first error, so three workers
  // can take at most three of the four jobs: the caller (lane 0) always
  // throws too, and its error must be the one surfaced.
  const std::thread::id caller = std::this_thread::get_id();
  for (int round = 0; round < 20; ++round) {
    try {
      parallel_for_dynamic(4, 4, [&](std::size_t) {
        throw std::runtime_error(std::this_thread::get_id() == caller ? "lane 0" : "worker");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "lane 0") << "round " << round;
    }
  }
}

TEST(ThreadPoolTest, DynamicCoversEveryShardExactlyOnce) {
  std::vector<std::atomic<int>> hits(101);
  for (auto& h : hits) h.store(0);
  parallel_for_dynamic(hits.size(), 4, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "shard " << i;
  }
}

TEST(ThreadPoolTest, EmptyJobIsANoOp) {
  bool called = false;
  parallel_for_dynamic(0, 2, [&](std::size_t) { called = true; });
  parallel_for_dynamic(0, 1, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace exadigit
