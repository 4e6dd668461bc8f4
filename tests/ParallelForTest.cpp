//===- ParallelForTest.cpp - batch runner unit tests ---------------------------===//
//
// support::parallelFor, the runner under the in-process --batch: every
// index runs exactly once at any width, width 1 is an in-order inline
// loop, an empty range is a no-op, and the first exception surfaces
// only after every thread has finished its work.
//
//===----------------------------------------------------------------------===//

#include "support/ParallelFor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace mcpta::support;

namespace {

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  for (unsigned Width : {1u, 4u}) {
    constexpr size_t N = 1000;
    std::vector<std::atomic<int>> Hits(N);
    parallelFor(N, Width, [&](size_t I) { Hits[I].fetch_add(1); });
    for (size_t I = 0; I < N; ++I)
      ASSERT_EQ(Hits[I].load(), 1) << "index " << I << " at width " << Width;
  }
}

TEST(ParallelForTest, WidthOneRunsInOrderOnCallingThread) {
  for (unsigned Width : {0u, 1u}) {
    std::vector<size_t> Order;
    std::vector<std::thread::id> Ids;
    parallelFor(8, Width, [&](size_t I) {
      Order.push_back(I);
      Ids.push_back(std::this_thread::get_id());
    });
    EXPECT_EQ(Order, (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
    for (std::thread::id Id : Ids)
      EXPECT_EQ(Id, std::this_thread::get_id());
  }
}

TEST(ParallelForTest, EmptyRangeRunsNothing) {
  int Ran = 0;
  parallelFor(0, 4, [&](size_t) { ++Ran; });
  parallelFor(0, 1, [&](size_t) { ++Ran; });
  EXPECT_EQ(Ran, 0);
}

TEST(ParallelForTest, FirstExceptionRethrownAfterAllThreadsJoin) {
  for (unsigned Width : {1u, 4u}) {
    constexpr size_t N = 16;
    std::atomic<bool> FirstThrown{false};
    std::atomic<size_t> Finished{0};
    try {
      parallelFor(N, Width, [&](size_t I) {
        if (I == 0) {
          FirstThrown = true;
          throw std::runtime_error("first");
        }
        // The other indices are still running when index 0 throws.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        if (I == N - 1) {
          while (!FirstThrown)
            std::this_thread::yield();
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          Finished.fetch_add(1);
          throw std::runtime_error("late");
        }
        Finished.fetch_add(1);
      });
      ADD_FAILURE() << "no exception at width " << Width;
    } catch (const std::runtime_error &E) {
      EXPECT_STREQ(E.what(), "first") << "width " << Width;
    }
    // Every other index, the late thrower included, finished before
    // the rethrow.
    EXPECT_EQ(Finished.load(), N - 1) << "width " << Width;
  }
}

} // namespace
