//===- tests/support/ThreadPoolTest.cpp -----------------------------------==//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <vector>

using namespace pacer;

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.workerCount(), 0u);
  std::vector<size_t> Seen;
  Pool.run(5, [&](size_t I) { Seen.push_back(I); });
  // Inline execution is the serial loop: in order, on the calling thread.
  EXPECT_EQ(Seen, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, EmptyBatchIsANoop) {
  ThreadPool Pool(2);
  std::atomic<int> Calls{0};
  Pool.run(0, [&](size_t) { Calls.fetch_add(1); });
  EXPECT_EQ(Calls.load(), 0);
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool Pool(3);
  constexpr size_t Count = 1000; // Far more tasks than threads.
  std::vector<std::atomic<int>> Hits(Count);
  Pool.run(Count, [&](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I != Count; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPoolTest, PoolIsReusableAcrossBatches) {
  ThreadPool Pool(2);
  for (int Round = 0; Round < 20; ++Round) {
    std::atomic<size_t> Sum{0};
    Pool.run(10, [&](size_t I) { Sum.fetch_add(I + 1); });
    EXPECT_EQ(Sum.load(), 55u) << "round " << Round;
  }
}

TEST(ThreadPoolTest, MoreWorkersThanTasks) {
  ThreadPool Pool(8);
  std::vector<std::atomic<int>> Hits(2);
  Pool.run(2, [&](size_t I) { Hits[I].fetch_add(1); });
  EXPECT_EQ(Hits[0].load(), 1);
  EXPECT_EQ(Hits[1].load(), 1);
}

TEST(ParallelForTest, JobsOneIsSerialInOrder) {
  std::vector<size_t> Seen;
  parallelFor(1, 4, [&](size_t I) { Seen.push_back(I); });
  EXPECT_EQ(Seen, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(ParallelForTest, EmptyRange) {
  std::atomic<int> Calls{0};
  parallelFor(4, 0, [&](size_t) { Calls.fetch_add(1); });
  EXPECT_EQ(Calls.load(), 0);
}

TEST(ParallelForTest, SingleElementRunsInline) {
  std::atomic<int> Calls{0};
  parallelFor(4, 1, [&](size_t I) {
    EXPECT_EQ(I, 0u);
    Calls.fetch_add(1);
  });
  EXPECT_EQ(Calls.load(), 1);
}

TEST(ParallelMapTest, ResultsLandInIndexOrder) {
  std::vector<int> Result =
      parallelMap(4, 100, [](size_t I) { return static_cast<int>(I * I); });
  ASSERT_EQ(Result.size(), 100u);
  for (size_t I = 0; I != Result.size(); ++I)
    EXPECT_EQ(Result[I], static_cast<int>(I * I));
}

TEST(ParallelMapTest, MatchesSerialAggregation) {
  auto Square = [](size_t I) { return static_cast<double>(I) * 1.5; };
  std::vector<double> Serial = parallelMap(1, 257, Square);
  std::vector<double> Parallel = parallelMap(4, 257, Square);
  EXPECT_EQ(Serial, Parallel);
}

#if defined(__cpp_exceptions)
TEST(ThreadPoolTest, LowestFailingIndexPropagates) {
  ThreadPool Pool(3);
  EXPECT_THROW(
      Pool.run(100,
               [](size_t I) {
                 if (I >= 40)
                   throw std::runtime_error("task failed");
               }),
      std::runtime_error);
  // The pool survives a throwing batch.
  std::atomic<int> Calls{0};
  Pool.run(5, [&](size_t) { Calls.fetch_add(1); });
  EXPECT_EQ(Calls.load(), 5);
}
#endif

TEST(DefaultJobsTest, UnsetEnvMeansSerial) {
  // The test binary runs without PACER_JOBS in CI; when a developer sets
  // it, accept any clamped value rather than fail their environment.
  const char *Env = std::getenv("PACER_JOBS");
  unsigned Jobs = defaultJobs();
  if (!Env || !*Env) {
    EXPECT_EQ(Jobs, 1u);
  }
  EXPECT_GE(Jobs, 1u);
  EXPECT_LE(Jobs, 256u);
}

TEST(HardwareJobsTest, AtLeastOne) { EXPECT_GE(hardwareJobs(), 1u); }
