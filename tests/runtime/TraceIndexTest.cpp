//===- tests/runtime/TraceIndexTest.cpp -----------------------------------==//
//
// The TraceIndex's structural contract: the sync skeleton reproduces the
// trace's non-access positions and thread first-sight points exactly, and
// the per-shard owned runs are an exact partition of the trace's accesses.
// (The controller's bulk advance, which the indexed replay path also rests
// on, is held to the per-action loop in SamplingControllerTest.)
//
//===----------------------------------------------------------------------===//

#include "runtime/TraceIndex.h"
#include "sim/TraceGenerator.h"
#include "sim/Workloads.h"

#include <gtest/gtest.h>

#include <vector>

using namespace pacer;

namespace {

/// Checks every structural invariant of build(T, Shards) against T.
void expectWellFormedIndex(const Trace &T, unsigned Shards) {
  SCOPED_TRACE("shards=" + std::to_string(Shards));
  TraceIndex Index = TraceIndex::build(T, Shards);
  ASSERT_EQ(Index.shardCount(), Shards == 0 ? 1u : Shards);
  ASSERT_EQ(Index.epochs().size(), Index.events().size() + 1);

  // Replay the skeleton against the trace: every non-access action must
  // appear as a dispatch event, in order; every thread's first action must
  // be preceded by exactly one first-sight event at the same position.
  std::vector<bool> Seen;
  size_t NextEvent = 0;
  for (uint32_t I = 0; I < T.size(); ++I) {
    const Action &A = T[I];
    if (A.Tid >= Seen.size())
      Seen.resize(A.Tid + 1, false);
    if (!Seen[A.Tid]) {
      Seen[A.Tid] = true;
      ASSERT_LT(NextEvent, Index.events().size());
      EXPECT_EQ(Index.events()[NextEvent].Pos, I);
      EXPECT_EQ(Index.events()[NextEvent].BeginTid, A.Tid);
      ++NextEvent;
    }
    if (!isAccessAction(A.Kind)) {
      ASSERT_LT(NextEvent, Index.events().size());
      EXPECT_EQ(Index.events()[NextEvent].Pos, I);
      EXPECT_EQ(Index.events()[NextEvent].BeginTid, InvalidId);
      ++NextEvent;
    }
  }
  EXPECT_EQ(NextEvent, Index.events().size());

  // Epochs tile the trace around the skeleton and hold only accesses.
  for (size_t E = 0; E < Index.epochs().size(); ++E) {
    const TraceIndex::EpochSpan &Ep = Index.epochs()[E];
    ASSERT_LE(Ep.Begin, Ep.End);
    ASSERT_LE(Ep.End, T.size());
    for (uint32_t I = Ep.Begin; I < Ep.End; ++I)
      EXPECT_TRUE(isAccessAction(T[I].Kind));
    if (E < Index.events().size()) {
      EXPECT_LE(Ep.End, Index.events()[E].Pos);
    }
  }

  // Owned runs: sorted, disjoint, inside their epoch, owned by their
  // shard, and -- across shards -- an exact partition of the accesses.
  std::vector<bool> Covered(T.size(), false);
  uint64_t OwnedTotal = 0;
  for (uint32_t S = 0; S < Index.shardCount(); ++S) {
    uint64_t ShardOwned = 0;
    uint32_t PrevEnd = 0;
    for (const TraceIndex::Run &R : Index.runs(S)) {
      ASSERT_LT(R.Begin, R.End);
      ASSERT_GE(R.Begin, PrevEnd) << "runs out of order for shard " << S;
      PrevEnd = R.End;
      ASSERT_LT(R.Epoch, Index.epochs().size());
      EXPECT_GE(R.Begin, Index.epochs()[R.Epoch].Begin);
      EXPECT_LE(R.End, Index.epochs()[R.Epoch].End);
      for (uint32_t I = R.Begin; I < R.End; ++I) {
        ASSERT_TRUE(isAccessAction(T[I].Kind));
        EXPECT_TRUE(AccessShard(S, Index.shardCount()).owns(T[I].Target));
        EXPECT_FALSE(Covered[I]) << "access " << I << " in two runs";
        Covered[I] = true;
      }
      ShardOwned += R.End - R.Begin;
    }
    EXPECT_EQ(ShardOwned, Index.ownedAccessCount(S));
    OwnedTotal += ShardOwned;
  }
  for (uint32_t I = 0; I < T.size(); ++I)
    EXPECT_EQ(Covered[I], isAccessAction(T[I].Kind))
        << "coverage mismatch at " << I;
  EXPECT_EQ(OwnedTotal, Index.accessCount());
  EXPECT_EQ(Index.accessCount(), countTraceAccesses(T));
}

} // namespace

TEST(TraceIndexTest, WellFormedOnTinyWorkload) {
  CompiledWorkload Workload(tinyTestWorkload());
  Trace T = generateTrace(Workload, /*Seed=*/7);
  for (unsigned Shards : {1u, 3u, 4u, 7u})
    expectWellFormedIndex(T, Shards);
}

TEST(TraceIndexTest, WellFormedOnMediumWorkload) {
  CompiledWorkload Workload(mediumTestWorkload());
  Trace T = generateTrace(Workload, /*Seed=*/1234);
  for (unsigned Shards : {1u, 4u, 7u})
    expectWellFormedIndex(T, Shards);
}

TEST(TraceIndexTest, WellFormedOnEmptyAndAccessFreeTraces) {
  expectWellFormedIndex(Trace{}, 4);

  // All-sync trace: every epoch is empty, every shard owns nothing.
  Trace T;
  T.push_back(Action{ActionKind::Acquire, /*Tid=*/0, /*Target=*/0,
                     /*Site=*/0});
  T.push_back(Action{ActionKind::Release, /*Tid=*/0, /*Target=*/0,
                     /*Site=*/0});
  expectWellFormedIndex(T, 3);
}

TEST(TraceIndexTest, AutoShardCountScalesWithAccessesAndCaps) {
  EXPECT_EQ(autoShardCount(/*AccessCount=*/0, /*HardwareJobs=*/8), 1u);
  EXPECT_EQ(autoShardCount(32 * 1024 - 1, 8), 1u);
  EXPECT_EQ(autoShardCount(2 * 32 * 1024, 8), 2u);
  EXPECT_EQ(autoShardCount(4 * 32 * 1024, 8), 4u);
  EXPECT_EQ(autoShardCount(1000 * 32 * 1024, 8), 8u); // Hardware cap.
  EXPECT_EQ(autoShardCount(1000 * 32 * 1024, 0), 1u); // Degenerate cap.
}

TEST(TraceIndexTest, ParseAndResolveShardCount) {
  EXPECT_EQ(parseShardCount("auto"), 0u);
  EXPECT_EQ(parseShardCount("4"), 4u);
  EXPECT_EQ(parseShardCount("1"), 1u);
  EXPECT_EQ(parseShardCount(""), 1u);
  EXPECT_EQ(parseShardCount("abc"), 1u);
  EXPECT_EQ(parseShardCount("12x"), 1u);
  EXPECT_EQ(parseShardCount("0"), 1u);
  EXPECT_EQ(parseShardCount("999999"), 4096u);
  EXPECT_EQ(parseShardCount("-1"), 1u);
  EXPECT_EQ(parseShardCount("-4096"), 1u);

  EXPECT_EQ(resolveShardCount(5, /*AccessCount=*/0), 5u);
  EXPECT_EQ(resolveShardCount(1, 1 << 30), 1u);
  // Auto resolution delegates to autoShardCount(hardwareJobs()); at least
  // one shard always.
  EXPECT_GE(resolveShardCount(0, 0), 1u);
  EXPECT_GE(resolveShardCount(0, 1 << 30), 1u);
}
