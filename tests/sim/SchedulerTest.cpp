//===- tests/sim/SchedulerTest.cpp ----------------------------------------==//

#include "sim/Scheduler.h"

#include "detectors/GenericDetector.h"

#include "sim/ScriptBuilder.h"
#include "sim/TraceGenerator.h"
#include "sim/Workloads.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace pacer;
using namespace pacer::test;

namespace {

std::vector<ThreadScript> twoThreadScripts() {
  ThreadScript Main;
  Main.Tid = 0;
  Main.Ops = {{ActionKind::Fork, 0, 1, InvalidId},
              {ActionKind::Write, 0, 10, 1},
              {ActionKind::Join, 0, 1, InvalidId},
              {ActionKind::ThreadExit, 0, InvalidId, InvalidId}};
  ThreadScript Worker;
  Worker.Tid = 1;
  Worker.Ops = {{ActionKind::Acquire, 1, 0, InvalidId},
                {ActionKind::Write, 1, 11, 2},
                {ActionKind::Release, 1, 0, InvalidId},
                {ActionKind::ThreadExit, 1, InvalidId, InvalidId}};
  return {Main, Worker};
}

TEST(SchedulerTest, ProducesAllActions) {
  Scheduler Sched(twoThreadScripts(), Rng(1));
  Trace T = Sched.run();
  EXPECT_EQ(T.size(), 8u);
  EXPECT_EQ(validateTrace(T, 2), "");
}

TEST(SchedulerTest, ChildRunsOnlyAfterFork) {
  Scheduler Sched(twoThreadScripts(), Rng(2));
  Trace T = Sched.run();
  size_t ForkIndex = 0, FirstChild = T.size();
  for (size_t I = 0; I != T.size(); ++I) {
    if (T[I].Kind == ActionKind::Fork)
      ForkIndex = I;
    if (T[I].Tid == 1 && I < FirstChild)
      FirstChild = I;
  }
  EXPECT_LT(ForkIndex, FirstChild);
}

TEST(SchedulerTest, JoinWaitsForChildExit) {
  Scheduler Sched(twoThreadScripts(), Rng(3));
  Trace T = Sched.run();
  size_t JoinIndex = 0, ExitIndex = 0;
  for (size_t I = 0; I != T.size(); ++I) {
    if (T[I].Kind == ActionKind::Join)
      JoinIndex = I;
    if (T[I].Kind == ActionKind::ThreadExit && T[I].Tid == 1)
      ExitIndex = I;
  }
  EXPECT_LT(ExitIndex, JoinIndex);
}

TEST(SchedulerTest, MutualExclusionRespected) {
  // Two workers contend on one lock; the interleaving must never show
  // overlapping critical sections (validateTrace checks ownership).
  ThreadScript Main;
  Main.Tid = 0;
  Main.Ops = {{ActionKind::Fork, 0, 1, InvalidId},
              {ActionKind::Fork, 0, 2, InvalidId},
              {ActionKind::Join, 0, 1, InvalidId},
              {ActionKind::Join, 0, 2, InvalidId},
              {ActionKind::ThreadExit, 0, InvalidId, InvalidId}};
  auto Worker = [](ThreadId Tid) {
    ThreadScript Script;
    Script.Tid = Tid;
    for (int I = 0; I < 50; ++I) {
      Script.Ops.push_back({ActionKind::Acquire, Tid, 0, InvalidId});
      Script.Ops.push_back({ActionKind::Write, Tid, 5, 1});
      Script.Ops.push_back({ActionKind::Release, Tid, 0, InvalidId});
    }
    Script.Ops.push_back({ActionKind::ThreadExit, Tid, InvalidId, InvalidId});
    return Script;
  };
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    Scheduler Sched({Main, Worker(1), Worker(2)}, Rng(Seed));
    Trace T = Sched.run();
    EXPECT_EQ(validateTrace(T, 3), "") << "seed " << Seed;
  }
}

TEST(SchedulerTest, DeterministicGivenSeed) {
  Scheduler A(twoThreadScripts(), Rng(7));
  Scheduler B(twoThreadScripts(), Rng(7));
  Trace TA = A.run();
  Trace TB = B.run();
  ASSERT_EQ(TA.size(), TB.size());
  for (size_t I = 0; I != TA.size(); ++I) {
    EXPECT_EQ(TA[I].Kind, TB[I].Kind);
    EXPECT_EQ(TA[I].Tid, TB[I].Tid);
    EXPECT_EQ(TA[I].Target, TB[I].Target);
  }
}

TEST(SchedulerTest, DifferentSeedsDifferentInterleavings) {
  // With contention, two seeds should (virtually always) differ.
  auto RunWith = [](uint64_t Seed) {
    WorkloadSpec Spec = tinyTestWorkload();
    CompiledWorkload Workload(Spec);
    // Same scripts, different scheduler randomness.
    ScriptBuilder Builder(Workload, Rng(42));
    Scheduler Sched(Builder.build(), Rng(Seed), Spec.MaxSchedulerBurst);
    return Sched.run();
  };
  Trace A = RunWith(1);
  Trace B = RunWith(2);
  ASSERT_EQ(A.size(), B.size()) << "same scripts, same total ops";
  bool Different = false;
  for (size_t I = 0; I != A.size() && !Different; ++I)
    Different = A[I].Tid != B[I].Tid;
  EXPECT_TRUE(Different);
}

TEST(SchedulerTest, GeneratedWorkloadTracesAreLegal) {
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    CompiledWorkload Workload(tinyTestWorkload());
    Trace T = generateTrace(Workload, Seed);
    EXPECT_EQ(validateTrace(T, Workload.totalThreads()), "")
        << "seed " << Seed;
  }
}

TEST(SchedulerTest, WaveStructureBoundsLiveThreads) {
  WorkloadSpec Spec = mediumTestWorkload(); // 12 workers, 6 per wave.
  CompiledWorkload Workload(Spec);
  Trace T = generateTrace(Workload, 3);
  EXPECT_LE(maxLiveThreads(T), Spec.MaxLiveWorkers + 1u);
}


TEST(SchedulerTest, RoundRobinPolicyProducesLegalTraces) {
  WorkloadSpec Spec = tinyTestWorkload();
  CompiledWorkload Workload(Spec);
  ScriptBuilder Builder(Workload, Rng(42));
  Scheduler Sched(Builder.build(), Rng(1), Spec.MaxSchedulerBurst,
                  SchedulePolicy::RoundRobin);
  Trace T = Sched.run();
  EXPECT_EQ(validateTrace(T, Workload.totalThreads()), "");
}

TEST(SchedulerTest, RoundRobinIsFairerThanRandom) {
  // Under round robin, same-wave workers' progress stays tightly coupled:
  // measure the largest burst imbalance over a window.
  ThreadScript Main;
  Main.Tid = 0;
  Main.Ops = {{ActionKind::Fork, 0, 1, InvalidId},
              {ActionKind::Fork, 0, 2, InvalidId},
              {ActionKind::Join, 0, 1, InvalidId},
              {ActionKind::Join, 0, 2, InvalidId},
              {ActionKind::ThreadExit, 0, InvalidId, InvalidId}};
  auto Worker = [](ThreadId Tid) {
    ThreadScript Script;
    Script.Tid = Tid;
    for (int I = 0; I < 2000; ++I)
      Script.Ops.push_back({ActionKind::Read, Tid, 5, 1});
    Script.Ops.push_back({ActionKind::ThreadExit, Tid, InvalidId, InvalidId});
    return Script;
  };
  auto MaxSkew = [&](SchedulePolicy Policy) {
    Scheduler Sched({Main, Worker(1), Worker(2)}, Rng(5), 4, Policy);
    Trace T = Sched.run();
    int64_t P1 = 0, P2 = 0, Max = 0;
    for (const Action &A : T) {
      if (A.Tid == 1)
        ++P1;
      if (A.Tid == 2)
        ++P2;
      Max = std::max(Max, std::abs(P1 - P2));
    }
    return Max;
  };
  EXPECT_LT(MaxSkew(SchedulePolicy::RoundRobin),
            MaxSkew(SchedulePolicy::RandomUniform));
}

TEST(SchedulerTest, DetectorsAgreeAcrossPolicies) {
  // Precision is schedule independent: whatever interleaving either
  // policy produces, every reported race is a planted pair.
  WorkloadSpec Spec = tinyTestWorkload();
  CompiledWorkload Workload(Spec);
  for (SchedulePolicy Policy :
       {SchedulePolicy::RandomUniform, SchedulePolicy::RoundRobin}) {
    ScriptBuilder Builder(Workload, Rng(9));
    Scheduler Sched(Builder.build(), Rng(2), Spec.MaxSchedulerBurst, Policy);
    Trace T = Sched.run();
    CollectingSink Sink;
    GenericDetector D(Sink);
    replayInto(D, T);
    std::set<RaceKey> Planted;
    for (uint32_t Race = 0; Race < Workload.numRaces(); ++Race)
      Planted.insert(Workload.racyKey(Race));
    for (RaceKey Key : Sink.keys())
      EXPECT_TRUE(Planted.count(Key));
  }
}

static uint64_t hashTrace(const Trace &T) {
  uint64_t Hash = 1469598103934665603ull;
  auto Mix = [&Hash](uint64_t Value) {
    Hash = (Hash ^ Value) * 1099511628211ull;
  };
  for (const Action &A : T) {
    Mix(static_cast<uint64_t>(A.Kind));
    Mix(A.Tid);
    Mix(A.Target);
    Mix(A.Site);
  }
  return Hash;
}

TEST(SchedulerTest, GoldenTraceHashesPinned) {
  // Reproducibility guard: experiments replay bit-identically from seeds.
  // If a generator/scheduler change is intentional, update these values
  // (and expect all measured numbers in EXPERIMENTS.md to shift).
  CompiledWorkload Tiny(tinyTestWorkload());
  Trace T1 = generateTrace(Tiny, 1);
  EXPECT_EQ(T1.size(), 6227u);
  EXPECT_EQ(hashTrace(T1), 0x26cde6e8d31f22a8ull);
  CompiledWorkload Medium(mediumTestWorkload());
  Trace T7 = generateTrace(Medium, 7);
  EXPECT_EQ(T7.size(), 61059u);
  EXPECT_EQ(hashTrace(T7), 0xe5aaed45166516d6ull);
}

} // namespace
