//===- tests/sim/ScriptBuilderTest.cpp ------------------------------------==//

#include "sim/ScriptBuilder.h"

#include "sim/Workloads.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace pacer;

namespace {

std::vector<ThreadScript> buildTiny(uint64_t Seed,
                                    WorkloadSpec Spec = tinyTestWorkload()) {
  CompiledWorkload Workload(Spec);
  ScriptBuilder Builder(Workload, Rng(Seed));
  return Builder.build();
}

TEST(ScriptBuilderTest, OneScriptPerThread) {
  WorkloadSpec Spec = tinyTestWorkload();
  std::vector<ThreadScript> Scripts = buildTiny(1, Spec);
  ASSERT_EQ(Scripts.size(), Spec.WorkerThreads + 1);
  for (uint32_t Tid = 0; Tid < Scripts.size(); ++Tid) {
    EXPECT_EQ(Scripts[Tid].Tid, Tid);
    ASSERT_FALSE(Scripts[Tid].Ops.empty());
    EXPECT_EQ(Scripts[Tid].Ops.back().Kind, ActionKind::ThreadExit);
  }
}

TEST(ScriptBuilderTest, MainForksAndJoinsEveryWorkerOnce) {
  WorkloadSpec Spec = tinyTestWorkload();
  std::vector<ThreadScript> Scripts = buildTiny(2, Spec);
  std::multiset<ThreadId> Forked, Joined;
  for (const Action &A : Scripts[0].Ops) {
    if (A.Kind == ActionKind::Fork)
      Forked.insert(A.Target);
    if (A.Kind == ActionKind::Join)
      Joined.insert(A.Target);
  }
  EXPECT_EQ(Forked.size(), Spec.WorkerThreads);
  EXPECT_EQ(Joined.size(), Spec.WorkerThreads);
  for (ThreadId Tid = 1; Tid <= Spec.WorkerThreads; ++Tid) {
    EXPECT_EQ(Forked.count(Tid), 1u);
    EXPECT_EQ(Joined.count(Tid), 1u);
  }
}

TEST(ScriptBuilderTest, WorkerLocksBalancedAndAscending) {
  std::vector<ThreadScript> Scripts = buildTiny(3);
  for (size_t Tid = 1; Tid < Scripts.size(); ++Tid) {
    std::vector<LockId> Held;
    for (const Action &A : Scripts[Tid].Ops) {
      if (A.Kind == ActionKind::Acquire) {
        if (!Held.empty()) {
          EXPECT_GT(A.Target, Held.back()) << "ascending discipline";
        }
        Held.push_back(A.Target);
      } else if (A.Kind == ActionKind::Release) {
        ASSERT_FALSE(Held.empty());
        EXPECT_EQ(A.Target, Held.back()) << "LIFO release";
        Held.pop_back();
      }
    }
    EXPECT_TRUE(Held.empty()) << "script leaves no lock held";
  }
}

TEST(ScriptBuilderTest, SharedAccessesAlwaysUnderGuardLock) {
  WorkloadSpec Spec = tinyTestWorkload();
  CompiledWorkload Workload(Spec);
  ScriptBuilder Builder(Workload, Rng(4));
  std::vector<ThreadScript> Scripts = Builder.build();
  VarId SharedLo = Workload.sharedVar(0);
  VarId SharedHi = Workload.sharedVar(Spec.SharedVars - 1);
  for (const ThreadScript &Script : Scripts) {
    std::set<LockId> Held;
    for (const Action &A : Script.Ops) {
      if (A.Kind == ActionKind::Acquire)
        Held.insert(A.Target);
      else if (A.Kind == ActionKind::Release)
        Held.erase(A.Target);
      else if (isAccessAction(A.Kind) && A.Target >= SharedLo &&
               A.Target <= SharedHi) {
        EXPECT_TRUE(Held.count(Workload.guardLock(A.Target)))
            << "lock discipline violated";
      }
    }
  }
}

TEST(ScriptBuilderTest, LocalVarsStayThreadPrivate) {
  WorkloadSpec Spec = tinyTestWorkload();
  CompiledWorkload Workload(Spec);
  ScriptBuilder Builder(Workload, Rng(5));
  std::vector<ThreadScript> Scripts = Builder.build();
  VarId LocalBase = Workload.localVar(0, 0);
  for (const ThreadScript &Script : Scripts) {
    for (const Action &A : Script.Ops) {
      if (!isAccessAction(A.Kind) || A.Target < LocalBase)
        continue;
      uint32_t Owner =
          (A.Target - LocalBase) / Spec.LocalVarsPerThread;
      EXPECT_EQ(Owner, Script.Tid);
    }
  }
}

TEST(ScriptBuilderTest, CertainRacesSpliceBothSites) {
  WorkloadSpec Spec = tinyTestWorkload();
  // Races 0..3 are certain (occurrence 1.0) in the tiny workload.
  CompiledWorkload Workload(Spec);
  ScriptBuilder Builder(Workload, Rng(6));
  std::vector<ThreadScript> Scripts = Builder.build();
  for (uint32_t Race = 0; Race < 4; ++Race) {
    uint32_t SawA = 0, SawB = 0;
    for (const ThreadScript &Script : Scripts)
      for (const Action &A : Script.Ops) {
        if (A.Site == Workload.racySiteA(Race))
          ++SawA;
        if (A.Site == Workload.racySiteB(Race))
          ++SawB;
      }
    EXPECT_EQ(SawA, Spec.Races[Race].PairsPerTrial) << "race " << Race;
    EXPECT_EQ(SawB, Spec.Races[Race].PairsPerTrial);
  }
}

TEST(ScriptBuilderTest, GatedRaceAbsentWhenProbabilityZero) {
  WorkloadSpec Spec = tinyTestWorkload();
  for (PlantedRace &Race : Spec.Races)
    Race.OccurrenceProb = 0.0;
  CompiledWorkload Workload(Spec);
  ScriptBuilder Builder(Workload, Rng(7));
  std::vector<ThreadScript> Scripts = Builder.build();
  for (const ThreadScript &Script : Scripts)
    for (const Action &A : Script.Ops)
      if (isAccessAction(A.Kind)) {
        EXPECT_GE(A.Target, Workload.numRaces())
            << "no racy variable may be touched";
      }
}

TEST(ScriptBuilderTest, RacyAccessesLandInSameWave) {
  WorkloadSpec Spec = mediumTestWorkload(); // Two waves of six.
  CompiledWorkload Workload(Spec);
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    ScriptBuilder Builder(Workload, Rng(Seed));
    std::vector<ThreadScript> Scripts = Builder.build();
    for (uint32_t Race = 0; Race < Workload.numRaces(); ++Race) {
      std::set<uint32_t> Waves;
      for (const ThreadScript &Script : Scripts)
        for (const Action &A : Script.Ops)
          if (isAccessAction(A.Kind) && A.Target == Workload.racyVar(Race))
            Waves.insert(Workload.waveOf(Script.Tid));
      EXPECT_LE(Waves.size(), 1u)
          << "racy accesses must share a wave (race " << Race << ")";
    }
  }
}

TEST(ScriptBuilderTest, DeterministicGivenSeed) {
  std::vector<ThreadScript> A = buildTiny(9);
  std::vector<ThreadScript> B = buildTiny(9);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    ASSERT_EQ(A[I].Ops.size(), B[I].Ops.size());
    for (size_t J = 0; J != A[I].Ops.size(); ++J)
      EXPECT_EQ(A[I].Ops[J].Target, B[I].Ops[J].Target);
  }
}

TEST(ScriptBuilderTest, SitesWithinCompiledRange) {
  WorkloadSpec Spec = tinyTestWorkload();
  CompiledWorkload Workload(Spec);
  ScriptBuilder Builder(Workload, Rng(11));
  for (const ThreadScript &Script : Builder.build())
    for (const Action &A : Script.Ops)
      if (isAccessAction(A.Kind)) {
        EXPECT_LT(A.Site, Workload.numSites());
      }
}

} // namespace
