//===- tests/harness/SimdScalarEquivalenceTest.cpp ------------------------==//
//
// End-to-end SIMD/scalar equivalence: a full trial run with the SIMD
// clock kernels must produce a TrialResult *bit-identical* to the same
// trial with the kernels forced onto the always-correct scalar path --
// for every detector, sequentially and sharded. This is the in-process
// half of the guarantee; CI's PACER_DISABLE_SIMD build leg re-runs the
// whole suite with the SIMD paths compiled out entirely.
//
//===----------------------------------------------------------------------===//

#include "core/ClockKernels.h"
#include "harness/TrialRunner.h"
#include "sim/Workloads.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace pacer;

namespace {

void expectSameStats(const DetectorStats &A, const DetectorStats &B) {
  EXPECT_EQ(A.SlowJoinsSampling, B.SlowJoinsSampling);
  EXPECT_EQ(A.FastJoinsSampling, B.FastJoinsSampling);
  EXPECT_EQ(A.SlowJoinsNonSampling, B.SlowJoinsNonSampling);
  EXPECT_EQ(A.FastJoinsNonSampling, B.FastJoinsNonSampling);
  EXPECT_EQ(A.DeepCopiesSampling, B.DeepCopiesSampling);
  EXPECT_EQ(A.ShallowCopiesSampling, B.ShallowCopiesSampling);
  EXPECT_EQ(A.DeepCopiesNonSampling, B.DeepCopiesNonSampling);
  EXPECT_EQ(A.ShallowCopiesNonSampling, B.ShallowCopiesNonSampling);
  EXPECT_EQ(A.ReadSlowSampling, B.ReadSlowSampling);
  EXPECT_EQ(A.ReadSlowNonSampling, B.ReadSlowNonSampling);
  EXPECT_EQ(A.ReadFastNonSampling, B.ReadFastNonSampling);
  EXPECT_EQ(A.WriteSlowSampling, B.WriteSlowSampling);
  EXPECT_EQ(A.WriteSlowNonSampling, B.WriteSlowNonSampling);
  EXPECT_EQ(A.WriteFastNonSampling, B.WriteFastNonSampling);
  EXPECT_EQ(A.RacesReported, B.RacesReported);
  EXPECT_EQ(A.SyncOps, B.SyncOps);
  EXPECT_EQ(A.ClockClones, B.ClockClones);
}

void expectSameResult(const TrialResult &A, const TrialResult &B) {
  ASSERT_EQ(A.Races.size(), B.Races.size());
  for (const auto &[Key, Count] : A.Races) {
    auto It = B.Races.find(Key);
    ASSERT_TRUE(It != B.Races.end()) << "race key missing in scalar run";
    EXPECT_EQ(Count, It->second);
  }
  EXPECT_EQ(A.DynamicRaces, B.DynamicRaces);
  expectSameStats(A.Stats, B.Stats);
  EXPECT_EQ(A.EffectiveAccessRate, B.EffectiveAccessRate);
  EXPECT_EQ(A.EffectiveSyncRate, B.EffectiveSyncRate);
  EXPECT_EQ(A.LiteRaceEffectiveRate, B.LiteRaceEffectiveRate);
  EXPECT_EQ(A.Boundaries, B.Boundaries);
  EXPECT_EQ(A.TraceEvents, B.TraceEvents);
  EXPECT_EQ(A.FinalMetadataBytes, B.FinalMetadataBytes);
}

struct NamedSetup {
  const char *Name;
  DetectorSetup Setup;
};

std::vector<NamedSetup> allSetups() {
  DetectorSetup PacerSampled = pacerSetup(0.03);
  PacerSampled.Sampling.PeriodBytes = 12 * 1024; // Many period boundaries.
  return {{"pacer_r3", PacerSampled},
          {"pacer_r100", pacerSetup(1.0)},
          {"fasttrack", fastTrackSetup()},
          {"generic", genericSetup()},
          {"literace", literaceSetup()}};
}

class SimdScalarEquivalenceTest : public ::testing::Test {
protected:
  void TearDown() override { kernels::clearForceIsa(); }
};

void expectSimdScalarInvariant(const WorkloadSpec &Spec, uint64_t Seed) {
  CompiledWorkload Workload(Spec);
  for (const NamedSetup &NS : allSetups()) {
    for (unsigned Shards : {1u, 4u}) {
      DetectorSetup Setup = NS.Setup;
      Setup.Shards = Shards;
      kernels::clearForceIsa();
      TrialResult Simd = runTrial(Workload, Setup, Seed);
      kernels::setForceIsa(kernels::Isa::Scalar);
      TrialResult Scalar = runTrial(Workload, Setup, Seed);
      kernels::clearForceIsa();
      SCOPED_TRACE(std::string(NS.Name) + " shards=" +
                   std::to_string(Shards));
      expectSameResult(Simd, Scalar);
    }
  }
}

TEST_F(SimdScalarEquivalenceTest, TinyWorkloadBitIdentical) {
  expectSimdScalarInvariant(tinyTestWorkload(), /*Seed=*/11);
}

TEST_F(SimdScalarEquivalenceTest, MediumWorkloadBitIdentical) {
  expectSimdScalarInvariant(mediumTestWorkload(), /*Seed=*/23);
}

} // namespace
