//===- tests/integration/EndToEndTest.cpp ---------------------------------==//
//
// Scaled-down end-to-end runs of the full evaluation pipeline on the four
// paper workload models: ground truth, sampled detection, operation
// counting, and space, all through the same code paths the bench binaries
// use.
//
//===----------------------------------------------------------------------===//

#include "harness/DetectionExperiment.h"
#include "harness/SpaceExperiment.h"
#include "sim/TraceGenerator.h"
#include "sim/Workloads.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

using namespace pacer;

namespace {

TEST(EndToEndTest, EveryPaperWorkloadRunsAndFindsRaces) {
  for (const WorkloadSpec &Spec : paperWorkloads()) {
    CompiledWorkload Workload(scaleWorkload(Spec, 0.1));
    AnalysisResult Result =
        AnalysisSession(Workload, {.Setup = fastTrackSetup(), .Seed = 1})
            .analyzeGenerated();
    EXPECT_GT(Result.TraceEvents, 10000u) << Spec.Name;
    EXPECT_GT(Result.DynamicRaces, 0u) << Spec.Name;
    EXPECT_GT(Result.Stats.SyncOps, 100u) << Spec.Name;
  }
}

TEST(EndToEndTest, PacerPipelineOnScaledEclipse) {
  CompiledWorkload Workload(scaleWorkload(eclipseModel(), 0.05));
  GroundTruth Truth = computeGroundTruth(Workload, 10, 500);
  EXPECT_GT(Truth.AllRaces.size(), 5u);
  EXPECT_GE(Truth.AllRaces.size(), Truth.EvaluationRaces.size());

  DetectionPoint Full =
      measureDetection(Workload, Truth, pacerSetup(1.0), 5, 600);
  DetectionPoint Low =
      measureDetection(Workload, Truth, pacerSetup(0.1), 10, 700);
  EXPECT_GT(Full.DistinctDetectionRate, Low.DistinctDetectionRate);
}

TEST(EndToEndTest, Table3ShapeAtThreePercent) {
  // The qualitative Table 3 claim: in non-sampling periods, fast joins
  // and shallow copies dominate slow joins and deep copies, and most
  // accesses take the fast path. Slow non-sampling joins come from the
  // re-convergence after each sampling period (every sbegin bumps all
  // clocks), so their share shrinks as periods grow; at unit-test scale
  // we assert clear dominance, and the table3 bench shows the
  // orders-of-magnitude version with realistic period sizes.
  CompiledWorkload Workload(scaleWorkload(xalanModel(), 0.3));
  DetectorSetup Setup = pacerSetup(0.03);
  Setup.Sampling.PeriodBytes = 1024 * 1024;
  AnalysisResult Result =
      AnalysisSession(Workload, {.Setup = Setup, .Seed = 11})
          .analyzeGenerated();
  const DetectorStats &Stats = Result.Stats;
  EXPECT_GT(Stats.FastJoinsNonSampling, 2 * Stats.SlowJoinsNonSampling);
  EXPECT_GT(Stats.ShallowCopiesNonSampling,
            50 * Stats.DeepCopiesNonSampling);
  EXPECT_GT(Stats.ReadFastNonSampling, 10 * Stats.ReadSlowNonSampling);
  EXPECT_GT(Stats.WriteFastNonSampling, 10 * Stats.WriteSlowNonSampling);
}

TEST(EndToEndTest, EffectiveRateNearSpecifiedOnPaperModel) {
  CompiledWorkload Workload(scaleWorkload(pseudojbbModel(), 0.2));
  DetectorSetup Setup = pacerSetup(0.1);
  RunningStat Effective;
  for (uint64_t Seed = 1; Seed <= 5; ++Seed)
    Effective.add(AnalysisSession(Workload, {.Setup = Setup, .Seed = Seed})
                      .analyzeGenerated()
                      .EffectiveAccessRate);
  EXPECT_NEAR(Effective.mean(), 0.1, 0.05);
}

TEST(EndToEndTest, SpaceScalesWithRateOnEclipseModel) {
  CompiledWorkload Workload(scaleWorkload(eclipseModel(), 0.05));
  SpaceSeries R1 = measureSpace(Workload, pacerSetup(0.01), "r1", 8, 3,
                                true);
  SpaceSeries R100 = measureSpace(Workload, pacerSetup(1.0), "r100", 8, 3,
                                  true);
  SpaceSeries LiteRace =
      measureSpace(Workload, literaceSetup(), "literace", 8, 3, true);
  EXPECT_LT(R1.meanBytes(), R100.meanBytes());
  EXPECT_GT(LiteRace.meanBytes(), R1.meanBytes());
}

TEST(EndToEndTest, HsqldbManyThreadsStillLegalAndDetectable) {
  // 403 threads stress vector-clock growth and the wave scheduler.
  CompiledWorkload Workload(scaleWorkload(hsqldbModel(), 0.3));
  Trace T = generateTrace(Workload, 2);
  TraceProfile Profile = profileTrace(T);
  EXPECT_GT(Profile.Forks, 400u);
  AnalysisResult Result =
      AnalysisSession(Workload, {.Setup = fastTrackSetup(), .Seed = 2})
          .analyzeGenerated();
  EXPECT_GT(Result.Races.size(), 10u)
      << "hsqldb model: most certain races manifest";
}

} // namespace
