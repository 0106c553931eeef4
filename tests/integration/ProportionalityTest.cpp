//===- tests/integration/ProportionalityTest.cpp --------------------------==//
//
// The headline statistical claim (Theorem 2 plus the sampling design):
// PACER detects each race at a rate equal to the sampling rate. We verify
// with binomial confidence intervals wide enough (z = 4.5) that flake
// probability is negligible while real proportionality violations (e.g. a
// detector bug that halves or squares the detection rate) still fail.
//
//===----------------------------------------------------------------------===//

#include "harness/DetectionExperiment.h"
#include "sim/Workloads.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

using namespace pacer;

namespace {

/// A small workload with one certain, always-manifesting race so the
/// per-trial detection probability is exactly the sampling rate.
WorkloadSpec proportionalityWorkload() {
  WorkloadSpec Spec = tinyTestWorkload();
  Spec.OpsPerWorker = 800;
  // No lock or volatile traffic: nothing can order the racy pair, so the
  // race occurs in (essentially) every trial and the per-trial detection
  // probability is exactly P(first access sampled) = r.
  Spec.SyncOpFraction = 0.0;
  Spec.CriticalSectionProb = 0.0;
  Spec.Races.clear();
  PlantedRace Race;
  Race.OccurrenceProb = 1.0;
  // Exactly ONE dynamic access pair per trial: multiple pairs would give
  // PACER several chances per trial, which is why the paper's
  // distinct-race rates in Figure 4 sit above the diagonal.
  Race.PairsPerTrial = 1;
  Spec.Races.push_back(Race);
  return Spec;
}

struct RateCount {
  uint64_t Detected = 0;
  uint64_t Occurred = 0;
};

RateCount measure(const CompiledWorkload &Workload, RaceKey Key, double Rate,
                  uint32_t Trials, uint64_t BaseSeed) {
  RateCount Count;
  DetectorSetup Pacer = pacerSetup(Rate);
  Pacer.Sampling.PeriodBytes = 8 * 1024; // Many periods per short trial.
  // Isolate the guarantee from the allocation bias (no sync ops exist
  // here for the correction to measure; SamplingControllerTest covers
  // the bias mechanism itself).
  Pacer.Sampling.MetadataBytesPerSampledAccess = 0;
  DetectorSetup Truth = fastTrackSetup();
  for (uint32_t Trial = 0; Trial < Trials; ++Trial) {
    uint64_t Seed = BaseSeed + Trial;
    AnalysisResult Full =
        AnalysisSession(Workload, {.Setup = Truth, .Seed = Seed})
            .analyzeGenerated();
    if (!Full.sawRace(Key))
      continue; // The race did not occur this trial (observer effect).
    ++Count.Occurred;
    AnalysisResult Sampled =
        AnalysisSession(Workload, {.Setup = Pacer, .Seed = Seed})
            .analyzeGenerated();
    if (Sampled.sawRace(Key))
      ++Count.Detected;
  }
  return Count;
}

TEST(ProportionalityTest, DetectionFrequencyMatchesSamplingRate) {
  CompiledWorkload Workload(proportionalityWorkload());
  RaceKey Key = Workload.racyKey(0);
  // z = 4.5: two-sided flake probability < 1e-5 per check.
  constexpr double Z = 4.5;
  struct Case {
    double Rate;
    uint32_t Trials;
  };
  for (Case C : {Case{0.25, 400}, Case{0.5, 300}}) {
    RateCount Count = measure(Workload, Key, C.Rate, C.Trials, 77000);
    ASSERT_GT(Count.Occurred, C.Trials / 2)
        << "the certain race must occur in most trials";
    EXPECT_TRUE(proportionConsistent(Count.Detected, Count.Occurred, C.Rate,
                                     Z))
        << "rate " << C.Rate << ": detected " << Count.Detected << "/"
        << Count.Occurred;
  }
}

TEST(ProportionalityTest, NotQuadraticInRate) {
  // LiteRace-style both-accesses sampling would give r^2; PACER must be
  // clearly above r^2 at a low rate. At r = 0.2, r^2 = 0.04 while r = 0.2:
  // with 300 occurrences the intervals are disjoint.
  CompiledWorkload Workload(proportionalityWorkload());
  RaceKey Key = Workload.racyKey(0);
  RateCount Count = measure(Workload, Key, 0.2, 350, 88000);
  ASSERT_GT(Count.Occurred, 100u);
  double Observed = static_cast<double>(Count.Detected) /
                    static_cast<double>(Count.Occurred);
  EXPECT_GT(Observed, 0.1) << "far above the r^2 = 0.04 regime";
}

TEST(ProportionalityTest, DynamicCountsScaleWithRate) {
  // Average dynamic race reports per run should also scale like r.
  CompiledWorkload Workload(proportionalityWorkload());
  RaceKey Key = Workload.racyKey(0);
  auto AvgDynamic = [&](const DetectorSetup &Setup, uint32_t Trials,
                        uint64_t BaseSeed) {
    uint64_t Total = 0;
    for (uint32_t Trial = 0; Trial < Trials; ++Trial)
      Total += AnalysisSession(Workload,
                               {.Setup = Setup, .Seed = BaseSeed + Trial})
                   .analyzeGenerated()
                   .dynamicCount(Key);
    return static_cast<double>(Total) / Trials;
  };
  DetectorSetup Half = pacerSetup(0.5);
  Half.Sampling.PeriodBytes = 8 * 1024;
  Half.Sampling.MetadataBytesPerSampledAccess = 0;
  double AtFull = AvgDynamic(fastTrackSetup(), 150, 99000);
  double AtHalf = AvgDynamic(Half, 150, 99000);
  ASSERT_GT(AtFull, 0.0);
  double Ratio = AtHalf / AtFull;
  EXPECT_GT(Ratio, 0.3);
  EXPECT_LT(Ratio, 0.75);
}

} // namespace
