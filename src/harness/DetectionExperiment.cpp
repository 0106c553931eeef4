//===- harness/DetectionExperiment.cpp ------------------------------------==//

#include "harness/DetectionExperiment.h"

#include "support/Rng.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <map>

using namespace pacer;

uint32_t GroundTruth::racesSeenAtLeast(uint32_t MinTrials) const {
  uint32_t Count = 0;
  for (const RaceOccurrence &Race : AllRaces)
    if (Race.TrialsSeen >= MinTrials)
      ++Count;
  return Count;
}

GroundTruth pacer::computeGroundTruth(const CompiledWorkload &Workload,
                                      uint32_t FullTrials,
                                      uint64_t BaseSeed, unsigned Jobs) {
  GroundTruth Truth;
  Truth.FullTrials = FullTrials;

  // Each trial is an independent pure function of its seed; run them
  // concurrently, then aggregate the index-ordered results exactly as the
  // serial loop would have.
  std::vector<AnalysisResult> Results =
      parallelMap(Jobs, FullTrials, [&](size_t Trial) {
        return AnalysisSession(Workload,
                               {.Setup = fastTrackSetup(),
                                .Seed = deriveTrialSeed(BaseSeed, Trial)})
            .analyzeGenerated();
      });

  std::map<RaceKey, std::pair<uint32_t, uint64_t>> Seen; // trials, dynamic
  for (const AnalysisResult &Result : Results) {
    for (const auto &[Key, Count] : Result.Races) {
      auto &[Trials, Dynamic] = Seen[Key];
      ++Trials;
      Dynamic += Count;
    }
  }

  for (const auto &[Key, Data] : Seen) {
    RaceOccurrence Race;
    Race.Key = Key;
    Race.TrialsSeen = Data.first;
    Race.AvgDynamicPerTrial =
        static_cast<double>(Data.second) / static_cast<double>(FullTrials);
    Truth.AllRaces.push_back(Race);
    if (Race.TrialsSeen * 2 >= FullTrials)
      Truth.EvaluationRaces.push_back(Race);
  }
  return Truth;
}

DetectionPoint pacer::measureDetection(const CompiledWorkload &Workload,
                                       const GroundTruth &Truth,
                                       const DetectorSetup &Setup,
                                       uint32_t Trials, uint64_t BaseSeed,
                                       unsigned Jobs) {
  DetectionPoint Point;
  Point.SpecifiedRate = Setup.SamplingRate;
  Point.Trials = Trials;

  size_t NumEval = Truth.EvaluationRaces.size();
  std::vector<uint64_t> DynamicTotals(NumEval, 0);
  std::vector<uint32_t> TrialsDetected(NumEval, 0);
  RunningStat EffectiveRate;

  std::vector<AnalysisResult> Results =
      parallelMap(Jobs, Trials, [&](size_t Trial) {
        // Salted so detection trials draw from a seed family disjoint
        // from the ground-truth trials of the same base seed.
        uint64_t Seed =
            deriveTrialSeed(BaseSeed, Trial, 0x44455443ull /*"DETC"*/);
        return AnalysisSession(Workload, {.Setup = Setup, .Seed = Seed})
            .analyzeGenerated();
      });

  // Aggregate in seed order: the Welford accumulator's result depends on
  // insertion order, so walking the ordered results keeps every Jobs
  // value bit-identical to the serial loop.
  for (const AnalysisResult &Result : Results) {
    for (size_t I = 0; I != NumEval; ++I) {
      RaceKey Key = Truth.EvaluationRaces[I].Key;
      uint64_t Count = Result.dynamicCount(Key);
      DynamicTotals[I] += Count;
      if (Count > 0)
        ++TrialsDetected[I];
    }
    if (Setup.Kind == DetectorKind::Pacer)
      EffectiveRate.add(Result.EffectiveAccessRate);
    else if (Setup.Kind == DetectorKind::LiteRace)
      EffectiveRate.add(Result.LiteRaceEffectiveRate);
  }

  double DynamicSum = 0.0;
  double DistinctSum = 0.0;
  Point.PerRaceDistinctRate.resize(NumEval, 0.0);
  for (size_t I = 0; I != NumEval; ++I) {
    const RaceOccurrence &Race = Truth.EvaluationRaces[I];
    double AvgDynamicAtRate =
        static_cast<double>(DynamicTotals[I]) / std::max(1u, Trials);
    double DynamicRate = Race.AvgDynamicPerTrial > 0.0
                             ? AvgDynamicAtRate / Race.AvgDynamicPerTrial
                             : 0.0;
    double FracAt100 = static_cast<double>(Race.TrialsSeen) /
                       static_cast<double>(Truth.FullTrials);
    double FracAtRate =
        static_cast<double>(TrialsDetected[I]) / std::max(1u, Trials);
    double DistinctRate = FracAt100 > 0.0 ? FracAtRate / FracAt100 : 0.0;

    DynamicSum += DynamicRate;
    DistinctSum += DistinctRate;
    Point.PerRaceDistinctRate[I] = DistinctRate;
    if (TrialsDetected[I] == 0)
      ++Point.EvaluationRacesMissed;
  }
  if (NumEval > 0) {
    Point.DynamicDetectionRate = DynamicSum / static_cast<double>(NumEval);
    Point.DistinctDetectionRate = DistinctSum / static_cast<double>(NumEval);
  }
  Point.EffectiveRateMean = EffectiveRate.mean();
  Point.EffectiveRateStddev = EffectiveRate.stddev();
  return Point;
}

uint32_t pacer::numTrialsForRate(double Rate, double Scale,
                                 uint32_t MinTrials, uint32_t MaxTrials) {
  if (Rate <= 0.0)
    return MinTrials;
  auto Wanted = static_cast<uint32_t>(std::ceil(Scale / Rate));
  return std::min(std::max(Wanted, MinTrials), MaxTrials);
}
