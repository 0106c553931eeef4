//===- harness/DetectionExperiment.h - Detection-rate studies --*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The accuracy methodology of the paper's Section 5.1-5.3:
///
///  1. Ground truth: run the fully accurate detector (FastTrack; PACER at
///     r = 100% is provably identical) on N full trials; record, per
///     distinct race, how many trials it occurred in and its average
///     dynamic count. *Evaluation races* are those occurring in at least
///     half of the full trials.
///  2. For each sampling rate r, run numTrials(r) sampled trials and
///     measure, per evaluation race, the dynamic detection rate (average
///     dynamic reports at r over average at 100%) and the distinct
///     detection rate (fraction of trials reporting the race at r over the
///     fraction at 100%). Figure 3 averages the former, Figure 4 the
///     latter, and Figure 5 plots the per-race curves sorted by rate.
///
/// The same machinery runs LiteRace for Figure 6.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_HARNESS_DETECTIONEXPERIMENT_H
#define PACER_HARNESS_DETECTIONEXPERIMENT_H

#include "runtime/AnalysisSession.h"

#include <vector>

namespace pacer {

/// Ground-truth occurrence data for one distinct race.
struct RaceOccurrence {
  RaceKey Key;
  uint32_t TrialsSeen = 0;         ///< Of the full trials.
  double AvgDynamicPerTrial = 0.0; ///< Mean over all full trials.
};

/// Output of the fully sampled calibration runs.
struct GroundTruth {
  uint32_t FullTrials = 0;
  std::vector<RaceOccurrence> AllRaces;      ///< Seen at least once.
  std::vector<RaceOccurrence> EvaluationRaces; ///< Seen in >= half.

  /// Races seen in at least \p MinTrials of the full trials (Table 2's
  /// ">= 1 / >= 5 / >= 25" columns).
  uint32_t racesSeenAtLeast(uint32_t MinTrials) const;
};

/// Runs \p FullTrials fully sampled trials (seeds BaseSeed..+FullTrials-1)
/// with FastTrack and aggregates occurrence statistics. Trials run on
/// \p Jobs-way concurrency (each trial owns its detector, RNG seed, and
/// result) and are aggregated in seed order, so the output is bit-identical
/// for every Jobs value; Jobs <= 1 is the serial loop.
GroundTruth computeGroundTruth(const CompiledWorkload &Workload,
                               uint32_t FullTrials, uint64_t BaseSeed,
                               unsigned Jobs = 1);

/// One rate's measured accuracy.
struct DetectionPoint {
  double SpecifiedRate = 0.0;
  uint32_t Trials = 0;
  /// Unweighted mean over evaluation races of dynamic detection rates
  /// (Figure 3's y-axis).
  double DynamicDetectionRate = 0.0;
  /// Unweighted mean over evaluation races of distinct detection rates
  /// (Figure 4's y-axis).
  double DistinctDetectionRate = 0.0;
  /// Per-evaluation-race distinct detection rates (Figure 5's curves),
  /// aligned with GroundTruth::EvaluationRaces.
  std::vector<double> PerRaceDistinctRate;
  /// Effective sampling rate across trials (Table 1): mean and stddev.
  double EffectiveRateMean = 0.0;
  double EffectiveRateStddev = 0.0;
  /// Races never reported in any trial at this rate.
  uint32_t EvaluationRacesMissed = 0;
};

/// Runs \p Trials sampled trials of \p Setup (seeds disjoint from the
/// ground-truth seeds) and measures detection rates against \p Truth.
/// Trials run on \p Jobs-way concurrency with seed-order aggregation;
/// results are bit-identical for every Jobs value.
DetectionPoint measureDetection(const CompiledWorkload &Workload,
                                const GroundTruth &Truth,
                                const DetectorSetup &Setup, uint32_t Trials,
                                uint64_t BaseSeed, unsigned Jobs = 1);

/// The paper's trial-count formula numTrials(r) = min(max(ceil(S/r), Lo),
/// Hi) with S defaulting to a simulator-friendly 1.0 (the paper uses 10).
uint32_t numTrialsForRate(double Rate, double Scale = 1.0,
                          uint32_t MinTrials = 20, uint32_t MaxTrials = 120);

} // namespace pacer

#endif // PACER_HARNESS_DETECTIONEXPERIMENT_H
