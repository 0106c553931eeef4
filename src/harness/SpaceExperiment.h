//===- harness/SpaceExperiment.h - Live-space-over-time probes -*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Figure 10 methodology: run one trial per configuration and record
/// the live (reachable) memory after each simulated full-heap collection,
/// over execution time normalized to run length. The measurement models
/// the paper's components: application live bytes, the two header words
/// PACER adds to every object ("OM only"), and the detector's own
/// metadata -- per-variable entries, read maps, and clock payloads with
/// shared payloads counted once.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_HARNESS_SPACEEXPERIMENT_H
#define PACER_HARNESS_SPACEEXPERIMENT_H

#include "runtime/AnalysisSession.h"

#include <string>
#include <vector>

namespace pacer {

/// One configuration's space-over-time series.
struct SpaceSeries {
  std::string Label;
  /// Normalized execution time of each probe in [0, 1].
  std::vector<double> NormalizedTime;
  /// Modelled total live bytes at each probe.
  std::vector<size_t> Bytes;

  size_t peakBytes() const;
  double meanBytes() const;
};

/// Space-model parameters.
struct SpaceModel {
  /// Live application bytes per object (the workload's variables grouped
  /// eight fields to an object).
  uint32_t AppBytesPerObject = 48;
  /// Header words a detector-enabled VM adds per object (Section 4 adds
  /// two words to every object header).
  uint32_t HeaderWordsPerObject = 2;
  /// Simulated application growth: extra live bytes accumulated per event,
  /// reproducing eclipse's "memory usage increases somewhat over time".
  double AppGrowthBytesPerEvent = 0.02;
};

/// Replays one trial of \p Setup, probing modelled live bytes \p Probes
/// times. \p IncludeHeaderWords is false only for the unmodified-VM
/// baseline.
SpaceSeries measureSpace(const CompiledWorkload &Workload,
                         const DetectorSetup &Setup, const std::string &Label,
                         uint32_t Probes, uint64_t Seed,
                         bool IncludeHeaderWords,
                         const SpaceModel &Model = {});

} // namespace pacer

#endif // PACER_HARNESS_SPACEEXPERIMENT_H
