//===- e2ebench/src/Bench.h - Shared benchmark types -----------*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the end-to-end benchmark's phases: the detector
/// configurations of the cost curve, the outcome a correctness check
/// compares, the failure tally behind the result's attempted/failed
/// fields, and the metric sink that prints every number with its unit.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_E2EBENCH_BENCH_H
#define PACER_E2EBENCH_BENCH_H

#include "runtime/AnalysisSession.h"
#include "sim/WorkloadSpec.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

namespace pacer::e2e {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// One point of the cost curve: a detector and, for PACER, its rate.
struct ConfigDef {
  const char *Name;
  DetectorKind Kind;
  double Rate;
  /// Also replayed through the timing proxy in the traced run.
  bool Traced;
};

/// r = 0, 1, 3, 10, 100% PACER, FastTrack and Generic, in sweep order.
const std::vector<ConfigDef> &sweepConfigs();
/// The sweep entry for \p Name.
const ConfigDef &configNamed(const std::string &Name);

/// The request racedetect builds for \p Config with its default flags
/// (256 KiB sampling period, sampling seed 1). \p Shards 0 is auto, the
/// multi-file default; 1 is the single-file default.
AnalysisRequest requestFor(const ConfigDef &Config, unsigned Shards);

/// Controller seed AnalysisSession derives from a request's seed. The
/// traced pipeline rebuilds analyzeFile from public pieces and must seed
/// its controller the same way; the outcome self-check catches drift.
inline uint64_t controllerSeed(uint64_t Seed) { return Seed ^ 0x47432121u; }

/// What a correctness check compares: the race map, the Table-3
/// counters and the period-boundary count.
struct Outcome {
  std::map<RaceKey, uint64_t> Races;
  DetectorStats Stats;
  uint64_t Boundaries = 0;

  uint64_t dynamicRaces() const;
  bool operator==(const Outcome &Other) const;
};

Outcome outcomeOf(const AnalysisResult &Result);

/// One generated trace file of a workload.
struct TraceFile {
  std::string Family;
  double Scale = 1.0;
  uint64_t Seed = 1;
  std::string Path;
  uint64_t Events = 0;
  /// Keys of the races the generator planted in this trace.
  std::unordered_set<RaceKey> Planted;
};

/// Tally of everything attempted and everything that failed: analyses
/// that return Ok == false, correctness mismatches, and submissions whose
/// verdict is not "committed".
class Gate {
public:
  void attempt(uint64_t N = 1) { Attempted += N; }
  void fail(const std::string &Why);
  /// Fails with \p Why unless \p Ok.
  void check(bool Ok, const std::string &Why) {
    if (!Ok)
      fail(Why);
  }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Ordered metric list; printed as "name value unit" lines and as the
/// result object.
class Metrics {
public:
  void add(const std::string &Name, double Value, const char *Unit);
  void print() const;
  std::string json() const;

private:
  struct Entry {
    std::string Name;
    double Value;
    const char *Unit;
  };
  std::vector<Entry> Entries;
};

} // namespace pacer::e2e

#endif // PACER_E2EBENCH_BENCH_H
