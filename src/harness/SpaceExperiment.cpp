//===- harness/SpaceExperiment.cpp ----------------------------------------==//

#include "harness/SpaceExperiment.h"

#include "runtime/Runtime.h"
#include "sim/TraceGenerator.h"

#include <algorithm>
#include <numeric>

using namespace pacer;

size_t SpaceSeries::peakBytes() const {
  if (Bytes.empty())
    return 0;
  return *std::max_element(Bytes.begin(), Bytes.end());
}

double SpaceSeries::meanBytes() const {
  if (Bytes.empty())
    return 0.0;
  return std::accumulate(Bytes.begin(), Bytes.end(), 0.0) /
         static_cast<double>(Bytes.size());
}

SpaceSeries pacer::measureSpace(const CompiledWorkload &Workload,
                                const DetectorSetup &Setup,
                                const std::string &Label, uint32_t Probes,
                                uint64_t Seed, bool IncludeHeaderWords,
                                const SpaceModel &Model) {
  Trace T = generateTrace(Workload, Seed);

  RaceLog Log;
  std::unique_ptr<Detector> D = makeDetector(Setup, Log, Workload, Seed);
  std::unique_ptr<SamplingController> Controller =
      makeSamplingController(Setup, Seed);
  Runtime RT(*D, Controller.get());
  RT.start();

  SpaceSeries Series;
  Series.Label = Label;

  size_t ObjectBytes =
      static_cast<size_t>(Workload.objectCount()) * Model.AppBytesPerObject;
  size_t HeaderBytes =
      IncludeHeaderWords ? static_cast<size_t>(Workload.objectCount()) *
                               Model.HeaderWordsPerObject * sizeof(void *)
                         : 0;

  uint32_t ProbeCount = std::max<uint32_t>(1, Probes);
  size_t Interval = std::max<size_t>(1, T.size() / ProbeCount);
  for (size_t I = 0; I != T.size(); ++I) {
    RT.step(T[I]);
    if (I % Interval == 0 || I + 1 == T.size()) {
      size_t AppGrowth = static_cast<size_t>(
          Model.AppGrowthBytesPerEvent * static_cast<double>(I));
      Series.NormalizedTime.push_back(
          static_cast<double>(I) / static_cast<double>(T.size()));
      Series.Bytes.push_back(ObjectBytes + AppGrowth + HeaderBytes +
                             D->liveMetadataBytes());
    }
  }
  return Series;
}
