//===- bench/fig5_per_race_detection.cpp ----------------------------------==//
//
// Regenerates Figure 5: per-distinct-race detection rate for each
// workload, one line per sampling rate, races sorted by detection rate
// (independently per rate, as in the paper). The paper's observation:
// PACER detects all but one evaluation race at least once at every rate,
// and the level of each line corresponds to its sampling rate.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <algorithm>

using namespace pacer;
using namespace pacer::bench;

int main(int Argc, char **Argv) {
  BenchOptions Options = parseBenchOptions(Argc, Argv, /*DefaultScale=*/0.3);
  printBanner("Figure 5: per-distinct-race detection rates",
              "Each line: one sampling rate; columns: evaluation races "
              "sorted by rate. Lines should sit near their sampling "
              "rate, with few or no zero entries.");

  Timer Wall;
  const std::vector<double> Rates{0.01, 0.03, 0.05, 0.10, 0.25};
  for (const WorkloadSpec &Spec : Options.Workloads) {
    DetectionStudy Study = runDetectionStudy(Spec, Rates, Options);
    std::printf("--- %s (%zu evaluation races) ---\n", Spec.Name.c_str(),
                Study.Truth.EvaluationRaces.size());
    for (const DetectionPoint &Point : Study.Points) {
      std::vector<double> Sorted = Point.PerRaceDistinctRate;
      std::sort(Sorted.begin(), Sorted.end(), std::greater<double>());
      std::string Line = "r=" + formatPercent(Point.SpecifiedRate, 0) + ":";
      for (double Rate : Sorted) {
        Line += ' ';
        Line += formatPercent(Rate, 0);
      }
      std::printf("%s   (missed: %u)\n", Line.c_str(),
                  Point.EvaluationRacesMissed);
    }
    std::printf("\n");
  }
  printWallClock(Wall, Options);
  return 0;
}
