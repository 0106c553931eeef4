//===- bench/table2_thread_race_counts.cpp --------------------------------==//
//
// Regenerates Table 2: thread counts (total and max live) and distinct
// race counts per workload -- races observed in >= 1 and >= 5 of all
// trials, and in >= 1 / >= 5 / >= 25 of the fully sampled (r = 100%)
// trials, scaled to the --full-trials count.
//
// Paper values (Table 2, 50 full trials):
//   program    total  maxlive  >=1   >=5   >=25
//   eclipse      16      8      55    44    27
//   hsqldb      403    102      23    23    23
//   xalan         9      9      70    34    19
//   pseudojbb    37      9      14    14    11
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "sim/TraceGenerator.h"

#include <algorithm>

using namespace pacer;
using namespace pacer::bench;

int main(int Argc, char **Argv) {
  BenchOptions Options = parseBenchOptions(Argc, Argv, /*DefaultScale=*/0.4);
  printBanner("Table 2: thread counts and race counts",
              "Workload models reproduce the paper's thread structure; "
              "race-count columns show each model's rarity spectrum "
              "(some races occur every trial, some rarely).");

  uint32_t FullTrials = Options.FullTrials;
  // Thresholds proportional to the paper's 1/5/25 out of 50.
  uint32_t T5 = std::max(1u, FullTrials / 10);
  uint32_t T25 = std::max(1u, FullTrials / 2);

  Timer Wall;
  TextTable Table;
  Table.setHeader({"Program", "Threads", "Max live", ">=1 trial",
                   ">=" + std::to_string(T5), ">=" + std::to_string(T25)});
  for (const WorkloadSpec &Spec : Options.Workloads) {
    CompiledWorkload Workload(Spec);
    GroundTruth Truth =
        computeGroundTruth(Workload, FullTrials, Options.Seed, Options.Jobs);
    Trace T = generateTrace(Workload, Options.Seed);
    uint32_t MaxLive = maxLiveThreads(T);
    Table.addRow({Spec.Name, std::to_string(Workload.totalThreads()),
                  std::to_string(MaxLive),
                  std::to_string(Truth.racesSeenAtLeast(1)),
                  std::to_string(Truth.racesSeenAtLeast(T5)),
                  std::to_string(Truth.racesSeenAtLeast(T25))});
  }
  std::printf("%s\n(distinct races over %u fully sampled trials; planted "
              "populations: eclipse 80, hsqldb 28, xalan 75, pseudojbb "
              "14)\n",
              Table.render().c_str(), FullTrials);
  printWallClock(Wall, Options);
  return 0;
}
