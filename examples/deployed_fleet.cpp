//===- examples/deployed_fleet.cpp - Distributed debugging at scale -------==//
//
// The paper envisions PACER "in a distributed debugging paradigm where
// many deployed instances sample bug-finding instrumentation to increase
// the chances of finding rare bugs" (Section 1). This example simulates a
// fleet of deployed instances of the eclipse workload model, each running
// PACER at 2%, aggregates their reports with FleetAggregator, and shows:
//
//  * fleet-wide race coverage growing with the number of instances while
//    each instance's cost stays flat;
//  * per-race occurrence-rate estimates recovered from detection counts
//    via the proportionality guarantee (detections ≈ k * o * r);
//  * the fleet-size calculator: how many instances you need to find a
//    race of a given rarity with a given confidence.
//
//===----------------------------------------------------------------------===//

#include "harness/DetectionExperiment.h"
#include "runtime/FleetAggregator.h"
#include "sim/Workloads.h"
#include "support/Table.h"

#include <cstdio>
#include <set>

using namespace pacer;

int main() {
  std::printf("Deployed-fleet distributed debugging\n"
              "====================================\n\n");

  WorkloadSpec Spec = scaleWorkload(eclipseModel(), 0.1);
  CompiledWorkload Workload(Spec);

  // What is there to find? Calibrate with fully sampled runs.
  GroundTruth Truth = computeGroundTruth(Workload, 15, 1);
  std::set<RaceKey> Findable;
  for (const RaceOccurrence &Race : Truth.EvaluationRaces)
    Findable.insert(Race.Key);
  std::printf("Evaluation races (occur in >= half of full runs): %zu\n\n",
              Findable.size());

  // Deploy: each instance is one user's run with a fresh seed.
  const double Rate = 0.02;
  DetectorSetup Setup = pacerSetup(Rate);
  Setup.Sampling.PeriodBytes = 12 * 1024; // Many periods per run.
  const int FleetSize = 400;

  FleetAggregator Fleet(Rate);
  std::set<RaceKey> FleetFound;
  int Milestone = 25;
  std::printf("fleet size -> evaluation races found (cumulative)\n");
  for (int Instance = 1; Instance <= FleetSize; ++Instance) {
    AnalysisResult Result =
        AnalysisSession(Workload,
                        {.Setup = Setup,
                         .Seed = 50000 + static_cast<uint64_t>(Instance)})
            .analyzeGenerated();
    // In a real deployment each instance ships its RaceLog; reconstruct
    // one from the trial's aggregate counts.
    RaceLog Log;
    for (const auto &[Key, Count] : Result.Races) {
      RaceReport Report;
      Report.FirstSite = Key.FirstSite;
      Report.SecondSite = Key.SecondSite;
      for (uint64_t I = 0; I < Count; ++I)
        Log.onRace(Report);
    }
    Fleet.addInstance(Log, Result.EffectiveAccessRate);
    for (const auto &[Key, Count] : Result.Races)
      if (Findable.count(Key))
        FleetFound.insert(Key);
    if (Instance == Milestone || Instance == FleetSize) {
      std::printf("  %4d instances: %zu/%zu\n", Instance, FleetFound.size(),
                  Findable.size());
      Milestone *= 2;
    }
  }

  // What the aggregator can tell the developer.
  std::printf("\nTop races by estimated per-run occurrence "
              "(detections / (instances * rate)):\n");
  TextTable Table;
  Table.setHeader({"race (sites)", "instances reporting", "est. occurrence",
                   "95% CI on detection"});
  std::vector<FleetRaceInfo> Summary = Fleet.summarize();
  for (size_t I = 0; I < Summary.size() && I < 6; ++I) {
    const FleetRaceInfo &Info = Summary[I];
    std::string Interval = "[";
    Interval += formatPercent(Info.DetectionCI.Low, 1);
    Interval += ", ";
    Interval += formatPercent(Info.DetectionCI.High, 1);
    Interval += ']';
    Table.addRow({std::to_string(Info.Key.FirstSite) + "," +
                      std::to_string(Info.Key.SecondSite),
                  std::to_string(Info.InstancesReporting) + "/" +
                      std::to_string(Fleet.instanceCount()),
                  formatPercent(Info.EstimatedOccurrence, 0), Interval});
  }
  std::printf("%s", Table.render().c_str());

  std::printf("\nMean effective sampling rate: %s (target %s).\n",
              formatPercent(Fleet.meanEffectiveRate(), 2).c_str(),
              formatPercent(Rate, 0).c_str());
  std::printf("Fleet sizing at this rate: a race occurring in every run "
              "needs %u instances for 95%% confidence; a 1-in-20 race "
              "needs %u; a 1-in-1000 race needs %u.\n",
              Fleet.fleetSizeFor(1.0, 0.95), Fleet.fleetSizeFor(0.05, 0.95),
              Fleet.fleetSizeFor(0.001, 0.95));
  std::printf("No single user pays more than the sampling-rate overhead, "
              "yet the fleet pins down even rare races.\n");
  return 0;
}
