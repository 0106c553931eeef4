//===- bench/micro_sharded.cpp - Indexed sharded-replay benchmark ---------==//
//
// Measures what the TraceIndex buys sharded replay: for K in {1, 2, 4, 8}
// and a sampling (pacer r=3%) and non-sampling (fasttrack) detector, times
// the index build, the full-scan engine (every replica re-scans the whole
// trace: O(K * trace) total work), and the indexed engine (each replica
// walks the sync skeleton plus its owned runs: O(K * sync + accesses)).
//
// Replicas run serially (Jobs = 1) on purpose: the quantity under test is
// *total work*, which serial execution exposes directly as wall-clock and
// which stays meaningful on single-core CI runners. On K cores the indexed
// engine's advantage compounds -- the full-scan engine's critical path is
// a whole-trace scan regardless of K.
//
// Writes BENCH_sharded_replay.json; diffing it across commits tracks the
// perf trajectory. Exits non-zero if the two engines ever disagree on the
// dynamic race count, so the smoke-benchmark CI job doubles as an
// equivalence check.
//
//===----------------------------------------------------------------------===//

#include "core/ClockKernels.h"
#include "runtime/AnalysisSession.h"
#include "runtime/TraceIndex.h"
#include "sim/TraceGenerator.h"
#include "sim/Workloads.h"
#include "support/CommandLine.h"
#include "support/Stats.h"
#include "support/Timer.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace pacer;

namespace {

struct Row {
  const char *Detector;
  unsigned Shards;
  double IndexBuildMs = 0.0;
  double FullScanMs = 0.0;
  double IndexedMs = 0.0;
  uint64_t DynamicRaces = 0;
  double speedup() const {
    return IndexedMs > 0.0 ? FullScanMs / IndexedMs : 0.0;
  }
};

/// Both engines run through AnalysisSession; only the index policy
/// differs. Serial (ShardJobs = 1) on purpose: measure total work, not
/// scheduling luck.
AnalysisRequest requestFor(const DetectorSetup &Setup, unsigned Shards,
                           bool UseIndex, uint64_t Seed) {
  AnalysisRequest Request;
  Request.Setup = Setup;
  Request.Setup.Shards = Shards;
  Request.Setup.ShardJobs = 1;
  Request.Setup.ShardUseIndex = UseIndex;
  Request.Seed = Seed;
  Request.CollectReports = false;
  return Request;
}

} // namespace

int main(int Argc, char **Argv) {
  OptionRegistry R("micro_sharded [options]");
  R.addDouble("scale", 1.0, "workload scale factor")
      .addInt("seed", 12345, "trace seed")
      .addInt("reps", 7, "timed repetitions per point (median reported)")
      .addString("json-out", "BENCH_sharded_replay.json", "JSON output path");
  if (!R.parse(Argc, Argv))
    return R.helpRequested() ? 0 : 2;
  const double Scale = R.getDouble("scale");
  const uint64_t Seed = static_cast<uint64_t>(R.getInt("seed"));
  const auto Reps = static_cast<uint32_t>(R.getInt("reps"));
  const std::string OutPath = R.getString("json-out");

  CompiledWorkload Workload(scaleWorkload(mediumTestWorkload(), Scale));
  Trace T = generateTrace(Workload, Seed);
  const uint64_t Accesses = countTraceAccesses(T);
  std::printf("trace: %zu events, %llu accesses (scale %g)\n", T.size(),
              static_cast<unsigned long long>(Accesses), Scale);

  DetectorSetup Pacer = pacerSetup(0.03);
  // Small simulated nursery so the trace spans many sampling periods and
  // the bulk controller advance is exercised, as in the detection studies.
  Pacer.Sampling.PeriodBytes = 12 * 1024;
  const struct {
    const char *Name;
    DetectorSetup Setup;
  } Detectors[] = {
      {"pacer_r3", Pacer},
      {"fasttrack", fastTrackSetup()},
  };
  const unsigned ShardCounts[] = {1, 2, 4, 8};

  Timer Wall;
  std::vector<Row> Rows;
  bool Mismatch = false;
  for (const auto &D : Detectors) {
    for (unsigned K : ShardCounts) {
      Row Out{D.Name, K};

      AnalysisSession FullSession(Workload,
                                  requestFor(D.Setup, K, false, Seed));
      AnalysisSession IndexedSession(Workload,
                                     requestFor(D.Setup, K, true, Seed));
      std::vector<double> BuildMs, FullMs, IndexedMs;
      TraceIndex Index = TraceIndex::build(T, K);
      for (uint32_t Rep = 0; Rep < Reps; ++Rep) {
        Timer Build;
        TraceIndex Rebuilt = TraceIndex::build(T, K);
        BuildMs.push_back(Build.seconds() * 1e3);

        Timer FullScan;
        AnalysisResult FullResult = FullSession.analyzeTrace(T);
        FullMs.push_back(FullScan.seconds() * 1e3);

        Timer Indexed;
        AnalysisResult IndexedResult = IndexedSession.analyzeTrace(T, &Index);
        IndexedMs.push_back(Indexed.seconds() * 1e3);

        Out.DynamicRaces = IndexedResult.DynamicRaces;
        if (FullResult.DynamicRaces != IndexedResult.DynamicRaces) {
          std::fprintf(stderr,
                       "ENGINE MISMATCH: %s K=%u full-scan %llu races vs "
                       "indexed %llu\n",
                       D.Name, K,
                       static_cast<unsigned long long>(
                           FullResult.DynamicRaces),
                       static_cast<unsigned long long>(
                           IndexedResult.DynamicRaces));
          Mismatch = true;
        }
      }
      Out.IndexBuildMs = median(BuildMs);
      Out.FullScanMs = median(FullMs);
      Out.IndexedMs = median(IndexedMs);
      Rows.push_back(Out);
      std::printf("%-10s K=%u  build %7.2f ms  full-scan %8.2f ms  "
                  "indexed %8.2f ms  speedup %5.2fx  races %llu\n",
                  Out.Detector, Out.Shards, Out.IndexBuildMs, Out.FullScanMs,
                  Out.IndexedMs, Out.speedup(),
                  static_cast<unsigned long long>(Out.DynamicRaces));
    }
  }

  std::FILE *Out = std::fopen(OutPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot open %s for writing\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(Out,
               "{\n  \"workload\": \"%s\",\n  \"events\": %zu,\n"
               "  \"accesses\": %llu,\n  \"reps\": %u,\n  \"jobs\": 1,\n"
               "  \"isa\": \"%s\",\n  \"points\": [\n",
               Workload.spec().Name.c_str(), T.size(),
               static_cast<unsigned long long>(Accesses), Reps,
               kernels::activeIsa());
  for (size_t I = 0; I != Rows.size(); ++I) {
    const Row &Row = Rows[I];
    std::fprintf(Out,
                 "    {\"detector\": \"%s\", \"shards\": %u, "
                 "\"index_build_ms\": %.3f, \"full_scan_ms\": %.3f, "
                 "\"indexed_ms\": %.3f, \"speedup\": %.3f, "
                 "\"dynamic_races\": %llu}%s\n",
                 Row.Detector, Row.Shards, Row.IndexBuildMs, Row.FullScanMs,
                 Row.IndexedMs, Row.speedup(),
                 static_cast<unsigned long long>(Row.DynamicRaces),
                 I + 1 == Rows.size() ? "" : ",");
  }
  std::fprintf(Out, "  ]\n}\n");
  std::fclose(Out);
  std::printf("wrote %s\n[timing] wall-clock %.2fs\n", OutPath.c_str(),
              Wall.seconds());
  return Mismatch ? 1 : 0;
}
