//===- harness/OverheadExperiment.cpp -------------------------------------==//

#include "harness/OverheadExperiment.h"

#include "runtime/TraceIndex.h"
#include "sim/TraceGenerator.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <optional>

using namespace pacer;

std::vector<OverheadResult>
pacer::measureOverheads(const CompiledWorkload &Workload,
                        const std::vector<OverheadConfig> &Configs,
                        uint32_t Trials, uint64_t BaseSeed, unsigned Jobs) {
  // Auto shard requests (Shards == 0) resolve once from a probe trace so
  // every trial and every configuration times the identical shard count;
  // resolving per trial would let trace-size jitter flip K mid-experiment.
  std::vector<OverheadConfig> Resolved;
  const std::vector<OverheadConfig> *Active = &Configs;
  if (std::any_of(Configs.begin(), Configs.end(),
                  [](const OverheadConfig &C) { return C.Setup.Shards == 0; })) {
    Trace Probe = generateTrace(Workload, deriveTrialSeed(BaseSeed, 0));
    const unsigned K = resolveShardCount(0, countTraceAccesses(Probe));
    std::fprintf(stderr, "[shards] auto: K=%u (%llu accesses)\n", K,
                 static_cast<unsigned long long>(countTraceAccesses(Probe)));
    Resolved = Configs;
    for (OverheadConfig &C : Resolved)
      if (C.Setup.Shards == 0)
        C.Setup.Shards = K;
    Active = &Resolved;
  }

  // One shared index per trial when every configuration replays the raw
  // trace at the same shard count: the build then happens once, outside
  // every timed region, matching how a long-lived analysis would amortize
  // it. Mixed shard counts or local-access elision fall back to per-call
  // handling inside AnalysisSession::analyzeTrace.
  unsigned SharedIndexShards = 0;
  {
    bool Uniform = !Active->empty();
    for (const OverheadConfig &C : *Active) {
      const DetectorSetup &S = C.Setup;
      if (S.Shards <= 1 || !S.ShardUseIndex || S.ElideLocalAccesses ||
          (SharedIndexShards != 0 && S.Shards != SharedIndexShards)) {
        Uniform = false;
        break;
      }
      SharedIndexShards = S.Shards;
    }
    if (!Uniform)
      SharedIndexShards = 0;
  }

  // One repetition = generate the trial's trace, then time every
  // configuration on that identical trace. Repetitions are independent,
  // so they parallelize; per-trial seconds land in trial-indexed slots
  // and the median aggregation below is order-insensitive anyway.
  struct TrialSeconds {
    std::vector<double> PerConfig;
    std::vector<uint64_t> Hot, Cold;
    uint64_t Events = 0;
  };
  std::vector<TrialSeconds> PerTrial =
      parallelMap(Jobs, Trials, [&](size_t Trial) {
        uint64_t Seed = deriveTrialSeed(BaseSeed, Trial);
        Trace T = generateTrace(Workload, Seed);
        std::optional<TraceIndex> Index;
        if (SharedIndexShards != 0)
          Index.emplace(TraceIndex::build(T, SharedIndexShards));
        // One untimed replay first: the first pass over a freshly
        // generated trace pays to bring it into cache (20-40% of a null
        // replay on eclipse), which would otherwise be charged to the
        // configuration timed first -- the base every slowdown divides by.
        AnalysisSession(Workload, {.Setup = nullSetup(), .Seed = Seed})
            .analyzeTrace(T);
        TrialSeconds Out;
        Out.Events = T.size();
        Out.PerConfig.reserve(Active->size());
        for (const OverheadConfig &Config : *Active) {
          AnalysisRequest Request;
          Request.Setup = Config.Setup;
          Request.Seed = Seed;
          Request.CollectReports = false; // Timing only; skip report copies.
          AnalysisResult Result =
              AnalysisSession(Workload, Request)
                  .analyzeTrace(T, Index ? &*Index : nullptr);
          Out.PerConfig.push_back(Result.ReplaySeconds);
          Out.Hot.push_back(Result.Stats.hotAccesses());
          Out.Cold.push_back(Result.Stats.coldAccesses());
        }
        return Out;
      });

  std::vector<std::vector<double>> Seconds(Configs.size());
  std::vector<uint64_t> Hot(Configs.size(), 0), Cold(Configs.size(), 0);
  uint64_t TotalEvents = 0;
  for (const TrialSeconds &Trial : PerTrial) {
    TotalEvents += Trial.Events;
    for (size_t I = 0; I != Configs.size(); ++I) {
      Seconds[I].push_back(Trial.PerConfig[I]);
      Hot[I] += Trial.Hot[I];
      Cold[I] += Trial.Cold[I];
    }
  }

  double AvgEvents = Trials == 0 ? 0.0
                                 : static_cast<double>(TotalEvents) /
                                       static_cast<double>(Trials);
  std::vector<OverheadResult> Results;
  double Baseline = 0.0;
  for (size_t I = 0; I != Configs.size(); ++I) {
    OverheadResult Result;
    Result.Label = Configs[I].Label;
    Result.MedianSeconds = median(Seconds[I]);
    if (I == 0)
      Baseline = Result.MedianSeconds;
    Result.Slowdown =
        Baseline > 0.0 ? Result.MedianSeconds / Baseline : 1.0;
    Result.EventsPerSecond = Result.MedianSeconds > 0.0
                                 ? AvgEvents / Result.MedianSeconds
                                 : 0.0;
    Result.HotAccesses = Hot[I];
    Result.ColdAccesses = Cold[I];
    Results.push_back(Result);
  }
  return Results;
}

std::vector<OverheadConfig>
pacer::figure7Configs(const std::vector<double> &Rates) {
  std::vector<OverheadConfig> Configs;
  Configs.push_back({"base", nullSetup()});

  // "OM + sync ops, r=0%": synchronization instrumentation only; all
  // vector-clock operations use fast joins and shallow copies.
  DetectorSetup SyncOnly = pacerSetup(0.0);
  SyncOnly.Pacer.InstrumentReadsWrites = false;
  Configs.push_back({"OM + sync ops, r=0%", SyncOnly});

  // "Pacer, r=0%": read/write instrumentation inserted but never sampled;
  // measures the inlined fast-path check.
  Configs.push_back({"Pacer, r=0%", pacerSetup(0.0)});

  for (double Rate : Rates) {
    char Label[48];
    std::snprintf(Label, sizeof(Label), "Pacer, r=%g%%", Rate * 100.0);
    Configs.push_back({Label, pacerSetup(Rate)});
  }
  return Configs;
}
