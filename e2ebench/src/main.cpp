//===- e2ebench/src/main.cpp - End-to-end benchmark driver ----------------==//
//
// Part of the PACER reproduction, released under the MIT license.
//
// Generates a workload's traces from a seed, then measures the ways users
// run the analysis on them: the single-file analyzeFile path swept over
// PACER's cost curve (r = 0..100%, FastTrack, Generic) and the multi-file
// default path (auto shards). Every result is checked; the last stdout
// line is a JSON object with the metrics, the attempted and failed
// counts, and per-config race counts for run.py's golden check.
//
//   e2ebench --workload eclipse-sweep --seed 1 --seconds 26 --trace 0
//            [--work .bench_build/e2ebench-work] [--scale 1]
//
// --trace 0 prints the end-to-end metrics. --trace 1 also replays through
// a timing proxy detector and drives an in-process fleet-ingest daemon
// under open- and closed-loop load, and prints the per-layer metrics.
// --scale multiplies every trace size (the self-test runs tiny traces).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Fleet.h"
#include "Traced.h"

#include "runtime/FleetAggregator.h"
#include "sim/TraceGenerator.h"
#include "sim/TraceIO.h"
#include "sim/Workloads.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>

#include <unistd.h>

using namespace pacer;
using namespace pacer::e2e;

namespace {

struct FileGroup {
  const char *Family;
  double Scale;
  unsigned Count;
};

/// One workload: the traces it generates and the fleet's offered rate.
struct WorkloadDef {
  const char *Name;
  /// Swept through analyzeFile and run as one multi-file batch.
  std::vector<FileGroup> Main;
  /// Submitted to the fleet daemon; empty means the Main files.
  std::vector<FileGroup> Small;
  /// Open-loop offered rate, submissions/s, frozen at half the median
  /// closed-loop fleet.ingest_sps of three traced seed-1 runs (README.md).
  double OpenRate;
};

std::vector<FileGroup> allFamilies(double Scale, unsigned Count) {
  std::vector<FileGroup> Groups;
  for (const char *Family : {"eclipse", "hsqldb", "xalan", "pseudojbb",
                             "forkjoin"})
    Groups.push_back({Family, Scale, Count});
  return Groups;
}

const std::vector<WorkloadDef> &workloads() {
  static const std::vector<WorkloadDef> Defs = {
      // Narrow clocks, 2,224 variables: detector access paths and the
      // segmenter dominate; the cold path at r <= 3% shows here. Two seeds:
      // at r = 1% a trace samples only a few periods, and its cost depends
      // on how many; the sum over seeds evens that out.
      {"eclipse-sweep", {{"eclipse", 8, 2}}, {{"eclipse", 0.25, 8}}, 253},
      // 403 threads: sync work and clock kernels carry the cost.
      {"hsqldb-wide", {{"hsqldb", 4, 2}}, {{"hsqldb", 0.25, 8}}, 208},
      // Many mid-sized files through TraceIndex + ShardedReplay.
      {"batch-auto", allFamilies(1, 3), {}, 77},
      // Many small traces: per-file fixed costs dominate and auto sharding
      // picks K <= 2; traced runs stream them through the daemon.
      {"fleet-ingest", allFamilies(0.25, 8), {}, 129},
  };
  return Defs;
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 15;
  bool Trace = false;
  std::string Work = ".bench_build/e2ebench-work";
  double Scale = 1;
};

bool parseOptions(int Argc, char **Argv, Options &O) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Key = Argv[I], Value = Argv[I + 1];
    char *End = nullptr;
    if (Key == "--workload")
      O.Workload = Value;
    else if (Key == "--seed")
      O.Seed = std::strtoull(Value.c_str(), &End, 10);
    else if (Key == "--seconds")
      O.Seconds = std::strtod(Value.c_str(), &End);
    else if (Key == "--trace" && (Value == "0" || Value == "1"))
      O.Trace = Value == "1";
    else if (Key == "--work")
      O.Work = Value;
    else if (Key == "--scale")
      O.Scale = std::strtod(Value.c_str(), &End);
    else
      return false;
    if (End && *End)
      return false;
  }
  return Argc % 2 == 1 && !O.Workload.empty() && O.Seconds > 0 && O.Scale > 0;
}

/// Everything one run shares across its phases.
struct Run {
  Run(const WorkloadDef &W, const Options &Opt) : W(W), Opt(Opt) {}

  const WorkloadDef &W;
  Options Opt;
  std::vector<TraceFile> Main, Small;
  uint64_t MainEvents = 0;
  Gate G;
  /// First outcome per config and Main file; later analyses must match.
  std::map<std::string, std::vector<std::optional<Outcome>>> Baseline;
  /// The fleet request's result per Small file (the in-process fold).
  std::vector<AnalysisResult> StreamResults;
  Fleet Daemon;
};

std::vector<TraceFile> planFiles(const std::vector<FileGroup> &Groups,
                                 const Options &O, const char *Tag) {
  std::vector<TraceFile> Files;
  for (const FileGroup &G : Groups)
    for (unsigned K = 0; K < G.Count; ++K) {
      TraceFile F;
      F.Family = G.Family;
      F.Scale = G.Scale * O.Scale;
      F.Seed = O.Seed + K;
      F.Path = O.Work + "/" + Tag + "-" + G.Family + "-" + std::to_string(K) +
               ".trace";
      Files.push_back(std::move(F));
    }
  return Files;
}

bool generate(TraceFile &F) {
  CompiledWorkload Workload(
      scaleWorkload(paperWorkloadByName(F.Family), F.Scale));
  Trace T = generateTrace(Workload, F.Seed);
  F.Events = T.size();
  F.Planted.clear();
  for (uint32_t Race = 0; Race < Workload.numRaces(); ++Race)
    F.Planted.insert(Workload.racyKey(Race));
  return writeTraceFileBinary(F.Path, T);
}

void resetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peakRssMiB() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

std::string fileLabel(const TraceFile &F) {
  return F.Family + " x" + std::to_string(F.Scale) + " seed " +
         std::to_string(F.Seed);
}

/// Checks \p O, the outcome of \p Config on Main file \p I: its races were
/// planted, and it equals every earlier analysis of the same pair.
void checkAnalysis(Run &R, const std::string &Config, size_t I,
                   const Outcome &O, const char *How) {
  std::vector<std::optional<Outcome>> &Seen = R.Baseline[Config];
  Seen.resize(R.Main.size());
  const std::string Where =
      Config + " on " + fileLabel(R.Main[I]) + " (" + How + ")";
  if (!Seen[I]) {
    Seen[I] = O;
    for (const auto &[Key, Count] : O.Races)
      R.G.check(R.Main[I].Planted.count(Key) != 0,
                Where + " reported a race that was not planted");
    return;
  }
  R.G.check(O == *Seen[I], Where + " differs from the first analysis");
}

/// The first outcome of \p Config on Main file \p I; null when every
/// analysis of the pair failed (which the gate has counted already).
const Outcome *baseline(Run &R, const std::string &Config, size_t I) {
  const std::vector<std::optional<Outcome>> &Seen = R.Baseline[Config];
  return I < Seen.size() && Seen[I] ? &*Seen[I] : nullptr;
}

/// Cross-config checks over the first sweep: full tracking agrees, and
/// every sampled run finds a subset of FastTrack's races.
void checkCurve(Run &R) {
  auto Keys = [&](const char *Config, size_t I) {
    std::vector<RaceKey> Out;
    for (const auto &[Key, Count] : baseline(R, Config, I)->Races)
      Out.push_back(Key);
    return Out;
  };
  for (size_t I = 0; I < R.Main.size(); ++I) {
    bool Complete = true;
    for (const ConfigDef &Config : sweepConfigs())
      Complete &= baseline(R, Config.Name, I) != nullptr;
    if (!Complete)
      continue;
    const std::vector<RaceKey> Full = Keys("fasttrack", I);
    const std::string On = " on " + fileLabel(R.Main[I]);
    R.G.check(Keys("pacer_r100", I) == Full,
              "pacer_r100 and fasttrack disagree" + On);
    R.G.check(Keys("generic", I) == Full,
              "generic and fasttrack disagree" + On);
    for (const char *Sampled : {"pacer_r0", "pacer_r1", "pacer_r3",
                                "pacer_r10"}) {
      const std::vector<RaceKey> Part = Keys(Sampled, I);
      R.G.check(std::includes(Full.begin(), Full.end(), Part.begin(),
                              Part.end()),
                std::string(Sampled) + " is not a subset of fasttrack" + On);
    }
  }
}

AnalysisResult analyze(Run &R, const AnalysisRequest &Request, size_t I) {
  AnalysisResult Result =
      AnalysisSession(flatSiteWorkload(), Request).analyzeFile(R.Main[I].Path);
  R.G.attempt();
  R.G.check(Result.Ok, "analyzeFile " + R.Main[I].Path + ": " + Result.Error);
  return Result;
}

/// Per-layer sums over the Main files for one traced repetition. Hook
/// times are net of the proxy's cost.
struct LayerSample {
  double LoadMs = 0, IndexMs = 0, ReplayMs = 0, WallMs = 0;
  HookTimes Hooks;
  /// Per file, the replica that spent longest in hooks and in the proxy
  /// around them: replicas replay in parallel, so it bounds their share of
  /// the replay wall.
  double BusyMaxNs = 0;
  DetectorStats Stats;
  uint64_t Boundaries = 0, ProbeVector = 0, ProbeScalar = 0;
  double MetadataKiB = 0; ///< Largest single analysis.
  size_t PeakSlots = 0;   ///< Largest single analysis.
  unsigned Shards = 0;    ///< Largest resolved shard count.
  double ReplicaMaxNs = 0, ReplicaMeanNs = 0;

  void add(const TracedFile &T) {
    LoadMs += T.LoadMs;
    IndexMs += T.IndexMs;
    ReplayMs += T.ReplayMs;
    WallMs += T.WallMs;
    Hooks.add(T.Hooks);
    const DetectorStats &S = T.Result.Stats;
    Stats.ReadSlowSampling += S.ReadSlowSampling;
    Stats.WriteSlowSampling += S.WriteSlowSampling;
    Stats.ReadSlowNonSampling += S.ReadSlowNonSampling;
    Stats.ReadFastNonSampling += S.ReadFastNonSampling;
    Stats.WriteSlowNonSampling += S.WriteSlowNonSampling;
    Stats.WriteFastNonSampling += S.WriteFastNonSampling;
    Stats.SlowJoinsSampling += S.SlowJoinsSampling;
    Stats.SlowJoinsNonSampling += S.SlowJoinsNonSampling;
    Stats.DeepCopiesSampling += S.DeepCopiesSampling;
    Stats.DeepCopiesNonSampling += S.DeepCopiesNonSampling;
    Stats.SyncOps += S.SyncOps;
    Boundaries += T.Result.Boundaries;
    ProbeVector += T.ProbeVectorResolved;
    ProbeScalar += T.ProbeScalarFallback;
    MetadataKiB = std::max(MetadataKiB, T.MetadataBytes / 1024.0);
    PeakSlots = std::max(PeakSlots, T.PeakSlots);
    Shards = std::max(Shards, T.Shards);
    double Busy = 0, Max = 0, Sum = 0;
    for (const HookTimes &H : T.Replicas) {
      Busy = std::max(Busy, H.totalNs() + H.ProxyNs);
      Max = std::max(Max, H.totalNs());
      Sum += H.totalNs();
    }
    BusyMaxNs += Busy;
    ReplicaMaxNs += Max;
    ReplicaMeanNs += Sum / static_cast<double>(T.Replicas.size());
  }
};

/// The proxy's cost, measured once per traced round because the host's
/// speed drifts; sharded replicas' proxies also mirror stats.
struct ProxyCosts {
  ProxyOverhead Plain, Mirrored;
};

LayerSample tracedPass(Run &R, const ConfigDef &Config, unsigned Shards,
                       const ProxyCosts &Proxy, const char *Label) {
  const AnalysisRequest Request = requestFor(Config, Shards);
  LayerSample Sample;
  for (size_t I = 0; I < R.Main.size(); ++I) {
    TracedFile T = tracedAnalyzeFile(R.Main[I].Path, Request, Proxy.Plain,
                                     Proxy.Mirrored);
    R.G.attempt();
    R.G.check(T.Ok, "traced analysis of " + R.Main[I].Path + ": " + T.Error);
    if (!T.Ok)
      continue;
    checkAnalysis(R, Config.Name, I, T.Result, Label);
    Sample.add(T);
  }
  return Sample;
}

/// Emits one config's per-layer metrics as "<metric>.<Tag>": medians of
/// the timed fields over \p Samples, counts from the first sample (they
/// repeat exactly; the outcome check enforces it). Hook times are net of
/// the proxy, and the segmenter's share is the replay wall minus the hooks
/// and the proxy's cost around them. A phase the config
/// never enters (\p HasCold / \p HasHot false) gets no per-access time,
/// which would read a constant 0.
void addLayerMetrics(Metrics &M, const std::string &Tag,
                     const std::vector<LayerSample> &Samples,
                     bool WithSharding, bool HasCold, bool HasHot) {
  auto Med = [&](auto Field) {
    std::vector<double> V;
    for (const LayerSample &S : Samples)
      V.push_back(Field(S));
    return median(V);
  };
  auto Ratio = [](double Num, uint64_t Den) {
    return Den ? Num / static_cast<double>(Den) : 0.0;
  };
  const LayerSample &First = Samples.front();
  const DetectorStats &S = First.Stats;
  const uint64_t Hot = S.hotAccesses(), Cold = S.coldAccesses();
  M.add("sim.load_ms." + Tag, Med([](auto &X) { return X.LoadMs; }), "ms");
  if (WithSharding)
    M.add("runtime.index_ms." + Tag, Med([](auto &X) { return X.IndexMs; }),
          "ms");
  M.add("runtime.replay_ms." + Tag, Med([](auto &X) { return X.ReplayMs; }),
        "ms");
  M.add("runtime.segmenter_self_ms." + Tag, Med([](auto &X) {
          return X.ReplayMs - X.BusyMaxNs / 1e6;
        }),
        "ms");
  M.add("trace.proxy_ms." + Tag,
        Med([](auto &X) { return X.Hooks.ProxyNs / 1e6; }), "ms");
  M.add("runtime.boundaries." + Tag, static_cast<double>(First.Boundaries),
        "count");
  if (WithSharding) {
    M.add("runtime.shards." + Tag, First.Shards, "count");
    M.add("runtime.shard_imbalance." + Tag, Med([](auto &X) {
            return X.ReplicaMeanNs > 0 ? X.ReplicaMaxNs / X.ReplicaMeanNs : 1;
          }),
          "max/mean");
  }
  if (HasCold)
    M.add("detectors.cold_ns_per_access." + Tag,
          Med([&](auto &X) { return Ratio(X.Hooks.ColdNs, Cold); }),
          "ns/access");
  if (HasHot)
    M.add("detectors.hot_ns_per_access." + Tag,
          Med([&](auto &X) { return Ratio(X.Hooks.HotNs, Hot); }),
          "ns/access");
  M.add("detectors.sync_ns_per_op." + Tag,
        Med([&](auto &X) { return Ratio(X.Hooks.SyncNs, S.SyncOps); }),
        "ns/op");
  M.add("detectors.accesses_per_batch." + Tag,
        Ratio(static_cast<double>(Hot + Cold), First.Hooks.accessCalls()),
        "accesses/call");
  M.add("detectors.sync_calls." + Tag,
        static_cast<double>(First.Hooks.SyncCalls), "count");
  if (WithSharding)
    return;
  M.add("detectors.hot_accesses." + Tag, static_cast<double>(Hot), "count");
  M.add("detectors.cold_accesses." + Tag, static_cast<double>(Cold), "count");
  M.add("detectors.slow_joins." + Tag,
        static_cast<double>(S.SlowJoinsSampling + S.SlowJoinsNonSampling),
        "count");
  M.add("detectors.deep_copies." + Tag,
        static_cast<double>(S.DeepCopiesSampling + S.DeepCopiesNonSampling),
        "count");
  M.add("detectors.metadata_kb." + Tag, First.MetadataKiB, "KiB");
  M.add("detectors.peak_slots." + Tag, static_cast<double>(First.PeakSlots),
        "count");
  M.add("core.probe_vector_resolved." + Tag,
        static_cast<double>(First.ProbeVector), "count");
  M.add("core.probe_scalar_fallback." + Tag,
        static_cast<double>(First.ProbeScalar), "count");
}

/// Samples the measured rounds collect.
struct Samples {
  /// Per config, seconds to analyse every Main file once.
  std::map<std::string, std::vector<double>> SweepWalls;
  /// Seconds per multi-file pass.
  std::vector<double> BatchWalls;
  std::map<std::string, std::vector<LayerSample>> SweepLayers;
  std::vector<LayerSample> BatchLayers;
  std::vector<ProxyCosts> Proxy;
  std::vector<Submission> Open, Closed, All;
  double ClosedSeconds = 0;
  /// Server stage tallies accumulated over the open-loop slices.
  IngestServer::StageStats Spool, Analyze, Commit;
};

/// Open-loop submissions per round, and the closed loop's time per round.
constexpr size_t OpenPerRound = 40;
constexpr double ClosedSecondsPerRound = 0.5;

/// One untraced analyzeFile of every Main file under every config.
void sweepRep(Run &R, Samples &S) {
  for (const ConfigDef &Config : sweepConfigs()) {
    const AnalysisRequest Request = requestFor(Config, 1);
    double Wall = 0;
    for (size_t I = 0; I < R.Main.size(); ++I) {
      const auto Start = Clock::now();
      AnalysisResult Result = analyze(R, Request, I);
      Wall += secondsSince(Start);
      if (Result.Ok)
        checkAnalysis(R, Config.Name, I, outcomeOf(Result), "analyzeFile");
    }
    S.SweepWalls[Config.Name].push_back(Wall);
  }
}

/// The multi-file default: racedetect FILE... with --jobs 1 and --shards
/// unset (auto), at r = 3%.
void batchPass(Run &R, Samples &S) {
  const AnalysisRequest Request = requestFor(configNamed("pacer_r3"), 0);
  const auto Start = Clock::now();
  std::vector<AnalysisResult> Results =
      parallelMap(1, R.Main.size(), [&](size_t I) {
        return AnalysisSession(flatSiteWorkload(), Request)
            .analyzeFile(R.Main[I].Path);
      });
  S.BatchWalls.push_back(secondsSince(Start));
  for (size_t I = 0; I < Results.size(); ++I) {
    R.G.attempt();
    R.G.check(Results[I].Ok, "batch analysis of " + R.Main[I].Path);
    if (Results[I].Ok)
      checkAnalysis(R, "pacer_r3", I, outcomeOf(Results[I]), "auto shards");
  }
}

/// Fold check: the daemon's aggregate must equal an in-process fold of
/// the same committed submissions.
void checkFleetFold(Run &R, const std::vector<Submission> &All) {
  FleetAggregator Fold(fleetRequest().Setup.SamplingRate);
  for (const Submission &Sub : All)
    if (Sub.Committed)
      Fold.addInstance(R.StreamResults[Sub.File].Races,
                       R.StreamResults[Sub.File].SampleReports, -1.0);
  R.G.attempt();
  R.G.check(R.Daemon.server().aggregatorCopy().serialize() == Fold.serialize(),
            "fleet aggregate differs from the in-process fold");
}

void countSubmissions(Run &R, const std::vector<Submission> &Subs,
                      Samples &S) {
  for (const Submission &Sub : Subs) {
    R.G.attempt();
    R.G.check(Sub.Committed, "submission of " + R.Small[Sub.File].Path +
                                 " was not committed");
  }
  S.All.insert(S.All.end(), Subs.begin(), Subs.end());
}

void addStage(IngestServer::StageStats &Into,
              const IngestServer::StageStats &Before,
              const IngestServer::StageStats &After) {
  Into.Count += After.Count - Before.Count;
  Into.TotalMs += After.TotalMs - Before.TotalMs;
}

/// One slice of fleet load: an open-loop burst at the workload's rate,
/// then a closed loop of FleetClients clients.
void fleetSlice(Run &R, Samples &S) {
  const IngestServer::Counters Before = R.Daemon.server().counters();
  std::vector<Submission> Open =
      R.Daemon.openLoop(R.Small, OpenPerRound, R.W.OpenRate);
  const IngestServer::Counters After = R.Daemon.server().counters();
  addStage(S.Spool, Before.Spool, After.Spool);
  addStage(S.Analyze, Before.Analyze, After.Analyze);
  addStage(S.Commit, Before.Commit, After.Commit);
  countSubmissions(R, Open, S);
  S.Open.insert(S.Open.end(), Open.begin(), Open.end());

  double Wall = 0;
  std::vector<Submission> Closed =
      R.Daemon.closedLoop(R.Small, ClosedSecondsPerRound, 0, Wall);
  S.ClosedSeconds += Wall;
  countSubmissions(R, Closed, S);
  S.Closed.insert(S.Closed.end(), Closed.begin(), Closed.end());
}

/// Runs measured rounds until --seconds have passed and at least
/// \p MinRounds ran. Each round takes every kind of sample once, so each
/// metric's samples spread over the whole run instead of one stretch of
/// it: the host's speed drifts over seconds. The fleet load runs in traced
/// runs only (see README.md).
void measure(Run &R, Samples &S, unsigned MinRounds) {
  const auto Start = Clock::now();
  double Last = 0; // The previous round's length predicts the next one's.
  for (unsigned Round = 0;
       Round < MinRounds || secondsSince(Start) + Last <= R.Opt.Seconds;
       ++Round) {
    const auto RoundStart = Clock::now();
    sweepRep(R, S);
    if (R.Opt.Trace) {
      S.Proxy.push_back(
          {measureProxyOverhead(false), measureProxyOverhead(true)});
      for (const ConfigDef &Config : sweepConfigs())
        if (Config.Traced)
          S.SweepLayers[Config.Name].push_back(
              tracedPass(R, Config, 1, S.Proxy.back(), "traced replay"));
    }
    batchPass(R, S);
    if (R.Opt.Trace) {
      S.BatchLayers.push_back(tracedPass(R, configNamed("pacer_r3"), 0,
                                         S.Proxy.back(), "traced auto shards"));
      fleetSlice(R, S);
    }
    if (Round == 0)
      checkCurve(R);
    Last = secondsSince(RoundStart);
  }
}

double medianWall(Samples &S, const char *Config) {
  return median(S.SweepWalls[Config]);
}

/// Median over the traced rounds of one field of the sequential proxy's
/// per-access-hook cost.
double proxyMedian(const Samples &S, double HookOverhead::*Field) {
  std::vector<double> V;
  for (const ProxyCosts &P : S.Proxy)
    V.push_back(P.Plain.Access.*Field);
  return median(V);
}

void addEndToEnd(Metrics &M, Run &R, Samples &S,
                 const std::vector<double> &SetupTimes, double PeakRss) {
  for (const ConfigDef &Config : sweepConfigs())
    M.add(std::string(Config.Name) + "_mevps",
          static_cast<double>(R.MainEvents) / medianWall(S, Config.Name) / 1e6,
          "Mevents/s");
  M.add("peak_rss_mb", PeakRss, "MiB");
  M.add("setup_s", median(SetupTimes), "s");
}

void addPerLayer(Metrics &M, Run &R, Samples &S) {
  for (const ConfigDef &Config : sweepConfigs())
    if (Config.Traced) {
      const bool Pacer = Config.Kind == DetectorKind::Pacer;
      addLayerMetrics(M, Config.Name, S.SweepLayers[Config.Name], false,
                      Pacer && Config.Rate < 1, !Pacer || Config.Rate > 0);
    }
  addLayerMetrics(M, "batch_r3", S.BatchLayers, true, true, true);

  std::vector<double> Latency;
  for (const Submission &Sub : S.Open)
    Latency.push_back(Sub.LatencyMs);
  M.add("fleet.submit_p50_ms", quantile(Latency, 0.5), "ms");
  M.add("fleet.submit_p90_ms", quantile(Latency, 0.9), "ms");
  size_t Committed = 0;
  for (const Submission &Sub : S.Closed)
    Committed += Sub.Committed;
  M.add("fleet.ingest_sps", static_cast<double>(Committed) / S.ClosedSeconds,
        "submissions/s");
  auto Mean = [](const IngestServer::StageStats &St) {
    return St.Count ? St.TotalMs / static_cast<double>(St.Count) : 0.0;
  };
  double ClientMs = 0;
  for (const Submission &Sub : S.Open)
    ClientMs += (Sub.LatencyMs - Sub.LateMs) / static_cast<double>(S.Open.size());
  M.add("runtime.ingest.spool_ms_mean", Mean(S.Spool), "ms");
  M.add("runtime.ingest.analyze_ms_mean", Mean(S.Analyze), "ms");
  M.add("runtime.ingest.commit_ms_mean", Mean(S.Commit), "ms");
  M.add("runtime.ingest.commit_ms_max",
        R.Daemon.server().counters().Commit.MaxMs, "ms");
  M.add("runtime.ingest.queue_wait_ms_mean",
        ClientMs - Mean(S.Spool) - Mean(S.Analyze) - Mean(S.Commit), "ms");

  double ReadMs = 0;
  for (size_t I = 0; I < R.Small.size(); ++I) {
    TracedStream T = tracedAnalyzeStream(R.Small[I].Path, fleetRequest());
    R.G.attempt();
    R.G.check(T.Ok && T.Result == outcomeOf(R.StreamResults[I]),
              "traced stream replay differs on " + R.Small[I].Path);
    ReadMs += T.ReadMs / static_cast<double>(R.Small.size());
  }
  M.add("sim.stream_read_ms", ReadMs, "ms");

  // The paper's claim: cost(r) = cost(0) + r * (cost(100%) - cost(0)).
  auto Prop = [&](double Rate, const char *Config) {
    const double T0 = medianWall(S, "pacer_r0");
    const double T100 = medianWall(S, "pacer_r100");
    return medianWall(S, Config) / (T0 + Rate * (T100 - T0));
  };
  M.add("derived.prop_r1", Prop(0.01, "pacer_r1"), "ratio");
  M.add("derived.prop_r3", Prop(0.03, "pacer_r3"), "ratio");
  M.add("batch_files_per_s",
        static_cast<double>(R.Main.size()) / median(S.BatchWalls), "files/s");
  M.add("derived.batch_auto_vs_k1",
        median(S.BatchWalls) / medianWall(S, "pacer_r3"), "ratio");
  double TracedMs = 0, UntracedMs = 0;
  for (const ConfigDef &Config : sweepConfigs())
    if (Config.Traced) {
      std::vector<double> Walls;
      for (const LayerSample &L : S.SweepLayers[Config.Name])
        Walls.push_back(L.WallMs);
      TracedMs += median(Walls);
      UntracedMs += medianWall(S, Config.Name) * 1e3;
    }
  M.add("trace.overhead_pct", 100 * (TracedMs - UntracedMs) / UntracedMs, "%");
  M.add("trace.proxy_call_ns", proxyMedian(S, &HookOverhead::CallNs), "ns");
  M.add("trace.proxy_window_ns", proxyMedian(S, &HookOverhead::WindowNs),
        "ns");
}

/// Generates and writes every trace (and, traced, starts the daemon),
/// \p Reps times; the last repetition's files and server stay for the
/// measured phase.
bool setUp(Run &R, unsigned Reps, std::vector<double> &Times) {
  R.Main = planFiles(R.W.Main, R.Opt, "main");
  std::vector<TraceFile> Small =
      R.W.Small.empty() || !R.Opt.Trace
          ? std::vector<TraceFile>()
          : planFiles(R.W.Small, R.Opt, "small");
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    R.Daemon.stop();
    const auto Start = Clock::now();
    for (std::vector<TraceFile> *Files : {&R.Main, &Small})
      for (TraceFile &F : *Files)
        if (!generate(F)) {
          std::fprintf(stderr, "error: cannot write %s\n", F.Path.c_str());
          return false;
        }
    std::string Error;
    if (R.Opt.Trace && !R.Daemon.start(R.Opt.Work + "/fleet", Error)) {
      std::fprintf(stderr, "error: ingest server: %s\n", Error.c_str());
      return false;
    }
    Times.push_back(secondsSince(Start));
    // Flush the traces now, so background writeback does not compete
    // with the measured phase; the pages stay cached.
    ::sync();
  }
  R.Small = R.W.Small.empty() ? R.Main : std::move(Small);
  for (const TraceFile &F : R.Main)
    R.MainEvents += F.Events;
  return true;
}

/// Discarded warm-up: faults every trace into the page cache and, traced,
/// takes the fleet's reference results and exercises the daemon once.
void warmUp(Run &R, Samples &S) {
  for (size_t I = 0; I < R.Main.size(); ++I) {
    AnalysisResult Result =
        analyze(R, requestFor(configNamed("pacer_r0"), 1), I);
    if (Result.Ok)
      checkAnalysis(R, "pacer_r0", I, outcomeOf(Result), "warm-up");
  }
  if (!R.Opt.Trace)
    return;
  for (const TraceFile &F : R.Small) {
    R.StreamResults.push_back(
        AnalysisSession(flatSiteWorkload(), fleetRequest()).analyzeFile(F.Path));
    R.G.attempt();
    R.G.check(R.StreamResults.back().Ok, "fleet reference for " + F.Path);
  }
  double Wall = 0;
  countSubmissions(R, R.Daemon.closedLoop(R.Small, 0, 2 * FleetClients, Wall),
                   S);
}

void printSummary(Run &R, Samples &S) {
  std::printf("workload %s, seed %llu: %zu files, %llu events\n", R.W.Name,
              static_cast<unsigned long long>(R.Opt.Seed), R.Main.size(),
              static_cast<unsigned long long>(R.MainEvents));
  for (const ConfigDef &Config : sweepConfigs()) {
    std::printf("  %-10s walls (ms):", Config.Name);
    for (double Wall : S.SweepWalls[Config.Name])
      std::printf(" %.1f", Wall * 1e3);
    std::printf("\n");
  }
  std::printf("  batch      walls (ms):");
  for (double Wall : S.BatchWalls)
    std::printf(" %.1f", Wall * 1e3);
  std::printf("\n");
  if (!R.Opt.Trace)
    return;
  std::vector<double> Late;
  for (const Submission &Sub : S.Open)
    Late.push_back(Sub.LateMs);
  std::printf("  open loop: %zu submissions of %zu files at %.0f/s; "
              "generator lateness p50 %.3f ms, p90 %.3f ms, max %.3f ms\n",
              S.Open.size(), R.Small.size(), R.W.OpenRate, quantile(Late, 0.5),
              quantile(Late, 0.9), quantile(Late, 1.0));
  std::printf("  closed loop: %zu submissions from %u clients in %.2f s\n",
              S.Closed.size(), FleetClients, S.ClosedSeconds);
  // The proxy estimate against what tracing actually added.
  for (const ConfigDef &Config : sweepConfigs())
    if (Config.Traced) {
      std::vector<double> Walls, Proxy;
      for (const LayerSample &L : S.SweepLayers[Config.Name]) {
        Walls.push_back(L.WallMs);
        Proxy.push_back(L.Hooks.ProxyNs / 1e6);
      }
      const double Untraced = medianWall(S, Config.Name) * 1e3;
      std::printf("  %-10s traced - untraced wall %.1f ms, proxy estimate "
                  "%.1f ms\n",
                  Config.Name, median(Walls) - Untraced, median(Proxy));
    }
  const ProxyCosts &P = S.Proxy.front();
  std::printf("  proxy cost per hook, first round (ns, call / in span): "
              "access %.1f / %.1f, sync %.1f / %.1f; mirrored access "
              "%.1f / %.1f, sync %.1f / %.1f\n",
              P.Plain.Access.CallNs, P.Plain.Access.WindowNs,
              P.Plain.Sync.CallNs, P.Plain.Sync.WindowNs,
              P.Mirrored.Access.CallNs, P.Mirrored.Access.WindowNs,
              P.Mirrored.Sync.CallNs, P.Mirrored.Sync.WindowNs);
}

std::string countsJson(Run &R) {
  std::string Out = "{";
  for (const ConfigDef &Config : sweepConfigs()) {
    uint64_t Distinct = 0, Dynamic = 0;
    for (size_t I = 0; I < R.Main.size(); ++I)
      if (const Outcome *O = baseline(R, Config.Name, I)) {
        Distinct += O->Races.size();
        Dynamic += O->dynamicRaces();
      }
    Out += std::string(Out.size() > 1 ? ", \"" : "\"") + Config.Name +
           "\": [" + std::to_string(Distinct) + ", " +
           std::to_string(Dynamic) + "]";
  }
  return Out + "}";
}

int runBenchmark(Run &R) {
  std::error_code Ec;
  std::filesystem::remove_all(R.Opt.Work, Ec);
  std::filesystem::create_directories(R.Opt.Work, Ec);

  std::vector<double> SetupTimes;
  if (!setUp(R, R.Opt.Trace ? 1 : 5, SetupTimes))
    return 1;
  Samples S;
  warmUp(R, S);
  resetPeakRss();
  // Three rounds give the open loop 120 latency samples, so at least ten
  // lie beyond its p90.
  measure(R, S, 3);
  const double PeakRss = peakRssMiB();
  if (R.Opt.Trace) {
    if (R.W.Small.empty())
      for (size_t I = 0; I < R.Main.size(); ++I) {
        const Outcome *Mapped = baseline(R, "pacer_r3", I);
        R.G.attempt();
        R.G.check(Mapped && outcomeOf(R.StreamResults[I]) == *Mapped,
                  "streamed and mapped analyses differ on " + R.Main[I].Path);
      }
    checkFleetFold(R, S.All);
  }

  Metrics M;
  if (R.Opt.Trace)
    addPerLayer(M, R, S);
  else
    addEndToEnd(M, R, S, SetupTimes, PeakRss);
  R.Daemon.stop();
  std::filesystem::remove_all(R.Opt.Work, Ec);

  printSummary(R, S);
  M.print();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s, \"counts\": %s}\n",
              R.G.failed() ? "false" : "true",
              static_cast<unsigned long long>(R.G.attempted()),
              static_cast<unsigned long long>(R.G.failed()), M.json().c_str(),
              countsJson(R).c_str());
  return R.G.failed() ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseOptions(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work DIR] [--scale F]\n");
    return 2;
  }
  for (const WorkloadDef &W : workloads())
    if (O.Workload == W.Name) {
      for (const std::vector<FileGroup> *Groups : {&W.Main, &W.Small})
        for (const FileGroup &G : *Groups)
          if (G.Scale * O.Scale < 0.01) {
            std::fprintf(stderr, "error: --scale %g makes %s traces smaller "
                                 "than the generator's minimum\n",
                         O.Scale, G.Family);
            return 2;
          }
      Run R(W, O);
      return runBenchmark(R);
    }
  std::fprintf(stderr, "error: unknown workload %s\n", O.Workload.c_str());
  return 2;
}
