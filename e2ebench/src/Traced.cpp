//===- e2ebench/src/Traced.cpp - analyzeFile rebuilt with timing ----------==//

#include "Traced.h"

#include "runtime/RaceLog.h"
#include "runtime/Runtime.h"
#include "runtime/SamplingController.h"
#include "runtime/ShardedReplay.h"
#include "runtime/TraceIndex.h"
#include "sim/StreamingTraceReader.h"
#include "sim/TraceView.h"
#include "support/Stats.h"

#include <atomic>
#include <memory>

using namespace pacer;
using namespace pacer::e2e;

namespace {

double msSince(Clock::time_point Start) { return secondsSince(Start) * 1e3; }

std::unique_ptr<SamplingController> controllerFor(const AnalysisRequest &R) {
  if (R.Setup.Kind != DetectorKind::Pacer)
    return nullptr;
  SamplingConfig Sampling = R.Setup.Sampling;
  Sampling.TargetRate = R.Setup.SamplingRate;
  return std::make_unique<SamplingController>(Sampling,
                                              controllerSeed(R.Seed));
}

Outcome logOutcome(const RaceLog &Log, const DetectorStats &Stats,
                  uint64_t Boundaries) {
  Outcome O;
  O.Races.insert(Log.counts().begin(), Log.counts().end());
  O.Stats = Stats;
  O.Boundaries = Boundaries;
  return O;
}

/// Calls one hook \p N times through a reference the compiler cannot see
/// through, as Runtime does.
[[gnu::noinline]] void driveAccess(Detector &D, unsigned N) {
  for (unsigned I = 0; I < N; ++I)
    D.accessBatch({}, AccessShard::all());
}

[[gnu::noinline]] void driveSync(Detector &D, unsigned N) {
  for (unsigned I = 0; I < N; ++I)
    D.acquire(0, 0);
}

HookOverhead measureHook(bool MirrorStats, bool Access) {
  constexpr unsigned Calls = 1u << 15, Reps = 7;
  void (*Drive)(Detector &, unsigned) = Access ? driveAccess : driveSync;
  RaceLog Log;
  std::vector<double> Window, Call;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    NullDetector Direct(Log);
    HookTimes Times;
    TimingDetector Proxy(std::make_unique<NullDetector>(Log), Log, Times,
                         MirrorStats);
    const auto DirectStart = Clock::now();
    Drive(Direct, Calls);
    const double DirectNs = secondsSince(DirectStart) * 1e9;
    const auto ProxyStart = Clock::now();
    Drive(Proxy, Calls);
    const double ProxyNs = secondsSince(ProxyStart) * 1e9;
    Window.push_back(Times.totalNs() / Calls);
    Call.push_back((ProxyNs - DirectNs) / Calls);
  }
  return {median(Window), median(Call)};
}

} // namespace

ProxyOverhead e2e::measureProxyOverhead(bool MirrorStats) {
  return {measureHook(MirrorStats, /*Access=*/true),
          measureHook(MirrorStats, /*Access=*/false)};
}

TracedFile e2e::tracedAnalyzeFile(const std::string &Path,
                                  const AnalysisRequest &Request,
                                  const ProxyOverhead &Plain,
                                  const ProxyOverhead &Mirrored) {
  const DetectorSetup &Setup = Request.Setup;
  TracedFile Out;
  const auto Start = Clock::now();

  TraceView View = TraceView::open(Path);
  Out.LoadMs = msSince(Start);
  if (!View.ok()) {
    Out.Ok = false;
    Out.Error = View.error();
    return Out;
  }
  const TraceSpan T = View.actions();

  const auto IndexStart = Clock::now();
  unsigned Shards = Setup.Shards;
  if (Shards == 0) {
    TraceIndex::Builder Counter(1);
    Counter.addChunk(T);
    Shards = resolveShardCount(0, Counter.accessCount());
  }
  TraceIndex Index;
  if (Shards > 1)
    Index = TraceIndex::build(T, Shards);
  Out.IndexMs = msSince(IndexStart);
  Out.Shards = Shards;

  const auto ReplayStart = Clock::now();
  if (Shards > 1) {
    ShardedReplayConfig Config;
    Config.Shards = Shards;
    Config.Jobs = Setup.ShardJobs;
    Config.UseIndex = Setup.ShardUseIndex;
    Config.Index = &Index;
    Config.SyncBatching = Setup.SyncBatching;
    if (Setup.Kind == DetectorKind::Pacer) {
      Config.UseController = true;
      Config.Sampling = Setup.Sampling;
      Config.Sampling.TargetRate = Setup.SamplingRate;
      Config.ControllerSeed = controllerSeed(Request.Seed);
    }
    // Replicas are built on pool threads in no fixed order; each takes the
    // next slot, which outlives the replica.
    std::vector<HookTimes> Replicas(Shards);
    std::atomic<unsigned> NextSlot{0};
    DetectorFactory Factory = [&](RaceSink &Sink) -> std::unique_ptr<Detector> {
      HookTimes &Slot = Replicas[NextSlot.fetch_add(1)];
      return std::make_unique<TimingDetector>(
          makeDetector(Setup, Sink, flatSiteWorkload(), Request.Seed), Sink,
          Slot, /*MirrorStats=*/true);
    };
    ShardedReplayResult Sharded = shardedReplay(T, Factory, Config);
    Out.ReplayMs = msSince(ReplayStart);
    Out.Result.Races.insert(Sharded.Races.begin(), Sharded.Races.end());
    Out.Result.Stats = Sharded.Stats;
    Out.Result.Boundaries = Sharded.Boundaries;
    for (HookTimes &H : Replicas) {
      H.deductProxy(Mirrored);
      Out.Hooks.add(H);
    }
    Out.Replicas = std::move(Replicas);
    Out.MetadataBytes = Sharded.FinalMetadataBytes;
    Out.PeakSlots = Sharded.PeakSlotCount;
    Out.ProbeVectorResolved = Sharded.Probe.VectorResolved;
    Out.ProbeScalarFallback = Sharded.Probe.ScalarFallback;
  } else {
    RaceLog Log;
    TimingDetector D(makeDetector(Setup, Log, flatSiteWorkload(), Request.Seed),
                     Log, Out.Hooks, /*MirrorStats=*/false);
    std::unique_ptr<SamplingController> Controller = controllerFor(Request);
    Runtime RT(D, Controller.get(), Setup.SyncBatching);
    RT.replay(T);
    Out.ReplayMs = msSince(ReplayStart);
    Out.Result = logOutcome(Log, D.inner().stats(),
                           Controller ? Controller->boundaryCount() : 0);
    Out.Hooks.deductProxy(Plain);
    Out.Replicas.push_back(Out.Hooks);
    Out.MetadataBytes = D.liveMetadataBytes();
    Out.PeakSlots = D.peakSlotCount();
    Out.ProbeVectorResolved = D.inner().probeCounters().VectorResolved;
    Out.ProbeScalarFallback = D.inner().probeCounters().ScalarFallback;
  }
  Out.WallMs = msSince(Start);
  return Out;
}

TracedStream e2e::tracedAnalyzeStream(const std::string &Path,
                                      const AnalysisRequest &Request) {
  TracedStream Out;
  StreamingTraceReader Reader(Path, Request.StreamWindow);
  RaceLog Log;
  std::unique_ptr<Detector> D =
      makeDetector(Request.Setup, Log, flatSiteWorkload(), Request.Seed);
  std::unique_ptr<SamplingController> Controller = controllerFor(Request);
  Runtime RT(*D, Controller.get(), Request.Setup.SyncBatching);
  RT.start();
  while (true) {
    const auto ReadStart = Clock::now();
    TraceSpan Chunk = Reader.next();
    Out.ReadMs += msSince(ReadStart);
    if (Chunk.empty())
      break;
    RT.replayChunk(Chunk, AccessShard::all());
  }
  if (!Reader.ok()) {
    Out.Ok = false;
    Out.Error = Reader.error();
    return Out;
  }
  Out.Result = logOutcome(Log, D->stats(),
                         Controller ? Controller->boundaryCount() : 0);
  return Out;
}
