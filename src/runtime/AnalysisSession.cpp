//===- runtime/AnalysisSession.cpp ----------------------------------------==//

#include "runtime/AnalysisSession.h"

#include "core/ClockKernels.h"
#include "detectors/GenericDetector.h"
#include "runtime/Runtime.h"
#include "runtime/ShardedReplay.h"
#include "runtime/TraceIndex.h"
#include "sim/TraceGenerator.h"
#include "sim/TraceIO.h"
#include "sim/TraceView.h"
#include "sim/Workloads.h"
#include "support/Error.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <cstdio>
#include <optional>

using namespace pacer;

const char *pacer::detectorKindName(DetectorKind Kind) {
  switch (Kind) {
  case DetectorKind::Null:
    return "null";
  case DetectorKind::Generic:
    return "generic";
  case DetectorKind::FastTrack:
    return "fasttrack";
  case DetectorKind::Pacer:
    return "pacer";
  case DetectorKind::LiteRace:
    return "literace";
  }
  return "?";
}

DetectorSetup pacer::pacerSetup(double Rate) {
  DetectorSetup Setup;
  Setup.Kind = DetectorKind::Pacer;
  Setup.SamplingRate = Rate;
  return Setup;
}

DetectorSetup pacer::fastTrackSetup() {
  DetectorSetup Setup;
  Setup.Kind = DetectorKind::FastTrack;
  return Setup;
}

DetectorSetup pacer::genericSetup() {
  DetectorSetup Setup;
  Setup.Kind = DetectorKind::Generic;
  return Setup;
}

DetectorSetup pacer::literaceSetup(uint32_t BurstLength) {
  DetectorSetup Setup;
  Setup.Kind = DetectorKind::LiteRace;
  Setup.LiteRace.BurstLength = BurstLength;
  return Setup;
}

DetectorSetup pacer::nullSetup() {
  DetectorSetup Setup;
  Setup.Kind = DetectorKind::Null;
  return Setup;
}

std::unique_ptr<Detector> pacer::makeDetector(const DetectorSetup &Setup,
                                              RaceSink &Sink,
                                              const CompiledWorkload &Workload,
                                              uint64_t Seed) {
  switch (Setup.Kind) {
  case DetectorKind::Null:
    return std::make_unique<NullDetector>(Sink);
  case DetectorKind::Generic: {
    GenericConfig Config;
    Config.UseAccordionClocks = Setup.AccordionClocks;
    return std::make_unique<GenericDetector>(Sink, Config);
  }
  case DetectorKind::FastTrack: {
    FastTrackConfig Config = Setup.FastTrack;
    Config.UseAccordionClocks |= Setup.AccordionClocks;
    return std::make_unique<FastTrackDetector>(Sink, Config);
  }
  case DetectorKind::Pacer: {
    PacerConfig Config = Setup.Pacer;
    Config.UseAccordionClocks |= Setup.AccordionClocks;
    return std::make_unique<PacerDetector>(Sink, Config);
  }
  case DetectorKind::LiteRace: {
    LiteRaceConfig Config = Setup.LiteRace;
    Config.UseAccordionClocks |= Setup.AccordionClocks;
    return std::make_unique<LiteRaceDetector>(Sink, Workload.siteToMethod(),
                                              Seed ^ 0x4c495445u /*"LITE"*/,
                                              Config);
  }
  }
  pacerUnreachable("unknown detector kind");
}

std::unique_ptr<SamplingController>
pacer::makeSamplingController(const DetectorSetup &Setup, uint64_t Seed) {
  if (Setup.Kind != DetectorKind::Pacer)
    return nullptr;
  SamplingConfig Sampling = Setup.Sampling;
  Sampling.TargetRate = Setup.SamplingRate;
  return std::make_unique<SamplingController>(Sampling,
                                              Seed ^ 0x47432121u /*"GC!!"*/);
}

const CompiledWorkload &pacer::flatSiteWorkload() {
  // Leaked singleton: destruction order vs. static session objects is not
  // worth reasoning about for an immutable table.
  static const CompiledWorkload *Flat = [] {
    WorkloadSpec Spec = tinyTestWorkload();
    Spec.Races.clear();
    return new CompiledWorkload(Spec);
  }();
  return *Flat;
}

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Drops the accesses to thread-local variables from \p T under
/// ElideLocalAccesses -- the escape-analysis pass removed their
/// instrumentation: they execute (cost nothing here) but are never
/// analysed -- and returns \p T itself otherwise. \p Scratch holds the
/// filtered copy.
TraceSpan elideLocals(TraceSpan T, const DetectorSetup &Setup,
                      const CompiledWorkload &Workload, Trace &Scratch) {
  if (!Setup.ElideLocalAccesses)
    return T;
  Scratch.clear();
  Scratch.reserve(T.size());
  for (const Action &A : T)
    if (!(isAccessAction(A.Kind) && Workload.isLocalVar(A.Target)))
      Scratch.push_back(A);
  return Scratch;
}

/// The sequential replay core behind analyzeTrace and analyzeStream: one
/// detector, its sampling controller and one Runtime, fed the trace as
/// consecutive chunks (a span is one chunk). Chunk edges are invisible to
/// the detector (Runtime::replayChunk), so every chunking gives the same
/// result. The replay clock starts once the detector is built.
class SequentialReplay {
public:
  SequentialReplay(const CompiledWorkload &Workload,
                   const AnalysisRequest &Request)
      : Request(Request),
        D(makeDetector(Request.Setup, Log, Workload, Request.Seed)),
        Controller(makeSamplingController(Request.Setup, Request.Seed)),
        RT(*D, Controller.get(), Request.Setup.SyncBatching) {
    RT.start();
  }

  /// Replays the next chunk. Returns false at the first record the
  /// segmenter rejects, having delivered everything before it.
  bool replay(TraceSpan Chunk) {
    const size_t Done = RT.replayChunk(Chunk, AccessShard::all());
    Replayed += Done;
    if (Done < Chunk.size())
      Rejected = validateActionRecord(Chunk[Done]);
    return !Rejected;
  }

  /// Ends the replay. Sets Out's replay time, then either the error --
  /// \p InputError if non-empty, else the rejected record's "REASON in
  /// record N" -- or the detection fields.
  void finish(AnalysisResult &Out, const std::string &InputError = {}) {
    Out.ReplaySeconds = secondsSince(Start);
    if (!InputError.empty() || Rejected) {
      Out.Ok = false;
      Out.Error = !InputError.empty()
                      ? InputError
                      : std::string(Rejected) + " in record " +
                            std::to_string(Replayed);
      return;
    }
    Out.Races = Log.counts();
    Out.DynamicRaces = Log.dynamicCount();
    Out.Stats = D->stats();
    if (Controller) {
      Out.EffectiveAccessRate = Controller->effectiveAccessRate();
      Out.EffectiveSyncRate = Controller->effectiveSyncRate();
      Out.Boundaries = Controller->boundaryCount();
    }
    if (Request.Setup.Kind == DetectorKind::LiteRace)
      Out.LiteRaceEffectiveRate =
          LiteRaceDetector::effectiveRateFromStats(Out.Stats);
    Out.FinalMetadataBytes = D->liveMetadataBytes();
    Out.PeakSlotCount = D->peakSlotCount();
    if (Request.CollectReports)
      Out.SampleReports = Log.sampleReports();
  }

private:
  const AnalysisRequest &Request;
  RaceLog Log;
  std::unique_ptr<Detector> D;
  std::unique_ptr<SamplingController> Controller;
  Runtime RT;
  Clock::time_point Start = Clock::now();
  size_t Replayed = 0;
  const char *Rejected = nullptr;
};

/// Replays the (already elide-filtered) span \p Replay at the resolved
/// shard count \p Shards and fills the detection and timing fields of
/// \p Out.
void replaySpan(const CompiledWorkload &Workload,
                const AnalysisRequest &Request, TraceSpan Replay,
                unsigned Shards, const TraceIndex *Index,
                AnalysisResult &Out) {
  const DetectorSetup &Setup = Request.Setup;
  Out.ResolvedShards = Shards;
  Out.Isa = kernels::activeIsa();
  if (Shards <= 1) {
    SequentialReplay Core(Workload, Request);
    Core.replay(Replay);
    Core.finish(Out);
    return;
  }

  ShardedReplayConfig Config;
  Config.Shards = Shards;
  Config.Jobs = Setup.ShardJobs;
  Config.UseIndex = Setup.ShardUseIndex;
  Config.Index = Index;
  Config.SyncBatching = Setup.SyncBatching;
  if (std::unique_ptr<SamplingController> Controller =
          makeSamplingController(Setup, Request.Seed)) {
    Config.UseController = true;
    Config.Sampling = Controller->config();
    Config.ControllerSeed = Controller->seed();
  }
  // LiteRace's bursty samplers are code-indexed, so a replica would
  // otherwise need the full access stream just to keep its sampling
  // decisions replica-identical. Precompute the decision stream once
  // (it is a pure function of the filtered trace, the seed and the
  // config) and share it read-only: every replica becomes shard-local
  // and the index can feed it owned-access runs only.
  std::optional<LiteRaceSamplerPlan> LiteRacePlan;
  if (Setup.Kind == DetectorKind::LiteRace)
    LiteRacePlan = LiteRaceDetector::computeSamplerPlan(
        Replay, Workload.siteToMethod(),
        Request.Seed ^ 0x4c495445u /*"LITE"*/, Setup.LiteRace);
  DetectorFactory Factory = [&](RaceSink &Sink) {
    std::unique_ptr<Detector> D =
        makeDetector(Setup, Sink, Workload, Request.Seed);
    if (LiteRacePlan)
      static_cast<LiteRaceDetector &>(*D).setSamplerPlan(&*LiteRacePlan);
    return D;
  };
  auto Start = Clock::now();
  ShardedReplayResult Sharded = shardedReplay(Replay, Factory, Config);
  Out.ReplaySeconds = secondsSince(Start);
  Out.Races = std::move(Sharded.Races);
  Out.DynamicRaces = Sharded.DynamicRaces;
  Out.Stats = Sharded.Stats;
  Out.EffectiveAccessRate = Sharded.EffectiveAccessRate;
  Out.EffectiveSyncRate = Sharded.EffectiveSyncRate;
  Out.Boundaries = Sharded.Boundaries;
  if (Setup.Kind == DetectorKind::LiteRace)
    Out.LiteRaceEffectiveRate =
        LiteRaceDetector::effectiveRateFromStats(Out.Stats);
  Out.FinalMetadataBytes = Sharded.FinalMetadataBytes;
  Out.PeakSlotCount = Sharded.PeakSlotCount;
  if (Request.CollectReports)
    Out.SampleReports = std::move(Sharded.SampleReports);
}

void noteAutoShards(AnalysisResult &Out, unsigned Resolved,
                    uint64_t Accesses) {
  char Note[128];
  std::snprintf(Note, sizeof(Note),
                "auto-sharding: K=%u (%llu accesses, %u hardware jobs)\n",
                Resolved, static_cast<unsigned long long>(Accesses),
                hardwareJobs());
  Out.Notes += Note;
}

} // namespace

AnalysisResult AnalysisSession::analyzeGenerated() const {
  Trace T = generateTrace(Workload, Request.Seed);
  return analyzeTrace(T);
}

AnalysisResult AnalysisSession::analyzeTrace(TraceSpan T,
                                             const TraceIndex *Index) const {
  const DetectorSetup &Setup = Request.Setup;

  // Filtering up front keeps the replay path -- sequential or sharded --
  // identical to a trace that never contained the elided accesses.
  Trace Filtered;
  TraceSpan Replay = elideLocals(T, Setup, Workload, Filtered);
  if (Setup.ElideLocalAccesses)
    Index = nullptr; // A caller index describes T, not the filtered trace.

  AnalysisResult Result;
  Result.TraceEvents = T.size();

  const unsigned Shards =
      Setup.Shards != 0
          ? Setup.Shards
          : resolveShardCount(0, Index ? Index->accessCount()
                                       : countTraceAccesses(Replay));

  replaySpan(Workload, Request, Replay, Shards, Index, Result);
  return Result;
}

AnalysisResult
AnalysisSession::analyzeStream(StreamingTraceReader &Reader) const {
  AnalysisResult Result;
  Result.Isa = kernels::activeIsa();

  SequentialReplay Core(Workload, Request);
  Trace Filtered; // Reused per-chunk scratch under ElideLocalAccesses.
  for (TraceSpan Chunk = Reader.next(); !Chunk.empty();
       Chunk = Reader.next()) {
    Result.TraceEvents += Chunk.size();
    // The reader checked this window; the segmenter's check repeats it
    // and never stops short.
    if (!Core.replay(elideLocals(Chunk, Request.Setup, Workload, Filtered)))
      break;
  }
  Core.finish(Result, Reader.ok() ? std::string() : Reader.error());
  return Result;
}

AnalysisResult AnalysisSession::analyzeFile(const std::string &Path) const {
  return Request.Stream ? analyzeFileStreaming(Path)
                        : analyzeFileInMemory(Path);
}

AnalysisResult
AnalysisSession::analyzeFileInMemory(const std::string &Path) const {
  // In-memory mode: a binary trace analyses from an mmap view (zero-copy
  // where the platform allows); the view loads any other trace.
  AnalysisResult Result;
  auto Fail = [&](const std::string &Why) {
    Result.Ok = false;
    Result.Error = Why;
    return Result;
  };

  auto LoadStart = Clock::now();
  const TraceView View = TraceView::map(Path);
  if (!View.ok())
    return Fail(View.error());
  const TraceSpan T = View.actions();
  double LoadSeconds = secondsSince(LoadStart);

  // Auto resolution reads only kind bytes, so it may run before the
  // record check.
  unsigned ResolvedShards = Request.Setup.Shards;
  auto CountStart = Clock::now();
  if (ResolvedShards == 0) {
    const uint64_t Accesses = countTraceAccesses(T);
    ResolvedShards = resolveShardCount(0, Accesses);
    noteAutoShards(Result, ResolvedShards, Accesses);
  }
  double IndexSeconds = secondsSince(CountStart);

  // A loaded trace's records were checked as they were read. A mapped
  // trace's records are checked by the sequential replay as it segments
  // them; the index build, the sharded engines, LiteRace's sampler plan
  // and the escape-analysis filter read records before or without that
  // scan, so those paths check the whole span first.
  if (View.mapped() &&
      (ResolvedShards > 1 || Request.Setup.ElideLocalAccesses)) {
    auto CheckStart = Clock::now();
    const char *Why = nullptr;
    if (const size_t Bad = firstInvalidRecord(T, Why); Bad < T.size())
      return Fail(invalidRecordError(Path, Why, Bad));
    LoadSeconds += secondsSince(CheckStart);
  }

  TraceIndex Index;
  const TraceIndex *IndexPtr = nullptr;
  if (ResolvedShards > 1 && !Request.Setup.ElideLocalAccesses) {
    auto IndexStart = Clock::now();
    Index = TraceIndex::build(T, ResolvedShards);
    IndexPtr = &Index;
    IndexSeconds += secondsSince(IndexStart);
  }

  AnalysisRequest Resolved = Request;
  Resolved.Setup.Shards = ResolvedShards;
  AnalysisResult Replayed =
      AnalysisSession(Workload, Resolved).analyzeTrace(T, IndexPtr);
  if (!Replayed.Ok)
    return Fail(Path + ": " + Replayed.Error);
  Replayed.Notes = Result.Notes + Replayed.Notes;
  Replayed.LoadSeconds = LoadSeconds;
  Replayed.IndexSeconds = IndexSeconds;
  return Replayed;
}

AnalysisResult
AnalysisSession::analyzeFileStreaming(const std::string &Path) const {
  // Bounded-window mode: the trace is never materialized. Auto-shard
  // resolution and the replay index come from extra bounded passes over
  // the same reader; sharded replicas then need random access, which an
  // mmap view provides for binary traces at zero copy. Text traces (no
  // random access without parsing) stream sequentially.
  AnalysisResult Result;
  auto Fail = [&](const std::string &Why) {
    Result.Ok = false;
    Result.Error = Why;
    return Result;
  };

  const size_t StreamWindow = Request.StreamWindow; // The reader clamps it.
  unsigned ResolvedShards = Request.Setup.Shards;
  double LoadSeconds = 0, IndexSeconds = 0;

  if (ResolvedShards == 0) {
    // Counting pass for auto-sharding, O(window) resident.
    auto Start = Clock::now();
    StreamingTraceReader Counter(Path, StreamWindow);
    uint64_t Accesses = 0;
    for (TraceSpan Chunk = Counter.next(); !Chunk.empty();
         Chunk = Counter.next())
      Accesses += countTraceAccesses(Chunk);
    if (!Counter.ok())
      return Fail(Counter.error());
    IndexSeconds += secondsSince(Start);
    ResolvedShards = resolveShardCount(0, Accesses);
    noteAutoShards(Result, ResolvedShards, Accesses);
  }

  auto Start = Clock::now();
  StreamingTraceReader Reader(Path, StreamWindow);
  if (!Reader.ok())
    return Fail(Reader.error());
  TraceView View; // Must outlive the replayed span.
  bool Sequential = ResolvedShards <= 1 || Request.Setup.ElideLocalAccesses;
  if (!Sequential) {
    if (Reader.format() == TraceFormat::Binary) {
      // Mapped only: the streamed index build below checks every record
      // before the sharded replay reads the mapping.
      auto MapStart = Clock::now();
      View = TraceView::map(Path);
      if (!View.ok())
        return Fail(View.error());
      LoadSeconds = secondsSince(MapStart);
      if (!View.mapped()) {
        // Buffered fallback materializes the trace; stay sequential to
        // honour the bounded-memory request.
        View = TraceView();
        Sequential = true;
        Result.Notes +=
            "streaming: mmap unavailable, replaying sequentially\n";
      }
    } else {
      Sequential = true;
      Result.Notes += "streaming: text trace has no random access, "
                      "replaying sequentially\n";
    }
  }

  if (!Sequential) {
    // Streamed index build: one bounded pass feeds the sharded engine.
    auto IndexStart = Clock::now();
    TraceIndex::Builder Builder(ResolvedShards);
    for (TraceSpan Chunk = Reader.next(); !Chunk.empty();
         Chunk = Reader.next())
      Builder.addChunk(Chunk);
    if (!Reader.ok())
      return Fail(Reader.error());
    TraceIndex Index = Builder.take();
    IndexSeconds += secondsSince(IndexStart);

    AnalysisResult Replayed;
    Replayed.Notes = std::move(Result.Notes);
    Replayed.TraceEvents = View.actions().size();
    replaySpan(Workload, Request, View.actions(), ResolvedShards, &Index,
               Replayed);
    Replayed.LoadSeconds = LoadSeconds;
    Replayed.IndexSeconds = IndexSeconds;
    return Replayed;
  }

  AnalysisResult Replayed = analyzeStream(Reader);
  // Load is interleaved with analysis on the sequential streaming path.
  Replayed.ReplaySeconds = secondsSince(Start);
  Replayed.Notes = Result.Notes + Replayed.Notes;
  Replayed.IndexSeconds = IndexSeconds;
  return Replayed;
}
