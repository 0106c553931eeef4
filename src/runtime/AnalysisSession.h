//===- runtime/AnalysisSession.h - Unified replay facade -------*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One front door for every way this repository replays a trace through a
/// detector:
///
///   AnalysisRequest  -- detector config (DetectorSetup, which also
///                       carries the shard policy), trial seed, streaming
///                       window, and report collection, in one struct;
///   AnalysisSession  -- binds a request to the workload context (site ->
///                       method map, local-variable set) and exposes
///                       analyzeGenerated / analyzeTrace / analyzeStream /
///                       analyzeFile, which all produce
///   AnalysisResult   -- the one result type: per-distinct race counts,
///                       sample reports, detector stats, controller rates,
///                       timing split (load / index / analysis), resolved
///                       shard count, and an Ok/Error pair for untrusted
///                       inputs.
///
/// Every sequential analysis -- an in-memory or mapped span, a streamed
/// file, an explicit reader -- runs through one replay core that takes the
/// trace in chunks (a span is one chunk). analyzeFile owns the read-path
/// policy: binary traces analyse from an mmap view, Stream mode keeps peak
/// trace-resident memory at O(window) and auto-shard resolution runs as an
/// extra bounded pass, text traces parse or stream line by line. Results
/// are bit-identical across every path for a given (Setup, Seed).
///
/// This header also hosts DetectorKind / DetectorSetup and the factories
/// that turn a setup into a detector and its sampling controller.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_RUNTIME_ANALYSISSESSION_H
#define PACER_RUNTIME_ANALYSISSESSION_H

#include "detectors/Detector.h"
#include "detectors/FastTrackDetector.h"
#include "detectors/LiteRaceDetector.h"
#include "detectors/PacerDetector.h"
#include "runtime/RaceLog.h"
#include "runtime/SamplingController.h"
#include "sim/StreamingTraceReader.h"
#include "sim/WorkloadSpec.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace pacer {

class TraceIndex;

/// Which algorithm a trial runs.
enum class DetectorKind : uint8_t {
  Null,      ///< No analysis (timing baseline).
  Generic,   ///< O(n) vector clocks (Section 2.1).
  FastTrack, ///< Epoch-optimized (Section 2.2).
  Pacer,     ///< Sampling (Section 3); rate from SamplingRate.
  LiteRace,  ///< Code-sampling baseline (Section 5.3).
};

/// Returns "null", "generic", etc.
const char *detectorKindName(DetectorKind Kind);

/// Full configuration of a trial's detector.
struct DetectorSetup {
  DetectorKind Kind = DetectorKind::Pacer;
  /// PACER's specified sampling rate r (0..1); copied into Sampling.
  double SamplingRate = 1.0;
  /// Model the compiler pass's static escape analysis (Section 4): do not
  /// instrument accesses to provably thread-local variables at all. Off
  /// by default so detectors see every access; enabling is sound (locals
  /// never race) and removes their instrumentation cost.
  bool ElideLocalAccesses = false;
  /// Accordion thread-slot recycling (core/SlotRecycler.h) for whichever
  /// detector runs: OR'd into the per-detector config in makeDetector.
  /// Race reports are identical with it on or off; clocks and metadata
  /// stay O(live threads) instead of O(threads ever started).
  bool AccordionClocks = false;
  /// Coalesce same-thread acquire/release pair runs into
  /// Detector::syncBatch() calls in both replay engines (see
  /// Runtime::deliverSyncPairRun). Bit-identical on or off; the win
  /// compounds with Shards, since every replica replays the skeleton.
  bool SyncBatching = true;
  PacerConfig Pacer;
  FastTrackConfig FastTrack;
  LiteRaceConfig LiteRace;
  SamplingConfig Sampling;
  /// Intra-trial sharded replay: partition data accesses across this many
  /// detector replicas by VarId modulo (see runtime/ShardedReplay.h). 1 is
  /// plain sequential replay; 0 picks a count automatically from the
  /// trace's access count and the hardware (runtime/TraceIndex.h's
  /// autoShardCount). Results are bit-identical for every value.
  unsigned Shards = 1;
  /// Worker concurrency for sharded replay; 0 = one job per shard.
  unsigned ShardJobs = 0;
  /// Drive sharded replicas through a TraceIndex (the O(sync + owned
  /// accesses) engine) instead of full-trace re-scans; results are
  /// identical either way.
  bool ShardUseIndex = true;
};

/// Convenience constructors for common configurations.
DetectorSetup pacerSetup(double Rate);
DetectorSetup fastTrackSetup();
DetectorSetup genericSetup();
DetectorSetup literaceSetup(uint32_t BurstLength = 1000);
DetectorSetup nullSetup();

/// Instantiates the configured detector. \p Seed feeds stochastic
/// detectors (LiteRace's randomized counter resets).
std::unique_ptr<Detector> makeDetector(const DetectorSetup &Setup,
                                       RaceSink &Sink,
                                       const CompiledWorkload &Workload,
                                       uint64_t Seed);

/// The sampling controller a PACER analysis with trial seed \p Seed runs
/// under: Setup.Sampling at Setup.SamplingRate, seeded from \p Seed. Null
/// for every other detector kind, none of which samples by period.
std::unique_ptr<SamplingController>
makeSamplingController(const DetectorSetup &Setup, uint64_t Seed);

/// One replay request: everything that parameterizes an analysis except
/// the input bytes themselves (which pick the analyze* entry point).
struct AnalysisRequest {
  /// Detector configuration, including the shard policy (Setup.Shards,
  /// Setup.ShardJobs, Setup.ShardUseIndex).
  DetectorSetup Setup;
  /// Trial seed: trace generation (analyzeGenerated), sampling-controller
  /// and LiteRace seeding everywhere.
  uint64_t Seed = 1;
  /// analyzeFile only: replay from a bounded window (O(window) peak
  /// trace-resident memory) instead of loading / mapping the whole trace.
  /// Sharded replay of binary traces still engages through an mmap view
  /// (the kernel pages records in and out; no trace-sized allocation);
  /// text traces and mmap-less hosts degrade to sequential streaming.
  bool Stream = false;
  /// Streaming window in actions (analyzeFile Stream mode and
  /// analyzeStream readers opened by analyzeFile).
  size_t StreamWindow = StreamingTraceReader::DefaultWindowActions;
  /// Collect up to RaceLog's cap of full race reports in
  /// AnalysisResult::SampleReports.
  bool CollectReports = true;
};

/// What one analysis measured, whichever analyze* entry point ran it.
/// Fields a path does not produce are value-initialized (e.g. LoadSeconds
/// on analyzeStream).
struct AnalysisResult {
  /// False when the input could not be read / parsed; Error says why, and
  /// the detection fields (races, stats, rates, metadata) stay empty.
  bool Ok = true;
  std::string Error;

  std::unordered_map<RaceKey, uint64_t> Races; ///< Distinct -> dynamic.
  uint64_t DynamicRaces = 0;
  DetectorStats Stats;
  double EffectiveAccessRate = 0.0; ///< PACER only.
  double EffectiveSyncRate = 0.0;   ///< PACER only.
  double LiteRaceEffectiveRate = 0.0;
  uint64_t Boundaries = 0;
  uint64_t TraceEvents = 0;
  double ReplaySeconds = 0.0;
  size_t FinalMetadataBytes = 0;
  /// High-water thread-slot count (replica 0 under sharded replay).
  /// Without recycling this is the number of threads ever started; with
  /// it, the live-thread high-water mark between compactions.
  size_t PeakSlotCount = 0;
  /// Up to 32 full reports (RaceLog's cap). Under sharded replay the set
  /// matches sequential replay but the cross-shard order does not; sort
  /// before printing for order-independent output.
  std::vector<RaceReport> SampleReports;
  /// The shard count the replay actually ran with (auto requests
  /// resolved).
  unsigned ResolvedShards = 1;
  /// The clock-kernel ISA the dispatcher resolved for this analysis
  /// (kernels::activeIsa() at replay time): "avx512", "avx2", "sse2",
  /// "neon", or "scalar". Surfaced by racedetect --times and the bench JSON.
  const char *Isa = "scalar";

  /// analyzeFile timing split: trace load, index build + auto-shard
  /// counting, and replay. Load is the text parse, or for a binary trace
  /// the view map; when the trace is sharded or elide-filtered it also
  /// holds the whole-span record check. A sequential binary replay
  /// checks records as it segments them, so that check counts in
  /// ReplaySeconds (racedetect --times prints it as "analysis").
  double LoadSeconds = 0.0;
  double IndexSeconds = 0.0;
  /// Human-readable decisions taken on the way (auto-shard choice,
  /// streaming fallbacks); one '\n'-terminated line each.
  std::string Notes;

  bool sawRace(RaceKey Key) const { return Races.count(Key) != 0; }
  uint64_t dynamicCount(RaceKey Key) const {
    auto It = Races.find(Key);
    return It == Races.end() ? 0 : It->second;
  }
};

/// Facade binding one AnalysisRequest to a workload context. The workload
/// supplies LiteRace's site-to-method map and the ElideLocalAccesses
/// variable classification; callers analysing bare trace files (no code
/// structure) can use flatSiteWorkload(). The session is stateless across
/// calls -- every analyze* runs an independent replay -- so one session
/// may analyse any number of traces, and const sessions are safe to share
/// across threads.
class AnalysisSession {
public:
  /// \p Workload must outlive the session.
  AnalysisSession(const CompiledWorkload &Workload, AnalysisRequest Request)
      : Workload(Workload), Request(std::move(Request)) {}

  const AnalysisRequest &request() const { return Request; }
  const CompiledWorkload &workload() const { return Workload; }

  /// Generates the workload's trace for Request.Seed and analyses it.
  AnalysisResult analyzeGenerated() const;

  /// Analyses an in-memory or memory-mapped trace span. \p Index, when
  /// non-null, must describe \p T; it is reused when its shard count
  /// matches the resolved Setup.Shards and ignored otherwise (and always
  /// ignored under ElideLocalAccesses, which replays a filtered trace).
  /// Sharded and filtered replays require \p T's records to pass
  /// validateActionRecord. A sequential unfiltered replay checks them as
  /// it segments: at the first invalid record it stops with Ok = false
  /// and Error "REASON in record N".
  AnalysisResult analyzeTrace(TraceSpan T,
                              const TraceIndex *Index = nullptr) const;

  /// Analyses a trace from \p Reader's bounded window: sequential,
  /// O(window) trace-resident memory, Setup.Shards ignored. Reader errors
  /// surface as Ok = false.
  AnalysisResult analyzeStream(StreamingTraceReader &Reader) const;

  /// Analyses a trace file, auto-detecting text vs binary. The default
  /// path loads text / maps binary; Request.Stream bounds trace-resident
  /// memory at O(window) (see AnalysisRequest::Stream). Malformed or
  /// truncated files -- including every corruption the binary-v2
  /// validators reject -- surface as Ok = false with a diagnostic, never
  /// as a crash, so callers may feed untrusted bytes.
  AnalysisResult analyzeFile(const std::string &Path) const;

private:
  AnalysisResult analyzeFileInMemory(const std::string &Path) const;
  AnalysisResult analyzeFileStreaming(const std::string &Path) const;

  const CompiledWorkload &Workload;
  AnalysisRequest Request;
};

/// A workload context for traces with no code structure (trace files from
/// disk, daemon submissions): no local variables, no planted races, and a
/// flat site-to-method map (every site its own method) for LiteRace.
/// Shared instance; thread-safe to use concurrently.
const CompiledWorkload &flatSiteWorkload();

} // namespace pacer

#endif // PACER_RUNTIME_ANALYSISSESSION_H
