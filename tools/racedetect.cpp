//===- tools/racedetect.cpp - Command-line race detection -----------------==//
//
// A small driver around the library for downstream use without writing
// C++: generate workload traces to files, analyse trace files with any of
// the detectors, or submit trace files to a running racedetectd fleet
// daemon. Several trace files can be analysed in one run; with --jobs=N
// the files are processed concurrently (output stays in argument order),
// and --shards=K splits each replay across K detector replicas with
// bit-identical results. --shards=auto picks K per trace from its access
// count and the hardware; the default is 1 (sequential replay) for any
// number of files.
//
// All analysis goes through runtime/AnalysisSession.h -- this tool is a
// thin printer over AnalysisResult. Traces come in two formats (see
// sim/TraceIO.h), auto-detected on read: text (v1) and binary (v2).
// Binary traces analyse through an mmap-backed zero-copy TraceView where
// the platform allows; --stream replays any trace from a bounded window
// (--stream-window actions) so peak memory is O(window + detector
// metadata) regardless of trace size. Results are bit-identical across
// formats and read paths.
//
//   racedetect --generate=eclipse --scale=0.2 --seed=7 --out=run.trace \
//              --trace-format=binary
//   racedetect run.trace --detector=pacer --rate=0.03 --stats
//   racedetect a.trace b.trace c.trace --jobs=3
//   racedetect huge.trace --shards=4
//   racedetect huge.trace --stream --stream-window=65536
//   racedetect --submit --socket=/run/racedetectd.sock a.trace b.trace
//   racedetect --daemon-stats --socket=/run/racedetectd.sock
//
//===----------------------------------------------------------------------===//

#include "core/ClockKernels.h"
#include "runtime/AnalysisSession.h"
#include "runtime/IngestServer.h"
#include "runtime/TraceIndex.h"
#include "sim/TraceGenerator.h"
#include "sim/TraceIO.h"
#include "sim/Workloads.h"
#include "support/CommandLine.h"
#include "support/Socket.h"
#include "support/Table.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace pacer;

namespace {

OptionRegistry buildRegistry() {
  OptionRegistry R("racedetect [options] TRACE...\n"
                   "       racedetect --generate=WORKLOAD --out=FILE "
                   "[--scale=F] [--seed=N]\n"
                   "       racedetect --submit [--socket=PATH|--tcp-port=N] "
                   "TRACE...");
  R.addString("generate", "",
              "generate a trace of eclipse|hsqldb|xalan|pseudojbb|forkjoin "
              "instead of analysing")
      .addString("out", "", "output file for --generate")
      .addDouble("scale", 1.0, "workload scale for --generate")
      .addString("trace-format", "text",
                 "--generate output format: text|binary")
      .addString("detector", "pacer", "pacer|fasttrack|generic|literace")
      .addDouble("rate", 1.0, "PACER sampling rate in [0,1]")
      .addInt("period-bytes", 256 * 1024, "simulated nursery size in bytes")
      .addInt("burst", 100, "LiteRace burst length")
      .addInt("seed", 1, "seed for trace generation / sampling decisions")
      .addFlag("accordion",
               "recycle thread-clock slots once dead threads are "
               "dominated (accordion clocks); reports are identical, "
               "metadata stays O(live threads)")
      .addFlag("no-sync-batching",
               "deliver every acquire/release individually instead of "
               "coalescing same-thread sync runs into one syncBatch; "
               "results are identical either way")
      .addInt("max-reports", 10, "race reports to print per trace")
      .addFlag("stats", "print operation statistics per trace")
      .addFlag("times", "print load/index/analysis time per trace")
      .addFlag("stream",
               "replay from a bounded window instead of loading the trace")
      .addInt("stream-window",
              static_cast<int64_t>(StreamingTraceReader::DefaultWindowActions),
              "streaming window size in actions")
      .addInt("jobs", 1, "analyse this many trace files concurrently")
      .addString("shards", "1",
                 "variable shards per trace replay: a count or 'auto'")
      .addFlag("cpu-info", "print the resolved kernel ISA, then exit")
      .addFlag("submit",
               "send the trace files to a racedetectd daemon instead of "
               "analysing locally")
      .addFlag("daemon-stats",
               "query a racedetectd daemon's ingest counters (JSON)")
      .addString("socket", "", "racedetectd Unix-domain socket path")
      .addInt("tcp-port", -1, "racedetectd loopback TCP port")
      .addString("submit-id", "",
                 "idempotency id for --submit (default: the file's "
                 "basename; retries of a committed id answer 'duplicate')");
  return R;
}

DetectorSetup setupFromOptions(const OptionRegistry &R, bool &Ok) {
  Ok = true;
  std::string Name = R.getString("detector");
  if (Name == "pacer") {
    DetectorSetup Setup = pacerSetup(R.getDouble("rate"));
    Setup.Sampling.PeriodBytes =
        static_cast<uint64_t>(R.getInt("period-bytes"));
    return Setup;
  }
  if (Name == "fasttrack")
    return fastTrackSetup();
  if (Name == "generic")
    return genericSetup();
  if (Name == "literace")
    return literaceSetup(static_cast<uint32_t>(R.getInt("burst")));
  Ok = false;
  return {};
}

int generateMode(const OptionRegistry &R) {
  std::string Out = R.getString("out");
  if (Out.empty()) {
    std::fprintf(stderr, "error: --generate requires --out=FILE\n");
    return 2;
  }
  TraceFormat Format;
  if (!parseTraceFormat(R.getString("trace-format"), Format)) {
    std::fprintf(stderr, "error: unknown --trace-format=%s\n",
                 R.getString("trace-format").c_str());
    return 2;
  }
  WorkloadSpec Spec = paperWorkloadByName(R.getString("generate"));
  Spec = scaleWorkload(Spec, R.getDouble("scale"));
  CompiledWorkload Workload(Spec);
  Trace T =
      generateTrace(Workload, static_cast<uint64_t>(R.getInt("seed")));
  if (!writeTraceFile(Out, T, Format)) {
    std::fprintf(stderr, "error: cannot write %s\n", Out.c_str());
    return 1;
  }
  TraceProfile Profile = profileTrace(T);
  std::printf("wrote %s (%s): %llu actions, %u threads, %.1f%% sync, "
              "%u planted races\n",
              Out.c_str(), traceFormatName(Format),
              static_cast<unsigned long long>(Profile.Total),
              Workload.totalThreads(), 100.0 * Profile.syncFraction(),
              Workload.numRaces());
  return 0;
}

std::string statsTable(const DetectorStats &Stats) {
  TextTable Table;
  Table.setHeader({"operation", "sampling", "non-sampling"});
  Table.addRow({"slow joins", std::to_string(Stats.SlowJoinsSampling),
                std::to_string(Stats.SlowJoinsNonSampling)});
  Table.addRow({"fast joins", std::to_string(Stats.FastJoinsSampling),
                std::to_string(Stats.FastJoinsNonSampling)});
  Table.addRow({"deep copies", std::to_string(Stats.DeepCopiesSampling),
                std::to_string(Stats.DeepCopiesNonSampling)});
  Table.addRow({"shallow copies",
                std::to_string(Stats.ShallowCopiesSampling),
                std::to_string(Stats.ShallowCopiesNonSampling)});
  Table.addRow({"slow-path reads", std::to_string(Stats.ReadSlowSampling),
                std::to_string(Stats.ReadSlowNonSampling)});
  Table.addRow({"fast-path reads", "-",
                std::to_string(Stats.ReadFastNonSampling)});
  Table.addRow({"slow-path writes", std::to_string(Stats.WriteSlowSampling),
                std::to_string(Stats.WriteSlowNonSampling)});
  Table.addRow({"fast-path writes", "-",
                std::to_string(Stats.WriteFastNonSampling)});
  return "\n" + Table.render();
}

/// Everything analyseFile prints for one trace file.
struct FileOutcome {
  std::string Text;
  bool ParseFailed = false;
  uint64_t DistinctRaces = 0;
};

FileOutcome analyseFile(const std::string &Path,
                        const AnalysisRequest &Request, size_t MaxReports,
                        bool WantStats, bool WantTimes) {
  FileOutcome Out;
  AnalysisSession Session(flatSiteWorkload(), Request);
  AnalysisResult Result = Session.analyzeFile(Path);
  if (!Result.Ok) {
    Out.ParseFailed = true;
    Out.Text = "error: " + Result.Error + "\n";
    return Out;
  }

  char Buf[256];
  Out.Text += Result.Notes;
  std::snprintf(Buf, sizeof(Buf), "%s: analysed %llu actions", Path.c_str(),
                static_cast<unsigned long long>(Result.TraceEvents));
  Out.Text += Buf;
  if (Result.ResolvedShards > 1) {
    std::snprintf(Buf, sizeof(Buf), " across %u shards",
                  Result.ResolvedShards);
    Out.Text += Buf;
  }
  if (Request.Stream && Result.ResolvedShards <= 1) {
    std::snprintf(Buf, sizeof(Buf), " (streamed, window %zu actions)",
                  Request.StreamWindow);
    Out.Text += Buf;
  }
  if (Request.Setup.Kind == DetectorKind::Pacer) {
    std::snprintf(Buf, sizeof(Buf), " (specified rate %.3g, effective %.3g)",
                  Request.Setup.SamplingRate, Result.EffectiveAccessRate);
    Out.Text += Buf;
  }
  std::snprintf(Buf, sizeof(Buf),
                "\n%zu distinct race(s), %llu dynamic report(s)\n",
                Result.Races.size(),
                static_cast<unsigned long long>(Result.DynamicRaces));
  Out.Text += Buf;
  if (WantTimes) {
    // I/O cost split out from detection cost, so format/read-path wins
    // are visible per file. Streamed sequential replay overlaps load
    // with analysis, so its load column is folded into analysis.
    std::snprintf(Buf, sizeof(Buf),
                  "  load %.3f ms, index %.3f ms, analysis %.3f ms "
                  "(kernel isa %s)\n",
                  Result.LoadSeconds * 1e3, Result.IndexSeconds * 1e3,
                  Result.ReplaySeconds * 1e3, Result.Isa);
    Out.Text += Buf;
    std::snprintf(Buf, sizeof(Buf),
                  "  peak thread slots %zu, live metadata %.1f KB%s\n",
                  Result.PeakSlotCount,
                  static_cast<double>(Result.FinalMetadataBytes) / 1024.0,
                  Request.Setup.AccordionClocks ? " (accordion)" : "");
    Out.Text += Buf;
    // Phase attribution for the fig7-style overhead breakdown: hot accesses
    // paid full analysis, cold ones took the non-sampling fast path.
    const uint64_t Hot = Result.Stats.hotAccesses();
    const uint64_t PhaseTotal = Hot + Result.Stats.coldAccesses();
    std::snprintf(Buf, sizeof(Buf),
                  "  hot accesses %llu (%.1f%%), cold accesses %llu\n",
                  static_cast<unsigned long long>(Hot),
                  PhaseTotal != 0 ? 100.0 * static_cast<double>(Hot) /
                                        static_cast<double>(PhaseTotal)
                                  : 0.0,
                  static_cast<unsigned long long>(PhaseTotal - Hot));
    Out.Text += Buf;
  }

  // Sharded replay merges sample reports replica by replica, so their
  // discovery order depends on the shard count; print them sorted so the
  // output is identical for every --shards value and read path.
  std::vector<std::string> Reports;
  Reports.reserve(Result.SampleReports.size());
  for (const RaceReport &Report : Result.SampleReports)
    Reports.push_back(Report.str());
  std::sort(Reports.begin(), Reports.end());
  size_t Shown = 0;
  for (const std::string &Report : Reports) {
    if (Shown == MaxReports)
      break;
    Out.Text += "  " + Report + "\n";
    ++Shown;
  }
  if (Result.DynamicRaces > Shown) {
    std::snprintf(Buf, sizeof(Buf), "  ... (%llu more dynamic reports)\n",
                  static_cast<unsigned long long>(Result.DynamicRaces -
                                                  Shown));
    Out.Text += Buf;
  }

  if (WantStats)
    Out.Text += statsTable(Result.Stats);
  Out.DistinctRaces = Result.Races.size();
  return Out;
}

/// Connects to the daemon named by --socket / --tcp-port.
Socket connectDaemon(const OptionRegistry &R, std::string &Error) {
  const std::string SocketPath = R.getString("socket");
  const int TcpPort = static_cast<int>(R.getInt("tcp-port"));
  if (!SocketPath.empty())
    return Socket::connectUnix(SocketPath, Error);
  if (TcpPort >= 0)
    return Socket::connectTcp(TcpPort, Error);
  Error = "need --socket=PATH or --tcp-port=N to reach racedetectd";
  return Socket();
}

int submitMode(const OptionRegistry &R) {
  const std::vector<std::string> &Files = R.positional();
  if (Files.empty()) {
    std::fprintf(stderr, "error: --submit requires trace files\n");
    return 2;
  }
  const std::string IdOverride = R.getString("submit-id");
  if (!IdOverride.empty() && Files.size() > 1) {
    std::fprintf(stderr,
                 "error: --submit-id only makes sense for one file\n");
    return 2;
  }
  std::string Error;
  Socket S = connectDaemon(R, Error);
  if (!S.valid()) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  int Failures = 0;
  for (const std::string &Path : Files) {
    // The basename is a natural idempotency id: resubmitting the same
    // file (e.g. after a crash mid-ack) answers "duplicate" instead of
    // double counting it in the fleet estimates.
    std::string Id = IdOverride;
    if (Id.empty()) {
      const size_t Slash = Path.find_last_of('/');
      Id = Slash == std::string::npos ? Path : Path.substr(Slash + 1);
      if (Id.size() > ingest::MaxClientIdBytes)
        Id.resize(ingest::MaxClientIdBytes);
    }
    ingest::SubmitResult Result = ingest::submitFile(S, Path, Id);
    if (!Result.Ok) {
      std::fprintf(stderr, "%s: error: %s\n", Path.c_str(),
                   Result.Message.c_str());
      ++Failures;
      continue;
    }
    std::printf("%s: %s%s%s\n", Path.c_str(),
                ingest::statusName(Result.Code),
                Result.Message.empty() ? "" : " - ",
                Result.Message.c_str());
    if (Result.Code != ingest::Status::Committed &&
        Result.Code != ingest::Status::Duplicate)
      ++Failures;
  }
  if (R.getBool("daemon-stats")) {
    std::string Json;
    if (ingest::requestStats(S, Json, Error))
      std::printf("%s\n", Json.c_str());
    else
      std::fprintf(stderr, "error: stats request failed: %s\n",
                   Error.c_str());
  }
  return Failures == 0 ? 0 : 1;
}

int daemonStatsMode(const OptionRegistry &R) {
  std::string Error;
  Socket S = connectDaemon(R, Error);
  if (!S.valid()) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::string Json;
  if (!ingest::requestStats(S, Json, Error)) {
    std::fprintf(stderr, "error: stats request failed: %s\n", Error.c_str());
    return 1;
  }
  std::printf("%s\n", Json.c_str());
  return 0;
}

/// The hardware diagnostic: what the dispatcher resolved and what it could
/// have picked.
int cpuInfoMode() {
  std::string Compiled;
  for (kernels::Isa Kind : kernels::AllIsas) {
    if (!kernels::opsFor(Kind))
      continue;
    if (!Compiled.empty())
      Compiled += "+";
    Compiled += kernels::isaName(Kind);
  }
  std::printf("kernel isa: %s (detected %s, compiled %s)\n",
              kernels::activeIsa(),
              kernels::isaName(kernels::detectedIsa()), Compiled.c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  OptionRegistry R = buildRegistry();
  if (!R.parse(Argc, Argv))
    return R.helpRequested() ? 0 : 2;
  if (!R.intInRange("tcp-port", -1, 65535) ||
      !R.intInRange("stream-window", 1,
                    static_cast<int64_t>(
                        StreamingTraceReader::MaxWindowActions)))
    return 2;

  if (R.getBool("cpu-info"))
    return cpuInfoMode();
  if (R.has("generate"))
    return generateMode(R);
  if (R.getBool("submit"))
    return submitMode(R);
  if (R.getBool("daemon-stats"))
    return daemonStatsMode(R);

  const std::vector<std::string> &Files = R.positional();
  if (Files.empty()) {
    R.printHelp(stderr);
    return 2;
  }

  bool SetupOk = false;
  DetectorSetup Setup = setupFromOptions(R, SetupOk);
  Setup.AccordionClocks = R.getBool("accordion");
  Setup.SyncBatching = !R.getBool("no-sync-batching");
  if (!SetupOk) {
    std::fprintf(stderr, "error: unknown --detector=%s\n",
                 R.getString("detector").c_str());
    return 2;
  }

  auto MaxReports = static_cast<size_t>(R.getInt("max-reports"));
  bool WantStats = R.getBool("stats");
  bool WantTimes = R.getBool("times");
  int64_t JobsFlag = R.getInt("jobs");
  unsigned Jobs = JobsFlag < 1 ? 1u : static_cast<unsigned>(JobsFlag);
  // Auto-sharding is opt-in: measured batches ran slower auto-sharded
  // than at K = 1.
  Setup.Shards = parseShardCount(R.getString("shards"));

  AnalysisRequest Request;
  Request.Setup = Setup;
  Request.Seed = static_cast<uint64_t>(R.getInt("seed"));
  Request.Stream = R.getBool("stream");
  Request.StreamWindow = static_cast<size_t>(R.getInt("stream-window"));

  // Analyse the files concurrently, but print outcomes in argument order
  // so batch output is stable for any --jobs value.
  std::vector<FileOutcome> Outcomes =
      parallelMap(Jobs, Files.size(), [&](size_t I) {
        return analyseFile(Files[I], Request, MaxReports, WantStats,
                           WantTimes);
      });

  bool AnyParseFailed = false;
  uint64_t TotalDistinct = 0;
  for (const FileOutcome &Outcome : Outcomes) {
    std::fputs(Outcome.Text.c_str(),
               Outcome.ParseFailed ? stderr : stdout);
    AnyParseFailed |= Outcome.ParseFailed;
    TotalDistinct += Outcome.DistinctRaces;
  }
  if (AnyParseFailed)
    return 1;
  return TotalDistinct == 0 ? 0 : 3;
}
