//===- tests/integration/DaemonTest.cpp -----------------------------------==//
//
// End-to-end coverage of the fleet ingest daemon. The in-process tests
// drive IngestServer directly: concurrent socket submissions with
// backpressure, drop-directory ingestion, duplicate/malformed/oversize
// handling, snapshot-based restart, and -- the property everything hangs
// on -- fleet estimates bit-identical to a single-process pass over the
// same traces. The subprocess tests exercise the real racedetectd binary
// (path injected as PACER_RACEDETECTD by the build) through its full
// crash story: SIGKILL mid-ingest, restart, recovery, exactly-once
// resubmission, and a final snapshot equal to the in-process reference.
// They also check that out-of-range numeric flags exit 2 before binding.
//
//===----------------------------------------------------------------------===//

#include "runtime/IngestServer.h"

#include "sim/TraceGenerator.h"
#include "sim/TraceIO.h"
#include "sim/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

using namespace pacer;
namespace fs = std::filesystem;

namespace {

/// Fresh per-test scratch directory.
std::string scratchDir(const char *Name) {
  std::string Dir = ::testing::TempDir() + "/pacer_daemon_" + Name;
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
  fs::create_directories(Dir, Ec);
  return Dir;
}

const CompiledWorkload &testWorkload() {
  static CompiledWorkload Workload(tinyTestWorkload());
  return Workload;
}

/// Writes the workload's trace for \p Seed as a binary v2 file.
std::string writeTraceFor(const std::string &Dir, uint64_t Seed) {
  std::string Path = Dir + "/run-" + std::to_string(Seed) + ".btrace";
  Trace T = generateTrace(testWorkload(), Seed);
  EXPECT_TRUE(writeTraceFileBinary(Path, T));
  return Path;
}

/// The daemon configuration the tests share: PACER at a half rate (so the
/// sampling controller and the fleet-rate inversion are both live), a
/// small queue (so 64 concurrent submissions actually block on
/// backpressure), and a snapshot after every commit.
IngestServer::Config baseConfig(const std::string &Dir) {
  IngestServer::Config Config;
  Config.SpoolDir = Dir + "/spool";
  Config.SnapshotPath = Dir + "/fleet.snap";
  Config.Setup = pacerSetup(0.5);
  Config.Setup.Sampling.PeriodBytes = 16 * 1024;
  Config.Seed = 5;
  Config.QueueCapacity = 8;
  Config.AnalysisWorkers = 4;
  return Config;
}

/// What the daemon must equal: a sequential in-process pass folding every
/// trace into one aggregator at the fleet rate, using the exact request
/// the daemon's workers build.
FleetAggregator referenceOver(const IngestServer::Config &Config,
                              const std::vector<std::string> &TracePaths) {
  FleetAggregator Agg(Config.Setup.SamplingRate);
  for (const std::string &Path : TracePaths) {
    AnalysisRequest Request;
    Request.Setup = Config.Setup;
    Request.Seed = Config.Seed;
    Request.Stream = true;
    Request.StreamWindow = Config.StreamWindow;
    Request.CollectReports = true;
    AnalysisResult Result =
        AnalysisSession(flatSiteWorkload(), Request).analyzeFile(Path);
    EXPECT_TRUE(Result.Ok) << Path << ": " << Result.Error;
    Agg.addInstance(Result.Races, Result.SampleReports,
                    /*EffectiveRate=*/-1.0);
  }
  return Agg;
}

ingest::SubmitResult submitTcp(int Port, const std::string &TracePath,
                               const std::string &Id) {
  std::string Error;
  Socket S = Socket::connectTcp(Port, Error);
  if (!S.valid()) {
    ingest::SubmitResult R;
    R.Message = Error;
    return R;
  }
  return ingest::submitFile(S, TracePath, Id);
}

TEST(DaemonTest, SixtyFourConcurrentSubmissionsMatchInProcessRun) {
  std::string Dir = scratchDir("concurrent");
  IngestServer::Config Config = baseConfig(Dir);
  Config.TcpPort = 0;

  IngestServer Server(Config);
  std::string Error;
  ASSERT_TRUE(Server.start(Error)) << Error;
  const int Port = Server.tcpPort();
  ASSERT_GT(Port, 0);

  // Four distinct traces, each submitted 16 times under distinct ids:
  // 64 concurrent clients against a queue of 8 -- most of them spend
  // time blocked on backpressure, none may be lost.
  std::vector<std::string> TracePaths;
  for (uint64_t Seed = 1; Seed <= 4; ++Seed)
    TracePaths.push_back(writeTraceFor(Dir, Seed));

  std::atomic<int> CommitFailures{0};
  std::vector<std::thread> Clients;
  for (int Client = 0; Client < 64; ++Client) {
    Clients.emplace_back([&, Client] {
      ingest::SubmitResult R =
          submitTcp(Port, TracePaths[Client % 4],
                    "client-" + std::to_string(Client));
      if (!R.Ok || R.Code != ingest::Status::Committed)
        ++CommitFailures;
    });
  }
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(CommitFailures.load(), 0);

  IngestServer::Counters Counters = Server.counters();
  EXPECT_EQ(Counters.Received, 64u);
  EXPECT_EQ(Counters.Committed, 64u);
  EXPECT_EQ(Counters.Duplicates, 0u);

  // Bit-identical to the single-process pass, regardless of the order
  // the 64 commits landed in.
  std::vector<std::string> AllRuns;
  for (int Client = 0; Client < 64; ++Client)
    AllRuns.push_back(TracePaths[Client % 4]);
  EXPECT_EQ(Server.aggregatorCopy().serialize(),
            referenceOver(Config, AllRuns).serialize());
  Server.stop();
}

TEST(DaemonTest, DuplicateIdsCommitExactlyOnce) {
  std::string Dir = scratchDir("dup");
  IngestServer::Config Config = baseConfig(Dir);
  Config.UnixSocketPath = Dir + "/d.sock";

  IngestServer Server(Config);
  std::string Error;
  ASSERT_TRUE(Server.start(Error)) << Error;
  std::string TracePath = writeTraceFor(Dir, 7);

  for (int Attempt = 0; Attempt < 3; ++Attempt) {
    Socket S = Socket::connectUnix(Config.UnixSocketPath, Error);
    ASSERT_TRUE(S.valid()) << Error;
    ingest::SubmitResult R = ingest::submitFile(S, TracePath, "same-id");
    ASSERT_TRUE(R.Ok) << R.Message;
    EXPECT_EQ(R.Code, Attempt == 0 ? ingest::Status::Committed
                                   : ingest::Status::Duplicate);
  }
  EXPECT_EQ(Server.counters().Committed, 1u);
  EXPECT_EQ(Server.counters().Duplicates, 2u);
  EXPECT_EQ(Server.aggregatorCopy().instanceCount(), 1u);
  Server.stop();
}

TEST(DaemonTest, RejectsMalformedAndOversizeAndKeepsServing) {
  std::string Dir = scratchDir("reject");
  IngestServer::Config Config = baseConfig(Dir);
  Config.TcpPort = 0;
  // Above the ~74 KiB test traces, below the oversize probe.
  Config.MaxSubmissionBytes = 128 * 1024;

  IngestServer Server(Config);
  std::string Error;
  ASSERT_TRUE(Server.start(Error)) << Error;
  const int Port = Server.tcpPort();

  // Garbage bytes: spooled, analyzed, rejected -- connection stays sane.
  std::string Garbage = Dir + "/garbage.trace";
  std::FILE *Out = std::fopen(Garbage.c_str(), "wb");
  ASSERT_NE(Out, nullptr);
  std::fputs("this is not a trace\n", Out);
  std::fclose(Out);
  ingest::SubmitResult R = submitTcp(Port, Garbage, "bad-1");
  ASSERT_TRUE(R.Ok) << R.Message;
  EXPECT_EQ(R.Code, ingest::Status::Malformed);

  // A corrupt *binary* submission (truncated mid-record).
  std::string GoodTrace = writeTraceFor(Dir, 9);
  std::error_code Ec;
  const uint64_t GoodSize = fs::file_size(GoodTrace, Ec);
  ASSERT_FALSE(Ec);
  std::string Torn = Dir + "/torn.btrace";
  fs::copy_file(GoodTrace, Torn, Ec);
  ASSERT_FALSE(Ec);
  fs::resize_file(Torn, GoodSize - 5, Ec);
  ASSERT_FALSE(Ec);
  R = submitTcp(Port, Torn, "bad-2");
  ASSERT_TRUE(R.Ok) << R.Message;
  EXPECT_EQ(R.Code, ingest::Status::Malformed);

  // Oversize: rejected up front, before any analysis.
  std::string Big = Dir + "/big.trace";
  Out = std::fopen(Big.c_str(), "wb");
  ASSERT_NE(Out, nullptr);
  std::vector<char> Filler(256 * 1024, 'x');
  std::fwrite(Filler.data(), 1, Filler.size(), Out);
  std::fclose(Out);
  R = submitTcp(Port, Big, "big-1");
  ASSERT_TRUE(R.Ok) << R.Message;
  EXPECT_EQ(R.Code, ingest::Status::TooLarge);

  // The daemon is still healthy and still commits.
  R = submitTcp(Port, GoodTrace, "good-1");
  ASSERT_TRUE(R.Ok) << R.Message;
  EXPECT_EQ(R.Code, ingest::Status::Committed);

  IngestServer::Counters Counters = Server.counters();
  EXPECT_EQ(Counters.MalformedRejected, 2u);
  EXPECT_EQ(Counters.OversizeRejected, 1u);
  EXPECT_EQ(Counters.Committed, 1u);
  Server.stop();
}

TEST(DaemonTest, DropDirectoryIngestsCompletedFiles) {
  std::string Dir = scratchDir("dropdir");
  IngestServer::Config Config = baseConfig(Dir);
  Config.DropDir = Dir + "/drop";
  Config.DropPollMs = 10;

  IngestServer Server(Config);
  std::string Error;
  ASSERT_TRUE(Server.start(Error)) << Error;

  // A well-behaved producer writes under a skipped name, then renames.
  std::vector<std::string> TracePaths;
  for (uint64_t Seed = 21; Seed <= 23; ++Seed) {
    std::string Staged = writeTraceFor(Dir, Seed);
    std::string Final =
        Config.DropDir + "/" + fs::path(Staged).filename().string();
    std::error_code Ec;
    fs::copy_file(Staged, Final + ".tmp", Ec);
    ASSERT_FALSE(Ec);
    fs::rename(Final + ".tmp", Final, Ec);
    ASSERT_FALSE(Ec);
    TracePaths.push_back(Staged);
  }

  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (Server.counters().Committed < 3 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(Server.counters().Committed, 3u);

  EXPECT_EQ(Server.aggregatorCopy().serialize(),
            referenceOver(Config, TracePaths).serialize());
  // Consumed files leave the drop directory.
  EXPECT_TRUE(fs::is_empty(Config.DropDir));
  Server.stop();
}

TEST(DaemonTest, RestartFromSnapshotPreservesStateAndIds) {
  std::string Dir = scratchDir("restart");
  IngestServer::Config Config = baseConfig(Dir);
  Config.TcpPort = 0;

  std::vector<std::string> TracePaths;
  std::vector<uint8_t> FirstState;
  {
    IngestServer Server(Config);
    std::string Error;
    ASSERT_TRUE(Server.start(Error)) << Error;
    for (uint64_t Seed = 31; Seed <= 33; ++Seed) {
      TracePaths.push_back(writeTraceFor(Dir, Seed));
      ingest::SubmitResult R =
          submitTcp(Server.tcpPort(), TracePaths.back(),
                    "run-" + std::to_string(Seed));
      ASSERT_TRUE(R.Ok) << R.Message;
      EXPECT_EQ(R.Code, ingest::Status::Committed);
    }
    FirstState = Server.aggregatorCopy().serialize();
    Server.stop();
  }

  // A second server over the same snapshot is the same fleet: state is
  // carried, and the committed ids still answer "duplicate".
  IngestServer Server(Config);
  std::string Error;
  ASSERT_TRUE(Server.start(Error)) << Error;
  EXPECT_EQ(Server.aggregatorCopy().serialize(), FirstState);
  EXPECT_EQ(Server.counters().Committed, 3u);
  for (uint64_t Seed = 31; Seed <= 33; ++Seed) {
    ingest::SubmitResult R =
        submitTcp(Server.tcpPort(), TracePaths[Seed - 31],
                  "run-" + std::to_string(Seed));
    ASSERT_TRUE(R.Ok) << R.Message;
    EXPECT_EQ(R.Code, ingest::Status::Duplicate);
  }
  EXPECT_EQ(Server.aggregatorCopy().serialize(), FirstState);

  // The snapshot alone reconstructs the fleet state too.
  FleetAggregator FromDisk;
  ASSERT_TRUE(
      IngestServer::loadSnapshotFile(Config.SnapshotPath, FromDisk, Error))
      << Error;
  EXPECT_EQ(FromDisk.serialize(), FirstState);
  Server.stop();
}

TEST(DaemonTest, StatsReportAllPipelineCounters) {
  std::string Dir = scratchDir("stats");
  IngestServer::Config Config = baseConfig(Dir);
  Config.TcpPort = 0;

  IngestServer Server(Config);
  std::string Error;
  ASSERT_TRUE(Server.start(Error)) << Error;
  ASSERT_TRUE(
      submitTcp(Server.tcpPort(), writeTraceFor(Dir, 41), "s-1").Ok);

  Socket S = Socket::connectTcp(Server.tcpPort(), Error);
  ASSERT_TRUE(S.valid()) << Error;
  std::string Json;
  ASSERT_TRUE(ingest::requestStats(S, Json, Error)) << Error;
  for (const char *Key :
       {"\"received\":1", "\"committed\":1", "\"duplicates\":0",
        "\"rejected_malformed\":0", "\"rejected_oversize\":0",
        "\"bytes_ingested\":", "\"dynamic_races\":", "\"queue_depth\":",
        "\"spool\":", "\"analyze\":", "\"commit\":"})
    EXPECT_NE(Json.find(Key), std::string::npos) << Key << " in " << Json;
  EXPECT_EQ(Json, Server.statsText());
  Server.stop();
}

#ifdef PACER_RACEDETECTD

/// Spawns racedetectd with stdout on a pipe; returns the pid and leaves
/// the read end in \p OutFd.
pid_t spawnDaemon(const std::vector<std::string> &Args, int &OutFd) {
  int Pipe[2];
  if (pipe(Pipe) != 0)
    return -1;
  pid_t Pid = fork();
  if (Pid < 0) {
    close(Pipe[0]);
    close(Pipe[1]);
    return -1;
  }
  if (Pid == 0) {
    dup2(Pipe[1], STDOUT_FILENO);
    close(Pipe[0]);
    close(Pipe[1]);
    std::vector<char *> Argv;
    Argv.push_back(const_cast<char *>(PACER_RACEDETECTD));
    for (const std::string &Arg : Args)
      Argv.push_back(const_cast<char *>(Arg.c_str()));
    Argv.push_back(nullptr);
    execv(PACER_RACEDETECTD, Argv.data());
    _exit(127);
  }
  close(Pipe[1]);
  OutFd = Pipe[0];
  return Pid;
}

/// Reads daemon stdout lines until the TCP-port announcement; -1 on EOF.
int readAnnouncedPort(int Fd) {
  std::FILE *In = fdopen(Fd, "r");
  if (!In)
    return -1;
  char Line[256];
  int Port = -1;
  while (fgets(Line, sizeof(Line), In)) {
    const char *Marker = std::strstr(Line, "listening on tcp port ");
    if (Marker) {
      Port = std::atoi(Marker + std::strlen("listening on tcp port "));
      break;
    }
  }
  // Leave the stream open (and unread): the daemon only writes again at
  // shutdown, which fits comfortably in the pipe buffer.
  return Port;
}

TEST(DaemonTest, KillNineMidIngestThenRestartLosesNoCommittedWork) {
  std::string Dir = scratchDir("kill9");
  const std::string Snapshot = Dir + "/fleet.snap";
  const std::string Spool = Dir + "/spool";
  // Flags mirrored into an in-process Config for the reference run.
  IngestServer::Config Config;
  Config.SnapshotPath = Snapshot;
  Config.SpoolDir = Spool;
  Config.Setup = pacerSetup(0.5);
  Config.Seed = 5;
  const std::vector<std::string> DaemonArgs = {
      "--tcp-port=0",      "--snapshot=" + Snapshot,
      "--spool-dir=" + Spool, "--detector=pacer",
      "--rate=0.5",        "--seed=5",
      // Snapshot only every 3rd commit: a crash leaves committed-but-
      // unsnapshotted work in the spool, forcing the recovery path.
      "--snapshot-every=3"};

  std::vector<std::string> TracePaths;
  for (uint64_t Seed = 51; Seed <= 59; ++Seed)
    TracePaths.push_back(writeTraceFor(Dir, Seed));
  auto IdFor = [](size_t I) { return "kill9-" + std::to_string(I); };

  int OutFd = -1;
  pid_t Pid = spawnDaemon(DaemonArgs, OutFd);
  ASSERT_GT(Pid, 0);
  int Port = readAnnouncedPort(OutFd);
  ASSERT_GT(Port, 0);

  // Six submissions acked-committed, then three still in flight when the
  // daemon is SIGKILLed. The acked six must survive; the in-flight three
  // may land in any state (that is the point).
  for (size_t I = 0; I < 6; ++I) {
    ingest::SubmitResult R = submitTcp(Port, TracePaths[I], IdFor(I));
    ASSERT_TRUE(R.Ok) << R.Message;
    ASSERT_EQ(R.Code, ingest::Status::Committed) << R.Message;
  }
  std::vector<std::thread> InFlight;
  for (size_t I = 6; I < 9; ++I)
    InFlight.emplace_back(
        [&, I] { submitTcp(Port, TracePaths[I], IdFor(I)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(kill(Pid, SIGKILL), 0);
  for (std::thread &T : InFlight)
    T.join();
  int WaitStatus = 0;
  ASSERT_EQ(waitpid(Pid, &WaitStatus, 0), Pid);
  close(OutFd);

  // Restart over the same snapshot and spool. Recovery re-ingests
  // whatever was spooled but not covered by a durable snapshot.
  Pid = spawnDaemon(DaemonArgs, OutFd);
  ASSERT_GT(Pid, 0);
  Port = readAnnouncedPort(OutFd);
  ASSERT_GT(Port, 0);

  // Resubmit everything under the original ids: each answers either
  // "duplicate" (it survived, directly or via recovery) or "committed"
  // (it never reached the spool). Exactly-once either way.
  for (size_t I = 0; I < 9; ++I) {
    ingest::SubmitResult R = submitTcp(Port, TracePaths[I], IdFor(I));
    ASSERT_TRUE(R.Ok) << R.Message;
    ASSERT_TRUE(R.Code == ingest::Status::Committed ||
                R.Code == ingest::Status::Duplicate)
        << ingest::statusName(R.Code) << ": " << R.Message;
    if (I < 6) {
      EXPECT_EQ(R.Code, ingest::Status::Duplicate)
          << "acked submission " << I << " was lost by the crash";
    }
  }

  ASSERT_EQ(kill(Pid, SIGTERM), 0);
  ASSERT_EQ(waitpid(Pid, &WaitStatus, 0), Pid);
  EXPECT_TRUE(WIFEXITED(WaitStatus) && WEXITSTATUS(WaitStatus) == 0);
  close(OutFd);

  // The final snapshot equals a single-process pass over all nine
  // traces -- nothing lost, nothing double-counted, bit for bit.
  FleetAggregator FromDisk;
  std::string Error;
  ASSERT_TRUE(IngestServer::loadSnapshotFile(Snapshot, FromDisk, Error))
      << Error;
  EXPECT_EQ(FromDisk.serialize(),
            referenceOver(Config, TracePaths).serialize());
}

/// Waits up to ~10 s for \p Pid to exit; SIGKILLs it after that, so a
/// daemon that wrongly started serving cannot hang the test.
int waitOrKill(pid_t Pid) {
  int WaitStatus = 0;
  for (int Tick = 0; Tick < 1000; ++Tick) {
    if (waitpid(Pid, &WaitStatus, WNOHANG) == Pid)
      return WaitStatus;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(Pid, SIGKILL);
  waitpid(Pid, &WaitStatus, 0);
  return WaitStatus;
}

TEST(DaemonTest, OutOfRangeNumericFlagsExitTwoBeforeBinding) {
  std::string Dir = scratchDir("badflags");
  const std::string Sock = Dir + "/d.sock";
  // Unchecked, each would wrap through a narrowing cast or disable a
  // limit: -1 workers is 2^32 - 1 threads, -1 MiB lifts the size cap,
  // port 70000 binds port 4464, a zero poll or timeout never waits, and
  // a 2^40-action stream window aborts the first analysis on its
  // allocation.
  const char *BadFlags[] = {
      "--workers=-1",           "--max-connections=0",
      "--max-connections=-1",   "--max-submission-mb=0",
      "--max-submission-mb=-1", "--max-submission-mb=17592186044416",
      "--tcp-port=-2",          "--tcp-port=65536",
      "--tcp-port=70000",       "--drop-poll-ms=0",
      "--recv-timeout-ms=0",    "--recv-timeout-ms=-5",
      "--stream-window=0",      "--stream-window=1099511627776"};
  for (const char *Flag : BadFlags) {
    SCOPED_TRACE(Flag);
    std::error_code Ec;
    fs::remove(Sock, Ec); // Keep one failure from masking the next.
    int OutFd = -1;
    pid_t Pid = spawnDaemon(
        {"--listen=" + Sock, "--snapshot=" + Dir + "/fleet.snap", Flag},
        OutFd);
    ASSERT_GT(Pid, 0);
    int WaitStatus = waitOrKill(Pid);
    close(OutFd);
    EXPECT_TRUE(WIFEXITED(WaitStatus));
    EXPECT_EQ(WEXITSTATUS(WaitStatus), 2);
    EXPECT_FALSE(fs::exists(Sock));
  }
}

#endif // PACER_RACEDETECTD

} // namespace
