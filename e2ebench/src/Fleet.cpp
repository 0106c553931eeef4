//===- e2ebench/src/Fleet.cpp - In-process ingest daemon load -------------==//

#include "Fleet.h"

#include "support/Socket.h"

#include <atomic>
#include <filesystem>
#include <thread>

using namespace pacer;
using namespace pacer::e2e;

namespace {

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

DetectorSetup fleetSetup() {
  DetectorSetup Setup = pacerSetup(0.03);
  Setup.Sampling.PeriodBytes = 256 * 1024;
  return Setup;
}

/// Opens one connection per client before any clock starts, so connect
/// time is never charged to a submission.
std::vector<Socket> connectClients(const std::string &Path) {
  std::vector<Socket> Clients;
  for (unsigned I = 0; I < FleetClients; ++I) {
    std::string Error;
    Clients.push_back(Socket::connectUnix(Path, Error));
  }
  return Clients;
}

bool submit(Socket &S, const TraceFile &File, const std::string &Id) {
  if (!S.valid())
    return false;
  ingest::SubmitResult R = ingest::submitFile(S, File.Path, Id);
  return R.Ok && R.Code == ingest::Status::Committed;
}

} // namespace

AnalysisRequest e2e::fleetRequest() {
  AnalysisRequest Request;
  Request.Setup = fleetSetup();
  Request.Seed = IngestServer::Config().Seed;
  Request.Stream = true;
  Request.StreamWindow = IngestServer::Config().StreamWindow;
  Request.CollectReports = true;
  return Request;
}

bool Fleet::start(const std::string &Dir, std::string &Error) {
  stop();
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
  std::filesystem::create_directories(Dir, Ec);
  IngestServer::Config Config;
  Config.UnixSocketPath = Dir + "/d.sock";
  Config.SpoolDir = Dir + "/spool";
  Config.SnapshotPath = Dir + "/fleet.snap";
  Config.Setup = fleetSetup();
  SocketPath = Config.UnixSocketPath;
  Server = std::make_unique<IngestServer>(Config);
  return Server->start(Error);
}

void Fleet::stop() {
  if (Server)
    Server->stop();
  Server.reset();
}

std::vector<Submission> Fleet::openLoop(const std::vector<TraceFile> &Files,
                                        size_t Count, double Rate) {
  const std::string Prefix = std::to_string(Loops++) + "-";
  std::vector<Socket> Clients = connectClients(SocketPath);
  std::vector<Submission> Out(Count);
  std::atomic<size_t> Next{0};
  const auto Start = Clock::now();
  auto Client = [&](Socket &S) {
    for (size_t I; (I = Next.fetch_add(1)) < Count;) {
      const auto Due =
          Start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(I / Rate));
      std::this_thread::sleep_until(Due);
      const auto Sent = Clock::now();
      Submission &Sub = Out[I];
      Sub.File = I % Files.size();
      Sub.Committed = submit(S, Files[Sub.File], Prefix + std::to_string(I));
      Sub.LatencyMs = msBetween(Due, Clock::now());
      Sub.LateMs = msBetween(Due, Sent);
    }
  };
  std::vector<std::thread> Threads;
  for (Socket &S : Clients)
    Threads.emplace_back(Client, std::ref(S));
  for (std::thread &T : Threads)
    T.join();
  return Out;
}

std::vector<Submission> Fleet::closedLoop(const std::vector<TraceFile> &Files,
                                          double Seconds, size_t MinCount,
                                          double &WallSeconds) {
  const std::string Prefix = std::to_string(Loops++) + "-";
  std::vector<Socket> Clients = connectClients(SocketPath);
  std::vector<std::vector<Submission>> PerClient(Clients.size());
  std::atomic<size_t> Next{0};
  const auto Start = Clock::now();
  const auto Deadline =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(Seconds));
  auto Client = [&](Socket &S, std::vector<Submission> &Mine) {
    for (size_t I; (I = Next.fetch_add(1)) < MinCount ||
                   Clock::now() < Deadline;) {
      Submission Sub;
      Sub.File = I % Files.size();
      const auto Sent = Clock::now();
      Sub.Committed = submit(S, Files[Sub.File], Prefix + std::to_string(I));
      Sub.LatencyMs = msBetween(Sent, Clock::now());
      Mine.push_back(Sub);
    }
  };
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < Clients.size(); ++C)
    Threads.emplace_back(Client, std::ref(Clients[C]), std::ref(PerClient[C]));
  for (std::thread &T : Threads)
    T.join();
  WallSeconds = secondsSince(Start);
  std::vector<Submission> Out;
  for (const std::vector<Submission> &Mine : PerClient)
    Out.insert(Out.end(), Mine.begin(), Mine.end());
  return Out;
}
