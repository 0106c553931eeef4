//===- e2ebench/src/Fleet.h - In-process ingest daemon load ----*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives an in-process IngestServer (daemon defaults, fleet rate 3%) over
/// its Unix socket: an open loop that sends each submission at a fixed
/// due time regardless of earlier verdicts, and a closed loop of clients
/// that each wait for a verdict before sending again. Every submission
/// gets a fresh idempotency id, so a trace file may be submitted many
/// times and each commit counts.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_E2EBENCH_FLEET_H
#define PACER_E2EBENCH_FLEET_H

#include "Bench.h"

#include "runtime/IngestServer.h"

#include <memory>
#include <string>
#include <vector>

namespace pacer::e2e {

/// Connections the load generator opens; at most the host's core count.
inline constexpr unsigned FleetClients = 4;

/// The request IngestServer builds for every submission under the
/// benchmark's server configuration (the in-process fold replays it).
AnalysisRequest fleetRequest();

struct Submission {
  size_t File = 0;
  bool Committed = false;
  /// From due time (open loop) or send time (closed loop) to verdict.
  double LatencyMs = 0;
  /// How late the generator sent it (open loop only).
  double LateMs = 0;
};

class Fleet {
public:
  /// Starts a fresh server whose socket, spool and snapshot live under
  /// \p Dir (a short relative path: Unix socket paths are bounded).
  bool start(const std::string &Dir, std::string &Error);
  void stop();

  IngestServer &server() { return *Server; }

  /// \p Count submissions of \p Files (round robin), the i-th due at
  /// start + i / \p Rate seconds, from FleetClients connections.
  std::vector<Submission> openLoop(const std::vector<TraceFile> &Files,
                                   size_t Count, double Rate);

  /// FleetClients clients submit back to back until \p Seconds have
  /// passed and at least \p MinCount submissions were sent. \p WallSeconds
  /// receives the loop's wall time.
  std::vector<Submission> closedLoop(const std::vector<TraceFile> &Files,
                                     double Seconds, size_t MinCount,
                                     double &WallSeconds);

private:
  std::string SocketPath;
  std::unique_ptr<IngestServer> Server;
  /// Loops run so far; ids are "<loop>-<index>", unique per server.
  uint64_t Loops = 0;
};

} // namespace pacer::e2e

#endif // PACER_E2EBENCH_FLEET_H
