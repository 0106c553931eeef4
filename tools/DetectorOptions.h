//===- tools/DetectorOptions.h - Detector flags of the tools ---*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The detector flags racedetect and racedetectd share -- --detector,
/// --rate, --period-bytes, --burst, --accordion and --shards -- declared,
/// range-checked and turned into a DetectorSetup in one place. Each tool
/// declares its own other flags.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_TOOLS_DETECTOROPTIONS_H
#define PACER_TOOLS_DETECTOROPTIONS_H

#include "runtime/AnalysisSession.h"
#include "runtime/TraceIndex.h"
#include "support/CommandLine.h"

#include <cstdint>
#include <cstdio>

namespace pacer {

/// Declares the shared detector flags on \p R.
inline void addDetectorOptions(OptionRegistry &R) {
  R.addString("detector", "pacer", "pacer|fasttrack|generic|literace")
      .addDouble("rate", 1.0, "PACER sampling rate in [0,1]")
      .addInt("period-bytes", 256 * 1024, "simulated nursery size in bytes")
      .addInt("burst", 100, "LiteRace burst length")
      .addFlag("accordion",
               "recycle thread-clock slots once dead threads are "
               "dominated (accordion clocks); reports are identical, "
               "metadata stays O(live threads)")
      // Auto-sharding is opt-in: measured batches ran slower
      // auto-sharded than at K = 1.
      .addString("shards", "1",
                 "variable shards per trace replay: a count or 'auto'");
}

/// Rejects, with a message, a value that a cast in
/// detectorSetupFromOptions would wrap (a negative nursery size or burst
/// length) or that no detector can honour.
inline bool detectorOptionsInRange(const OptionRegistry &R) {
  return R.doubleInRange("rate", 0.0, 1.0) &&
         R.intInRange("period-bytes", 1, INT64_MAX) &&
         R.intInRange("burst", 1, UINT32_MAX);
}

/// Builds the setup the shared flags describe. Returns false, with a
/// message, on an unknown --detector.
inline bool detectorSetupFromOptions(const OptionRegistry &R,
                                     DetectorSetup &Setup) {
  const std::string Name = R.getString("detector");
  if (Name == "pacer") {
    Setup = pacerSetup(R.getDouble("rate"));
    Setup.Sampling.PeriodBytes =
        static_cast<uint64_t>(R.getInt("period-bytes"));
  } else if (Name == "fasttrack") {
    Setup = fastTrackSetup();
  } else if (Name == "generic") {
    Setup = genericSetup();
  } else if (Name == "literace") {
    Setup = literaceSetup(static_cast<uint32_t>(R.getInt("burst")));
  } else {
    std::fprintf(stderr, "error: unknown --detector=%s\n", Name.c_str());
    return false;
  }
  Setup.AccordionClocks = R.getBool("accordion");
  Setup.Shards = parseShardCount(R.getString("shards"));
  return true;
}

} // namespace pacer

#endif // PACER_TOOLS_DETECTOROPTIONS_H
