//===- sim/TraceGenerator.h - Workload-to-trace facade ---------*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ties the script builder and scheduler together: one call turns a
/// compiled workload and a trial seed into a complete interleaved trace.
/// The trace is a pure function of (workload, seed), so the same trial can
/// be replayed through any number of detectors -- this is how the harness
/// compares PACER at rate r against the fully sampled ground truth on the
/// *same* execution.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_SIM_TRACEGENERATOR_H
#define PACER_SIM_TRACEGENERATOR_H

#include "sim/Action.h"
#include "sim/WorkloadSpec.h"

#include <cstdint>

namespace pacer {

/// Generates the trace of trial \p TrialSeed of \p Workload.
Trace generateTrace(const CompiledWorkload &Workload, uint64_t TrialSeed);

/// Summary statistics of a trace, used by tests and workload calibration.
struct TraceProfile {
  uint64_t Total = 0;
  uint64_t Reads = 0;
  uint64_t Writes = 0;
  uint64_t SyncOps = 0;
  uint64_t Volatiles = 0;
  uint64_t Forks = 0;
  double syncFraction() const {
    uint64_t Analysed = Reads + Writes + SyncOps;
    return Analysed == 0 ? 0.0
                         : static_cast<double>(SyncOps) /
                               static_cast<double>(Analysed);
  }
};

/// Profiles \p T.
TraceProfile profileTrace(TraceSpan T);

/// Maximum number of simultaneously live threads over \p T, counting the
/// main thread (the paper's Table 2 "max live" column).
uint32_t maxLiveThreads(TraceSpan T);

} // namespace pacer

#endif // PACER_SIM_TRACEGENERATOR_H
