//===- sim/TraceGenerator.cpp ---------------------------------------------==//

#include "sim/TraceGenerator.h"

#include "sim/Scheduler.h"
#include "sim/ScriptBuilder.h"
#include "support/Rng.h"

#include <algorithm>

using namespace pacer;

Trace pacer::generateTrace(const CompiledWorkload &Workload,
                           uint64_t TrialSeed) {
  Rng TrialRng(TrialSeed ^ 0x50414345u /*"PACE"*/);
  Rng BuilderRng = TrialRng.split();
  Rng SchedulerRng = TrialRng.split();
  ScriptBuilder Builder(Workload, BuilderRng);
  Scheduler Sched(Builder.build(), SchedulerRng,
                  Workload.spec().MaxSchedulerBurst);
  return Sched.run();
}

TraceProfile pacer::profileTrace(TraceSpan T) {
  TraceProfile Profile;
  Profile.Total = T.size();
  for (const Action &A : T) {
    switch (A.Kind) {
    case ActionKind::Read:
      ++Profile.Reads;
      break;
    case ActionKind::Write:
      ++Profile.Writes;
      break;
    case ActionKind::VolatileRead:
    case ActionKind::VolatileWrite:
    case ActionKind::AwaitVolatile:
      ++Profile.Volatiles;
      ++Profile.SyncOps;
      break;
    case ActionKind::Fork:
      ++Profile.Forks;
      ++Profile.SyncOps;
      break;
    case ActionKind::Acquire:
    case ActionKind::Release:
    case ActionKind::Join:
      ++Profile.SyncOps;
      break;
    case ActionKind::ThreadExit:
      break;
    }
  }
  return Profile;
}

uint32_t pacer::maxLiveThreads(TraceSpan T) {
  uint32_t Live = 1; // Main.
  uint32_t Max = 1;
  for (const Action &A : T) {
    if (A.Kind == ActionKind::Fork) {
      ++Live;
      Max = std::max(Max, Live);
    } else if (A.Kind == ActionKind::ThreadExit) {
      --Live;
    }
  }
  return Max;
}
