//===- runtime/SamplingController.cpp -------------------------------------==//

#include "runtime/SamplingController.h"

#include <algorithm>

using namespace pacer;

SamplingController::SamplingController(SamplingConfig ConfigIn, uint64_t Seed)
    : Config(ConfigIn), Random(Seed ^ 0x53414d50u /*"SAMP"*/), Seed(Seed) {
  Config.TargetRate = std::clamp(Config.TargetRate, 0.0, 1.0);
}

double SamplingController::entryProbability() const {
  double R = Config.TargetRate;
  if (R <= 0.0)
    return 0.0;
  if (R >= 1.0)
    return 1.0;
  if (!Config.BiasCorrection || AvgSamplingWork <= 0.0 ||
      AvgNonSamplingWork <= 0.0)
    return R;
  // Solve p*Ws / (p*Ws + (1-p)*Wn) = r for p: the fraction of program work
  // (measured in sync ops) inside sampling periods should be r even though
  // sampling periods hold less work each.
  double Ws = AvgSamplingWork;
  double Wn = AvgNonSamplingWork;
  double P = R * Wn / (Ws * (1.0 - R) + R * Wn);
  return std::clamp(P, 0.0, 1.0);
}

void SamplingController::finishPeriod() {
  // Record the completed period's work into the matching running average.
  constexpr double Alpha = 0.2; // EWMA weight for the newest period.
  double Work = static_cast<double>(PeriodSyncOps);
  double &Avg = Sampling ? AvgSamplingWork : AvgNonSamplingWork;
  if (Avg < 0.0)
    Avg = std::max(Work, 1.0);
  else
    Avg = (1.0 - Alpha) * Avg + Alpha * std::max(Work, 1.0);
  PeriodSyncOps = 0;
}

void SamplingController::start(Detector &D) {
  Started = true;
  Sampling = Random.nextBool(entryProbability());
  if (Sampling) {
    ++SamplingPeriods;
    D.beginSamplingPeriod();
  }
}

bool SamplingController::beforeAction(ActionKind Kind, Detector &D) {
  if (Kind == ActionKind::ThreadExit)
    return false;

  // Simulated allocation: base application bytes per analysed action, plus
  // metadata bytes for accesses analysed while sampling.
  NurseryBytes += Config.BaseBytesPerEvent;
  if (Sampling && isAccessAction(Kind))
    NurseryBytes += Config.MetadataBytesPerSampledAccess;

  bool Boundary = false;
  if (NurseryBytes >= Config.PeriodBytes) {
    NurseryBytes -= Config.PeriodBytes;
    ++Boundaries;
    Boundary = true;

    finishPeriod();
    bool Next = Random.nextBool(entryProbability());
    if (Sampling)
      D.endSamplingPeriod();
    Sampling = Next;
    if (Sampling) {
      ++SamplingPeriods;
      D.beginSamplingPeriod();
    }
  }

  // Effective-rate accounting covers the action about to execute.
  if (isAccessAction(Kind)) {
    ++AccessesTotal;
    if (Sampling)
      ++AccessesSampling;
  } else if (isSyncAction(Kind)) {
    ++SyncTotal;
    ++PeriodSyncOps;
    if (Sampling)
      ++SyncSampling;
  }
  return Boundary;
}

SamplingController::AccessRunAdvance
SamplingController::advanceAccessRun(uint64_t N, Detector &D) {
  AccessRunAdvance Out;
  if (N == 0)
    return Out;

  // Constant per-access charge while the sampling state is unchanged.
  const uint64_t Charge =
      Config.BaseBytesPerEvent +
      (Sampling ? Config.MetadataBytesPerSampledAccess : 0);

  // 1-based index of the access whose charge fills the nursery.
  const uint64_t Need = NurseryBytes >= Config.PeriodBytes
                            ? 0
                            : Config.PeriodBytes - NurseryBytes;
  uint64_t FiringIndex;
  bool Fires;
  if (Need == 0) {
    FiringIndex = 1;
    Fires = true;
  } else if (Charge == 0) {
    FiringIndex = N;
    Fires = false;
  } else {
    FiringIndex = (Need + Charge - 1) / Charge;
    Fires = FiringIndex <= N;
    if (!Fires)
      FiringIndex = N;
  }

  // Accesses strictly before the boundary (or the whole run) land in the
  // current period.
  const uint64_t Before = Fires ? FiringIndex - 1 : FiringIndex;
  NurseryBytes += Charge * FiringIndex;
  AccessesTotal += Before;
  if (Sampling)
    AccessesSampling += Before;
  Out.Consumed = FiringIndex;
  if (!Fires)
    return Out;

  // The firing access: replicate beforeAction's boundary block, then
  // account the access itself in the *new* period.
  NurseryBytes -= Config.PeriodBytes;
  ++Boundaries;
  finishPeriod();
  bool Next = Random.nextBool(entryProbability());
  if (Sampling)
    D.endSamplingPeriod();
  Sampling = Next;
  if (Sampling) {
    ++SamplingPeriods;
    D.beginSamplingPeriod();
  }
  ++AccessesTotal;
  if (Sampling)
    ++AccessesSampling;
  Out.Boundary = true;
  return Out;
}

SamplingController::AccessRunAdvance
SamplingController::advanceSyncRun(uint64_t N, Detector &D) {
  AccessRunAdvance Out;
  if (N == 0)
    return Out;

  // Sync ops charge base bytes in both period kinds; no metadata charge.
  const uint64_t Charge = Config.BaseBytesPerEvent;

  const uint64_t Need = NurseryBytes >= Config.PeriodBytes
                            ? 0
                            : Config.PeriodBytes - NurseryBytes;
  uint64_t FiringIndex;
  bool Fires;
  if (Need == 0) {
    FiringIndex = 1;
    Fires = true;
  } else if (Charge == 0) {
    FiringIndex = N;
    Fires = false;
  } else {
    FiringIndex = (Need + Charge - 1) / Charge;
    Fires = FiringIndex <= N;
    if (!Fires)
      FiringIndex = N;
  }

  // Ops strictly before the boundary land in the current period; their
  // work counts toward the period average finishPeriod() snapshots.
  const uint64_t Before = Fires ? FiringIndex - 1 : FiringIndex;
  NurseryBytes += Charge * FiringIndex;
  SyncTotal += Before;
  PeriodSyncOps += Before;
  if (Sampling)
    SyncSampling += Before;
  Out.Consumed = FiringIndex;
  if (!Fires)
    return Out;

  // The firing op: replicate beforeAction's boundary block, then account
  // the op itself in the *new* period.
  NurseryBytes -= Config.PeriodBytes;
  ++Boundaries;
  finishPeriod();
  bool Next = Random.nextBool(entryProbability());
  if (Sampling)
    D.endSamplingPeriod();
  Sampling = Next;
  if (Sampling) {
    ++SamplingPeriods;
    D.beginSamplingPeriod();
  }
  ++SyncTotal;
  ++PeriodSyncOps;
  if (Sampling)
    ++SyncSampling;
  Out.Boundary = true;
  return Out;
}

double SamplingController::effectiveAccessRate() const {
  if (AccessesTotal == 0)
    return 0.0;
  return static_cast<double>(AccessesSampling) /
         static_cast<double>(AccessesTotal);
}

double SamplingController::effectiveSyncRate() const {
  if (SyncTotal == 0)
    return 0.0;
  return static_cast<double>(SyncSampling) / static_cast<double>(SyncTotal);
}
