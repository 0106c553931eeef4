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

void SamplingController::fireBoundary(Detector &D) {
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
}

bool SamplingController::crossBoundaryAt(bool Access, Detector &D) {
  // Simulated allocation: base application bytes per analysed action,
  // plus metadata bytes for an access analysed while sampling. The quiet
  // test failed, so this charge fills the nursery: the boundary fires
  // before the action, which is then accounted in the new period.
  NurseryBytes += charge(Access);
  fireBoundary(D);
  account(Access, 1);
  return true;
}

SamplingController::AccessRunAdvance
SamplingController::advanceRun(bool Access, uint64_t N, Detector &D) {
  // Constant per-action charge while the sampling state is unchanged.
  const uint64_t Charge = charge(Access);
  const uint64_t Fire = firingIndex(Charge, N);

  // Actions strictly before the boundary (or the whole run) land in the
  // current period; sync ops among them count toward the period average
  // finishPeriod() snapshots.
  AccessRunAdvance Out;
  Out.Consumed = Fire ? Fire : N;
  NurseryBytes += Charge * Out.Consumed;
  account(Access, Fire ? Fire - 1 : N);
  if (!Fire)
    return Out;

  // The firing action: beforeAction's boundary, then the action itself,
  // accounted in the *new* period.
  fireBoundary(D);
  account(Access, 1);
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
