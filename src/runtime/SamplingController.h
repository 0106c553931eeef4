//===- runtime/SamplingController.h - GC-boundary sampling -----*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PACER's global sampling-period controller (Section 4, "Sampling"). The
/// paper toggles sampling at the end of nursery collections, which occur
/// every 32 MB of allocation, turning sampling on with probability r.
/// Because race-detection metadata is itself allocated during sampling,
/// collections come faster while sampling and naively less program work
/// lands in sampling periods -- a bias the paper corrects by measuring
/// program work in synchronization operations (which are analysed
/// regardless of sampling) and adjusting the entry probability.
///
/// This controller reproduces the mechanism over a simulated allocation
/// clock: every analysed action allocates base bytes; analysed accesses in
/// sampling periods additionally allocate metadata bytes. Boundaries fire
/// when the simulated nursery fills. The bias correction keeps running
/// estimates of sync-ops-per-period for each period kind and solves
///
///   p * Ws / (p * Ws + (1 - p) * Wn) = r
///
/// for the entry probability p. Table 1's effective-vs-specified rates are
/// measured from the resulting behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_RUNTIME_SAMPLINGCONTROLLER_H
#define PACER_RUNTIME_SAMPLINGCONTROLLER_H

#include "detectors/Detector.h"
#include "sim/Action.h"
#include "support/Rng.h"

namespace pacer {

/// Sampling-period parameters.
struct SamplingConfig {
  /// Specified (target) sampling rate r in [0, 1].
  double TargetRate = 0.01;
  /// Simulated nursery size; a period ends when this many bytes have been
  /// allocated (the paper's 32 MB, scaled to simulator event counts).
  uint64_t PeriodBytes = 256 * 1024;
  /// Bytes of application allocation charged per analysed action.
  uint32_t BaseBytesPerEvent = 40;
  /// Extra metadata bytes charged per access analysed while sampling; this
  /// is what shortens sampling periods and creates the bias.
  uint32_t MetadataBytesPerSampledAccess = 64;
  /// Enable the paper's sync-op-based bias correction.
  bool BiasCorrection = true;
};

/// Drives a detector's sbegin/send actions from a simulated allocation
/// clock and measures the effective sampling rate.
class SamplingController {
public:
  SamplingController(SamplingConfig Config, uint64_t Seed);

  /// Makes the initial sampling decision; call once before the first
  /// action.
  void start(Detector &D);

  /// Accounts for \p Kind and fires a period boundary when the simulated
  /// nursery fills, possibly toggling \p D's sampling state. Returns true
  /// if a boundary (simulated GC) fired at this action. An action that
  /// fires none costs the inline compare-and-add of the quiet runs below.
  bool beforeAction(ActionKind Kind, Detector &D) {
    if (Kind == ActionKind::ThreadExit)
      return false;
    const bool Access = isAccessAction(Kind);
    if (advanceQuiet(Access, 1))
      return false;
    return crossBoundaryAt(Access, D);
  }

  /// Outcome of one advanceAccessRun() call.
  struct AccessRunAdvance {
    /// Accesses accounted by the call (<= the requested count).
    uint64_t Consumed = 0;
    /// True if a period boundary fired. The boundary fired at the *last*
    /// consumed access: that access was charged in the old period, the
    /// boundary toggled \p D, and the access was then accounted in the
    /// new period -- exactly beforeAction()'s order. Accesses
    /// [0, Consumed - 1) belong to the pre-call sampling state and the
    /// boundary-firing access (offset Consumed - 1) to the post-call
    /// state; callers that analyse accesses must deliver the pre-boundary
    /// segment *before* calling advanceAccessRun (the toggle happens
    /// inside) -- use accessRunBoundaryIndex() to locate the split.
    bool Boundary = false;
  };

  /// The case nearly every run takes: if a run of \p N accesses leaves
  /// the nursery short of full, accounts it exactly as N
  /// beforeAction(Read/Write) calls would and returns true. Otherwise it
  /// changes nothing and returns false, and the caller locates and fires
  /// the boundary with accessRunBoundaryIndex() and advanceAccessRun().
  bool advanceQuietAccessRun(uint64_t N) { return advanceQuiet(true, N); }

  /// The sync analogue of advanceQuietAccessRun(), for \p N
  /// synchronization ops (fallback: syncRunBoundaryIndex() and
  /// advanceSyncRun()).
  bool advanceQuietSyncRun(uint64_t N) { return advanceQuiet(false, N); }

  /// 1-based index, within a run of \p N pending accesses, of the access
  /// whose charge would fire the next period boundary; 0 if no boundary
  /// fires within the run. Pure query: advanceAccessRun(N, D) will report
  /// Boundary exactly when this returns nonzero, with Consumed equal to
  /// it.
  uint64_t accessRunBoundaryIndex(uint64_t N) const {
    return firingIndex(charge(/*Access=*/true), N);
  }

  /// Bulk equivalent of up to \p N consecutive beforeAction(Read/Write)
  /// calls, in O(1) per period boundary instead of O(N): while the
  /// sampling state is unchanged every access charges the same number of
  /// bytes, so the position of the next boundary inside a pure access run
  /// is a closed-form function of the nursery fill. Stops after the first
  /// boundary (the sampling state may have toggled, changing the charge);
  /// call repeatedly until the run's accesses are all consumed. The
  /// counter, boundary, and RNG streams are bit-identical to the
  /// per-action loop for every (N, state) -- SamplingControllerTest locks
  /// this in.
  AccessRunAdvance advanceAccessRun(uint64_t N, Detector &D) {
    return advanceRun(/*Access=*/true, N, D);
  }

  /// 1-based index, within a run of \p N pending synchronization
  /// operations, of the op whose charge would fire the next period
  /// boundary; 0 if none does. The sync analogue of
  /// accessRunBoundaryIndex(): sync ops charge base bytes only (they are
  /// analysed in both period kinds and allocate no access metadata), so
  /// the charge is phase-independent.
  uint64_t syncRunBoundaryIndex(uint64_t N) const {
    return firingIndex(charge(/*Access=*/false), N);
  }

  /// Bulk equivalent of up to \p N consecutive beforeAction(Acquire/
  /// Release) calls: the sync-run analogue of advanceAccessRun(), with the
  /// same stop-at-first-boundary contract and the same accounting order
  /// (ops before the boundary land in the old period, the firing op in the
  /// new one, after the toggle). Counter, boundary, and RNG streams are
  /// bit-identical to the per-action loop.
  AccessRunAdvance advanceSyncRun(uint64_t N, Detector &D) {
    return advanceRun(/*Access=*/false, N, D);
  }

  /// Fraction of data accesses that fell inside sampling periods: the
  /// effective sampling rate the paper's Table 1 reports.
  double effectiveAccessRate() const;

  /// Fraction of synchronization operations inside sampling periods.
  double effectiveSyncRate() const;

  /// Number of period boundaries (simulated GCs) so far.
  uint64_t boundaryCount() const { return Boundaries; }

  /// Number of sampling periods entered.
  uint64_t samplingPeriods() const { return SamplingPeriods; }

  bool isSampling() const { return Sampling; }

  /// The configuration (rate clamped to [0, 1]) and seed this controller
  /// was built with. A controller built from them makes the same
  /// decisions; sharded replay builds one per replica that way.
  const SamplingConfig &config() const { return Config; }
  uint64_t seed() const { return Seed; }

private:
  /// Bytes one analysed action charges: base bytes, plus metadata bytes
  /// for an access inside a sampling period.
  uint64_t charge(bool Access) const {
    return Config.BaseBytesPerEvent +
           (Access && Sampling ? Config.MetadataBytesPerSampledAccess : 0);
  }

  /// 1-based index, within \p N actions charging \p Charge bytes each,
  /// of the one whose charge fills the nursery; 0 if none does. The
  /// ceiling ceil(Need / Charge) is taken as (Need - 1) / Charge + 1, which
  /// cannot wrap however close PeriodBytes is to 2^64.
  uint64_t firingIndex(uint64_t Charge, uint64_t N) const {
    if (N == 0)
      return 0;
    if (NurseryBytes >= Config.PeriodBytes)
      return 1;
    if (Charge == 0)
      return 0;
    const uint64_t Need = Config.PeriodBytes - NurseryBytes;
    const uint64_t Index = (Need - 1) / Charge + 1;
    return Index <= N ? Index : 0;
  }

  /// Effective-rate and bias-correction accounting for \p N accesses
  /// (\p Access) or synchronization ops in the current period. Every
  /// accounted action is one or the other: beforeAction() drops
  /// ThreadExit first.
  void account(bool Access, uint64_t N) {
    if (Access) {
      AccessesTotal += N;
      AccessesSampling += Sampling ? N : 0;
    } else {
      SyncTotal += N;
      PeriodSyncOps += N;
      SyncSampling += Sampling ? N : 0;
    }
  }

  /// The no-boundary test and accounting behind the quiet runs and
  /// beforeAction(): one compare of Charge * N against the nursery's
  /// headroom, no division. A product that would overflow 64 bits counts
  /// as a boundary, for the closed-form path to locate.
  bool advanceQuiet(bool Access, uint64_t N) {
    uint64_t Bytes;
    if (NurseryBytes >= Config.PeriodBytes ||
        __builtin_mul_overflow(charge(Access), N, &Bytes) ||
        Bytes >= Config.PeriodBytes - NurseryBytes)
      return false;
    NurseryBytes += Bytes;
    account(Access, N);
    return true;
  }

  /// beforeAction() for an action whose charge fills the nursery.
  bool crossBoundaryAt(bool Access, Detector &D);

  /// advanceAccessRun() (\p Access) and advanceSyncRun().
  AccessRunAdvance advanceRun(bool Access, uint64_t N, Detector &D);

  /// The period boundary itself: empties the nursery, records the
  /// finished period's work, and draws the next period's kind, toggling
  /// \p D when it changes.
  void fireBoundary(Detector &D);

  /// Probability of entering a sampling period at the next boundary.
  double entryProbability() const;

  void finishPeriod();

  SamplingConfig Config;
  Rng Random;
  bool Sampling = false;
  bool Started = false;

  uint64_t NurseryBytes = 0;
  uint64_t Boundaries = 0;
  uint64_t SamplingPeriods = 0;

  // Effective-rate accounting.
  uint64_t AccessesSampling = 0;
  uint64_t AccessesTotal = 0;
  uint64_t SyncSampling = 0;
  uint64_t SyncTotal = 0;

  // Bias correction: exponentially weighted work (in sync ops) per period
  // of each kind.
  uint64_t PeriodSyncOps = 0;
  double AvgSamplingWork = -1.0;    // Negative = no estimate yet.
  double AvgNonSamplingWork = -1.0;

  uint64_t Seed;
};

} // namespace pacer

#endif // PACER_RUNTIME_SAMPLINGCONTROLLER_H
