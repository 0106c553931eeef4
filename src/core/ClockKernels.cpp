//===- core/ClockKernels.cpp - Runtime ISA dispatch -----------------------==//
//
// The scalar reference kernels plus the runtime dispatcher. Per-ISA SIMD
// bodies live in core/kernels/ClockKernels{Sse2,Avx2,Avx512,Neon}.cpp;
// this TU
// probes the hardware once (CPUID + xgetbv on x86-64), applies the
// PACER_FORCE_ISA override, and installs a single function-pointer table
// that every public kernel routes through.
//
//===----------------------------------------------------------------------===//

#include "core/ClockKernels.h"
#include "core/kernels/IsaOps.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#endif

namespace pacer::kernels {

bool scalarJoinMax(uint32_t *A, const uint32_t *B, size_t N) {
  bool Changed = false;
  for (size_t I = 0; I != N; ++I) {
    if (B[I] > A[I]) {
      A[I] = B[I];
      Changed = true;
    }
  }
  return Changed;
}

bool scalarAllLeq(const uint32_t *A, const uint32_t *B, size_t N) {
  for (size_t I = 0; I != N; ++I)
    if (A[I] > B[I])
      return false;
  return true;
}

bool scalarAllZero(const uint32_t *A, size_t N) {
  for (size_t I = 0; I != N; ++I)
    if (A[I] != 0)
      return false;
  return true;
}

size_t scalarTrimTrailingZeros(const uint32_t *A, size_t N) {
  while (N != 0 && A[N - 1] == 0)
    --N;
  return N;
}

void scalarRemapGather(uint32_t *Dst, const uint32_t *Src,
                       const uint32_t *Idx, size_t N) {
  for (size_t I = 0; I != N; ++I)
    Dst[I] = Src[Idx[I]];
}

namespace {

constexpr KernelOps ScalarOps = {Isa::Scalar,
                                 "scalar",
                                 scalarJoinMax,
                                 scalarAllLeq,
                                 scalarAllZero,
                                 scalarTrimTrailingZeros,
                                 scalarRemapGather};

#if defined(__x86_64__) || defined(_M_X64)
uint64_t xgetbv0() {
  uint32_t Lo = 0, Hi = 0;
  __asm__ __volatile__("xgetbv" : "=a"(Lo), "=d"(Hi) : "c"(0));
  return (static_cast<uint64_t>(Hi) << 32) | Lo;
}
#endif

Isa probeIsa() {
#if defined(__x86_64__) || defined(_M_X64)
  unsigned Eax = 0, Ebx = 0, Ecx = 0, Edx = 0;
  if (!__get_cpuid(1, &Eax, &Ebx, &Ecx, &Edx))
    return Isa::Scalar;
  const bool HasSse2 = (Edx & bit_SSE2) != 0;
  // AVX needs CPU support *and* OS-managed YMM state: OSXSAVE set and
  // XCR0 enabling both XMM (bit 1) and YMM (bit 2) saves. AVX-512
  // additionally needs opmask (bit 5) and ZMM/Hi16-ZMM (bits 6-7) state.
  const bool HasOsxsave = (Ecx & bit_OSXSAVE) != 0 && (Ecx & bit_AVX) != 0;
  const uint64_t Xcr0 = HasOsxsave ? xgetbv0() : 0;
  const bool OsAvx = HasOsxsave && (Xcr0 & 0x6) == 0x6;
  if (OsAvx && __get_cpuid_count(7, 0, &Eax, &Ebx, &Ecx, &Edx)) {
    if ((Xcr0 & 0xe6) == 0xe6 && (Ebx & bit_AVX512F) != 0 &&
        (Ebx & bit_AVX512BW) != 0)
      return Isa::Avx512;
    if ((Ebx & bit_AVX2) != 0)
      return Isa::Avx2;
  }
  return HasSse2 ? Isa::Sse2 : Isa::Scalar;
#elif defined(__aarch64__) && defined(__ARM_NEON)
  return Isa::Neon;
#else
  return Isa::Scalar;
#endif
}

// The installed table. Constant-initialized to scalar so a kernel call
// from another TU's static initializer (before our dynamic init below
// runs) is safe, just slow. Swapped as a single pointer store; the same
// single-threaded-flips-only contract the old ForceScalar bool had.
const KernelOps *Active = &ScalarOps;

// What clearForceIsa restores: the env-or-best resolution computed at
// static init.
Isa DefaultKind = Isa::Scalar;

bool isaSupported(Isa Kind) {
  switch (Kind) {
  case Isa::Scalar:
    return true;
  case Isa::Sse2:
    return detectedIsa() == Isa::Sse2 || detectedIsa() == Isa::Avx2 ||
           detectedIsa() == Isa::Avx512;
  case Isa::Avx2:
    return detectedIsa() == Isa::Avx2 || detectedIsa() == Isa::Avx512;
  case Isa::Avx512:
    return detectedIsa() == Isa::Avx512;
  case Isa::Neon:
    return detectedIsa() == Isa::Neon;
  }
  return false;
}

Isa bestAvailableIsa() {
  for (auto It = std::rbegin(AllIsas); It != std::rend(AllIsas); ++It)
    if (isaAvailable(*It))
      return *It;
  return Isa::Scalar;
}

// Resolves the default (un-forced) path: PACER_FORCE_ISA when set and
// available, else the best compiled-in path the host supports. Called
// from the dynamic initializer and again on every clearForceIsa
// re-resolution, so the bad-override diagnostics sit behind a
// once-per-process latch -- a long-lived daemon flipping force overrides
// per request must not spam one warning per resolution.
Isa resolveDefaultIsa() {
  static bool WarnedBadForce = false;
  Isa Pick = bestAvailableIsa();
  if (const char *Env = std::getenv("PACER_FORCE_ISA"); Env && *Env) {
    Isa Forced = Isa::Scalar;
    if (!parseIsaName(Env, Forced)) {
      if (!WarnedBadForce)
        std::fprintf(stderr,
                     "pacer: PACER_FORCE_ISA=%s not recognized; using %s\n",
                     Env, isaName(Pick));
      WarnedBadForce = true;
    } else if (!isaAvailable(Forced)) {
      if (!WarnedBadForce)
        std::fprintf(
            stderr,
            "pacer: PACER_FORCE_ISA=%s unavailable on this build/host; "
            "degrading to %s\n",
            Env, isaName(Pick));
      WarnedBadForce = true;
    } else {
      Pick = Forced;
    }
  }
  return Pick;
}

// Dynamic initializer: probe, read PACER_FORCE_ISA, install the table.
struct DispatchInit {
  DispatchInit() {
    DefaultKind = resolveDefaultIsa();
    Active = opsFor(DefaultKind);
  }
};
DispatchInit InitDispatch;

} // namespace

const char *isaName(Isa Kind) {
  switch (Kind) {
  case Isa::Scalar:
    return "scalar";
  case Isa::Sse2:
    return "sse2";
  case Isa::Neon:
    return "neon";
  case Isa::Avx2:
    return "avx2";
  case Isa::Avx512:
    return "avx512";
  }
  return "unknown";
}

bool parseIsaName(const char *Text, Isa &Out) {
  for (Isa Kind : AllIsas) {
    if (std::strcmp(Text, isaName(Kind)) == 0) {
      Out = Kind;
      return true;
    }
  }
  return false;
}

Isa detectedIsa() {
  static const Isa Detected = probeIsa();
  return Detected;
}

const KernelOps *opsFor(Isa Kind) {
  switch (Kind) {
  case Isa::Scalar:
    return &ScalarOps;
  case Isa::Sse2:
    return detail::sse2KernelOps();
  case Isa::Avx2:
    return detail::avx2KernelOps();
  case Isa::Avx512:
    return detail::avx512KernelOps();
  case Isa::Neon:
    return detail::neonKernelOps();
  }
  return nullptr;
}

bool isaAvailable(Isa Kind) {
  return opsFor(Kind) != nullptr && isaSupported(Kind);
}

Isa activeIsaKind() { return Active->Kind; }

const char *activeIsa() { return Active->Name; }

bool setForceIsa(Isa Kind) {
  if (!isaAvailable(Kind))
    return false;
  Active = opsFor(Kind);
  return true;
}

void clearForceIsa() {
  DefaultKind = resolveDefaultIsa();
  Active = opsFor(DefaultKind);
}

bool joinMax(uint32_t *A, const uint32_t *B, size_t N) {
  return Active->JoinMax(A, B, N);
}

bool allLeq(const uint32_t *A, const uint32_t *B, size_t N) {
  return Active->AllLeq(A, B, N);
}

bool allZero(const uint32_t *A, size_t N) { return Active->AllZero(A, N); }

size_t trimTrailingZeros(const uint32_t *A, size_t N) {
  return Active->TrimTrailingZeros(A, N);
}

void remapGather(uint32_t *Dst, const uint32_t *Src, const uint32_t *Idx,
                 size_t N) {
  Active->RemapGather(Dst, Src, Idx, N);
}

void copyWords(uint32_t *Dst, const uint32_t *Src, size_t N) {
  // memcpy's pointers must be valid even for zero bytes, and an empty
  // clock may pass null.
  if (N == 0)
    return;
  std::memcpy(Dst, Src, N * sizeof(uint32_t));
}

} // namespace pacer::kernels
