//===- core/ClockKernels.h - Word-parallel clock kernels -------*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Word-parallel kernels for the three vector-clock inner loops that
/// dominate detector time (pointwise-max join, pointwise <=, copy), plus
/// the tail-trimming scan joinWith needs and the accordion remap gather.
/// VectorClock and SyncClock route every component loop through this
/// layer, so the SIMD width is chosen in exactly one place.
///
/// The ISA is selected at **runtime**: every per-ISA implementation that
/// the target can express is compiled into the binary (the AVX2 and
/// AVX-512 kernels get their own -mavx2 / -mavx512f translation units,
/// independent of the base -march), and a one-time CPUID/xgetbv probe
/// picks the best path the executing host and OS actually support. A
/// binary built with baseline -march runs AVX-512 on AVX-512 hosts and
/// degrades to AVX2/SSE2/scalar elsewhere. Configuring
/// with -DPACER_DISABLE_SIMD=ON compiles only the scalar entry, so the
/// dispatcher resolves to scalar no matter what the host offers.
///
/// All kernels are exact integer operations -- max, compare, copy -- so
/// every path produces bit-identical results; the differential tests and
/// the force-ISA hooks verify that in-process. The resolution order is:
/// programmatic force (setForceIsa) > PACER_FORCE_ISA environment variable
/// > best compiled-in path the hardware supports.
///
/// Alias rules: joinMax requires A and B to not partially overlap (A == B
/// is harmless but pointless); copyWords requires disjoint ranges;
/// remapGather permits Dst == Src only for an ascending in-place pack
/// (Idx[I] >= I for all I), which is exactly the accordion-compaction
/// shape. No kernel requires alignment -- clocks may live at arbitrary
/// offsets inside detector metadata (SSO buffers, arena blocks).
///
//===----------------------------------------------------------------------===//

#ifndef PACER_CORE_CLOCKKERNELS_H
#define PACER_CORE_CLOCKKERNELS_H

#include <cstddef>
#include <cstdint>

namespace pacer::kernels {

/// The ISA families a kernel implementation can target. Sse2/Avx2/Avx512
/// exist only on x86-64 builds, Neon only on aarch64; Scalar always
/// exists.
enum class Isa : uint8_t { Scalar = 0, Sse2, Neon, Avx2, Avx512 };

/// Every Isa value, in the enum's (ascending preference) order. Iterate
/// this wherever all paths are listed; walk it backwards to try the best
/// path first.
inline constexpr Isa AllIsas[] = {Isa::Scalar, Isa::Sse2, Isa::Neon,
                                  Isa::Avx2, Isa::Avx512};

/// One dispatch table entry: the kernel function pointers for a single
/// ISA, plus identification. copyWords is not in the table -- it is always
/// memcpy, which libc already dispatches per-ISA on its own.
struct KernelOps {
  Isa Kind;
  const char *Name;
  bool (*JoinMax)(uint32_t *A, const uint32_t *B, size_t N);
  bool (*AllLeq)(const uint32_t *A, const uint32_t *B, size_t N);
  bool (*AllZero)(const uint32_t *A, size_t N);
  size_t (*TrimTrailingZeros)(const uint32_t *A, size_t N);
  void (*RemapGather)(uint32_t *Dst, const uint32_t *Src, const uint32_t *Idx,
                      size_t N);
  void (*ProbeTags)(const void *Base, const uint32_t *ByteOff,
                    const uint32_t *Keys, size_t N, uint32_t Empty,
                    uint64_t *HitMask, uint64_t *EmptyMask);
};

/// Pointwise maximum of \p B into \p A over \p N components. Returns true
/// iff any component of A increased (the joinWith change-detection bit,
/// Algorithm 11).
bool joinMax(uint32_t *A, const uint32_t *B, size_t N);

/// True iff A[i] <= B[i] for all i in [0, N).
bool allLeq(const uint32_t *A, const uint32_t *B, size_t N);

/// True iff A[i] == 0 for all i in [0, N).
bool allZero(const uint32_t *A, size_t N);

/// Copies \p N components from \p Src to \p Dst (disjoint ranges).
void copyWords(uint32_t *Dst, const uint32_t *Src, size_t N);

/// Returns the smallest M <= N such that A[i] == 0 for all i in [M, N):
/// the stored length of \p A after trimming trailing explicit zeros.
size_t trimTrailingZeros(const uint32_t *A, size_t N);

/// Gathers Dst[i] = Src[Idx[i]] for i in [0, N): the accordion-compaction
/// remap that packs live clock components into a dense prefix. Idx must be
/// strictly ascending when Dst == Src (then Idx[i] >= i, so the in-place
/// pack never reads a component it already overwrote); disjoint Dst/Src
/// have no index constraints.
void remapGather(uint32_t *Dst, const uint32_t *Src, const uint32_t *Idx,
                 size_t N);

/// Multi-key hash-slot tag probe: gathers the 32-bit tag at each
/// Base + ByteOff[I] once and reports two masks over the N <= 64 keys --
/// HitMask bit I set iff the tag equals Keys[I] (slot holds the key),
/// EmptyMask bit I set iff the tag equals \p Empty (open-addressing probe
/// terminates: key absent). A key with neither bit set landed on a
/// collision or tombstone and needs the scalar chain walk. Offsets are
/// byte offsets (any slot stride works), and each Base + ByteOff[I] must
/// be readable and < 2 GiB from Base (the gather index is a signed 32-bit
/// lane). Pure loads + compares, so every ISA path is bit-identical.
void probeTags(const void *Base, const uint32_t *ByteOff,
               const uint32_t *Keys, size_t N, uint32_t Empty,
               uint64_t *HitMask, uint64_t *EmptyMask);

/// Lowercase name of an ISA ("avx512", "avx2", "sse2", "neon",
/// "scalar").
const char *isaName(Isa Kind);

/// Parses an ISA name (as accepted by PACER_FORCE_ISA, case-sensitive
/// lowercase). Returns false and leaves \p Out untouched on unknown text.
bool parseIsaName(const char *Text, Isa &Out);

/// The best ISA the executing hardware and OS support, independent of what
/// this binary compiled in. One-time probe (CPUID + xgetbv on x86-64 so an
/// OS that never enabled YMM state does not get AVX2), cached thereafter.
Isa detectedIsa();

/// The dispatch table compiled in for \p Kind, or nullptr when this build
/// does not carry that ISA (wrong target, or PACER_DISABLE_SIMD). Scalar
/// is always present. The pointer is valid for the process lifetime; note
/// that calling a compiled-in table on hardware where isaSupported(Kind)
/// is false may execute illegal instructions.
const KernelOps *opsFor(Isa Kind);

/// True iff \p Kind is both compiled into this binary and supported by the
/// executing hardware/OS -- i.e. setForceIsa(Kind) would succeed.
bool isaAvailable(Isa Kind);

/// The ISA the dispatcher currently routes kernels through, after any
/// force override. activeIsa() is its name -- this is the "resolved" path
/// surfaced by micro_ops, racedetect --times, and --cpu-info.
Isa activeIsaKind();
const char *activeIsa();

/// Forces every kernel through \p Kind's path. Returns false (and changes
/// nothing) when the ISA is not available on this build/host. Not
/// thread-safe; flip it only from single-threaded setup/teardown.
bool setForceIsa(Isa Kind);

/// Drops any programmatic force and re-resolves: PACER_FORCE_ISA if set
/// and available, else the best available path.
void clearForceIsa();

/// Scalar reference implementations, always compiled, used as the
/// fallback path and by differential tests / benchmark baselines.
bool scalarJoinMax(uint32_t *A, const uint32_t *B, size_t N);
bool scalarAllLeq(const uint32_t *A, const uint32_t *B, size_t N);
bool scalarAllZero(const uint32_t *A, size_t N);
size_t scalarTrimTrailingZeros(const uint32_t *A, size_t N);
void scalarRemapGather(uint32_t *Dst, const uint32_t *Src,
                       const uint32_t *Idx, size_t N);
void scalarProbeTags(const void *Base, const uint32_t *ByteOff,
                     const uint32_t *Keys, size_t N, uint32_t Empty,
                     uint64_t *HitMask, uint64_t *EmptyMask);

} // namespace pacer::kernels

#endif // PACER_CORE_CLOCKKERNELS_H
