//===- core/kernels/ClockKernelsAvx2.cpp ----------------------------------==//
//
// AVX2 kernel bodies. CMake compiles this one file with -mavx2 on x86-64
// (the base -march stays baseline, so the rest of the binary remains
// portable); the dispatcher only installs this table after the CPUID +
// xgetbv probe confirmed the executing host and OS support AVX2, so no
// AVX instruction ever runs on a host without it. Under
// PACER_DISABLE_SIMD, or when the file is built without AVX2 enabled, the
// accessor returns nullptr.
//
//===----------------------------------------------------------------------===//

#include "core/kernels/IsaOps.h"

#if !defined(PACER_DISABLE_SIMD) && defined(__AVX2__)

#include <immintrin.h>

namespace pacer::kernels::detail {
namespace {

bool avx2JoinMax(uint32_t *A, const uint32_t *B, size_t N) {
  size_t I = 0;
  __m256i Diff = _mm256_setzero_si256();
  for (; I + 8 <= N; I += 8) {
    __m256i Va = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(A + I));
    __m256i Vb = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(B + I));
    __m256i Vm = _mm256_max_epu32(Va, Vb);
    // Vm != Va in a lane iff B > A there, i.e. the join changed A.
    Diff = _mm256_or_si256(Diff, _mm256_xor_si256(Vm, Va));
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(A + I), Vm);
  }
  bool Changed = !_mm256_testz_si256(Diff, Diff);
  return scalarJoinMax(A + I, B + I, N - I) || Changed;
}

bool avx2AllLeq(const uint32_t *A, const uint32_t *B, size_t N) {
  size_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256i Va = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(A + I));
    __m256i Vb = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(B + I));
    // A <= B per lane iff max(A, B) == B.
    __m256i Le = _mm256_cmpeq_epi32(_mm256_max_epu32(Va, Vb), Vb);
    if (static_cast<uint32_t>(_mm256_movemask_epi8(Le)) != 0xffffffffu)
      return false;
  }
  return scalarAllLeq(A + I, B + I, N - I);
}

bool avx2AllZero(const uint32_t *A, size_t N) {
  size_t I = 0;
  __m256i Acc = _mm256_setzero_si256();
  for (; I + 8 <= N; I += 8)
    Acc = _mm256_or_si256(
        Acc, _mm256_loadu_si256(reinterpret_cast<const __m256i *>(A + I)));
  if (!_mm256_testz_si256(Acc, Acc))
    return false;
  return scalarAllZero(A + I, N - I);
}

size_t avx2TrimTrailingZeros(const uint32_t *A, size_t N) {
  // Scan backwards a vector at a time; the first non-zero block hands off
  // to the scalar scan for the exact boundary.
  while (N >= 8) {
    __m256i V =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(A + N - 8));
    if (!_mm256_testz_si256(V, V))
      break;
    N -= 8;
  }
  return scalarTrimTrailingZeros(A, N);
}

void avx2RemapGather(uint32_t *Dst, const uint32_t *Src, const uint32_t *Idx,
                     size_t N) {
  size_t I = 0;
  // In-place packs are safe: Idx ascends with Idx[i] >= i, so each 8-lane
  // gather reads components at or beyond the store cursor.
  for (; I + 8 <= N; I += 8) {
    __m256i Vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Idx + I));
    __m256i Vg = _mm256_i32gather_epi32(reinterpret_cast<const int *>(Src),
                                        Vi, /*Scale=*/4);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(Dst + I), Vg);
  }
  scalarRemapGather(Dst + I, Src, Idx + I, N - I);
}

constexpr KernelOps Avx2Ops = {Isa::Avx2,
                               "avx2",
                               avx2JoinMax,
                               avx2AllLeq,
                               avx2AllZero,
                               avx2TrimTrailingZeros,
                               avx2RemapGather};

} // namespace

const KernelOps *avx2KernelOps() { return &Avx2Ops; }

} // namespace pacer::kernels::detail

#else

namespace pacer::kernels::detail {
const KernelOps *avx2KernelOps() { return nullptr; }
} // namespace pacer::kernels::detail

#endif
