//===- core/kernels/ClockKernelsAvx512.cpp --------------------------------==//
//
// AVX-512 kernel bodies. CMake compiles this one file with
// -mavx512f -mavx512bw on x86-64 (the base -march stays baseline, so the
// rest of the binary remains portable); the dispatcher only installs this
// table after the CPUID + xgetbv probe confirmed the executing host and OS
// support AVX-512 (opmask/ZMM/Hi16-ZMM state enabled in XCR0), so no
// AVX-512 instruction ever runs on a host without it. Under
// PACER_DISABLE_SIMD, or when the file is built without AVX-512 enabled,
// the accessor returns nullptr.
//
//===----------------------------------------------------------------------===//

#include "core/kernels/IsaOps.h"

#if !defined(PACER_DISABLE_SIMD) && defined(__AVX512F__) && \
    defined(__AVX512BW__)

#include <immintrin.h>

// GCC's avx512fintrin.h seeds merge-form intrinsics with
// _mm512_undefined_epi32(), which GCC 12 flags as maybe-uninitialized even
// though the merge mask is all-ones. Header-internal false positive.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace pacer::kernels::detail {
namespace {

bool avx512JoinMax(uint32_t *A, const uint32_t *B, size_t N) {
  size_t I = 0;
  __mmask16 Changed = 0;
  for (; I + 16 <= N; I += 16) {
    __m512i Va = _mm512_loadu_si512(A + I);
    __m512i Vb = _mm512_loadu_si512(B + I);
    __m512i Vm = _mm512_max_epu32(Va, Vb);
    // Vm != Va in a lane iff B > A there, i.e. the join changed A.
    Changed |= _mm512_cmpneq_epu32_mask(Vm, Va);
    _mm512_storeu_si512(A + I, Vm);
  }
  return scalarJoinMax(A + I, B + I, N - I) || Changed != 0;
}

bool avx512AllLeq(const uint32_t *A, const uint32_t *B, size_t N) {
  size_t I = 0;
  for (; I + 16 <= N; I += 16) {
    __m512i Va = _mm512_loadu_si512(A + I);
    __m512i Vb = _mm512_loadu_si512(B + I);
    if (_mm512_cmpgt_epu32_mask(Va, Vb) != 0)
      return false;
  }
  return scalarAllLeq(A + I, B + I, N - I);
}

bool avx512AllZero(const uint32_t *A, size_t N) {
  size_t I = 0;
  __m512i Acc = _mm512_setzero_si512();
  for (; I + 16 <= N; I += 16)
    Acc = _mm512_or_si512(Acc, _mm512_loadu_si512(A + I));
  if (_mm512_test_epi32_mask(Acc, Acc) != 0)
    return false;
  return scalarAllZero(A + I, N - I);
}

size_t avx512TrimTrailingZeros(const uint32_t *A, size_t N) {
  // Scan backwards a vector at a time; the first non-zero block hands off
  // to the scalar scan for the exact boundary.
  while (N >= 16) {
    __m512i V = _mm512_loadu_si512(A + N - 16);
    if (_mm512_test_epi32_mask(V, V) != 0)
      break;
    N -= 16;
  }
  return scalarTrimTrailingZeros(A, N);
}

void avx512RemapGather(uint32_t *Dst, const uint32_t *Src,
                       const uint32_t *Idx, size_t N) {
  size_t I = 0;
  // In-place packs are safe: Idx ascends with Idx[i] >= i, so each 16-lane
  // gather reads components at or beyond the store cursor.
  for (; I + 16 <= N; I += 16) {
    __m512i Vi = _mm512_loadu_si512(Idx + I);
    __m512i Vg = _mm512_i32gather_epi32(Vi, Src, /*Scale=*/4);
    _mm512_storeu_si512(Dst + I, Vg);
  }
  scalarRemapGather(Dst + I, Src, Idx + I, N - I);
}

constexpr KernelOps Avx512Ops = {Isa::Avx512,
                                 "avx512",
                                 avx512JoinMax,
                                 avx512AllLeq,
                                 avx512AllZero,
                                 avx512TrimTrailingZeros,
                                 avx512RemapGather};

} // namespace

const KernelOps *avx512KernelOps() { return &Avx512Ops; }

} // namespace pacer::kernels::detail

#else

namespace pacer::kernels::detail {
const KernelOps *avx512KernelOps() { return nullptr; }
} // namespace pacer::kernels::detail

#endif
