//===- core/kernels/ClockKernelsSse2.cpp ----------------------------------==//
//
// SSE2 kernel bodies. SSE2 is part of the x86-64 baseline, so this TU
// needs no extra compile flags; it is empty (accessor returns nullptr) on
// other targets and under PACER_DISABLE_SIMD.
//
//===----------------------------------------------------------------------===//

#include "core/kernels/IsaOps.h"

#if !defined(PACER_DISABLE_SIMD) && (defined(__SSE2__) || defined(_M_X64))

#include <emmintrin.h>

namespace pacer::kernels::detail {
namespace {

// SSE2 lacks an unsigned 32-bit max/compare; flipping the sign bit maps
// unsigned order onto the signed compare.
inline __m128i unsignedGt(__m128i A, __m128i B) {
  const __m128i Sign = _mm_set1_epi32(static_cast<int>(0x80000000u));
  return _mm_cmpgt_epi32(_mm_xor_si128(A, Sign), _mm_xor_si128(B, Sign));
}

bool sse2JoinMax(uint32_t *A, const uint32_t *B, size_t N) {
  size_t I = 0;
  __m128i AnyGt = _mm_setzero_si128();
  for (; I + 4 <= N; I += 4) {
    __m128i Va = _mm_loadu_si128(reinterpret_cast<const __m128i *>(A + I));
    __m128i Vb = _mm_loadu_si128(reinterpret_cast<const __m128i *>(B + I));
    __m128i Gt = unsignedGt(Vb, Va); // Lanes where B > A: the join changes A.
    __m128i Vm = _mm_or_si128(_mm_and_si128(Gt, Vb), _mm_andnot_si128(Gt, Va));
    AnyGt = _mm_or_si128(AnyGt, Gt);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(A + I), Vm);
  }
  bool Changed = _mm_movemask_epi8(AnyGt) != 0;
  return scalarJoinMax(A + I, B + I, N - I) || Changed;
}

bool sse2AllLeq(const uint32_t *A, const uint32_t *B, size_t N) {
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    __m128i Va = _mm_loadu_si128(reinterpret_cast<const __m128i *>(A + I));
    __m128i Vb = _mm_loadu_si128(reinterpret_cast<const __m128i *>(B + I));
    if (_mm_movemask_epi8(unsignedGt(Va, Vb)) != 0)
      return false;
  }
  return scalarAllLeq(A + I, B + I, N - I);
}

bool sse2AllZero(const uint32_t *A, size_t N) {
  size_t I = 0;
  __m128i Acc = _mm_setzero_si128();
  for (; I + 4 <= N; I += 4)
    Acc = _mm_or_si128(
        Acc, _mm_loadu_si128(reinterpret_cast<const __m128i *>(A + I)));
  if (_mm_movemask_epi8(_mm_cmpeq_epi32(Acc, _mm_setzero_si128())) != 0xffff)
    return false;
  return scalarAllZero(A + I, N - I);
}

size_t sse2TrimTrailingZeros(const uint32_t *A, size_t N) {
  while (N >= 4) {
    __m128i V = _mm_loadu_si128(reinterpret_cast<const __m128i *>(A + N - 4));
    if (_mm_movemask_epi8(_mm_cmpeq_epi32(V, _mm_setzero_si128())) != 0xffff)
      break;
    N -= 4;
  }
  return scalarTrimTrailingZeros(A, N);
}

// SSE2 has no gather instruction; the scalar remap gather is the fast path.
constexpr KernelOps Sse2Ops = {Isa::Sse2,
                               "sse2",
                               sse2JoinMax,
                               sse2AllLeq,
                               sse2AllZero,
                               sse2TrimTrailingZeros,
                               scalarRemapGather};

} // namespace

const KernelOps *sse2KernelOps() { return &Sse2Ops; }

} // namespace pacer::kernels::detail

#else

namespace pacer::kernels::detail {
const KernelOps *sse2KernelOps() { return nullptr; }
} // namespace pacer::kernels::detail

#endif
