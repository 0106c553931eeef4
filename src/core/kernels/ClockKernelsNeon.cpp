//===- core/kernels/ClockKernelsNeon.cpp ----------------------------------==//
//
// NEON kernel bodies. NEON is part of the aarch64 baseline, so this TU
// needs no extra compile flags; it is empty (accessor returns nullptr) on
// other targets and under PACER_DISABLE_SIMD.
//
//===----------------------------------------------------------------------===//

#include "core/kernels/IsaOps.h"

#if !defined(PACER_DISABLE_SIMD) && defined(__aarch64__) && \
    defined(__ARM_NEON)

#include <arm_neon.h>

namespace pacer::kernels::detail {
namespace {

bool neonJoinMax(uint32_t *A, const uint32_t *B, size_t N) {
  size_t I = 0;
  uint32x4_t Diff = vdupq_n_u32(0);
  for (; I + 4 <= N; I += 4) {
    uint32x4_t Va = vld1q_u32(A + I);
    uint32x4_t Vb = vld1q_u32(B + I);
    uint32x4_t Vm = vmaxq_u32(Va, Vb);
    Diff = vorrq_u32(Diff, veorq_u32(Vm, Va));
    vst1q_u32(A + I, Vm);
  }
  bool Changed = vmaxvq_u32(Diff) != 0;
  return scalarJoinMax(A + I, B + I, N - I) || Changed;
}

bool neonAllLeq(const uint32_t *A, const uint32_t *B, size_t N) {
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    if (vmaxvq_u32(vcgtq_u32(vld1q_u32(A + I), vld1q_u32(B + I))) != 0)
      return false;
  }
  return scalarAllLeq(A + I, B + I, N - I);
}

bool neonAllZero(const uint32_t *A, size_t N) {
  size_t I = 0;
  uint32x4_t Acc = vdupq_n_u32(0);
  for (; I + 4 <= N; I += 4)
    Acc = vorrq_u32(Acc, vld1q_u32(A + I));
  if (vmaxvq_u32(Acc) != 0)
    return false;
  return scalarAllZero(A + I, N - I);
}

size_t neonTrimTrailingZeros(const uint32_t *A, size_t N) {
  while (N >= 4) {
    if (vmaxvq_u32(vld1q_u32(A + N - 4)) != 0)
      break;
    N -= 4;
  }
  return scalarTrimTrailingZeros(A, N);
}

// NEON has no gather instruction; the scalar remap gather is the fast path.
constexpr KernelOps NeonOps = {Isa::Neon,
                               "neon",
                               neonJoinMax,
                               neonAllLeq,
                               neonAllZero,
                               neonTrimTrailingZeros,
                               scalarRemapGather};

} // namespace

const KernelOps *neonKernelOps() { return &NeonOps; }

} // namespace pacer::kernels::detail

#else

namespace pacer::kernels::detail {
const KernelOps *neonKernelOps() { return nullptr; }
} // namespace pacer::kernels::detail

#endif
