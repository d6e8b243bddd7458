// Batch kernels for ALT triangle-inequality lower bounds over the
// vertex-major landmark layout (docs/performance.md).
//
// A kernel evaluates, for one source vertex s and a block of targets,
//   out[i] = max over landmarks l of |d(l, s) - d(l, targets[i])|
// reading one contiguous, 64-byte-aligned row per vertex. The AVX-512
// variant uses native 64-bit unsigned max/min (|a-b| = max - min); AVX2
// vectorizes the reduction with the sign-flip trick for unsigned
// compares. All variants are bit-identical to the scalar per-pair loop,
// so query results never depend on the host CPU.
//
// Dispatch happens once, at first use: AltBatchKernel() probes the CPU
// (and the KSPIN_ALT_KERNEL env override: "scalar", "avx2" or "avx512")
// and caches the selected function pointer.
#ifndef KSPIN_ROUTING_ALT_KERNELS_H_
#define KSPIN_ROUTING_ALT_KERNELS_H_

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace kspin::detail {

/// Batch lower-bound kernel signature. `src_row` is the source vertex's
/// landmark row; `rows` is the base of the whole vertex-major matrix with
/// `stride` Distances per row (a multiple of 8, zero-padded past the real
/// landmark count so padding lanes contribute |0-0| = 0 to the max).
using AltBatchKernelFn = void (*)(const Distance* src_row,
                                  const Distance* rows, std::size_t stride,
                                  const VertexId* targets, std::size_t count,
                                  Distance* out);

/// Portable reference kernel (also the padding-lane semantics oracle).
void AltBatchScalar(const Distance* src_row, const Distance* rows,
                    std::size_t stride, const VertexId* targets,
                    std::size_t count, Distance* out);

/// The kernel selected for this process: best supported of AVX-512 >
/// AVX2 > scalar, overridable via KSPIN_ALT_KERNEL. Probed once, then
/// cached.
AltBatchKernelFn AltBatchKernel();

/// Name of the kernel AltBatchKernel() selected ("avx512", "avx2",
/// "scalar") — surfaced in bench output and startup logs.
const char* AltBatchKernelName();

/// Every kernel this binary can run on this CPU (scalar always included).
/// Tests iterate this to assert SIMD/scalar bit-equality.
struct AltKernelInfo {
  const char* name;
  AltBatchKernelFn fn;
};
std::vector<AltKernelInfo> AvailableAltKernels();

}  // namespace kspin::detail

#endif  // KSPIN_ROUTING_ALT_KERNELS_H_
