#include "routing/alt_kernels.h"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define KSPIN_ALT_X86 1
#include <immintrin.h>
#else
#define KSPIN_ALT_X86 0
#endif

namespace kspin::detail {
namespace {

// Rows of the next targets to prefetch while the current one computes.
// One block ahead covers the ~10-cycle L2 latency at 2-cache-line rows.
constexpr std::size_t kPrefetchAhead = 4;

inline void PrefetchRow(const Distance* rows, std::size_t stride,
                        const VertexId* targets, std::size_t count,
                        std::size_t i) {
  if (i + kPrefetchAhead < count) {
    const Distance* row =
        rows + static_cast<std::size_t>(targets[i + kPrefetchAhead]) * stride;
    __builtin_prefetch(row, 0, 1);
    __builtin_prefetch(row + 8, 0, 1);  // Second line of a 16-landmark row.
  }
}

}  // namespace

void AltBatchScalar(const Distance* src_row, const Distance* rows,
                    std::size_t stride, const VertexId* targets,
                    std::size_t count, Distance* out) {
  for (std::size_t i = 0; i < count; ++i) {
    PrefetchRow(rows, stride, targets, count, i);
    const Distance* t_row =
        rows + static_cast<std::size_t>(targets[i]) * stride;
    Distance best = 0;
    for (std::size_t l = 0; l < stride; ++l) {
      const Distance ds = src_row[l];
      const Distance dt = t_row[l];
      const Distance diff = ds > dt ? ds - dt : dt - ds;
      if (diff > best) best = diff;
    }
    out[i] = best;
  }
}

#if KSPIN_ALT_X86

namespace {

// ----- AVX2 ----------------------------------------------------------------

#if defined(__GNUC__) || defined(__clang__)

__attribute__((target("avx2"))) inline __m256i CmpGtEpu64Avx2(__m256i a,
                                                              __m256i b) {
  const __m256i sign =
      _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull));
  return _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign),
                            _mm256_xor_si256(b, sign));
}

__attribute__((target("avx2"))) void AltBatchAvx2(
    const Distance* src_row, const Distance* rows, std::size_t stride,
    const VertexId* targets, std::size_t count, Distance* out) {
  for (std::size_t i = 0; i < count; ++i) {
    PrefetchRow(rows, stride, targets, count, i);
    const Distance* t_row =
        rows + static_cast<std::size_t>(targets[i]) * stride;
    __m256i best = _mm256_setzero_si256();
    for (std::size_t l = 0; l < stride; l += 4) {
      const __m256i a = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(src_row + l));
      const __m256i b = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(t_row + l));
      const __m256i diff = _mm256_blendv_epi8(
          _mm256_sub_epi64(b, a), _mm256_sub_epi64(a, b),
          CmpGtEpu64Avx2(a, b));
      best = _mm256_blendv_epi8(best, diff, CmpGtEpu64Avx2(diff, best));
    }
    alignas(32) Distance lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), best);
    Distance m = lanes[0];
    if (lanes[1] > m) m = lanes[1];
    if (lanes[2] > m) m = lanes[2];
    if (lanes[3] > m) m = lanes[3];
    out[i] = m;
  }
}

#define KSPIN_ALT_HAVE_AVX2 1

// ----- AVX-512F ------------------------------------------------------------
//
// AVX-512F has native 64-bit unsigned max/min, so |a - b| is just
// max(a, b) - min(a, b): no sign-flip compares, no blends, and a full
// 16-landmark row is two loads.

__attribute__((target("avx512f"))) void AltBatchAvx512(
    const Distance* src_row, const Distance* rows, std::size_t stride,
    const VertexId* targets, std::size_t count, Distance* out) {
  for (std::size_t i = 0; i < count; ++i) {
    PrefetchRow(rows, stride, targets, count, i);
    const Distance* t_row =
        rows + static_cast<std::size_t>(targets[i]) * stride;
    __m512i best = _mm512_setzero_si512();
    for (std::size_t l = 0; l < stride; l += 8) {
      const __m512i a = _mm512_load_si512(src_row + l);
      const __m512i b = _mm512_load_si512(t_row + l);
      const __m512i diff =
          _mm512_sub_epi64(_mm512_max_epu64(a, b), _mm512_min_epu64(a, b));
      best = _mm512_max_epu64(best, diff);
    }
    out[i] = _mm512_reduce_max_epu64(best);
  }
}

#define KSPIN_ALT_HAVE_AVX512 1
#else
#define KSPIN_ALT_HAVE_AVX2 0
#define KSPIN_ALT_HAVE_AVX512 0
#endif  // __GNUC__ || __clang__

inline bool CpuHasAvx2() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

inline bool CpuHasAvx512() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

}  // namespace
#endif  // KSPIN_ALT_X86

namespace {

struct SelectedKernel {
  const char* name;
  AltBatchKernelFn fn;
};

SelectedKernel Select() {
  const char* force = std::getenv("KSPIN_ALT_KERNEL");
#if KSPIN_ALT_X86
  if (force != nullptr) {
    if (std::strcmp(force, "scalar") == 0) return {"scalar", AltBatchScalar};
#if KSPIN_ALT_HAVE_AVX2
    if (std::strcmp(force, "avx2") == 0 && CpuHasAvx2()) {
      return {"avx2", AltBatchAvx2};
    }
#endif
#if KSPIN_ALT_HAVE_AVX512
    if (std::strcmp(force, "avx512") == 0 && CpuHasAvx512()) {
      return {"avx512", AltBatchAvx512};
    }
#endif
    // Unknown or unsupported override: fall through to auto-detection.
  }
#if KSPIN_ALT_HAVE_AVX512
  if (CpuHasAvx512()) return {"avx512", AltBatchAvx512};
#endif
#if KSPIN_ALT_HAVE_AVX2
  if (CpuHasAvx2()) return {"avx2", AltBatchAvx2};
#endif
  return {"scalar", AltBatchScalar};
#else
  (void)force;
  return {"scalar", AltBatchScalar};
#endif
}

const SelectedKernel& Cached() {
  static const SelectedKernel kernel = Select();
  return kernel;
}

}  // namespace

AltBatchKernelFn AltBatchKernel() { return Cached().fn; }

const char* AltBatchKernelName() { return Cached().name; }

std::vector<AltKernelInfo> AvailableAltKernels() {
  std::vector<AltKernelInfo> kernels = {{"scalar", AltBatchScalar}};
#if KSPIN_ALT_X86
#if KSPIN_ALT_HAVE_AVX2
  if (CpuHasAvx2()) kernels.push_back({"avx2", AltBatchAvx2});
#endif
#if KSPIN_ALT_HAVE_AVX512
  if (CpuHasAvx512()) kernels.push_back({"avx512", AltBatchAvx512});
#endif
#endif
  return kernels;
}

}  // namespace kspin::detail
