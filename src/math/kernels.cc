#include "math/kernels.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/thread_pool.h"

// Per-function SIMD dispatch (x86-64 GCC/Clang): the AVX2 micro-kernels
// below are compiled with target attributes and selected at runtime, so the
// binary stays runnable on baseline x86-64 while using the wide units when
// present. Determinism note: which kernel runs depends only on the host CPU,
// never on the thread count, so results remain bit-identical across
// concurrency on any one machine.
//
// Summation order (DESIGN.md §9): only GemmTransBBlockAvx2's 3-row tiles
// use fused multiply-adds, each written out (_mm256_fmadd_pd, std::fma).
// Every other element -- the remainder rows, the remainder columns,
// GemmTransAInto, and the baseline path -- is a sequential sum with a
// separate multiply and add. The library is built with -ffp-contract=off,
// so GCC fuses nothing on its own at any -O level; the kernels that must
// not fuse are also compiled with target("avx2") only and marked noinline,
// which keeps them out of the "avx2,fma" tile kernel's body.
//
// Upper YMM state (DESIGN.md §9): the rest of the program is legacy-SSE
// code, and while the upper halves of YMM0-15 are dirty each of its
// instructions pays a transition cost (a glibc log1p loop ran 26x slower)
// until some vzeroupper runs. GCC 12 emits vzeroupper by itself only at -O2
// and up, and even there not before a tail jump, so both AVX2 kernels that
// baseline code calls end with an explicit _mm256_zeroupper().
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QB_KERNELS_X86_DISPATCH 1
#include <immintrin.h>
#else
#define QB_KERNELS_X86_DISPATCH 0
#endif

namespace qb5000 {
namespace {

/// Rows of A and Bt touched per micro-tile. 2x4 keeps the eight running
/// sums plus the six stream heads in registers on baseline x86-64 (sixteen
/// xmm registers, no AVX assumed).
constexpr size_t kMicroRowsA = 2;
constexpr size_t kMicroRowsB = 4;

/// K-dimension cache block: 6 concurrent streams of kKc doubles stay within
/// L1 (6 * 512 * 8 B = 24 KB), so each micro-tile's inner loop runs out of
/// cache even when the full operands do not fit.
constexpr size_t kKc = 512;

/// Row-dimension cache block: one A panel of kMc x kKc doubles (256 KB)
/// stays L2-resident while the vector kernel streams every B tile past it,
/// so B is re-read from beyond L2 only ceil(m / kMc) times.
constexpr size_t kMc = 64;

/// C[m x n] (+)= A[m x kb] * Bt[n x kb]^T over one k-block, 2x4 register
/// tiling with scalar edge handling.
void GemmTransBBlock(const double* a, size_t lda, const double* bt, size_t ldb,
                     double* c, size_t ldc, size_t m, size_t kb, size_t n,
                     bool accumulate) {
  size_t i = 0;
  for (; i + kMicroRowsA <= m; i += kMicroRowsA) {
    const double* a0 = a + i * lda;
    const double* a1 = a0 + lda;
    double* c0 = c + i * ldc;
    double* c1 = c0 + ldc;
    size_t j = 0;
    for (; j + kMicroRowsB <= n; j += kMicroRowsB) {
      const double* b0 = bt + j * ldb;
      const double* b1 = b0 + ldb;
      const double* b2 = b1 + ldb;
      const double* b3 = b2 + ldb;
      double s00 = 0.0, s01 = 0.0, s02 = 0.0, s03 = 0.0;
      double s10 = 0.0, s11 = 0.0, s12 = 0.0, s13 = 0.0;
      for (size_t p = 0; p < kb; ++p) {
        double av0 = a0[p], av1 = a1[p];
        double bv0 = b0[p], bv1 = b1[p], bv2 = b2[p], bv3 = b3[p];
        s00 += av0 * bv0;
        s01 += av0 * bv1;
        s02 += av0 * bv2;
        s03 += av0 * bv3;
        s10 += av1 * bv0;
        s11 += av1 * bv1;
        s12 += av1 * bv2;
        s13 += av1 * bv3;
      }
      if (accumulate) {
        c0[j] += s00, c0[j + 1] += s01, c0[j + 2] += s02, c0[j + 3] += s03;
        c1[j] += s10, c1[j + 1] += s11, c1[j + 2] += s12, c1[j + 3] += s13;
      } else {
        c0[j] = s00, c0[j + 1] = s01, c0[j + 2] = s02, c0[j + 3] = s03;
        c1[j] = s10, c1[j + 1] = s11, c1[j + 2] = s12, c1[j + 3] = s13;
      }
    }
    for (; j < n; ++j) {
      const double* bj = bt + j * ldb;
      double s0 = 0.0, s1 = 0.0;
      for (size_t p = 0; p < kb; ++p) {
        s0 += a0[p] * bj[p];
        s1 += a1[p] * bj[p];
      }
      if (accumulate) {
        c0[j] += s0, c1[j] += s1;
      } else {
        c0[j] = s0, c1[j] = s1;
      }
    }
  }
  for (; i < m; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    size_t j = 0;
    for (; j + kMicroRowsB <= n; j += kMicroRowsB) {
      const double* b0 = bt + j * ldb;
      const double* b1 = b0 + ldb;
      const double* b2 = b1 + ldb;
      const double* b3 = b2 + ldb;
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (size_t p = 0; p < kb; ++p) {
        double av = ai[p];
        s0 += av * b0[p];
        s1 += av * b1[p];
        s2 += av * b2[p];
        s3 += av * b3[p];
      }
      if (accumulate) {
        ci[j] += s0, ci[j + 1] += s1, ci[j + 2] += s2, ci[j + 3] += s3;
      } else {
        ci[j] = s0, ci[j + 1] = s1, ci[j + 2] = s2, ci[j + 3] = s3;
      }
    }
    for (; j < n; ++j) {
      const double* bj = bt + j * ldb;
      double s = 0.0;
      for (size_t p = 0; p < kb; ++p) s += ai[p] * bj[p];
      if (accumulate) {
        ci[j] += s;
      } else {
        ci[j] = s;
      }
    }
  }
}

/// C[k x n] (+)= A[m x k]^T * B[m x n]. Walks C one row at a time and keeps
/// each 8-column block's sums in registers across the m loop, so C is read
/// and written once; element (i, j) starts from C (or 0.0) and adds
/// a[r][i] * b[r][j] for r = 0, 1, ... in order.
void GemmTransAScalar(const double* a, size_t lda, const double* b,
                      size_t ldb, double* c, size_t ldc, size_t m, size_t k,
                      size_t n, bool accumulate) {
  constexpr size_t kCols = 8;
  for (size_t i = 0; i < k; ++i) {
    double* ci = c + i * ldc;
    size_t j = 0;
    for (; j + kCols <= n; j += kCols) {
      double s[kCols];
      for (size_t q = 0; q < kCols; ++q) s[q] = accumulate ? ci[j + q] : 0.0;
      for (size_t r = 0; r < m; ++r) {
        double av = a[r * lda + i];
        const double* br = b + r * ldb + j;
        for (size_t q = 0; q < kCols; ++q) s[q] += av * br[q];
      }
      std::copy_n(s, kCols, ci + j);
    }
    for (; j < n; ++j) {
      double s = accumulate ? ci[j] : 0.0;
      for (size_t r = 0; r < m; ++r) s += a[r * lda + i] * b[r * ldb + j];
      ci[j] = s;
    }
  }
}

#if QB_KERNELS_X86_DISPATCH

/// kRows rows of GemmTransAAvx2's C (1 or 2), the first at column 0 of A:
/// their 16-column blocks, then their 4-column blocks, stay in ymm
/// registers across the m loop, and the rows share each B load.
template <size_t kRows>
__attribute__((target("avx2"), always_inline)) inline void GemmTransARowsAvx2(
    const double* a, size_t lda, const double* b, size_t ldb, double* c,
    size_t ldc, size_t m, size_t n, bool accumulate) {
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256d s[kRows][4];
    for (size_t row = 0; row < kRows; ++row) {
      for (size_t q = 0; q < 4; ++q) {
        s[row][q] = accumulate ? _mm256_loadu_pd(c + row * ldc + j + 4 * q)
                               : _mm256_setzero_pd();
      }
    }
    for (size_t r = 0; r < m; ++r) {
      const double* br = b + r * ldb + j;
      const __m256d bv[4] = {_mm256_loadu_pd(br), _mm256_loadu_pd(br + 4),
                             _mm256_loadu_pd(br + 8),
                             _mm256_loadu_pd(br + 12)};
      for (size_t row = 0; row < kRows; ++row) {
        __m256d av = _mm256_broadcast_sd(a + r * lda + row);
        for (size_t q = 0; q < 4; ++q) {
          s[row][q] = _mm256_add_pd(s[row][q], _mm256_mul_pd(av, bv[q]));
        }
      }
    }
    for (size_t row = 0; row < kRows; ++row) {
      for (size_t q = 0; q < 4; ++q) {
        _mm256_storeu_pd(c + row * ldc + j + 4 * q, s[row][q]);
      }
    }
  }
  for (; j + 4 <= n; j += 4) {
    __m256d s[kRows];
    for (size_t row = 0; row < kRows; ++row) {
      s[row] = accumulate ? _mm256_loadu_pd(c + row * ldc + j)
                          : _mm256_setzero_pd();
    }
    for (size_t r = 0; r < m; ++r) {
      __m256d bv = _mm256_loadu_pd(b + r * ldb + j);
      for (size_t row = 0; row < kRows; ++row) {
        __m256d av = _mm256_broadcast_sd(a + r * lda + row);
        s[row] = _mm256_add_pd(s[row], _mm256_mul_pd(av, bv));
      }
    }
    for (size_t row = 0; row < kRows; ++row) {
      _mm256_storeu_pd(c + row * ldc + j, s[row]);
    }
  }
  for (; j < n; ++j) {
    for (size_t row = 0; row < kRows; ++row) {
      double s = accumulate ? c[row * ldc + j] : 0.0;
      for (size_t r = 0; r < m; ++r) s += a[r * lda + row] * b[r * ldb + j];
      c[row * ldc + j] = s;
    }
  }
}

/// AVX2 variant of GemmTransAScalar, two C rows at a time. No "fma" target,
/// so each lane is the same multiply-then-add sum as the scalar kernel.
__attribute__((target("avx2"), noinline)) void GemmTransAAvx2(
    const double* a, size_t lda, const double* b, size_t ldb, double* c,
    size_t ldc, size_t m, size_t k, size_t n, bool accumulate) {
  size_t i = 0;
  for (; i + 2 <= k; i += 2) {
    GemmTransARowsAvx2<2>(a + i, lda, b, ldb, c + i * ldc, ldc, m, n,
                          accumulate);
  }
  if (i < k) {
    GemmTransARowsAvx2<1>(a + i, lda, b, ldb, c + i * ldc, ldc, m, n,
                          accumulate);
  }
  _mm256_zeroupper();  // see "Upper YMM state" above
}

/// kRows rows (1 or 2) by kTiles 4-column tiles of GemmTransBRowsAvx2. The
/// four columns of a tile are the lanes of one vector and B is transposed in
/// registers 4x4 at a time, so each lane sums a[p] * b[p] for p = 0, 1, ...
/// from 0.0 with a separate multiply and add, exactly as the scalar
/// GemmTransBBlock does.
template <size_t kRows, size_t kTiles>
__attribute__((target("avx2"), always_inline)) inline void GemmTransBRowsTile(
    const double* a, size_t lda, const double* bt, size_t ldb, double* c,
    size_t ldc, size_t kb, bool accumulate) {
  __m256d s[kRows][kTiles] = {};
  size_t p = 0;
  for (; p + 4 <= kb; p += 4) {
    for (size_t t = 0; t < kTiles; ++t) {
      const double* b0 = bt + 4 * t * ldb + p;
      __m256d r0 = _mm256_loadu_pd(b0);
      __m256d r1 = _mm256_loadu_pd(b0 + ldb);
      __m256d r2 = _mm256_loadu_pd(b0 + 2 * ldb);
      __m256d r3 = _mm256_loadu_pd(b0 + 3 * ldb);
      __m256d lo01 = _mm256_unpacklo_pd(r0, r1);
      __m256d hi01 = _mm256_unpackhi_pd(r0, r1);
      __m256d lo23 = _mm256_unpacklo_pd(r2, r3);
      __m256d hi23 = _mm256_unpackhi_pd(r2, r3);
      // col[q] holds element p + q of the tile's four B rows.
      const __m256d col[4] = {_mm256_permute2f128_pd(lo01, lo23, 0x20),
                              _mm256_permute2f128_pd(hi01, hi23, 0x20),
                              _mm256_permute2f128_pd(lo01, lo23, 0x31),
                              _mm256_permute2f128_pd(hi01, hi23, 0x31)};
      for (size_t q = 0; q < 4; ++q) {
        for (size_t r = 0; r < kRows; ++r) {
          __m256d av = _mm256_broadcast_sd(a + r * lda + p + q);
          s[r][t] = _mm256_add_pd(s[r][t], _mm256_mul_pd(av, col[q]));
        }
      }
    }
  }
  for (; p < kb; ++p) {
    for (size_t t = 0; t < kTiles; ++t) {
      const double* b0 = bt + 4 * t * ldb + p;
      __m256d col = _mm256_setr_pd(b0[0], b0[ldb], b0[2 * ldb], b0[3 * ldb]);
      for (size_t r = 0; r < kRows; ++r) {
        __m256d av = _mm256_broadcast_sd(a + r * lda + p);
        s[r][t] = _mm256_add_pd(s[r][t], _mm256_mul_pd(av, col));
      }
    }
  }
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t t = 0; t < kTiles; ++t) {
      double* cr = c + r * ldc + 4 * t;
      if (accumulate) s[r][t] = _mm256_add_pd(_mm256_loadu_pd(cr), s[r][t]);
      _mm256_storeu_pd(cr, s[r][t]);
    }
  }
}

/// The rows of GemmTransBBlockAvx2 below its last 3-row tile (kRows = m % 3)
/// over the first n4 columns (a multiple of 4), in one call, two column
/// tiles at a time so there are independent sums in flight.
template <size_t kRows>
__attribute__((target("avx2"), noinline)) void GemmTransBRowsAvx2(
    const double* a, size_t lda, const double* bt, size_t ldb, double* c,
    size_t ldc, size_t kb, size_t n4, bool accumulate) {
  size_t j = 0;
  for (; j + 2 * kMicroRowsB <= n4; j += 2 * kMicroRowsB) {
    GemmTransBRowsTile<kRows, 2>(a, lda, bt + j * ldb, ldb, c + j, ldc, kb,
                                 accumulate);
  }
  if (j < n4) {
    GemmTransBRowsTile<kRows, 1>(a, lda, bt + j * ldb, ldb, c + j, ldc, kb,
                                 accumulate);
  }
}

/// Lane sum of one 4-wide accumulator: low+high 128-bit halves, then the
/// two remaining lanes. Fixed order — part of the kernel's deterministic
/// summation contract.
__attribute__((target("avx2,fma"))) inline double HorizontalSum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  __m128d swapped = _mm_unpackhi_pd(lo, lo);
  return _mm_cvtsd_f64(_mm_add_sd(lo, swapped));
}

/// AVX2+FMA variant of GemmTransBBlock: rows in 3x4 tiles whose twelve
/// accumulators are 4-lane vectors, reduced lane-wise at the tile edge with
/// the scalar k-tail added last. The j-tile loop is OUTER and the row loop
/// inner, so one 4-row B tile (4 * kb doubles, 16 KB at kb = 512) stays in
/// L1 while every row triple of the A panel streams past it; the caller
/// bounds m so the A panel itself stays in L2. The m % 3 rows left over and
/// the n % 4 columns left over keep the scalar kernel's sequential order.
__attribute__((target("avx2,fma"))) void GemmTransBBlockAvx2(
    const double* a, size_t lda, const double* bt, size_t ldb, double* c,
    size_t ldc, size_t m, size_t kb, size_t n, bool accumulate) {
  size_t m3 = m - m % 3;
  size_t j = 0;
  for (; j + kMicroRowsB <= n; j += kMicroRowsB) {
    const double* b0 = bt + j * ldb;
    const double* b1 = b0 + ldb;
    const double* b2 = b1 + ldb;
    const double* b3 = b2 + ldb;
    for (size_t i = 0; i < m3; i += 3) {
      const double* a0 = a + i * lda;
      const double* a1 = a0 + lda;
      const double* a2 = a1 + lda;
      double* c0 = c + i * ldc;
      double* c1 = c0 + ldc;
      double* c2 = c1 + ldc;
      // 3x4 vector tile: 12 accumulators + 3 A loads + 1 B temp fill the
      // 16-register ymm file exactly; 12 FMAs amortize 7 loads per k-step.
      __m256d s00 = _mm256_setzero_pd(), s01 = _mm256_setzero_pd();
      __m256d s02 = _mm256_setzero_pd(), s03 = _mm256_setzero_pd();
      __m256d s10 = _mm256_setzero_pd(), s11 = _mm256_setzero_pd();
      __m256d s12 = _mm256_setzero_pd(), s13 = _mm256_setzero_pd();
      __m256d s20 = _mm256_setzero_pd(), s21 = _mm256_setzero_pd();
      __m256d s22 = _mm256_setzero_pd(), s23 = _mm256_setzero_pd();
      size_t p = 0;
      for (; p + 4 <= kb; p += 4) {
        __m256d av0 = _mm256_loadu_pd(a0 + p);
        __m256d av1 = _mm256_loadu_pd(a1 + p);
        __m256d av2 = _mm256_loadu_pd(a2 + p);
        __m256d bv = _mm256_loadu_pd(b0 + p);
        s00 = _mm256_fmadd_pd(av0, bv, s00);
        s10 = _mm256_fmadd_pd(av1, bv, s10);
        s20 = _mm256_fmadd_pd(av2, bv, s20);
        bv = _mm256_loadu_pd(b1 + p);
        s01 = _mm256_fmadd_pd(av0, bv, s01);
        s11 = _mm256_fmadd_pd(av1, bv, s11);
        s21 = _mm256_fmadd_pd(av2, bv, s21);
        bv = _mm256_loadu_pd(b2 + p);
        s02 = _mm256_fmadd_pd(av0, bv, s02);
        s12 = _mm256_fmadd_pd(av1, bv, s12);
        s22 = _mm256_fmadd_pd(av2, bv, s22);
        bv = _mm256_loadu_pd(b3 + p);
        s03 = _mm256_fmadd_pd(av0, bv, s03);
        s13 = _mm256_fmadd_pd(av1, bv, s13);
        s23 = _mm256_fmadd_pd(av2, bv, s23);
      }
      double r00 = HorizontalSum(s00), r01 = HorizontalSum(s01);
      double r02 = HorizontalSum(s02), r03 = HorizontalSum(s03);
      double r10 = HorizontalSum(s10), r11 = HorizontalSum(s11);
      double r12 = HorizontalSum(s12), r13 = HorizontalSum(s13);
      double r20 = HorizontalSum(s20), r21 = HorizontalSum(s21);
      double r22 = HorizontalSum(s22), r23 = HorizontalSum(s23);
      // The k % 4 tail, fused as well: explicit so every build type
      // (-O0 included) computes the same bits under -ffp-contract=off.
      for (; p < kb; ++p) {
        double av0 = a0[p], av1 = a1[p], av2 = a2[p];
        double bv0 = b0[p], bv1 = b1[p], bv2 = b2[p], bv3 = b3[p];
        r00 = std::fma(av0, bv0, r00);
        r01 = std::fma(av0, bv1, r01);
        r02 = std::fma(av0, bv2, r02);
        r03 = std::fma(av0, bv3, r03);
        r10 = std::fma(av1, bv0, r10);
        r11 = std::fma(av1, bv1, r11);
        r12 = std::fma(av1, bv2, r12);
        r13 = std::fma(av1, bv3, r13);
        r20 = std::fma(av2, bv0, r20);
        r21 = std::fma(av2, bv1, r21);
        r22 = std::fma(av2, bv2, r22);
        r23 = std::fma(av2, bv3, r23);
      }
      if (accumulate) {
        c0[j] += r00, c0[j + 1] += r01, c0[j + 2] += r02, c0[j + 3] += r03;
        c1[j] += r10, c1[j + 1] += r11, c1[j + 2] += r12, c1[j + 3] += r13;
        c2[j] += r20, c2[j + 1] += r21, c2[j + 2] += r22, c2[j + 3] += r23;
      } else {
        c0[j] = r00, c0[j + 1] = r01, c0[j + 2] = r02, c0[j + 3] = r03;
        c1[j] = r10, c1[j + 1] = r11, c1[j + 2] = r12, c1[j + 3] = r13;
        c2[j] = r20, c2[j + 1] = r21, c2[j + 2] = r22, c2[j + 3] = r23;
      }
    }
  }
  if (m - m3 == 1) {
    GemmTransBRowsAvx2<1>(a + m3 * lda, lda, bt, ldb, c + m3 * ldc, ldc, kb,
                          j, accumulate);
  } else if (m - m3 == 2) {
    GemmTransBRowsAvx2<2>(a + m3 * lda, lda, bt, ldb, c + m3 * ldc, ldc, kb,
                          j, accumulate);
  }
  // Only legacy-SSE code runs from here on, starting with the scalar
  // kernel that GCC would reach by a tail jump without vzeroupper.
  _mm256_zeroupper();
  if (j < n) {
    // Column remainder: scalar edge handling on the narrow sub-panel.
    GemmTransBBlock(a, lda, bt + j * ldb, ldb, c + j, ldc, m, kb, n - j,
                    accumulate);
  }
}

#endif  // QB_KERNELS_X86_DISPATCH

using GemmBlockFn = void (*)(const double*, size_t, const double*, size_t,
                             double*, size_t, size_t, size_t, size_t, bool);

GemmBlockFn PickGemmBlockFn() {
#if QB_KERNELS_X86_DISPATCH
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return GemmTransBBlockAvx2;
  }
#endif
  return GemmTransBBlock;
}

GemmBlockFn PickGemmTransAFn() {
#if QB_KERNELS_X86_DISPATCH
  if (__builtin_cpu_supports("avx2")) return GemmTransAAvx2;
#endif
  return GemmTransAScalar;
}

/// Resolved once at static-init time; constant for the process lifetime.
const GemmBlockFn kGemmBlockFn = PickGemmBlockFn();
const GemmBlockFn kGemmTransAFn = PickGemmTransAFn();

/// Per-thread packing buffer for GemmInto's B transpose. Pool workers are
/// long-lived, so steady-state calls never touch the allocator.
std::vector<double>& PackScratch() {
  thread_local std::vector<double> scratch;
  return scratch;
}

}  // namespace

void GemmTransBInto(const double* a, size_t lda, const double* bt, size_t ldb,
                    double* c, size_t ldc, size_t m, size_t k, size_t n,
                    bool accumulate) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) {
      for (size_t i = 0; i < m; ++i) std::fill_n(c + i * ldc, n, 0.0);
    }
    return;
  }
  for (size_t k0 = 0; k0 < k; k0 += kKc) {
    size_t kb = std::min(kKc, k - k0);
    for (size_t i0 = 0; i0 < m; i0 += kMc) {
      size_t mb = std::min(kMc, m - i0);
      kGemmBlockFn(a + i0 * lda + k0, lda, bt + k0, ldb, c + i0 * ldc, ldc,
                   mb, kb, n, accumulate || k0 > 0);
    }
  }
}

void GemmInto(const double* a, size_t lda, const double* b, size_t ldb,
              double* c, size_t ldc, size_t m, size_t k, size_t n,
              bool accumulate) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) {
      for (size_t i = 0; i < m; ++i) std::fill_n(c + i * ldc, n, 0.0);
    }
    return;
  }
  std::vector<double>& bt = PackScratch();
  bt.resize(k * n);
  TransposeInto(b, ldb, k, n, bt.data());
  GemmTransBInto(a, lda, bt.data(), k, c, ldc, m, k, n, accumulate);
}

void TransposeInto(const double* b, size_t ldb, size_t k, size_t n,
                   double* bt) {
  for (size_t p = 0; p < k; ++p) {
    const double* brow = b + p * ldb;
    for (size_t j = 0; j < n; ++j) bt[j * k + p] = brow[j];
  }
}

void GemmTransAInto(const double* a, size_t lda, const double* b, size_t ldb,
                    double* c, size_t ldc, size_t m, size_t k, size_t n,
                    bool accumulate) {
  kGemmTransAFn(a, lda, b, ldb, c, ldc, m, k, n, accumulate);
}

void GemvInto(const double* a, size_t lda, const double* x, double* y,
              size_t m, size_t n, bool accumulate) {
  for (size_t i = 0; i < m; ++i) {
    const double* row = a + i * lda;
    double s = 0.0;
    for (size_t j = 0; j < n; ++j) s += row[j] * x[j];
    if (accumulate) {
      y[i] += s;
    } else {
      y[i] = s;
    }
  }
}

void AxpyInto(double* y, double alpha, const double* x, size_t n) {
  for (size_t j = 0; j < n; ++j) y[j] += alpha * x[j];
}

void MatMulInto(const Matrix& a, const Matrix& b, Matrix& out) {
  QB_CHECK_EQ(a.cols(), b.rows());
  QB_CHECK_EQ(out.rows(), a.rows());
  QB_CHECK_EQ(out.cols(), b.cols());
  GemmInto(a.data().data(), a.cols(), b.data().data(), b.cols(),
           out.mutable_data().data(), out.cols(), a.rows(), a.cols(), b.cols(),
           /*accumulate=*/false);
}

void MatMulTransBInto(const Matrix& a, const Matrix& bt, Matrix& out) {
  QB_CHECK_EQ(a.cols(), bt.cols());
  QB_CHECK_EQ(out.rows(), a.rows());
  QB_CHECK_EQ(out.cols(), bt.rows());
  GemmTransBInto(a.data().data(), a.cols(), bt.data().data(), bt.cols(),
                 out.mutable_data().data(), out.cols(), a.rows(), a.cols(),
                 bt.rows(), /*accumulate=*/false);
}

void MatMulTransAInto(const Matrix& a, const Matrix& b, Matrix& out,
                      bool accumulate) {
  QB_CHECK_EQ(a.rows(), b.rows());
  QB_CHECK_EQ(out.rows(), a.cols());
  QB_CHECK_EQ(out.cols(), b.cols());
  GemmTransAInto(a.data().data(), a.cols(), b.data().data(), b.cols(),
                 out.mutable_data().data(), out.cols(), a.rows(), a.cols(),
                 b.cols(), accumulate);
}

void MatVecInto(const Matrix& a, const Vector& x, Vector& out) {
  QB_CHECK_EQ(x.size(), a.cols());
  QB_CHECK_EQ(out.size(), a.rows());
  GemvInto(a.data().data(), a.cols(), x.data(), out.data(), a.rows(), a.cols(),
           /*accumulate=*/false);
}

void BatchedMatMulInto(const std::vector<GemmProblem>& problems) {
  ParallelFor(0, problems.size(), 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      MatMulInto(*problems[i].a, *problems[i].b, *problems[i].c);
    }
  });
}

}  // namespace qb5000
