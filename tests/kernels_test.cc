// Summation-order tests for the GEMM kernels (DESIGN.md §9). The neural
// models' parameters, and through them every HYBRID forecast, depend on the
// exact order in which each kernel adds its products, so these tests pin
// that order bit for bit rather than to a tolerance:
//   - GemmTransAInto sums sequentially over m, multiply then add;
//   - GemmTransBInto's rows outside the 3-row AVX2 tiles (m % 3 of them) and
//     its columns outside the 4-column tiles (n % 4) are sequential sums;
//   - a tile row's value does not depend on how many rows follow it;
//   - GemmInto is GemmTransBInto on the packed transpose.
// The references below must not be contracted into fused multiply-adds, so
// this file is built with -ffp-contract=off (tests/CMakeLists.txt).
// KernelState checks that every kernel returns with the upper YMM halves
// clear: the library's other code is legacy SSE, which runs many times
// slower while they are dirty. RnnFitPredictionDigestIsPinned holds an
// LSTM fit's predictions to one digest in every build type.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#define QB_TEST_XINUSE 1
#endif

#include <gtest/gtest.h>

#include "common/rng.h"
#include "forecaster/neural.h"
#include "math/kernels.h"

namespace qb5000 {
namespace {

struct Shape {
  size_t m, k, n;
};

/// The LSTM's shapes at its defaults (embedding 25, hidden 20, 2 layers,
/// 4 series): forward gate GEMMs, backward dconcat = dz W and dW = dz^T x
/// per 8-row sub-batch, 64-row validation blocks, 1-row predictions, the
/// embedding and output heads; plus small edge shapes with k % 4 != 0.
const std::vector<Shape>& TransBShapes() {
  static const std::vector<Shape> shapes = {
      {8, 45, 80}, {8, 40, 80}, {8, 80, 45}, {8, 80, 40}, {64, 45, 80},
      {63, 40, 80}, {1, 45, 80}, {1, 20, 4},  {8, 4, 25},  {8, 20, 4},
      {2, 3, 5},   {4, 7, 9},   {5, 1, 8},   {7, 13, 12}, {9, 5, 3}};
  return shapes;
}

const std::vector<Shape>& TransAShapes() {
  static const std::vector<Shape> shapes = {
      {8, 80, 45}, {8, 80, 40}, {8, 25, 4}, {8, 4, 20}, {1, 80, 45},
      {64, 80, 45}, {7, 3, 17}, {3, 9, 1}, {1, 1, 1}, {5, 33, 21}};
  return shapes;
}

std::vector<double> RandomValues(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(count);
  for (double& x : v) x = rng.Gaussian();
  return v;
}

/// Seed for one (shape, accumulate) case, so every case draws its own data.
uint64_t CaseSeed(const Shape& s, bool accumulate) {
  return s.m * 1000003 + s.k * 1009 + s.n * 7 + (accumulate ? 1 : 0);
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// start + x[0] * y[0] + x[1] * y[1] + ..., in order, each product rounded
/// before its add.
double SequentialSum(double start, const double* x, size_t x_stride,
                     const double* y, size_t y_stride, size_t count) {
  double s = start;
  for (size_t p = 0; p < count; ++p) {
    double product = x[p * x_stride] * y[p * y_stride];
    s = s + product;
  }
  return s;
}

/// The sequential-sum expectations hold where the library's scalar code is
/// not contracted either: x86-64, whose baseline has no FMA.
bool LibraryScalarCodeIsUnfused() {
#if defined(__x86_64__)
  return true;
#else
  return false;
#endif
}

/// Padded strides, so the kernels are exercised on sub-panels as the LSTM
/// uses them (one timestep's columns of a wider input row).
struct Operands {
  size_t lda, ldb, ldc;
  std::vector<double> a, b, c;
};

/// A [m x k] and Bt [n x k] for GemmTransBInto, C [m x n].
Operands TransBOperands(const Shape& s, bool accumulate) {
  uint64_t seed = CaseSeed(s, accumulate);
  Operands o{s.k + 3, s.k + 1, s.n + 2, {}, {}, {}};
  o.a = RandomValues(s.m * o.lda, seed);
  o.b = RandomValues(s.n * o.ldb, seed + 1);
  o.c = RandomValues(s.m * o.ldc, seed + 2);
  return o;
}

TEST(KernelOrder, GemmTransAIsSequentialOverM) {
  if (!LibraryScalarCodeIsUnfused()) GTEST_SKIP() << "FMA-capable baseline";
  for (const Shape& s : TransAShapes()) {
    for (bool accumulate : {false, true}) {
      uint64_t seed = CaseSeed(s, accumulate);
      size_t lda = s.k + 2, ldb = s.n + 3, ldc = s.n + 1;
      std::vector<double> a = RandomValues(s.m * lda, seed);
      std::vector<double> b = RandomValues(s.m * ldb, seed + 1);
      std::vector<double> c = RandomValues(s.k * ldc, seed + 2);
      std::vector<double> before = c;
      GemmTransAInto(a.data(), lda, b.data(), ldb, c.data(), ldc, s.m, s.k,
                     s.n, accumulate);
      for (size_t i = 0; i < s.k; ++i) {
        for (size_t j = 0; j < s.n; ++j) {
          double start = accumulate ? before[i * ldc + j] : 0.0;
          double want = SequentialSum(start, &a[i], lda, &b[j], ldb, s.m);
          ASSERT_EQ(Bits(c[i * ldc + j]), Bits(want))
              << s.m << "x" << s.k << "x" << s.n << " accumulate "
              << accumulate << " at (" << i << ", " << j << ")";
        }
      }
      // Padding between rows is never written.
      for (size_t i = 0; i < s.k; ++i) {
        for (size_t j = s.n; j < ldc; ++j) {
          ASSERT_EQ(Bits(c[i * ldc + j]), Bits(before[i * ldc + j]));
        }
      }
    }
  }
}

TEST(KernelOrder, GemmTransBRemainderRowsAndColumnsAreSequential) {
  if (!LibraryScalarCodeIsUnfused()) GTEST_SKIP() << "FMA-capable baseline";
  for (const Shape& s : TransBShapes()) {
    ASSERT_LE(s.m, 64u) << "one row panel, so m % 3 rows are the remainder";
    ASSERT_LE(s.k, 512u) << "one k block";
    for (bool accumulate : {false, true}) {
      Operands o = TransBOperands(s, accumulate);
      std::vector<double> c = o.c;
      GemmTransBInto(o.a.data(), o.lda, o.b.data(), o.ldb, c.data(), o.ldc,
                     s.m, s.k, s.n, accumulate);
      size_t tiled_rows = s.m - s.m % 3;
      size_t tiled_cols = s.n - s.n % 4;
      size_t checked = 0;
      for (size_t i = 0; i < s.m; ++i) {
        for (size_t j = 0; j < s.n; ++j) {
          if (i < tiled_rows && j < tiled_cols) continue;  // FMA tile
          double sum = SequentialSum(0.0, &o.a[i * o.lda], 1,
                                     &o.b[j * o.ldb], 1, s.k);
          double want = accumulate ? o.c[i * o.ldc + j] + sum : sum;
          ASSERT_EQ(Bits(c[i * o.ldc + j]), Bits(want))
              << s.m << "x" << s.k << "x" << s.n << " accumulate "
              << accumulate << " at (" << i << ", " << j << ")";
          ++checked;
        }
      }
      if (s.m % 3 != 0 || s.n % 4 != 0) {
        EXPECT_GT(checked, 0u);
      }
    }
  }
}

TEST(KernelOrder, TileRowsDoNotDependOnRemainderRows) {
  for (const Shape& s : TransBShapes()) {
    size_t tiled = s.m - s.m % 3;
    if (tiled == 0) continue;
    for (bool accumulate : {false, true}) {
      // The same operands with 0, 1 and 2 rows after the last full tile:
      // the tiled rows must come out bit-identical every time.
      Shape big{tiled + 2, s.k, s.n};
      Operands o = TransBOperands(big, accumulate);
      std::vector<double> want;
      for (size_t rows = tiled; rows <= tiled + 2; ++rows) {
        std::vector<double> c = o.c;
        GemmTransBInto(o.a.data(), o.lda, o.b.data(), o.ldb, c.data(), o.ldc,
                       rows, s.k, s.n, accumulate);
        c.resize(tiled * o.ldc);
        if (want.empty()) {
          want = c;
          continue;
        }
        for (size_t e = 0; e < want.size(); ++e) {
          ASSERT_EQ(Bits(c[e]), Bits(want[e]))
              << rows << "x" << s.k << "x" << s.n << " accumulate "
              << accumulate << " at element " << e;
        }
      }
    }
  }
}

TEST(KernelOrder, GemmIntoIsGemmTransBOnPackedTranspose) {
  for (const Shape& s : TransBShapes()) {
    for (bool accumulate : {false, true}) {
      Operands o = TransBOperands(s, accumulate);
      // B [k x n] with a padded stride, packed to Bt [n x k].
      size_t ldb = s.n + 5;
      std::vector<double> b = RandomValues(s.k * ldb, CaseSeed(s, accumulate));
      std::vector<double> bt(s.n * s.k);
      TransposeInto(b.data(), ldb, s.k, s.n, bt.data());
      for (size_t p = 0; p < s.k; ++p) {
        for (size_t j = 0; j < s.n; ++j) {
          ASSERT_EQ(Bits(bt[j * s.k + p]), Bits(b[p * ldb + j]));
        }
      }
      std::vector<double> via_gemm = o.c;
      std::vector<double> via_trans_b = o.c;
      GemmInto(o.a.data(), o.lda, b.data(), ldb, via_gemm.data(), o.ldc, s.m,
               s.k, s.n, accumulate);
      GemmTransBInto(o.a.data(), o.lda, bt.data(), s.k, via_trans_b.data(),
                     o.ldc, s.m, s.k, s.n, accumulate);
      for (size_t e = 0; e < via_gemm.size(); ++e) {
        ASSERT_EQ(Bits(via_gemm[e]), Bits(via_trans_b[e]))
            << s.m << "x" << s.k << "x" << s.n << " accumulate "
            << accumulate << " at element " << e;
      }
    }
  }
}

/// Whether XGETBV can report which state components are in use: AVX enabled
/// by the OS and XGETBV with ECX = 1 supported (CPUID.(0DH, 1):EAX bit 2).
bool CanReadXinuse() {
#if QB_TEST_XINUSE
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  if ((c & bit_OSXSAVE) == 0 || (c & bit_AVX) == 0) return false;
  if (!__get_cpuid_count(0xD, 1, &a, &b, &c, &d)) return false;
  return (a & (1u << 2)) != 0;
#else
  return false;
#endif
}

/// XINUSE bit 2: the upper halves of YMM0-15 are not in their initial
/// (zero) state, so a legacy-SSE instruction now pays the transition cost.
bool UpperYmmInUse() {
#if QB_TEST_XINUSE
  uint32_t lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1));
  return (lo & (1u << 2)) != 0;
#else
  return false;
#endif
}

TEST(KernelState, UpperYmmHalvesAreClearAfterEveryKernel) {
  if (!CanReadXinuse()) GTEST_SKIP() << "XGETBV(1) or AVX unavailable";
  // Every m % 3 and n % 4 combination, below and above one column tile, so
  // each exit of the AVX2 kernels (tiles only, remainder rows, remainder
  // columns, both) is taken at least once.
  for (size_t m = 1; m <= 7; ++m) {
    for (size_t n = 1; n <= 9; ++n) {
      for (size_t k : {size_t{3}, size_t{8}}) {
        Operands o = TransBOperands({m, k, n}, false);
        GemmTransBInto(o.a.data(), o.lda, o.b.data(), o.ldb, o.c.data(),
                       o.ldc, m, k, n, false);
        EXPECT_FALSE(UpperYmmInUse())
            << "GemmTransBInto " << m << "x" << k << "x" << n;
        GemmInto(o.a.data(), o.lda, o.b.data(), n, o.c.data(), o.ldc, m, k,
                 n, true);
        EXPECT_FALSE(UpperYmmInUse())
            << "GemmInto " << m << "x" << k << "x" << n;
        // C [k x n] += A[m x k]^T B[m x n], reusing the operand buffers.
        GemmTransAInto(o.a.data(), o.lda, o.c.data(), o.ldc, o.b.data(), n,
                       m, k, n, true);
        EXPECT_FALSE(UpperYmmInUse())
            << "GemmTransAInto " << m << "x" << k << "x" << n;
      }
    }
  }
}

/// True where GemmTransBInto runs the AVX2+FMA tile kernel.
bool HasAvx2Fma() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

// The fused tile kernel's k % 4 tail is written as explicit fused
// multiply-adds and the library is built with -ffp-contract=off, so an
// optimizing build and an -O0 build (Debug, coverage) compute the same
// bits. The LSTM's first-layer gate GEMMs have k = 25 + 20 = 45, so every
// forward step takes that tail. The digest is FNV-1a over the bits of the
// fit's predictions for every training window.
TEST(KernelOrder, RnnFitPredictionDigestIsPinned) {
  if (!HasAvx2Fma()) GTEST_SKIP() << "no AVX2+FMA tile kernel";
  constexpr size_t kWindow = 24;
  constexpr size_t kRows = 96;
  Vector series(kRows + kWindow);
  for (size_t t = 0; t < series.size(); ++t) {
    series[t] = std::log1p(100.0 * (1.5 + std::sin(2.0 * M_PI * t / 24.0)) +
                           static_cast<double>(t * 7 % 5));
  }
  Matrix x(kRows, kWindow), y(kRows, 1);
  for (size_t i = 0; i < kRows; ++i) {
    for (size_t j = 0; j < kWindow; ++j) x(i, j) = series[i + j];
    y(i, 0) = series[i + kWindow];
  }
  ModelOptions options;  // the LSTM's shapes: embedding 25, 2 x 20 cells
  options.input_window = kWindow;
  options.max_epochs = 4;
  RnnModel rnn(options);
  ASSERT_TRUE(rnn.Fit(x, y).ok());
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < kRows; ++i) {
    auto prediction = rnn.Predict(x.Row(i));
    ASSERT_TRUE(prediction.ok());
    for (double v : *prediction) {
      uint64_t bits = Bits(v);
      for (int byte = 0; byte < 8; ++byte) {
        digest = (digest ^ ((bits >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
      }
    }
  }
  EXPECT_EQ(digest, 0xefbfa82c4ab5ee12ULL) << std::hex << "digest 0x" << digest;
}

}  // namespace
}  // namespace qb5000
