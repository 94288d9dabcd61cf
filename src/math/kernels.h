#pragma once

#include <cstddef>
#include <vector>

#include "math/matrix.h"

namespace qb5000 {

/// Dense kernels behind Matrix and the neural training loops.
///
/// Two tiers (DESIGN.md §9):
///   - Raw strided primitives (Gemm*, GemvInto, AxpyInto) take pointers plus
///     leading dimensions so callers can address sub-panels (e.g. one time
///     step of a batched LSTM input) without gathering, and allocate nothing.
///   - Matrix wrappers (MatMulInto, ...) add shape checks and reuse a
///     thread-local packing buffer, so steady-state calls are allocation-free
///     per thread.
///
/// All kernels accumulate in a fixed order that depends only on the operand
/// shapes and the host CPU, never on concurrency — required by the
/// determinism contract. DESIGN.md §9 states the order per kernel, and
/// tests/kernels_test.cc pins it bit for bit.

/// C[m x n] (+)= A[m x k] * B[k x n]. Row strides lda/ldb/ldc; `accumulate`
/// false overwrites C. Internally packs B transposed in a thread-local
/// buffer and runs the register-blocked GemmTransB micro-kernel.
void GemmInto(const double* a, size_t lda, const double* b, size_t ldb,
              double* c, size_t ldc, size_t m, size_t k, size_t n,
              bool accumulate);

/// C[m x n] (+)= A[m x k] * Bt[n x k]^T. This is the fast path: both the A
/// rows and the Bt rows are read contiguously, and register tiles (3x4
/// vector FMA tiles on AVX2 hosts, 2x4 scalar ones otherwise) amortize the
/// loads. Rows and columns outside the FMA tiles are sequential
/// multiply-then-add sums. Neural layers store weights as [out x in]
/// row-major, which is exactly Bt — forward passes hit this kernel with no
/// packing at all.
void GemmTransBInto(const double* a, size_t lda, const double* bt, size_t ldb,
                    double* c, size_t ldc, size_t m, size_t k, size_t n,
                    bool accumulate);

/// C[k x n] (+)= A[m x k]^T * B[m x n]. Element (i, j) starts from C (0.0
/// when `accumulate` is false) and adds a[r][i] * b[r][j] for r = 0, 1, ...
/// in index order, each product rounded before its add. This is the
/// weight-gradient shape dW += dZ^T * X; `accumulate` true is the common
/// case.
void GemmTransAInto(const double* a, size_t lda, const double* b, size_t ldb,
                    double* c, size_t ldc, size_t m, size_t k, size_t n,
                    bool accumulate);

/// Bt[n x k] = B[k x n]^T (row stride ldb in, k out): the pack GemmInto
/// makes before calling GemmTransBInto. A caller that multiplies by the
/// same B many times packs it once and calls GemmTransBInto itself.
void TransposeInto(const double* b, size_t ldb, size_t k, size_t n,
                   double* bt);

/// y[m] (+)= A[m x n] * x[n].
void GemvInto(const double* a, size_t lda, const double* x, double* y,
              size_t m, size_t n, bool accumulate);

/// y[n] += alpha * x[n] (AXPY).
void AxpyInto(double* y, double alpha, const double* x, size_t n);

// --- Matrix wrappers (shape-checked, output preallocated by caller) --------

/// out = a * b; out must already be a.rows() x b.cols().
void MatMulInto(const Matrix& a, const Matrix& b, Matrix& out);

/// out = a * bt^T where bt holds B transposed (bt is n x k for a k x n B);
/// out must already be a.rows() x bt.rows().
void MatMulTransBInto(const Matrix& a, const Matrix& bt, Matrix& out);

/// out (+)= a^T * b; out must already be a.cols() x b.cols().
void MatMulTransAInto(const Matrix& a, const Matrix& b, Matrix& out,
                      bool accumulate);

/// out = a * x; out must already have a.rows() elements.
void MatVecInto(const Matrix& a, const Vector& x, Vector& out);

// --- Batched entry points ---------------------------------------------------

/// One independent GEMM in a batch: c = a * b (overwrite).
struct GemmProblem {
  const Matrix* a = nullptr;
  const Matrix* b = nullptr;
  Matrix* c = nullptr;
};

/// Runs every problem (each c_i = a_i * b_i) with the problems distributed
/// over the global thread pool. Problems are independent, so this is
/// deterministic regardless of thread count.
void BatchedMatMulInto(const std::vector<GemmProblem>& problems);

}  // namespace qb5000
