// Kernel and parallel-scaling microbenchmarks for the forecasting engine
// (DESIGN.md §9): the cache-blocked GEMM vs the seed's naive triple loop,
// transposed-B and batched variants, the LSTM's own GEMM shapes, MatVec, a
// short LSTM fit at the service's training shape, and the end-to-end
// Table 4 retrain at 1, 2 and 4 threads.
//
// Lines prefixed "#KV key value" are machine-readable; tools/bench_to_json.py
// collects them (plus the google-benchmark JSON) into BENCH_kernels.json.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "forecaster/dataset.h"
#include "forecaster/forecaster.h"
#include "forecaster/neural.h"
#include "math/kernels.h"
#include "math/matrix.h"

using namespace qb5000;
using namespace qb5000::bench;

namespace {

/// The growth seed's Matrix::MatMul, kept verbatim for comparison: naive
/// i-k-j loops with a zero-skip branch in the inner loop.
Matrix SeedMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      double av = a(i, k);
      if (av == 0.0) continue;
      for (size_t j = 0; j < b.cols(); ++j) {
        out(i, j) += av * b(k, j);
      }
    }
  }
  return out;
}

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (double& v : m.mutable_data()) v = rng.Gaussian();
  return m;
}

void BM_GemmSeed(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Matrix a = RandomMatrix(n, n, 1);
  Matrix b = RandomMatrix(n, n, 2);
  for (auto _ : state) {
    Matrix c = SeedMatMul(a, b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmSeed)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmBlocked(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Matrix a = RandomMatrix(n, n, 1);
  Matrix b = RandomMatrix(n, n, 2);
  Matrix c(n, n);
  for (auto _ : state) {
    MatMulInto(a, b, c);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmBlocked)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmTransB(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Matrix a = RandomMatrix(n, n, 1);
  Matrix bt = RandomMatrix(n, n, 2);
  Matrix c(n, n);
  for (auto _ : state) {
    MatMulTransBInto(a, bt, c);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmTransB)->Arg(256);

/// The LSTM's GEMMs per 8-row training sub-batch at the default model
/// (embedding 25 + hidden 20 = 45 inputs to layer 0, 4 x 20 = 80 gate
/// pre-activations): the forward gates z = [x | h] W^T (8x45x80, also the
/// backward dconcat = dz W through the packed W^T as 8x80x45) and the weight
/// gradient dW += dz^T [x | h] (8x80x45). 8 % 3 = 2 rows fall outside the
/// AVX2 kernel's 3-row tiles.
void BM_GemmTransBLstm(benchmark::State& state) {
  size_t m = 8;
  size_t k = static_cast<size_t>(state.range(0));
  size_t n = static_cast<size_t>(state.range(1));
  Matrix a = RandomMatrix(m, k, 1);
  Matrix bt = RandomMatrix(n, k, 2);
  Matrix c(m, n);
  for (auto _ : state) {
    MatMulTransBInto(a, bt, c);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_GemmTransBLstm)->Args({45, 80})->Args({80, 45});

void BM_GemmTransALstm(benchmark::State& state) {
  size_t m = 8, k = 80, n = 45;
  Matrix dz = RandomMatrix(m, k, 1);
  Matrix x = RandomMatrix(m, n, 2);
  Matrix dw(k, n);
  for (auto _ : state) {
    MatMulTransAInto(dz, x, dw, /*accumulate=*/true);
    benchmark::DoNotOptimize(dw);
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_GemmTransALstm);

void BM_MatVec(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Matrix a = RandomMatrix(n, n, 1);
  Vector x(n, 0.5);
  Vector y(n, 0.0);
  for (auto _ : state) {
    MatVecInto(a, x, y);
    benchmark::DoNotOptimize(y);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n);
}
BENCHMARK(BM_MatVec)->Arg(256)->Arg(1024);

void BM_BatchedGemm(benchmark::State& state) {
  SetThreadCount(static_cast<size_t>(state.range(0)));
  constexpr size_t kProblems = 16;
  constexpr size_t kDim = 96;
  std::vector<Matrix> as, bs, cs;
  for (size_t i = 0; i < kProblems; ++i) {
    as.push_back(RandomMatrix(kDim, kDim, 2 * i));
    bs.push_back(RandomMatrix(kDim, kDim, 2 * i + 1));
    cs.emplace_back(kDim, kDim);
  }
  std::vector<GemmProblem> problems;
  for (size_t i = 0; i < kProblems; ++i) {
    problems.push_back({&as[i], &bs[i], &cs[i]});
  }
  for (auto _ : state) {
    BatchedMatMulInto(problems);
    benchmark::DoNotOptimize(cs);
  }
  SetThreadCount(1);
}
BENCHMARK(BM_BatchedGemm)->Arg(1)->Arg(4);

/// One LSTM training run (fixed small epoch count) at the given thread
/// count, on a synthetic dataset shaped like servicebench retrain-heavy's
/// fits (4 series, window 24, about 480 rows).
void BM_LstmTrain(benchmark::State& state) {
  SetThreadCount(static_cast<size_t>(state.range(0)));
  size_t num_series = 4;
  size_t window = 24;
  size_t rows = FastMode() ? 96 : 480;
  Matrix x = RandomMatrix(rows, window * num_series, 3);
  Matrix y = RandomMatrix(rows, num_series, 4);
  ModelOptions opts;
  opts.num_series = num_series;
  opts.max_epochs = 2;
  for (auto _ : state) {
    RnnModel rnn(opts);
    benchmark::DoNotOptimize(rnn.Fit(x, y));
  }
  SetThreadCount(1);
}
BENCHMARK(BM_LstmTrain)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --- Acceptance-criteria report --------------------------------------------

template <typename Fn>
double TimeBest(int reps, const Fn& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

/// Times one full Forecaster::Train (the Table 4 "retrain" path: HYBRID =
/// LR + LSTM + KR per horizon) at `threads`.
double RetrainSeconds(const PreparedWorkload& prepared, size_t threads) {
  SetThreadCount(threads);
  auto clusters = prepared.clusterer.TopClustersByVolume(5);
  Forecaster::Options options;
  options.model.max_epochs = FastMode() ? 2 : 6;
  Forecaster forecaster(options);
  Stopwatch timer;
  Status st = forecaster.Train(prepared.pre, prepared.clusterer, clusters,
                               prepared.end,
                               {kSecondsPerHour, 12 * kSecondsPerHour});
  double elapsed = timer.ElapsedSeconds();
  SetThreadCount(1);
  if (!st.ok()) {
    std::printf("retrain failed: %s\n", std::string(st.message()).c_str());
    return 0.0;
  }
  return elapsed;
}

void AcceptanceReport() {
  std::printf("\n--- kernel & scaling acceptance numbers ---\n");
  size_t hw = SetThreadCount(0);
  SetThreadCount(1);
  std::printf("#KV hardware_concurrency %zu\n", hw);

  // Single-thread GEMM speedup over the seed kernel at 256x256.
  constexpr size_t kN = 256;
  Matrix a = RandomMatrix(kN, kN, 1);
  Matrix b = RandomMatrix(kN, kN, 2);
  Matrix c(kN, kN);
  int reps = FastMode() ? 3 : 5;
  double seed_s = TimeBest(reps, [&] {
    Matrix out = SeedMatMul(a, b);
    benchmark::DoNotOptimize(out);
  });
  double blocked_s = TimeBest(reps, [&] {
    MatMulInto(a, b, c);
    benchmark::DoNotOptimize(c);
  });
  std::printf("#KV gemm256_seed_seconds %.6f\n", seed_s);
  std::printf("#KV gemm256_blocked_seconds %.6f\n", blocked_s);
  std::printf("#KV gemm256_speedup %.2f\n", seed_s / blocked_s);

  // End-to-end retrain at 1, 2 and 4 threads. Scaling is only meaningful
  // up to the host's hardware_concurrency (reported above).
  auto prepared =
      Prepare(MakeBusTracker(), FastMode() ? 4 : 7, 10 * kSecondsPerMinute);
  double retrain_1t = RetrainSeconds(prepared, 1);
  std::printf("#KV retrain_1t_seconds %.3f\n", retrain_1t);
  for (size_t threads : {2, 4}) {
    double seconds = RetrainSeconds(prepared, threads);
    std::printf("#KV retrain_%zut_seconds %.3f\n", threads, seconds);
    if (seconds > 0.0) {
      std::printf("#KV retrain_scaling_%zut %.2f\n", threads,
                  retrain_1t / seconds);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  PrintHeader("Kernel & parallel-scaling microbenchmarks",
              "Table 4 (training cost); DESIGN.md §9");
  SetThreadCount(1);  // google-benchmark timings below are single-thread
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  AcceptanceReport();
  return 0;
}
