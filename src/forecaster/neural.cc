#include "forecaster/neural.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/finite.h"
#include "common/thread_pool.h"
#include "math/adam.h"
#include "math/kernels.h"
#include "math/linalg.h"

namespace qb5000 {

Matrix Standardizer::FitTransform(const Matrix& data) {
  size_t n = data.rows();
  size_t d = data.cols();
  mean_.assign(d, 0.0);
  std_.assign(d, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) mean_[j] += data(i, j);
  }
  for (double& m : mean_) {
    m /= static_cast<double>(n > 0 ? n : 1);
    // A poisoned column (NaN/Inf upstream) must not poison the transform:
    // degrade that column to the identity rather than spread the NaN into
    // every standardized feature.
    if (!IsFinite(m)) m = 0.0;
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      double diff = data(i, j) - mean_[j];
      std_[j] += diff * diff;
    }
  }
  for (double& s : std_) {
    s = std::sqrt(s / static_cast<double>(n > 1 ? n : 1));
    // Constant column (zero variance — a degenerate single-template
    // cluster flatlines every window) or poisoned column: unit scale, so
    // the transform is centering-only / identity instead of 0/0 = NaN.
    if (!IsFinite(s) || s < 1e-8) s = 1.0;
  }
  Matrix out(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) out(i, j) = (data(i, j) - mean_[j]) / std_[j];
  }
  return out;
}

Vector Standardizer::Transform(const Vector& row) const {
  QB_CHECK_EQ(row.size(), mean_.size());
  Vector out(row.size());
  for (size_t j = 0; j < row.size(); ++j) {
    out[j] = (row[j] - mean_[j]) / std_[j];
  }
  return out;
}

Vector Standardizer::Inverse(const Vector& row) const {
  QB_CHECK_EQ(row.size(), mean_.size());
  Vector out(row.size());
  for (size_t j = 0; j < row.size(); ++j) {
    out[j] = row[j] * std_[j] + mean_[j];
  }
  return out;
}

namespace {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

/// Adds `bias[j]` to every row of `m`.
void AddRowBias(Matrix& m, const double* bias) {
  for (size_t i = 0; i < m.rows(); ++i) {
    double* row = &m.mutable_data()[i * m.cols()];
    for (size_t j = 0; j < m.cols(); ++j) row[j] += bias[j];
  }
}

/// out[j] += sum over rows of m(:, j) — the bias-gradient reduction,
/// accumulated row-by-row in index order.
void AccumulateColumnSums(const Matrix& m, double* out) {
  for (size_t i = 0; i < m.rows(); ++i) {
    AxpyInto(out, 1.0, &m.data()[i * m.cols()], m.cols());
  }
}

/// Presents `count` rows of `src` (selected by `rows`) as a contiguous
/// row-major block. A contiguous ascending run (the validation tail, or a
/// single prediction) aliases `src` directly; shuffled training rows are
/// gathered into `scratch`.
const double* GatherRows(const Matrix& src, const size_t* rows, size_t count,
                         Matrix& scratch) {
  bool contiguous = true;
  for (size_t i = 1; i < count; ++i) {
    if (rows[i] != rows[0] + i) {
      contiguous = false;
      break;
    }
  }
  if (contiguous && count > 0) return &src.data()[rows[0] * src.cols()];
  scratch = Matrix(count, src.cols());
  for (size_t i = 0; i < count; ++i) {
    std::copy_n(&src.data()[rows[i] * src.cols()], src.cols(),
                &scratch.mutable_data()[i * src.cols()]);
  }
  return scratch.data().data();
}

/// Sum of half-squared errors of the batch; fills dy = pred - y[rows] when
/// given.
double HalfSquaredErrorBatch(const Matrix& pred, const Matrix& y,
                             const size_t* rows, size_t count, Matrix* dy) {
  double loss = 0.0;
  for (size_t b = 0; b < count; ++b) {
    for (size_t j = 0; j < pred.cols(); ++j) {
      double diff = pred(b, j) - y(rows[b], j);
      loss += 0.5 * diff * diff;
      if (dy != nullptr) (*dy)(b, j) = diff;
    }
  }
  return loss;
}

/// A training objective evaluated over mini-batches of examples. Both
/// methods must be safe to call concurrently (all scratch local): the
/// trainer fans sub-batches of one mini-batch out across the thread pool.
class BatchObjective {
 public:
  virtual ~BatchObjective() = default;

  /// Sum of per-example losses over `rows[0..count)`; accumulates the
  /// summed parameter gradient into `grads` (not scaled by 1/count).
  virtual double BatchLossAndGrad(const size_t* rows, size_t count,
                                  double* grads) const = 0;

  /// Sum of per-example losses without gradients.
  virtual double BatchLoss(const size_t* rows, size_t count) const = 0;
};

/// Mini-batch Adam training with early stopping on a chronological
/// validation tail.
///
/// Parallel structure (DESIGN.md §9): each mini-batch is split into fixed
/// sub-batches of kSubBatch examples — a decomposition that depends only on
/// the batch size, never the thread count. Sub-batches accumulate gradients
/// into their own buffers, possibly concurrently, and the buffers are
/// reduced in sub-batch index order, so the update (and therefore the whole
/// training trajectory) is bit-identical at any concurrency. The shuffle
/// consumes the seed-derived Rng on the calling thread only (Rng stays
/// thread-affine).
///
/// Divergence (DESIGN.md §13): early stopping restores the best-validation
/// snapshot, which quietly absorbs a *transient* bad epoch — but when no
/// epoch ever produced a finite validation loss (a NaN gradient poisoned
/// the very first step, or the loss overflowed immediately), the "best"
/// snapshot is just the random init. Returning that as a trained model
/// would hand the health gate a finite-but-garbage fit, so the divergence
/// is surfaced as an error and the Forecaster's rollback keeps last-good.
Status TrainWithEarlyStopping(const ModelOptions& options, size_t num_examples,
                              std::vector<double>& params,
                              const BatchObjective& objective) {
  // Share of the examples (the last ones) held out for early stopping.
  constexpr double kValidationFraction = 0.15;
  size_t val_count = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(num_examples) *
                             kValidationFraction));
  if (val_count >= num_examples) val_count = num_examples / 2;
  size_t train_count = num_examples - val_count;
  if (train_count == 0) return Status::Ok();

  AdamOptimizer::Options adam_opts;
  adam_opts.learning_rate = options.learning_rate;
  AdamOptimizer adam(params.size(), adam_opts);
  Rng rng(options.seed);

  constexpr size_t kBatch = 32;
  constexpr size_t kSubBatch = 8;   ///< fixed grain of the gradient fan-out
  constexpr size_t kValBlock = 64;  ///< fixed grain of the validation fan-out

  std::vector<size_t> order(train_count);
  std::iota(order.begin(), order.end(), 0);
  std::vector<size_t> val_rows(val_count);
  std::iota(val_rows.begin(), val_rows.end(), train_count);

  size_t max_sub = (kBatch + kSubBatch - 1) / kSubBatch;
  std::vector<std::vector<double>> sub_grads(
      max_sub, std::vector<double>(params.size(), 0.0));
  std::vector<double> grads(params.size(), 0.0);
  size_t num_val_blocks = (val_count + kValBlock - 1) / kValBlock;
  std::vector<double> val_parts(num_val_blocks, 0.0);

  std::vector<double> best_params = params;
  double best_val = std::numeric_limits<double>::infinity();
  size_t since_best = 0;
  size_t epochs_run = 0;

  for (size_t epoch = 0; epoch < options.max_epochs; ++epoch) {
    ++epochs_run;
    std::shuffle(order.begin(), order.end(), rng.engine());
    for (size_t b = 0; b < train_count; b += kBatch) {
      size_t batch_end = std::min(b + kBatch, train_count);
      size_t num_sub = (batch_end - b + kSubBatch - 1) / kSubBatch;
      ParallelFor(0, num_sub, 1, [&](size_t lo, size_t hi) {
        for (size_t s = lo; s < hi; ++s) {
          size_t s_lo = b + s * kSubBatch;
          size_t s_hi = std::min(s_lo + kSubBatch, batch_end);
          std::fill(sub_grads[s].begin(), sub_grads[s].end(), 0.0);
          objective.BatchLossAndGrad(&order[s_lo], s_hi - s_lo,
                                     sub_grads[s].data());
        }
      });
      // Ordered reduction: sub-batch 0, 1, 2, ... regardless of which
      // thread produced which buffer.
      std::copy(sub_grads[0].begin(), sub_grads[0].end(), grads.begin());
      for (size_t s = 1; s < num_sub; ++s) {
        AxpyInto(grads.data(), 1.0, sub_grads[s].data(), grads.size());
      }
      double scale = 1.0 / static_cast<double>(batch_end - b);
      for (double& g : grads) g *= scale;
      adam.Step(params, grads);
    }

    ParallelFor(0, num_val_blocks, 1, [&](size_t lo, size_t hi) {
      for (size_t vb = lo; vb < hi; ++vb) {
        size_t v_lo = vb * kValBlock;
        size_t v_hi = std::min(v_lo + kValBlock, val_count);
        val_parts[vb] = objective.BatchLoss(&val_rows[v_lo], v_hi - v_lo);
      }
    });
    double val_loss = 0.0;
    for (double part : val_parts) val_loss += part;
    val_loss /= static_cast<double>(val_count);

    if (val_loss + 1e-9 < best_val) {
      best_val = val_loss;
      best_params = params;
      since_best = 0;
    } else if (++since_best >= options.patience) {
      break;
    }
  }
  params = best_params;
  // With a validation signal, any sane epoch leaves a finite best_val
  // (anything finite beats infinity). Still-infinite after running epochs
  // means every one was NaN/overflow — diverged, not trained.
  if (val_count > 0 && epochs_run > 0 && !IsFinite(best_val)) {
    return Status::Internal(
        "training diverged: no epoch produced a finite validation loss");
  }
  return Status::Ok();
}

void RandomInit(std::vector<double>& params, size_t from, size_t count,
                double scale, Rng& rng) {
  for (size_t i = from; i < from + count; ++i) {
    params[i] = rng.Gaussian(0.0, scale);
  }
}

// ---------------------------------------------------------------------------
// FNN core: batched forward/backward over a flat parameter vector.
// ---------------------------------------------------------------------------

struct FnnCore {
  size_t in_dim = 0, hidden = 0, out_dim = 0;
  size_t off_w1 = 0, off_b1 = 0, off_w2 = 0, off_b2 = 0;

  size_t Layout() {
    off_w1 = 0;
    off_b1 = off_w1 + hidden * in_dim;
    off_w2 = off_b1 + hidden;
    off_b2 = off_w2 + out_dim * hidden;
    return off_b2 + out_dim;
  }

  struct BatchCache {
    Matrix h;  ///< batch x hidden tanh activations
  };

  /// xb: `batch` rows of `in_dim` features with row stride `xb_stride`.
  /// Fills y (batch x out_dim); `cache`, when given, keeps the hidden
  /// activations for the backward pass.
  void ForwardBatch(const double* params, const double* xb, size_t xb_stride,
                    size_t batch, Matrix& y, BatchCache* cache) const {
    Matrix h(batch, hidden);
    GemmTransBInto(xb, xb_stride, params + off_w1, in_dim,
                   h.mutable_data().data(), hidden, batch, in_dim, hidden,
                   /*accumulate=*/false);
    AddRowBias(h, params + off_b1);
    for (double& v : h.mutable_data()) v = std::tanh(v);
    GemmTransBInto(h.data().data(), hidden, params + off_w2, hidden,
                   y.mutable_data().data(), out_dim, batch, hidden, out_dim,
                   /*accumulate=*/false);
    AddRowBias(y, params + off_b2);
    if (cache != nullptr) cache->h = std::move(h);
  }

  void BackwardBatch(const double* params, const double* xb, size_t xb_stride,
                     size_t batch, const BatchCache& cache, const Matrix& dy,
                     double* grads) const {
    const Matrix& h = cache.h;
    // Output layer: gb2 += colsum(dy), gW2 += dy^T h, dh = dy W2.
    AccumulateColumnSums(dy, grads + off_b2);
    GemmTransAInto(dy.data().data(), out_dim, h.data().data(), hidden,
                   grads + off_w2, hidden, batch, out_dim, hidden,
                   /*accumulate=*/true);
    Matrix dh(batch, hidden);
    GemmInto(dy.data().data(), out_dim, params + off_w2, hidden,
             dh.mutable_data().data(), hidden, batch, out_dim, hidden,
             /*accumulate=*/false);
    // Through tanh.
    for (size_t b = 0; b < batch; ++b) {
      for (size_t j = 0; j < hidden; ++j) {
        dh(b, j) *= 1.0 - h(b, j) * h(b, j);
      }
    }
    AccumulateColumnSums(dh, grads + off_b1);
    GemmTransAInto(dh.data().data(), hidden, xb, xb_stride, grads + off_w1,
                   in_dim, batch, hidden, in_dim, /*accumulate=*/true);
  }
};

// ---------------------------------------------------------------------------
// LSTM core: batched parameter layout and forward/backward shared by
// RnnModel. Every per-step, per-layer operation is a GEMM over the batch.
// ---------------------------------------------------------------------------

/// Gate block order within the 4H pre-activation: input, forget, output, cell.
struct LstmCore {
  size_t in_dim = 0;     ///< raw per-step input dimension (num_series)
  size_t embed = 0;      ///< linear embedding width
  size_t hidden = 0;     ///< LSTM cells per layer
  size_t layers = 0;
  size_t out_dim = 0;
  size_t seq_len = 0;

  // Parameter offsets into the flat vector.
  size_t off_e = 0, off_be = 0, off_wo = 0, off_bo = 0;
  std::vector<size_t> off_w;  ///< per layer: 4H x (in_l + H)
  std::vector<size_t> off_b;  ///< per layer: 4H

  size_t LayerInput(size_t layer) const { return layer == 0 ? embed : hidden; }

  size_t Layout() {
    size_t offset = 0;
    off_e = offset;
    offset += embed * in_dim;
    off_be = offset;
    offset += embed;
    off_w.resize(layers);
    off_b.resize(layers);
    for (size_t l = 0; l < layers; ++l) {
      off_w[l] = offset;
      offset += 4 * hidden * (LayerInput(l) + hidden);
      off_b[l] = offset;
      offset += 4 * hidden;
    }
    off_wo = offset;
    offset += out_dim * hidden;
    off_bo = offset;
    offset += out_dim;
    return offset;
  }

  void Init(std::vector<double>& params, uint64_t seed) const {
    Rng rng(seed);
    RandomInit(params, off_e, embed * in_dim,
               1.0 / std::sqrt(static_cast<double>(in_dim)), rng);
    for (size_t l = 0; l < layers; ++l) {
      size_t in_l = LayerInput(l);
      RandomInit(params, off_w[l], 4 * hidden * (in_l + hidden),
                 1.0 / std::sqrt(static_cast<double>(in_l + hidden)), rng);
      // Forget-gate bias of 1 keeps early memory open (standard practice).
      for (size_t i = 0; i < hidden; ++i) params[off_b[l] + hidden + i] = 1.0;
    }
    RandomInit(params, off_wo, out_dim * hidden,
               1.0 / std::sqrt(static_cast<double>(hidden)), rng);
  }

  /// Forward activations for one sub-batch, kept for the backward pass.
  /// Slot index: t * layers + l.
  struct BatchCache {
    std::vector<Matrix> concat;  ///< batch x (in_l + H): layer input | h_prev
    std::vector<Matrix> gate_i, gate_f, gate_o, gate_g;  ///< batch x H
    std::vector<Matrix> cell, tanh_cell, hidden_state;   ///< batch x H
    std::vector<Matrix> embed_out;                       ///< per t: batch x E
  };

  /// xb: `batch` example sequences, row-major, row stride `xb_stride`
  /// (each row is seq_len * in_dim features; step t occupies columns
  /// [t*in_dim, (t+1)*in_dim)). Fills y (batch x out_dim).
  void ForwardBatch(const double* params, const double* xb, size_t xb_stride,
                    size_t batch, Matrix& y, BatchCache* cache) const {
    if (cache != nullptr) {
      size_t slots = seq_len * layers;
      cache->concat.assign(slots, {});
      cache->gate_i.assign(slots, {});
      cache->gate_f.assign(slots, {});
      cache->gate_o.assign(slots, {});
      cache->gate_g.assign(slots, {});
      cache->cell.assign(slots, {});
      cache->tanh_cell.assign(slots, {});
      cache->hidden_state.assign(slots, {});
      cache->embed_out.assign(seq_len, {});
    }
    std::vector<Matrix> h(layers, Matrix(batch, hidden));
    std::vector<Matrix> c(layers, Matrix(batch, hidden));
    for (size_t t = 0; t < seq_len; ++t) {
      // Linear embedding of the raw step input: e = x_t E^T + be.
      Matrix e(batch, embed);
      GemmTransBInto(xb + t * in_dim, xb_stride, params + off_e, in_dim,
                     e.mutable_data().data(), embed, batch, in_dim, embed,
                     /*accumulate=*/false);
      AddRowBias(e, params + off_be);
      if (cache != nullptr) cache->embed_out[t] = e;
      const Matrix* input = &e;
      for (size_t l = 0; l < layers; ++l) {
        size_t in_l = LayerInput(l);
        size_t width = in_l + hidden;
        Matrix concat(batch, width);
        for (size_t b = 0; b < batch; ++b) {
          double* row = &concat.mutable_data()[b * width];
          std::copy_n(&input->data()[b * in_l], in_l, row);
          std::copy_n(&h[l].data()[b * hidden], hidden, row + in_l);
        }
        // All four gates in one GEMM: z = concat W_l^T + b_l (batch x 4H).
        Matrix z(batch, 4 * hidden);
        GemmTransBInto(concat.data().data(), width, params + off_w[l], width,
                       z.mutable_data().data(), 4 * hidden, batch, width,
                       4 * hidden, /*accumulate=*/false);
        AddRowBias(z, params + off_b[l]);
        Matrix zi(batch, hidden), zf(batch, hidden), zo(batch, hidden),
            zg(batch, hidden);
        Matrix new_c(batch, hidden), tanh_c(batch, hidden);
        for (size_t b = 0; b < batch; ++b) {
          const double* zrow = &z.data()[b * 4 * hidden];
          for (size_t j = 0; j < hidden; ++j) {
            double gi = Sigmoid(zrow[j]);
            double gf = Sigmoid(zrow[hidden + j]);
            double go = Sigmoid(zrow[2 * hidden + j]);
            double gg = std::tanh(zrow[3 * hidden + j]);
            zi(b, j) = gi;
            zf(b, j) = gf;
            zo(b, j) = go;
            zg(b, j) = gg;
            double nc = gf * c[l](b, j) + gi * gg;
            double tc = std::tanh(nc);
            new_c(b, j) = nc;
            tanh_c(b, j) = tc;
            h[l](b, j) = go * tc;
          }
        }
        c[l] = std::move(new_c);
        if (cache != nullptr) {
          size_t slot = t * layers + l;
          cache->concat[slot] = std::move(concat);
          cache->gate_i[slot] = std::move(zi);
          cache->gate_f[slot] = std::move(zf);
          cache->gate_o[slot] = std::move(zo);
          cache->gate_g[slot] = std::move(zg);
          cache->cell[slot] = c[l];
          cache->tanh_cell[slot] = std::move(tanh_c);
          cache->hidden_state[slot] = h[l];
        }
        input = &h[l];
      }
    }
    GemmTransBInto(h[layers - 1].data().data(), hidden, params + off_wo, hidden,
                   y.mutable_data().data(), out_dim, batch, hidden, out_dim,
                   /*accumulate=*/false);
    AddRowBias(y, params + off_bo);
  }

  /// Accumulates the sub-batch's summed gradients given dy (batch x out_dim).
  void BackwardBatch(const double* params, const double* xb, size_t xb_stride,
                     size_t batch, const BatchCache& cache, const Matrix& dy,
                     double* grads) const {
    // Output head: gbo += colsum(dy), gWo += dy^T h_last, dh_last = dy Wo.
    const Matrix& h_last =
        cache.hidden_state[(seq_len - 1) * layers + (layers - 1)];
    AccumulateColumnSums(dy, grads + off_bo);
    GemmTransAInto(dy.data().data(), out_dim, h_last.data().data(), hidden,
                   grads + off_wo, hidden, batch, out_dim, hidden,
                   /*accumulate=*/true);
    std::vector<Matrix> dh(seq_len * layers, Matrix(batch, hidden));
    GemmInto(dy.data().data(), out_dim, params + off_wo, hidden,
             dh[(seq_len - 1) * layers + (layers - 1)].mutable_data().data(),
             hidden, batch, out_dim, hidden, /*accumulate=*/false);

    // dc carried backwards per layer.
    std::vector<Matrix> dc(layers, Matrix(batch, hidden));
    std::vector<Matrix> dembed(seq_len, Matrix(batch, embed));
    Matrix dz(batch, 4 * hidden);
    // Each layer's W^T ((in_l + H) x 4H), packed once for every timestep's
    // dconcat = dz W.
    std::vector<std::vector<double>> w_t(layers);
    for (size_t l = 0; l < layers; ++l) {
      size_t width = LayerInput(l) + hidden;
      w_t[l].resize(width * 4 * hidden);
      TransposeInto(params + off_w[l], width, 4 * hidden, width,
                    w_t[l].data());
    }
    for (size_t ti = seq_len; ti-- > 0;) {
      for (size_t li = layers; li-- > 0;) {
        size_t slot = ti * layers + li;
        size_t in_l = LayerInput(li);
        size_t width = in_l + hidden;
        const Matrix& zi = cache.gate_i[slot];
        const Matrix& zf = cache.gate_f[slot];
        const Matrix& zo = cache.gate_o[slot];
        const Matrix& zg = cache.gate_g[slot];
        const Matrix& tanh_c = cache.tanh_cell[slot];
        const Matrix& concat = cache.concat[slot];
        // Previous cell state (zeros at t=0).
        const Matrix* c_prev =
            ti > 0 ? &cache.cell[(ti - 1) * layers + li] : nullptr;
        for (size_t b = 0; b < batch; ++b) {
          double* dzrow = &dz.mutable_data()[b * 4 * hidden];
          for (size_t j = 0; j < hidden; ++j) {
            double dhi = dh[slot](b, j);
            double tc = tanh_c(b, j);
            double dci = dc[li](b, j) + dhi * zo(b, j) * (1.0 - tc * tc);
            double doi = dhi * tc;
            double cprev = c_prev != nullptr ? (*c_prev)(b, j) : 0.0;
            dzrow[j] = dci * zg(b, j) * zi(b, j) * (1.0 - zi(b, j));
            dzrow[hidden + j] = dci * cprev * zf(b, j) * (1.0 - zf(b, j));
            dzrow[2 * hidden + j] = doi * zo(b, j) * (1.0 - zo(b, j));
            dzrow[3 * hidden + j] =
                dci * zi(b, j) * (1.0 - zg(b, j) * zg(b, j));
            dc[li](b, j) = dci * zf(b, j);  // carried to t-1
          }
        }
        // Weight/bias gradients and the upstream delta, all as GEMMs:
        // gW += dz^T concat, gb += colsum(dz), dconcat = dz W.
        GemmTransAInto(dz.data().data(), 4 * hidden, concat.data().data(),
                       width, grads + off_w[li], width, batch, 4 * hidden,
                       width, /*accumulate=*/true);
        AccumulateColumnSums(dz, grads + off_b[li]);
        Matrix dconcat(batch, width);
        GemmTransBInto(dz.data().data(), 4 * hidden, w_t[li].data(),
                       4 * hidden, dconcat.mutable_data().data(), width, batch,
                       4 * hidden, width, /*accumulate=*/false);
        // Split dconcat into the below-layer/embedding delta and dh_prev.
        if (ti > 0) {
          Matrix& dh_prev = dh[(ti - 1) * layers + li];
          for (size_t b = 0; b < batch; ++b) {
            AxpyInto(&dh_prev.mutable_data()[b * hidden], 1.0,
                     &dconcat.data()[b * width + in_l], hidden);
          }
        }
        if (li > 0) {
          Matrix& dh_below = dh[ti * layers + (li - 1)];
          for (size_t b = 0; b < batch; ++b) {
            AxpyInto(&dh_below.mutable_data()[b * hidden], 1.0,
                     &dconcat.data()[b * width], hidden);
          }
        } else {
          for (size_t b = 0; b < batch; ++b) {
            AxpyInto(&dembed[ti].mutable_data()[b * embed], 1.0,
                     &dconcat.data()[b * width], embed);
          }
        }
      }
    }
    // Embedding gradients: gE += dembed_t^T x_t, gbe += colsum(dembed_t).
    for (size_t t = 0; t < seq_len; ++t) {
      AccumulateColumnSums(dembed[t], grads + off_be);
      GemmTransAInto(dembed[t].data().data(), embed, xb + t * in_dim,
                     xb_stride, grads + off_e, in_dim, batch, embed, in_dim,
                     /*accumulate=*/true);
    }
  }
};

// ---------------------------------------------------------------------------
// Vanilla RNN core for the PSRNN model, batched the same way.
// ---------------------------------------------------------------------------

struct VanillaRnnCore {
  size_t in_dim = 0, hidden = 0, out_dim = 0, seq_len = 0;
  size_t off_wx = 0, off_wh = 0, off_b = 0, off_wo = 0, off_bo = 0;

  size_t Layout() {
    size_t offset = 0;
    off_wx = offset;
    offset += hidden * in_dim;
    off_wh = offset;
    offset += hidden * hidden;
    off_b = offset;
    offset += hidden;
    off_wo = offset;
    offset += out_dim * hidden;
    off_bo = offset;
    offset += out_dim;
    return offset;
  }

  struct BatchCache {
    std::vector<Matrix> pre_h;  ///< per t: batch x H tanh outputs
  };

  void ForwardBatch(const double* params, const double* xb, size_t xb_stride,
                    size_t batch, Matrix& y, BatchCache* cache) const {
    if (cache != nullptr) cache->pre_h.assign(seq_len, {});
    Matrix h(batch, hidden);
    for (size_t t = 0; t < seq_len; ++t) {
      Matrix nh(batch, hidden);
      GemmTransBInto(xb + t * in_dim, xb_stride, params + off_wx, in_dim,
                     nh.mutable_data().data(), hidden, batch, in_dim, hidden,
                     /*accumulate=*/false);
      GemmTransBInto(h.data().data(), hidden, params + off_wh, hidden,
                     nh.mutable_data().data(), hidden, batch, hidden, hidden,
                     /*accumulate=*/true);
      AddRowBias(nh, params + off_b);
      for (double& v : nh.mutable_data()) v = std::tanh(v);
      h = std::move(nh);
      if (cache != nullptr) cache->pre_h[t] = h;
    }
    GemmTransBInto(h.data().data(), hidden, params + off_wo, hidden,
                   y.mutable_data().data(), out_dim, batch, hidden, out_dim,
                   /*accumulate=*/false);
    AddRowBias(y, params + off_bo);
  }

  void BackwardBatch(const double* params, const double* xb, size_t xb_stride,
                     size_t batch, const BatchCache& cache, const Matrix& dy,
                     double* grads) const {
    const Matrix& h_last = cache.pre_h[seq_len - 1];
    AccumulateColumnSums(dy, grads + off_bo);
    GemmTransAInto(dy.data().data(), out_dim, h_last.data().data(), hidden,
                   grads + off_wo, hidden, batch, out_dim, hidden,
                   /*accumulate=*/true);
    Matrix dh(batch, hidden);
    GemmInto(dy.data().data(), out_dim, params + off_wo, hidden,
             dh.mutable_data().data(), hidden, batch, out_dim, hidden,
             /*accumulate=*/false);
    Matrix dz(batch, hidden);
    std::vector<double> wh_t(hidden * hidden);  // Wh^T, packed once
    TransposeInto(params + off_wh, hidden, hidden, hidden, wh_t.data());
    for (size_t ti = seq_len; ti-- > 0;) {
      const Matrix& h = cache.pre_h[ti];
      for (size_t b = 0; b < batch; ++b) {
        for (size_t j = 0; j < hidden; ++j) {
          dz(b, j) = dh(b, j) * (1.0 - h(b, j) * h(b, j));
        }
      }
      AccumulateColumnSums(dz, grads + off_b);
      GemmTransAInto(dz.data().data(), hidden, xb + ti * in_dim, xb_stride,
                     grads + off_wx, in_dim, batch, hidden, in_dim,
                     /*accumulate=*/true);
      if (ti > 0) {
        const Matrix& h_prev = cache.pre_h[ti - 1];
        GemmTransAInto(dz.data().data(), hidden, h_prev.data().data(), hidden,
                       grads + off_wh, hidden, batch, hidden, hidden,
                       /*accumulate=*/true);
      }
      GemmTransBInto(dz.data().data(), hidden, wh_t.data(), hidden,
                     dh.mutable_data().data(), hidden, batch, hidden, hidden,
                     /*accumulate=*/false);
    }
  }
};

/// Objective adapter shared by the three cores: gathers the sub-batch rows,
/// runs the batched forward/backward, and reports the summed loss. Keeping
/// all scratch local makes concurrent sub-batch evaluation safe.
template <typename Core>
class CoreObjective final : public BatchObjective {
 public:
  CoreObjective(const Core& core, const Matrix& x, const Matrix& y,
                const std::vector<double>& params)
      : core_(core), x_(x), y_(y), params_(params) {}

  double BatchLossAndGrad(const size_t* rows, size_t count,
                          double* grads) const override {
    Matrix scratch;
    const double* xb = GatherRows(x_, rows, count, scratch);
    typename Core::BatchCache cache;
    Matrix pred(count, y_.cols());
    core_.ForwardBatch(params_.data(), xb, x_.cols(), count, pred, &cache);
    Matrix dy(count, y_.cols());
    double loss = HalfSquaredErrorBatch(pred, y_, rows, count, &dy);
    core_.BackwardBatch(params_.data(), xb, x_.cols(), count, cache, dy,
                        grads);
    return loss;
  }

  double BatchLoss(const size_t* rows, size_t count) const override {
    Matrix scratch;
    const double* xb = GatherRows(x_, rows, count, scratch);
    Matrix pred(count, y_.cols());
    core_.ForwardBatch(params_.data(), xb, x_.cols(), count, pred, nullptr);
    return HalfSquaredErrorBatch(pred, y_, rows, count, nullptr);
  }

 private:
  const Core& core_;
  const Matrix& x_;
  const Matrix& y_;
  const std::vector<double>& params_;
};

}  // namespace

// ---------------------------------------------------------------------------
// FNN
// ---------------------------------------------------------------------------

Status FnnModel::Fit(const Matrix& x_raw, const Matrix& y_raw) {
  if (x_raw.rows() < 4 || x_raw.rows() != y_raw.rows()) {
    return Status::InvalidArgument("FNN: insufficient or mismatched data");
  }
  Matrix x = x_std_.FitTransform(x_raw);
  Matrix y = y_std_.FitTransform(y_raw);
  in_dim_ = x.cols();
  hidden_ = options_.hidden_dim;
  out_dim_ = y.cols();

  FnnCore core;
  core.in_dim = in_dim_;
  core.hidden = hidden_;
  core.out_dim = out_dim_;
  size_t num_params = core.Layout();
  params_.assign(num_params, 0.0);
  Rng rng(options_.seed);
  RandomInit(params_, core.off_w1, hidden_ * in_dim_,
             1.0 / std::sqrt(static_cast<double>(in_dim_)), rng);
  RandomInit(params_, core.off_w2, out_dim_ * hidden_,
             1.0 / std::sqrt(static_cast<double>(hidden_)), rng);

  CoreObjective<FnnCore> objective(core, x, y, params_);
  Status trained = TrainWithEarlyStopping(options_, x.rows(), params_, objective);
  if (!trained.ok()) return trained;
  fitted_ = true;
  return Status::Ok();
}

Result<Vector> FnnModel::Predict(const Vector& raw_input) const {
  if (!fitted_) return Status::FailedPrecondition("FNN model not fitted");
  if (raw_input.size() != in_dim_) {
    return Status::InvalidArgument("FNN input dimension mismatch");
  }
  Vector input = x_std_.Transform(raw_input);
  FnnCore core;
  core.in_dim = in_dim_;
  core.hidden = hidden_;
  core.out_dim = out_dim_;
  core.Layout();
  Matrix pred(1, out_dim_);
  core.ForwardBatch(params_.data(), input.data(), input.size(), 1, pred,
                    nullptr);
  return y_std_.Inverse(pred.Row(0));
}

// ---------------------------------------------------------------------------
// RNN (LSTM)
// ---------------------------------------------------------------------------

Status RnnModel::Fit(const Matrix& x_raw, const Matrix& y_raw) {
  if (x_raw.rows() < 4 || x_raw.rows() != y_raw.rows()) {
    return Status::InvalidArgument("RNN: insufficient or mismatched data");
  }
  Matrix x = x_std_.FitTransform(x_raw);
  Matrix y = y_std_.FitTransform(y_raw);
  in_dim_ = options_.num_series;
  if (in_dim_ == 0 || x.cols() % in_dim_ != 0) {
    return Status::InvalidArgument("RNN: columns not divisible by num_series");
  }
  seq_len_ = x.cols() / in_dim_;

  LstmCore core;
  core.in_dim = in_dim_;
  core.embed = options_.embedding_dim;
  core.hidden = options_.hidden_dim;
  core.layers = options_.num_layers;
  core.out_dim = y.cols();
  core.seq_len = seq_len_;
  out_dim_ = y.cols();
  size_t num_params = core.Layout();
  params_.assign(num_params, 0.0);
  core.Init(params_, options_.seed);

  CoreObjective<LstmCore> objective(core, x, y, params_);
  Status trained = TrainWithEarlyStopping(options_, x.rows(), params_, objective);
  if (!trained.ok()) return trained;
  fitted_ = true;
  return Status::Ok();
}

Result<Vector> RnnModel::Predict(const Vector& raw_input) const {
  if (!fitted_) return Status::FailedPrecondition("RNN model not fitted");
  if (raw_input.size() != seq_len_ * in_dim_) {
    return Status::InvalidArgument("RNN input dimension mismatch");
  }
  Vector input = x_std_.Transform(raw_input);
  LstmCore core;
  core.in_dim = in_dim_;
  core.embed = options_.embedding_dim;
  core.hidden = options_.hidden_dim;
  core.layers = options_.num_layers;
  core.seq_len = seq_len_;
  core.out_dim = out_dim_;
  core.Layout();
  Matrix pred(1, out_dim_);
  core.ForwardBatch(params_.data(), input.data(), input.size(), 1, pred,
                    nullptr);
  return y_std_.Inverse(pred.Row(0));
}

// ---------------------------------------------------------------------------
// PSRNN
// ---------------------------------------------------------------------------

Status PsrnnModel::Fit(const Matrix& x_raw, const Matrix& y_raw) {
  if (x_raw.rows() < 4 || x_raw.rows() != y_raw.rows()) {
    return Status::InvalidArgument("PSRNN: insufficient or mismatched data");
  }
  Matrix x = x_std_.FitTransform(x_raw);
  Matrix y = y_std_.FitTransform(y_raw);
  in_dim_ = options_.num_series;
  if (in_dim_ == 0 || x.cols() % in_dim_ != 0) {
    return Status::InvalidArgument("PSRNN: columns not divisible by num_series");
  }
  seq_len_ = x.cols() / in_dim_;
  hidden_ = options_.hidden_dim;
  out_dim_ = y.cols();

  VanillaRnnCore core;
  core.in_dim = in_dim_;
  core.hidden = hidden_;
  core.out_dim = out_dim_;
  core.seq_len = seq_len_;
  size_t num_params = core.Layout();
  params_.assign(num_params, 0.0);

  // Two-stage-regression initialization (the PSRNN idea, simplified): a
  // ridge regression from the last observation to the target provides the
  // initial observation->state and state->output maps, instead of random
  // initialization.
  {
    Matrix last_step(x.rows(), in_dim_);
    for (size_t i = 0; i < x.rows(); ++i) {
      for (size_t j = 0; j < in_dim_; ++j) {
        last_step(i, j) = x(i, (seq_len_ - 1) * in_dim_ + j);
      }
    }
    auto w1 = RidgeRegression(last_step, y, options_.ridge_lambda);
    Rng rng(options_.seed);
    // Observation -> state: route each input into a dedicated state unit.
    for (size_t i = 0; i < hidden_; ++i) {
      for (size_t j = 0; j < in_dim_; ++j) {
        params_[core.off_wx + i * in_dim_ + j] =
            (i % in_dim_ == j) ? 0.5 : rng.Gaussian(0.0, 0.05);
      }
    }
    // Weak recurrence to start (memory learned during refinement).
    RandomInit(params_, core.off_wh, hidden_ * hidden_, 0.05, rng);
    // State -> output from the stage-1 regression through the routed units.
    if (w1.ok()) {
      for (size_t o = 0; o < out_dim_; ++o) {
        for (size_t i = 0; i < hidden_; ++i) {
          params_[core.off_wo + o * hidden_ + i] =
              2.0 * (*w1)(i % in_dim_, o) / std::ceil(static_cast<double>(hidden_) /
                                                      static_cast<double>(in_dim_));
        }
      }
    } else {
      RandomInit(params_, core.off_wo, out_dim_ * hidden_, 0.1, rng);
    }
  }

  CoreObjective<VanillaRnnCore> objective(core, x, y, params_);
  Status trained = TrainWithEarlyStopping(options_, x.rows(), params_, objective);
  if (!trained.ok()) return trained;
  fitted_ = true;
  return Status::Ok();
}

Result<Vector> PsrnnModel::Predict(const Vector& raw_input) const {
  if (!fitted_) return Status::FailedPrecondition("PSRNN model not fitted");
  if (raw_input.size() != seq_len_ * in_dim_) {
    return Status::InvalidArgument("PSRNN input dimension mismatch");
  }
  Vector input = x_std_.Transform(raw_input);
  VanillaRnnCore core;
  core.in_dim = in_dim_;
  core.hidden = hidden_;
  core.out_dim = out_dim_;
  core.seq_len = seq_len_;
  core.Layout();
  Matrix pred(1, out_dim_);
  core.ForwardBatch(params_.data(), input.data(), input.size(), 1, pred,
                    nullptr);
  return y_std_.Inverse(pred.Row(0));
}

}  // namespace qb5000
