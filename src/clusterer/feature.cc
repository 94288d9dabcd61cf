#include "clusterer/feature.h"

#include <algorithm>
#include <functional>
#include <set>

#include "sql/parser.h"

namespace qb5000 {

void ArrivalRateFeature::Resample(Timestamp now) {
  sample_times_.clear();
  sample_times_.reserve(options_.num_samples);
  Timestamp window_start = now - options_.window_seconds;
  // Deterministic in (seed, now): repeated clustering passes at the same
  // timestamp see identical sample grids, making Update() idempotent.
  Rng rng(options_.seed ^ (static_cast<uint64_t>(now) * 0x9E3779B97F4A7C15ULL));
  for (size_t i = 0; i < options_.num_samples; ++i) {
    Timestamp t = window_start +
                  rng.UniformInt(0, options_.window_seconds / kSecondsPerMinute - 1) *
                      kSecondsPerMinute;
    sample_times_.push_back(t);
  }
  std::sort(sample_times_.begin(), sample_times_.end());
}

ArrivalRateFeature::Feature ArrivalRateFeature::ExtractWithCoverage(
    const ArrivalHistory& history, TimeSeries* scratch) const {
  Feature out;
  out.values = Extract(history, scratch);
  if (history.Total() == 0.0) {
    out.covered_from = out.values.size();
    return out;
  }
  Timestamp first = history.FirstTime();
  size_t i = 0;
  while (i < sample_times_.size() && sample_times_[i] < first) ++i;
  out.covered_from = i;
  return out;
}

Vector ArrivalRateFeature::Extract(const ArrivalHistory& history,
                                   TimeSeries* scratch) const {
  Vector feature(sample_times_.size(), 0.0);
  if (sample_times_.empty()) return feature;
  // Arrival rates are read from buckets of this width at the sampled
  // positions. Smoothing to one hour makes the similarity robust to sparse
  // per-minute recording without changing pattern shape.
  constexpr int64_t kSmoothingIntervalSeconds = kSecondsPerHour;
  // One materialization at the smoothing interval covering all samples,
  // then point lookups. The series is zero-filled outside the recorded
  // range, which matches the paper's treatment of new templates (missing
  // history = 0).
  TimeSeries local;
  TimeSeries* window = scratch != nullptr ? scratch : &local;
  if (!history
           .WindowInto(kSmoothingIntervalSeconds, sample_times_.front(),
                       sample_times_.back() + kSmoothingIntervalSeconds,
                       window)
           .ok()) {
    return feature;
  }
  for (size_t i = 0; i < sample_times_.size(); ++i) {
    feature[i] = window->ValueAt(sample_times_[i]);
  }
  return feature;
}

namespace {

void HashInto(const std::string& name, Vector& feature, size_t offset) {
  size_t bucket = std::hash<std::string>{}(name) % LogicalFeature::kHashBuckets;
  feature[offset + bucket] += 1.0;
}

void CountColumns(const sql::Expr* e, std::set<std::string>* columns,
                  double* aggregations) {
  if (e == nullptr) return;
  if (e->kind == sql::ExprKind::kColumnRef) columns->insert(e->column);
  if (e->kind == sql::ExprKind::kFuncCall) {
    if (e->func == "COUNT" || e->func == "SUM" || e->func == "AVG" ||
        e->func == "MIN" || e->func == "MAX") {
      *aggregations += 1.0;
    }
  }
  CountColumns(e->left.get(), columns, aggregations);
  CountColumns(e->right.get(), columns, aggregations);
  for (const auto& child : e->list) CountColumns(child.get(), columns, aggregations);
}

}  // namespace

Vector LogicalFeature::Extract(const PreProcessor::TemplateInfo& info) {
  Vector feature(kDimension, 0.0);
  feature[static_cast<size_t>(info.type)] = 1.0;
  constexpr size_t kTableOffset = 4;
  constexpr size_t kColumnOffset = 4 + kHashBuckets;
  constexpr size_t kCountsOffset = 4 + 2 * kHashBuckets;

  for (const auto& table : info.tables) HashInto(table, feature, kTableOffset);

  auto parsed = sql::Parse(info.text);
  if (!parsed.ok()) {
    // Fallback templates: hash the raw text for a stable (if coarse) key.
    HashInto(info.text, feature, kTableOffset);
    return feature;
  }

  std::set<std::string> columns;
  double aggregations = 0.0;
  double joins = 0.0, group_bys = 0.0, havings = 0.0, order_bys = 0.0;
  switch (parsed->type) {
    case sql::StatementType::kSelect: {
      const auto& s = *parsed->select;
      for (const auto& item : s.items) {
        CountColumns(item.expr.get(), &columns, &aggregations);
      }
      CountColumns(s.where.get(), &columns, &aggregations);
      CountColumns(s.having.get(), &columns, &aggregations);
      for (const auto& g : s.group_by) CountColumns(g.get(), &columns, &aggregations);
      for (const auto& o : s.order_by) {
        CountColumns(o.expr.get(), &columns, &aggregations);
      }
      for (const auto& j : s.joins) CountColumns(j.on.get(), &columns, &aggregations);
      joins = static_cast<double>(s.joins.size());
      group_bys = static_cast<double>(s.group_by.size());
      havings = s.having ? 1.0 : 0.0;
      order_bys = static_cast<double>(s.order_by.size());
      break;
    }
    case sql::StatementType::kInsert:
      for (const auto& col : parsed->insert->columns) columns.insert(col);
      break;
    case sql::StatementType::kUpdate:
      for (const auto& [col, value] : parsed->update->assignments) {
        columns.insert(col);
        CountColumns(value.get(), &columns, &aggregations);
      }
      CountColumns(parsed->update->where.get(), &columns, &aggregations);
      break;
    case sql::StatementType::kDelete:
      CountColumns(parsed->del->where.get(), &columns, &aggregations);
      break;
  }
  for (const auto& col : columns) HashInto(col, feature, kColumnOffset);
  feature[kCountsOffset + 0] = joins;
  feature[kCountsOffset + 1] = group_bys;
  feature[kCountsOffset + 2] = havings;
  feature[kCountsOffset + 3] = order_bys;
  feature[kCountsOffset + 4] = aggregations;
  return feature;
}

}  // namespace qb5000
