#include "preprocessor/preprocessor.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "common/check.h"

namespace qb5000 {
namespace {

/// Seed of the parameter-sampling RNG: the same samples run to run.
constexpr uint64_t kParamSampleSeed = 42;

}  // namespace

PreProcessor::PreProcessor(Options options)
    : options_(options), rng_(kParamSampleSeed) {
  MetricsRegistry& m = options_.metrics != nullptr ? *options_.metrics
                                                   : MetricsRegistry::Global();
  queries_total_ = m.GetCounter("preprocessor.queries_total");
  ingests_total_ = m.GetCounter("preprocessor.ingests_total");
  templates_created_total_ = m.GetCounter("preprocessor.templates_created_total");
  templates_evicted_total_ = m.GetCounter("preprocessor.templates_evicted_total");
  parse_failures_total_ = m.GetCounter("preprocessor.parse_failures_total");
  parse_fallback_total_ = m.GetCounter("preprocessor.parse_fallback_total");
  compactions_total_ = m.GetCounter("preprocessor.compactions_total");
  cache_hits_total_ = m.GetCounter("preprocessor.cache_hits_total");
  cache_misses_total_ = m.GetCounter("preprocessor.cache_misses_total");
  cache_evictions_total_ = m.GetCounter("preprocessor.cache_evictions_total");
  templates_gauge_ = m.GetGauge("preprocessor.templates");
  history_bytes_gauge_ = m.GetGauge("preprocessor.history_bytes");
  history_resident_bytes_gauge_ =
      m.GetGauge("preprocessor.history_resident_bytes");
  batch_ingest_seconds_ = m.GetHistogram("preprocessor.batch_ingest_seconds");
  by_fingerprint_.reserve(options_.expected_templates);
  cache_.reserve(std::min(options_.template_cache_capacity,
                          std::max<size_t>(options_.expected_templates, 16)));
}

Result<TemplateId> PreProcessor::Ingest(std::string_view sql, Timestamp ts,
                                        double count) {
  Status normalized = sql::NormalizeQuery(sql, &norm_scratch_);
  if (!normalized.ok()) {
    parse_failures_total_->Add();
    return normalized;
  }
  if (norm_scratch_.token_count == 0) {
    // Mirrors the templatizer's rejection of empty statements, so the
    // normalizer rejects exactly what the parser would.
    parse_failures_total_->Add();
    return Status::InvalidArgument("empty statement");
  }
  std::optional<TemplatizeOutput> parsed;
  TemplateId id = IngestArrival(QueryArrival{sql, ts, count}, norm_scratch_,
                                parsed);
  if (id == 0) return Status::InvalidArgument("statement does not templatize");
  return id;
}

TemplateId PreProcessor::IngestArrival(const QueryArrival& arrival,
                                       const sql::NormalizedQuery& norm,
                                       std::optional<TemplatizeOutput>& parsed) {
  if (const CacheEntry* entry = CacheTouch(norm.key, norm.hash)) {
    cache_hits_total_->Add();
    ingests_total_->Add();
    queries_total_->Add(
        static_cast<uint64_t>(std::llround(std::max(0.0, arrival.count))));
    TemplateInfo& info = *entry->info;
    RecordArrival(info, arrival.ts, arrival.count);
    if (entry->param_count > 0) {
      // The miss that filled this entry sampled its parse-derived parameter
      // tuple; keep the reservoir RNG advancing at the same rate by sampling
      // the normalized literals truncated to that tuple's arity. Lazy: the
      // tuple is copied only when the reservoir actually keeps it.
      info.param_samples.AddLazy(rng_, [&] {
        size_t n = std::min<size_t>(entry->param_count, norm.literals.size());
        return std::vector<sql::Literal>(norm.literals.begin(),
                                         norm.literals.begin() + n);
      });
    }
    return entry->id;
  }
  if (!parsed.has_value()) {
    auto out = Templatize(arrival.sql);
    if (!out.ok()) {
      // Defensive: NormalizeQuery and Templatize share one scanner, so a
      // statement that normalized cannot fail to tokenize; full parse
      // errors fall back rather than fail.
      parse_failures_total_->Add();
      return 0;
    }
    parsed = std::move(out.value());
  }
  cache_misses_total_->Add();
  if (parsed->used_fallback) parse_fallback_total_->Add();
  TemplateId id = IngestTemplatized(*parsed, arrival.ts, arrival.count);
  CacheInsert(norm.key, norm.hash, id,
              static_cast<uint32_t>(parsed->parameters.size()),
              &templates_.at(id));
  return id;
}

void PreProcessor::RecordArrival(TemplateInfo& info, Timestamp ts,
                                 double count) {
  info.history.Record(ts, count);
  info.last_seen = std::max(info.last_seen, ts);
  info.total_queries += count;
  total_queries_ += count;
  queries_by_type_[static_cast<int>(info.type)] += count;
}

const PreProcessor::CacheEntry* PreProcessor::CacheProbe(
    std::string_view key, uint64_t hash) const {
  auto it = cache_.find(HashedKey{key, hash});
  return it == cache_.end() ? nullptr : &it->second;
}

PreProcessor::CacheEntry* PreProcessor::CacheTouch(std::string_view key,
                                                   uint64_t hash) {
  auto it = cache_.find(HashedKey{key, hash});
  if (it == cache_.end()) return nullptr;
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second.lru_it);
  return &it->second;
}

void PreProcessor::CacheInsert(std::string_view key, uint64_t hash,
                               TemplateId id, uint32_t param_count,
                               TemplateInfo* info) {
  if (options_.template_cache_capacity == 0) return;
  while (cache_.size() >= options_.template_cache_capacity) {
    const CacheNode& tail = cache_lru_.back();
    cache_.erase(HashedKey{tail.key, tail.hash});
    cache_lru_.pop_back();
    cache_evictions_total_->Add();
  }
  cache_lru_.push_front(CacheNode{std::string(key), hash});
  cache_.emplace(HashedKey{cache_lru_.front().key, hash},
                 CacheEntry{id, param_count, info, cache_lru_.begin()});
}

void PreProcessor::CacheEraseIds(const std::vector<TemplateId>& ids) {
  if (ids.empty() || cache_.empty()) return;
  std::unordered_set<TemplateId> dead(ids.begin(), ids.end());
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (dead.count(it->second.id)) {
      cache_lru_.erase(it->second.lru_it);
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<TemplateId> PreProcessor::IngestBatch(
    std::span<const QueryArrival> arrivals, SharedMutex* state_mu) {
  const size_t n = arrivals.size();
  std::vector<TemplateId> ids(n, 0);
  if (n == 0) return ids;
  Stopwatch batch_watch;

  // Phase 1 (unlocked): normalize each distinct raw string once, in arrival
  // order, and note the first arrival of each distinct normalized key.
  // rawrep[i] indexes the normalization of arrival i's bytes (kRejected when
  // they do not normalize); `norms` never reallocates, so the keys in
  // `seen_keys` may alias its strings.
  constexpr uint32_t kRejected = UINT32_MAX;
  std::vector<uint32_t> rawrep(n);
  std::vector<sql::NormalizedQuery> norms;
  norms.reserve(n);
  struct FirstArrival {
    size_t index = 0;                        ///< arrival index
    bool cached = false;                     ///< the shared-lock probe hit
    std::optional<TemplatizeOutput> parsed;  ///< speculative parse otherwise
  };
  std::vector<FirstArrival> firsts;
  {
    std::unordered_map<std::string_view, uint32_t> by_raw;
    std::unordered_set<HashedKey, HashedKeyHasher, HashedKeyEq> seen_keys;
    by_raw.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      auto [it, inserted] = by_raw.try_emplace(arrivals[i].sql, kRejected);
      if (inserted) {
        sql::NormalizedQuery& q = norms.emplace_back();
        if (sql::NormalizeQuery(arrivals[i].sql, &q).ok() &&
            q.token_count > 0) {
          it->second = static_cast<uint32_t>(norms.size() - 1);
          if (seen_keys.insert(HashedKey{q.key, q.hash}).second) {
            firsts.push_back(FirstArrival{i, false, std::nullopt});
          }
        }
      }
      rawrep[i] = it->second;
    }
  }

  // Phase 2: probe every key under the shared lock, then parse the first
  // arrival of each key the cache did not hold, with no lock held.
  {
    ReaderLockMaybe read_lock(state_mu);
    for (FirstArrival& f : firsts) {
      const sql::NormalizedQuery& q = norms[rawrep[f.index]];
      f.cached = CacheProbe(q.key, q.hash) != nullptr;
    }
  }
  for (FirstArrival& f : firsts) {
    if (f.cached) continue;
    auto out = Templatize(arrivals[f.index].sql);
    if (out.ok()) f.parsed = std::move(out.value());
  }

  // Phase 3 (exclusive lock): every arrival through the per-query step, in
  // arrival order. A key's speculative parse is offered only at its first
  // arrival; any other miss (an entry evicted since the probe, or every
  // arrival with the cache off) parses here, as it would arriving alone.
  {
    WriterLockMaybe write_lock(state_mu);
    size_t next_first = 0;
    for (size_t i = 0; i < n; ++i) {
      if (rawrep[i] == kRejected) {
        parse_failures_total_->Add();
        continue;
      }
      std::optional<TemplatizeOutput> none;
      bool first = next_first < firsts.size() && firsts[next_first].index == i;
      ids[i] = IngestArrival(arrivals[i], norms[rawrep[i]],
                             first ? firsts[next_first++].parsed : none);
    }
  }
  batch_ingest_seconds_->Observe(batch_watch.ElapsedSeconds());
  return ids;
}

TemplateId PreProcessor::IngestTemplatized(const TemplatizeOutput& templatized,
                                           Timestamp ts, double count) {
  ingests_total_->Add();
  queries_total_->Add(static_cast<uint64_t>(std::llround(std::max(0.0, count))));
  auto [it, inserted] =
      by_fingerprint_.try_emplace(templatized.fingerprint, next_id_);
  TemplateId id = it->second;
  if (inserted) {
    ++next_id_;
    templates_created_total_->Add();
    TemplateInfo info(kParamSampleCapacity);
    info.id = id;
    info.fingerprint = templatized.fingerprint;
    info.text = templatized.template_text;
    info.type = templatized.type;
    info.tables = templatized.tables;
    info.first_seen = ts;
    templates_.emplace(id, std::move(info));
  }
  TemplateInfo& info = templates_.at(id);
  RecordArrival(info, ts, count);
  if (!templatized.parameters.empty()) {
    info.param_samples.AddLazy(rng_, [&] { return templatized.parameters; });
  }
  templates_gauge_->Set(static_cast<double>(templates_.size()));
  return id;
}

void PreProcessor::CompactBefore(Timestamp now) {
  Timestamp cutoff = now - options_.compaction_horizon_seconds;
  for (auto& [id, info] : templates_) {
    (void)id;
    info.history.Compact(cutoff);
  }
  compactions_total_->Add();
  UpdateHistoryGauges();
}

void PreProcessor::UpdateHistoryGauges() {
  auto bytes = static_cast<double>(HistoryStorageBytes());
  history_bytes_gauge_->Set(bytes);
  history_resident_bytes_gauge_->Set(bytes);
}

double PreProcessor::QueriesOfType(sql::StatementType type) const {
  return queries_by_type_[static_cast<int>(type)];
}

const PreProcessor::TemplateInfo* PreProcessor::GetTemplate(TemplateId id) const {
  auto it = templates_.find(id);
  return it == templates_.end() ? nullptr : &it->second;
}

std::vector<TemplateId> PreProcessor::TemplateIds() const {
  std::vector<TemplateId> ids;
  ids.reserve(templates_.size());
  for (const auto& [id, info] : templates_) {
    (void)info;
    ids.push_back(id);
  }
  return ids;
}

double PreProcessor::NewTemplateRatio(Timestamp since) const {
  if (templates_.empty()) return 0.0;
  size_t fresh = 0;
  for (const auto& [id, info] : templates_) {
    (void)id;
    if (info.first_seen >= since) ++fresh;
  }
  return static_cast<double>(fresh) / static_cast<double>(templates_.size());
}

std::vector<TemplateId> PreProcessor::EvictIdleTemplates(Timestamp cutoff) {
  std::vector<TemplateId> evicted;
  for (auto it = templates_.begin(); it != templates_.end();) {
    if (it->second.last_seen < cutoff) {
      // by_fingerprint_ is 1:1 with templates_: each template is filed
      // under its own fingerprint (IngestTemplatized, RestoreTemplate).
      by_fingerprint_.erase(it->second.fingerprint);
      evicted.push_back(it->first);
      it = templates_.erase(it);
    } else {
      ++it;
    }
  }
  if (!evicted.empty()) {
    CacheEraseIds(evicted);
    templates_evicted_total_->Add(evicted.size());
    templates_gauge_->Set(static_cast<double>(templates_.size()));
  }
  return evicted;
}

Status PreProcessor::RestoreTemplate(TemplateInfo info) {
  if (info.fingerprint.empty()) {
    return Status::InvalidArgument("restored template needs a fingerprint");
  }
  if (by_fingerprint_.count(info.fingerprint) || templates_.count(info.id)) {
    return Status::AlreadyExists("template already present");
  }
  by_fingerprint_.emplace(info.fingerprint, info.id);
  total_queries_ += info.total_queries;
  queries_by_type_[static_cast<int>(info.type)] += info.total_queries;
  next_id_ = std::max(next_id_, info.id + 1);
  templates_.emplace(info.id, std::move(info));
  templates_gauge_->Set(static_cast<double>(templates_.size()));
  return Status::Ok();
}

void PreProcessor::RestoreTotals(double total,
                                 std::span<const double, 4> by_type) {
  total_queries_ = total;
  std::copy(by_type.begin(), by_type.end(), queries_by_type_);
}

void PreProcessor::RestoreNextTemplateId(TemplateId next) {
  QB_CHECK_GE(next, next_id_);
  next_id_ = next;
}

size_t PreProcessor::HistoryStorageBytes() const {
  size_t bytes = 0;
  for (const auto& [id, info] : templates_) {
    (void)id;
    bytes += info.history.StorageBytes();
  }
  return bytes;
}

}  // namespace qb5000
