#include "preprocessor/preprocessor.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <unordered_set>
#include <utility>

#include "common/thread_pool.h"

namespace qb5000 {

namespace {

/// Shard count for IngestBatch staging. A power of two so striping is a
/// mask; shard membership depends only on the normalization hash, never on
/// thread count, which keeps the merge order deterministic.
constexpr size_t kIngestShards = 16;

/// Work-splitting grain for the normalize phase: normalization is a few
/// microseconds per statement, so batch enough per task to amortize the
/// pool's dispatch overhead.
constexpr size_t kNormalizeGrain = 64;

}  // namespace

PreProcessor::PreProcessor(Options options)
    : options_(options), rng_(options.rng_seed) {
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
  batches_total_ = m.GetCounter("preprocessor.batches_total");
  templates_gauge_ = m.GetGauge("preprocessor.templates");
  history_bytes_gauge_ = m.GetGauge("preprocessor.history_bytes");
  history_resident_bytes_gauge_ =
      m.GetGauge("preprocessor.history_resident_bytes");
  ingest_hit_seconds_ = m.GetHistogram("preprocessor.ingest_seconds.hit");
  ingest_miss_seconds_ = m.GetHistogram("preprocessor.ingest_seconds.miss");
  batch_ingest_seconds_ = m.GetHistogram("preprocessor.batch_ingest_seconds");
  by_fingerprint_.reserve(options_.expected_templates);
  cache_.reserve(std::min(options_.template_cache_capacity,
                          std::max<size_t>(options_.expected_templates, 16)));
}

Result<TemplateId> PreProcessor::Ingest(std::string_view sql, Timestamp ts,
                                        double count) {
  // Sample ingest latency on every 16th call (hit or miss alike): ingest is
  // the one per-query hot path, so the clock reads must stay off most
  // queries (bench_table4_overhead holds the instrumented build to <= 3%).
  bool sampled = (ingest_calls_++ & kIngestSampleMask) == 0;
  std::optional<Stopwatch> watch;
  if (sampled) watch.emplace();

  if (options_.template_cache_capacity == 0) {
    // Cache disabled: classic full-parse path. Still counted as a miss so
    // hits + misses == successful raw ingests holds in every configuration.
    auto templatized = Templatize(sql);
    if (!templatized.ok()) {
      parse_failures_total_->Add();
      return templatized.status();
    }
    cache_misses_total_->Add();
    if (templatized->used_fallback) parse_fallback_total_->Add();
    TemplateId id = IngestTemplatized(*templatized, ts, count);
    if (watch) ingest_miss_seconds_->Observe(watch->ElapsedSeconds());
    return id;
  }

  Status normalized = sql::NormalizeQuery(sql, &norm_scratch_);
  if (!normalized.ok()) {
    parse_failures_total_->Add();
    return normalized;
  }
  if (norm_scratch_.token_count == 0) {
    // Mirrors the templatizer's rejection of empty statements so the cache
    // path fails exactly when the parse path would.
    parse_failures_total_->Add();
    return Status::InvalidArgument("empty statement");
  }
  if (const CacheEntry* entry =
          CacheTouch(norm_scratch_.key, norm_scratch_.hash)) {
    TemplateId id = IngestHit(*entry, norm_scratch_.literals, ts, count);
    cache_hits_total_->Add();
    if (watch) ingest_hit_seconds_->Observe(watch->ElapsedSeconds());
    return id;
  }

  auto templatized = Templatize(sql);
  if (!templatized.ok()) {
    // Defensive: NormalizeQuery and Templatize share one scanner, so a
    // statement that normalized cannot fail to tokenize; full parse errors
    // fall back rather than fail.
    parse_failures_total_->Add();
    return templatized.status();
  }
  cache_misses_total_->Add();
  if (templatized->used_fallback) parse_fallback_total_->Add();
  TemplateId id = IngestTemplatized(*templatized, ts, count);
  CacheInsert(std::move(norm_scratch_.key), norm_scratch_.hash, id,
              static_cast<uint32_t>(templatized->parameters.size()),
              &templates_.at(id));
  if (watch) ingest_miss_seconds_->Observe(watch->ElapsedSeconds());
  return id;
}

TemplateId PreProcessor::IngestHit(const CacheEntry& entry,
                                   const std::vector<sql::Literal>& literals,
                                   Timestamp ts, double count) {
  ingests_total_->Add();
  queries_total_->Add(static_cast<uint64_t>(std::llround(std::max(0.0, count))));
  TemplateInfo& info = *entry.info;
  info.history.Record(ts, count);
  info.last_seen = std::max(info.last_seen, ts);
  info.total_queries += count;
  if (entry.param_count > 0) {
    // The miss that filled this entry sampled its parse-derived parameter
    // tuple; keep the reservoir RNG advancing at the same rate by sampling
    // the normalized literals truncated to that tuple's arity. Lazy: the
    // tuple is copied only when the reservoir actually keeps it.
    info.param_samples.AddLazy(rng_, [&] {
      size_t n = std::min<size_t>(entry.param_count, literals.size());
      return std::vector<sql::Literal>(literals.begin(), literals.begin() + n);
    });
  }
  total_queries_ += count;
  queries_by_type_[static_cast<int>(info.type)] += count;
  templates_gauge_->Set(static_cast<double>(templates_.size()));
  return entry.id;
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

void PreProcessor::CacheInsert(std::string&& key, uint64_t hash, TemplateId id,
                               uint32_t param_count, TemplateInfo* info) {
  if (options_.template_cache_capacity == 0) return;
  while (cache_.size() >= options_.template_cache_capacity) {
    const CacheNode& tail = cache_lru_.back();
    cache_.erase(HashedKey{tail.key, tail.hash});
    cache_lru_.pop_back();
    cache_evictions_total_->Add();
  }
  cache_lru_.push_front(CacheNode{std::move(key), hash});
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

  // Phase 0 — dedupe identical raw strings (sequential, arrival order).
  // Real traces are repeat-heavy: most arrivals are byte-identical to an
  // earlier one and can reuse its normalization verbatim. rawrep[i] is the
  // index of the first arrival with the same bytes (possibly i itself).
  std::vector<uint32_t> rawrep(n);
  std::vector<uint32_t> unique_raws;
  {
    std::unordered_map<std::string_view, uint32_t> first_raw;
    first_raw.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      auto [it, inserted] =
          first_raw.try_emplace(arrivals[i].sql, static_cast<uint32_t>(i));
      rawrep[i] = it->second;
      if (inserted) unique_raws.push_back(static_cast<uint32_t>(i));
    }
  }

  // Phase 1 — normalize one representative per distinct raw string,
  // off-lock (pure per item). norm/accepted are only meaningful at
  // representative indices.
  std::vector<sql::NormalizedQuery> norm(n);
  std::vector<uint8_t> accepted(n, 0);
  ParallelFor(0, unique_raws.size(), kNormalizeGrain,
              [&](size_t begin, size_t end) {
                for (size_t u = begin; u < end; ++u) {
                  uint32_t i = unique_raws[u];
                  accepted[i] =
                      sql::NormalizeQuery(arrivals[i].sql, &norm[i]).ok() &&
                              norm[i].token_count > 0
                          ? 1
                          : 0;
                }
              });

  // Phase 2 — stripe accepted arrivals into shards by normalization hash.
  // Sequential and cheap; shard membership is independent of thread count.
  std::array<std::vector<uint32_t>, kIngestShards> shard_items;
  size_t rejected = 0;
  for (auto& shard : shard_items) shard.reserve(n / kIngestShards + 1);
  for (size_t i = 0; i < n; ++i) {
    uint32_t r = rawrep[i];
    if (accepted[r]) {
      shard_items[norm[r].hash & (kIngestShards - 1)].push_back(
          static_cast<uint32_t>(i));
    } else {
      ++rejected;
    }
  }

  // Phase 3 — group identical keys within each shard, preserving
  // first-arrival order of both groups and members (pure per shard).
  // Repeated raws short-circuit through the cheap rawrep probe; only the
  // first arrival of each distinct raw pays a normalized-key probe.
  struct Group {
    std::string_view key;                ///< aliases the first rep's norm key
    uint64_t hash = 0;                   ///< the key's NormalizeQuery hash
    std::vector<uint32_t> items;         ///< ascending arrival indices
    bool rep_consumed = false;           ///< items[0] ingested by the miss pass
    bool rejected = false;
  };
  std::array<std::vector<Group>, kIngestShards> shard_groups;
  ParallelFor(0, kIngestShards, 1, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      auto& groups = shard_groups[s];
      std::unordered_map<uint32_t, size_t> by_raw;
      std::unordered_map<std::string_view, size_t> by_key;
      by_raw.reserve(shard_items[s].size());
      for (uint32_t i : shard_items[s]) {
        uint32_t r = rawrep[i];
        auto [rit, rnew] = by_raw.try_emplace(r, 0);
        if (rnew) {
          auto [kit, knew] = by_key.try_emplace(norm[r].key, groups.size());
          if (knew) {
            groups.push_back(Group{norm[r].key, norm[r].hash, {}, false, false});
          }
          rit->second = kit->second;
        }
        groups[rit->second].items.push_back(i);
      }
    }
  });

  // Phase 4 — read-only cache probe under the shared lock; each unknown
  // group elects its first arrival as the representative to parse.
  struct Rep {
    uint32_t item = 0;
    Group* group = nullptr;
  };
  std::vector<Rep> reps;
  {
    ReaderLockMaybe read_lock(state_mu);
    for (auto& groups : shard_groups) {
      for (Group& g : groups) {
        if (CacheProbe(g.key, g.hash) == nullptr) {
          reps.push_back(Rep{g.items.front(), &g});
        }
      }
    }
  }
  // Global first-arrival order: processing representatives in this order
  // under the exclusive lock reproduces the per-query id assignment (a
  // cached key implies its template already exists, so the first arrival of
  // any NEW fingerprint is always a representative).
  std::sort(reps.begin(), reps.end(),
            [](const Rep& a, const Rep& b) { return a.item < b.item; });

  // Phase 5 — parse the representatives off-lock (pure, speculative).
  std::vector<std::optional<TemplatizeOutput>> rep_out(reps.size());
  ParallelFor(0, reps.size(), 1, [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      auto out = Templatize(arrivals[reps[r].item].sql);
      if (out.ok()) rep_out[r] = std::move(out.value());
    }
  });

  // Phase 6 — merge under the exclusive lock.
  uint64_t hit_ops = 0;
  uint64_t hit_queries = 0;
  {
    WriterLockMaybe write_lock(state_mu);

    // 6a: miss groups in global first-arrival order.
    for (size_t r = 0; r < reps.size(); ++r) {
      Group& g = *reps[r].group;
      if (CacheProbe(g.key, g.hash) != nullptr) continue;  // raced in; now a hit group
      const QueryArrival& a = arrivals[reps[r].item];
      if (!rep_out[r].has_value()) {
        // Normalization accepted these bytes, so tokenization (and thus
        // fallback templatization) cannot fail; defensively reject.
        parse_failures_total_->Add(g.items.size());
        g.rejected = true;
        continue;
      }
      const TemplatizeOutput& t = *rep_out[r];
      cache_misses_total_->Add();
      if (t.used_fallback) parse_fallback_total_->Add();
      TemplateId id = IngestTemplatized(t, a.ts, a.count);
      ids[reps[r].item] = id;
      CacheInsert(std::string(g.key), g.hash, id,
                  static_cast<uint32_t>(t.parameters.size()),
                  &templates_.at(id));
      g.rep_consumed = true;
    }

    // 6b: hit members, shards in index order, groups and members in
    // first-arrival order — the exact order the per-query loop would see.
    for (auto& groups : shard_groups) {
      for (Group& g : groups) {
        if (g.rejected) continue;
        CacheEntry* entry = CacheTouch(g.key, g.hash);
        TemplateId id = 0;
        uint32_t param_count = 0;
        TemplateInfo* info_ptr = nullptr;
        size_t first = g.rep_consumed ? 1 : 0;
        if (entry == nullptr) {
          // The probed entry vanished before the merge reached this group
          // (6a's inserts evicted it under LRU pressure, or a concurrent
          // maintenance pass dropped the template). The group's first
          // unconsumed member pays a full parse, exactly as it would
          // per-query after that eviction.
          if (first >= g.items.size()) continue;
          const QueryArrival& a = arrivals[g.items[first]];
          auto out = Templatize(a.sql);
          if (!out.ok()) {
            parse_failures_total_->Add(g.items.size() - first);
            continue;
          }
          cache_misses_total_->Add();
          if (out->used_fallback) parse_fallback_total_->Add();
          id = IngestTemplatized(*out, a.ts, a.count);
          param_count = static_cast<uint32_t>(out->parameters.size());
          ids[g.items[first]] = id;
          info_ptr = &templates_.at(id);
          CacheInsert(std::string(g.key), g.hash, id, param_count, info_ptr);
          ++first;
        } else {
          id = entry->id;
          param_count = entry->param_count;
          info_ptr = entry->info;
        }
        if (first >= g.items.size()) continue;
        TemplateInfo& info = *info_ptr;
        double group_count = 0.0;
        // Aggregate contiguous same-minute runs into one Record: bucket
        // placement in ArrivalHistory depends only on the minute, and the
        // summed count is exact for integer-valued counts.
        Timestamp run_minute = 0;
        Timestamp run_max_ts = 0;
        double run_count = 0.0;
        bool run_open = false;
        for (size_t k = first; k < g.items.size(); ++k) {
          const QueryArrival& a = arrivals[g.items[k]];
          ids[g.items[k]] = id;
          Timestamp minute = AlignDown(a.ts, kSecondsPerMinute);
          if (run_open && minute == run_minute) {
            run_count += a.count;
            run_max_ts = std::max(run_max_ts, a.ts);
          } else {
            if (run_open) info.history.Record(run_max_ts, run_count);
            run_minute = minute;
            run_max_ts = a.ts;
            run_count = a.count;
            run_open = true;
          }
          if (param_count > 0) {
            const auto& literals = norm[rawrep[g.items[k]]].literals;
            info.param_samples.AddLazy(rng_, [&] {
              size_t arity = std::min<size_t>(param_count, literals.size());
              return std::vector<sql::Literal>(literals.begin(),
                                               literals.begin() + arity);
            });
          }
          hit_queries +=
              static_cast<uint64_t>(std::llround(std::max(0.0, a.count)));
          group_count += a.count;
          info.last_seen = std::max(info.last_seen, a.ts);
        }
        if (run_open) info.history.Record(run_max_ts, run_count);
        info.total_queries += group_count;
        total_queries_ += group_count;
        queries_by_type_[static_cast<int>(info.type)] += group_count;
        hit_ops += g.items.size() - first;
      }
    }
    if (rejected > 0) parse_failures_total_->Add(rejected);
    ingests_total_->Add(hit_ops);
    queries_total_->Add(hit_queries);
    cache_hits_total_->Add(hit_ops);
    templates_gauge_->Set(static_cast<double>(templates_.size()));
  }
  batches_total_->Add();
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
    TemplateInfo info(options_.param_sample_capacity);
    info.id = id;
    info.fingerprint = templatized.fingerprint;
    info.text = templatized.template_text;
    info.type = templatized.type;
    info.tables = templatized.tables;
    info.first_seen = ts;
    templates_.emplace(id, std::move(info));
  }
  TemplateInfo& info = templates_.at(id);
  info.history.Record(ts, count);
  info.last_seen = std::max(info.last_seen, ts);
  info.total_queries += count;
  if (!templatized.parameters.empty()) {
    info.param_samples.AddLazy(rng_, [&] { return templatized.parameters; });
  }
  total_queries_ += count;
  queries_by_type_[static_cast<int>(templatized.type)] += count;
  templates_gauge_->Set(static_cast<double>(templates_.size()));
  return id;
}

void PreProcessor::CompactBefore(Timestamp now) {
  Timestamp cutoff = now - options_.compaction_horizon_seconds;
  bool archive_rung = options_.archive_compaction_horizon_seconds > 0;
  Timestamp archive_cutoff = now - options_.archive_compaction_horizon_seconds;
  for (auto& [id, info] : templates_) {
    (void)id;
    info.history.Compact(cutoff);
    if (archive_rung) info.history.CompactArchive(archive_cutoff);
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

bool PreProcessor::ReplayArrival(TemplateId id, Timestamp ts, double count) {
  auto it = templates_.find(id);
  if (it == templates_.end()) return false;
  TemplateInfo& info = it->second;
  info.history.Record(ts, count);
  info.last_seen = std::max(info.last_seen, ts);
  info.total_queries += count;
  total_queries_ += count;
  queries_by_type_[static_cast<int>(info.type)] += count;
  return true;
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
