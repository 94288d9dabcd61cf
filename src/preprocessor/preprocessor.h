#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "preprocessor/arrival_history.h"
#include "preprocessor/reservoir_sampler.h"
#include "preprocessor/templatizer.h"
#include "sql/lexer.h"

namespace qb5000 {

/// Identifier assigned to each distinct (post-equivalence) query template.
using TemplateId = int64_t;

/// One raw-SQL arrival for the batched ingest path. `sql` is borrowed: it
/// must stay alive for the duration of the IngestBatch call (the batch
/// never outlives the caller's buffers).
struct QueryArrival {
  std::string_view sql;
  Timestamp ts = 0;
  double count = 1.0;
};

/// The Pre-Processor (Section 4): converts raw queries into templates,
/// aggregates semantically-equivalent templates, tracks per-template arrival
/// rate history, and keeps a reservoir sample of original parameters.
///
/// Ingest fast path (DESIGN.md §11): raw SQL is first reduced to a
/// parameter-insensitive normalized key (sql::NormalizeQuery) and looked up
/// in a bounded LRU cache; a hit maps straight to the TemplateId without
/// parsing. Only cache misses pay for the full AST templatization.
class PreProcessor {
 public:
  struct Options {
    /// Reservoir capacity for per-template parameter samples.
    size_t param_sample_capacity = 20;
    /// Seed for the sampling RNG (determinism across runs).
    uint64_t rng_seed = 42;
    /// Minute-resolution history older than this is folded into hourly
    /// archives on CompactBefore().
    int64_t compaction_horizon_seconds = 7 * kSecondsPerDay;
    /// Capacity (entries) of the raw-SQL -> template LRU cache; 0 disables
    /// it and every Ingest takes the full parse path. The cache is
    /// rebuildable state: it is never checkpointed and restores cold.
    size_t template_cache_capacity = 4096;
    /// Expected number of distinct templates; pre-sizes the fingerprint
    /// map and the cache's hash buckets so steady-state ingest never
    /// rehashes.
    size_t expected_templates = 1024;
    /// Registry receiving `preprocessor.*` metrics; nullptr = the process
    /// global. QueryBot5000 overrides this with its per-instance registry.
    MetricsRegistry* metrics = nullptr;
  };

  /// Everything QB5000 knows about one template.
  struct TemplateInfo {
    TemplateId id = 0;
    std::string fingerprint;  ///< semantic-equivalence key (grouping key)
    std::string text;         ///< canonical template SQL
    sql::StatementType type = sql::StatementType::kSelect;
    std::vector<std::string> tables;
    ArrivalHistory history;
    ReservoirSampler<std::vector<sql::Literal>> param_samples;
    Timestamp first_seen = 0;
    Timestamp last_seen = 0;
    double total_queries = 0;

    explicit TemplateInfo(size_t sample_capacity)
        : param_samples(sample_capacity) {}
  };

  PreProcessor() : PreProcessor(Options()) {}
  explicit PreProcessor(Options options);

  /// Ingests one query arrival (or `count` identical arrivals at `ts`).
  /// Returns the id of the template the query maps to.
  Result<TemplateId> Ingest(std::string_view sql, Timestamp ts,
                            double count = 1.0);
  /// Delegating overloads for ABI comfort (std::string callers pre-sweep)
  /// and to keep string literals unambiguous next to the primary overload.
  Result<TemplateId> Ingest(const std::string& sql,  // lint:string-ref-ok
                            Timestamp ts, double count = 1.0) {
    return Ingest(std::string_view(sql), ts, count);
  }
  Result<TemplateId> Ingest(const char* sql, Timestamp ts,
                            double count = 1.0) {
    return Ingest(std::string_view(sql), ts, count);
  }

  /// Batched ingest (DESIGN.md §11): normalizes each distinct raw string
  /// once, probes the cache for each distinct key, parses the first arrival
  /// of every key the cache lacks, then applies the arrivals in order
  /// through the same per-arrival step as Ingest. Returns the TemplateId
  /// per arrival, parallel to `arrivals`; 0 marks a rejected statement
  /// (counted in preprocessor.parse_failures_total).
  ///
  /// `state_mu` is the owning controller's state lock (QueryBot5000 passes
  /// its own): held shared during the read-only cache probe and exclusively
  /// while the arrivals are applied; normalize and parse run unlocked.
  /// nullptr means the caller guarantees exclusive access for the whole
  /// call.
  ///
  /// Equivalence with the per-query path: the arrivals make the same calls
  /// in the same order as a per-query loop, so template ids, histories,
  /// totals, reservoir draws and every counter are bit-identical to it for
  /// any count, fractional included.
  std::vector<TemplateId> IngestBatch(std::span<const QueryArrival> arrivals,
                                      SharedMutex* state_mu = nullptr);

  /// Ingests an already-templatized arrival. Trace generators use this to
  /// feed high query volumes without materializing every SQL string.
  TemplateId IngestTemplatized(const TemplatizeOutput& templatized,
                               Timestamp ts, double count = 1.0);

  /// Folds minute-level history older than the compaction horizon (relative
  /// to `now`) into hourly archives for every template.
  void CompactBefore(Timestamp now);

  size_t num_templates() const { return templates_.size(); }
  double total_queries() const { return total_queries_; }

  /// Number of entries currently in the template cache (tests/benchmarks).
  size_t cache_size() const { return cache_.size(); }

  /// Number of queries ingested per statement type (Table 1 rows).
  double QueriesOfType(sql::StatementType type) const;

  /// Lookup by id; nullptr if unknown.
  const TemplateInfo* GetTemplate(TemplateId id) const;

  /// All template ids, ascending (ascending == order of first appearance).
  std::vector<TemplateId> TemplateIds() const;

  /// Fraction of currently-known templates first seen at or after `since`.
  /// The Clusterer re-clusters when this crosses its trigger threshold.
  double NewTemplateRatio(Timestamp since) const;

  /// Drops templates that have received no queries since `cutoff`
  /// (Section 5.2 Step 2: stale template removal). Returns ids removed.
  /// Cache entries mapping to evicted templates are invalidated.
  std::vector<TemplateId> EvictIdleTemplates(Timestamp cutoff);

  /// Real heap footprint of all arrival histories, in bytes (object sizes
  /// plus rung vector capacities).
  size_t HistoryStorageBytes() const;

  /// Snapshot support: registers a fully-populated template record under
  /// its fingerprint and folds its counts into the totals. Fails on a
  /// duplicate fingerprint or id.
  Status RestoreTemplate(TemplateInfo info);

  /// Snapshot support: sets the grand and per-type totals (indexed by
  /// sql::StatementType) to the values the saving process held. The sums
  /// RestoreTemplate builds miss evicted templates' counts, and add the
  /// survivors in id order rather than arrival order.
  void RestoreTotals(double total, std::span<const double, 4> by_type);

  /// The id the next new template gets. Ids are never reused, so it can
  /// exceed every live template's id once the newest template is evicted.
  TemplateId next_template_id() const { return next_id_; }

  /// Snapshot support: sets next_template_id() to the saving process's
  /// value. Precondition: `next` is above every restored template's id.
  void RestoreNextTemplateId(TemplateId next);

 private:
  /// One LRU node: the owned key bytes plus their NormalizeQuery hash, so
  /// eviction can erase the map entry without rehashing the key.
  struct CacheNode {
    std::string key;
    uint64_t hash = 0;
  };

  /// Map key for the template cache: a borrowed view plus the hash the
  /// normalizer already computed. The hasher just returns it — the map
  /// never re-reads key bytes except for the final equality memcmp.
  struct HashedKey {
    std::string_view key;
    uint64_t hash = 0;
  };
  struct HashedKeyHasher {
    size_t operator()(const HashedKey& k) const {
      return static_cast<size_t>(k.hash);
    }
  };
  struct HashedKeyEq {
    bool operator()(const HashedKey& a, const HashedKey& b) const {
      return a.key == b.key;
    }
  };

  /// Value side of the template cache. `lru_it` points at the owning key
  /// node in cache_lru_ (std::list iterators survive splicing). `info`
  /// shortcuts the templates_ lookup on every hit: std::map nodes are
  /// pointer-stable, and CacheEraseIds drops entries before their template
  /// is destroyed, so the pointer can never dangle.
  struct CacheEntry {
    TemplateId id = 0;
    uint32_t param_count = 0;  ///< |parameters| of the miss that filled it
    TemplateInfo* info = nullptr;
    std::list<CacheNode>::iterator lru_it;
  };

  /// Read-only probe: no LRU update (safe under a shared lock).
  const CacheEntry* CacheProbe(std::string_view key, uint64_t hash) const;
  /// Hit probe: moves the entry to the LRU front.
  CacheEntry* CacheTouch(std::string_view key, uint64_t hash);
  /// Inserts a copy of `key` (evicting the LRU tail at capacity); a no-op
  /// when the cache is disabled.
  void CacheInsert(std::string_view key, uint64_t hash, TemplateId id,
                   uint32_t param_count, TemplateInfo* info);
  /// Drops every cache entry whose template id is in `ids`.
  void CacheEraseIds(const std::vector<TemplateId>& ids);

  /// The one per-arrival step behind Ingest and IngestBatch, for an
  /// arrival whose SQL normalized to `norm`. A cache hit records the
  /// arrival and samples the normalized literals (token order, truncated to
  /// the template's parameter count, so the reservoir RNG advances exactly
  /// as on the miss path). A miss templatizes through `parsed`, parsing the
  /// arrival's SQL first when `parsed` is empty, then caches the key.
  /// Returns 0 when the statement does not templatize.
  TemplateId IngestArrival(const QueryArrival& arrival,
                           const sql::NormalizedQuery& norm,
                           std::optional<TemplatizeOutput>& parsed);

  /// Per-template bookkeeping for one arrival (history, last_seen, the
  /// template, global and per-type totals), shared by the cache-hit step
  /// and IngestTemplatized so both update a template through the same code.
  void RecordArrival(TemplateInfo& info, Timestamp ts, double count);

  /// Refreshes the history footprint gauges.
  void UpdateHistoryGauges();

  Options options_;
  Rng rng_;
  std::unordered_map<std::string, TemplateId> by_fingerprint_;
  std::map<TemplateId, TemplateInfo> templates_;  ///< ordered for stable iteration
  TemplateId next_id_ = 1;
  double total_queries_ = 0;
  double queries_by_type_[4] = {0, 0, 0, 0};

  /// Raw-SQL template cache: key nodes live in cache_lru_ (front = most
  /// recently used); the map's string_view keys alias those nodes, so
  /// lookups by borrowed key never allocate.
  std::list<CacheNode> cache_lru_;
  std::unordered_map<HashedKey, CacheEntry, HashedKeyHasher, HashedKeyEq>
      cache_;

  sql::NormalizedQuery norm_scratch_;  ///< reused per-Ingest key buffers

  // Instrument handles (owned by the registry; see DESIGN.md §10).
  Counter* queries_total_ = nullptr;        ///< arrivals, weighted by count
  Counter* ingests_total_ = nullptr;        ///< Ingest/IngestTemplatized calls
  Counter* templates_created_total_ = nullptr;
  Counter* templates_evicted_total_ = nullptr;
  Counter* parse_failures_total_ = nullptr;  ///< Templatize() rejected the SQL
  Counter* parse_fallback_total_ = nullptr;  ///< token-level fallback used
  Counter* compactions_total_ = nullptr;
  Counter* cache_hits_total_ = nullptr;      ///< raw ingests served by cache
  Counter* cache_misses_total_ = nullptr;    ///< raw ingests that full-parsed
  Counter* cache_evictions_total_ = nullptr; ///< LRU capacity evictions
  Gauge* templates_gauge_ = nullptr;
  Gauge* history_bytes_gauge_ = nullptr;
  Gauge* history_resident_bytes_gauge_ = nullptr;  ///< same value as above
  Histogram* batch_ingest_seconds_ = nullptr; ///< whole-batch latency
};

}  // namespace qb5000
