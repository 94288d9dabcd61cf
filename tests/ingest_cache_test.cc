// Differential suite for the ingest fast path (DESIGN.md §11): the template
// cache is a pure acceleration — template ids, fingerprints, arrival
// histories, and hit-plus-miss totals must equal the naive parse-every-query
// path, on adversarial fuzz input and on all four synthetic workloads — and
// batched ingest applies its arrivals through the per-query step in arrival
// order, so it must reproduce the per-query loop at the same cache capacity
// bit for bit: histories, reservoirs, and the whole counter export, for
// unit and fractional counts alike.
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "preprocessor/preprocessor.h"
#include "workload/workload.h"

namespace qb5000 {
namespace {

const char* const kCorpus[] = {
    "SELECT * FROM orders WHERE id = 42",
    "SELECT name, total FROM orders WHERE total > 10.5 AND region = 'east'",
    "SELECT id FROM users WHERE name LIKE 'a%' OR age BETWEEN 18 AND 65",
    "SELECT * FROM trips WHERE route_id IN (1, 2, 3) LIMIT 50",
    "SELECT COUNT(*) FROM events WHERE ts >= 1700000000 AND kind = 'click'",
    "INSERT INTO orders (id, total, region) VALUES (1, 9.99, 'west')",
    "INSERT INTO logs (msg) VALUES ('it''s done'), ('again'), ('more')",
    "UPDATE users SET age = 30, name = 'bob' WHERE id = 7",
    "UPDATE orders SET total = total WHERE region = 'north' AND total < 5",
    "DELETE FROM events WHERE ts < 1600000000",
    "SELECT a.id FROM a WHERE ((a.x = 1 OR a.y = 2) AND a.z = 'q')",
    "SELECT * FROM t WHERE NOT (flag = 1) ORDER BY id DESC",
};

/// A deterministic raw-SQL arrival stream mixing exact repeats (cache
/// hits), literal-rewritten repeats (hits under a different raw string),
/// and corrupted statements (rejects + token-fallback templates).
std::vector<TraceEvent> MakeFuzzTrace(int iterations, uint64_t seed) {
  Rng rng(seed);
  std::vector<TraceEvent> events;
  events.reserve(static_cast<size_t>(iterations));
  for (int i = 0; i < iterations; ++i) {
    std::string sql = kCorpus[rng.UniformInt(0, std::size(kCorpus) - 1)];
    switch (rng.UniformInt(0, 3)) {
      case 0:  // exact repeat
        break;
      case 1: {  // rewrite digits so the raw string differs but the key
                 // does not
        for (char& c : sql) {
          if (c >= '0' && c <= '9') {
            c = static_cast<char>('0' + rng.UniformInt(0, 9));
          }
        }
        break;
      }
      case 2:  // shout-case repeat (normalizer canonicalizes case)
        for (char& c : sql) c = static_cast<char>(std::toupper(c));
        break;
      default: {  // corrupt one byte (often a reject or a fallback)
        size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(sql.size()) - 1));
        sql[at] = static_cast<char>(rng.UniformInt(1, 255));
        break;
      }
    }
    events.push_back(TraceEvent{static_cast<Timestamp>(i) * 7, std::move(sql)});
  }
  return events;
}

/// Serializes a parameter reservoir: offers seen, then every kept tuple's
/// literal types and length-prefixed texts.
std::string EncodedReservoir(const PreProcessor::TemplateInfo& info) {
  std::ostringstream out;
  out << info.param_samples.seen();
  for (const auto& tuple : info.param_samples.items()) {
    out << '|';
    for (const sql::Literal& lit : tuple) {
      out << static_cast<int>(lit.type) << ':' << lit.text.size() << ':'
          << lit.text;
    }
  }
  return out.str();
}

/// Asserts two PreProcessors hold bit-identical template state: ids,
/// fingerprints, texts, types, totals, timestamps, full arrival histories
/// (all rungs, via the canonical encoding), and parameter reservoirs.
/// Reservoir contents are exempt only when `same_cache` is false, i.e. when
/// a cache-on PreProcessor is compared against a cache-off one: its hit path
/// samples normalized token literals where every arrival of the other
/// samples parse-derived tuples (DESIGN.md §11).
void ExpectSameTemplateState(const PreProcessor& a, const PreProcessor& b,
                             bool same_cache) {
  ASSERT_EQ(a.TemplateIds(), b.TemplateIds());
  EXPECT_EQ(a.total_queries(), b.total_queries());
  for (TemplateId id : a.TemplateIds()) {
    const auto* ta = a.GetTemplate(id);
    const auto* tb = b.GetTemplate(id);
    ASSERT_NE(ta, nullptr);
    ASSERT_NE(tb, nullptr);
    EXPECT_EQ(ta->fingerprint, tb->fingerprint) << "id " << id;
    EXPECT_EQ(ta->text, tb->text) << "id " << id;
    EXPECT_EQ(ta->type, tb->type) << "id " << id;
    EXPECT_EQ(ta->tables, tb->tables) << "id " << id;
    EXPECT_EQ(ta->first_seen, tb->first_seen) << "id " << id;
    EXPECT_EQ(ta->last_seen, tb->last_seen) << "id " << id;
    EXPECT_EQ(ta->total_queries, tb->total_queries) << "id " << id;
    EXPECT_EQ(ta->history.Total(), tb->history.Total()) << "id " << id;
    EXPECT_EQ(ta->history.last_arrival(), tb->history.last_arrival())
        << "id " << id;
    std::string history_a, history_b;
    ta->history.EncodeTo(&history_a);
    tb->history.EncodeTo(&history_b);
    EXPECT_EQ(history_a, history_b) << "id " << id;
    if (same_cache) {
      EXPECT_EQ(EncodedReservoir(*ta), EncodedReservoir(*tb)) << "id " << id;
    }
  }
}

/// Count of arrival `i`: 1, or 0.1·(1 + i mod 7) for the fractional pass,
/// whose sums round differently under any other order of Record calls.
double CountOf(size_t i, bool fractional) {
  return fractional ? 0.1 * static_cast<double>(1 + i % 7) : 1.0;
}

/// Ingests `events` one Ingest call at a time; the id per event, 0 for a
/// rejected statement.
std::vector<TemplateId> IngestPerQuery(PreProcessor& pre,
                                       const std::vector<TraceEvent>& events,
                                       bool fractional = false) {
  std::vector<TemplateId> ids;
  for (size_t i = 0; i < events.size(); ++i) {
    auto id = pre.Ingest(events[i].sql, events[i].timestamp, CountOf(i, fractional));
    ids.push_back(id.ok() ? id.value() : 0);
  }
  return ids;
}

/// Ingests `events` through IngestBatch calls of `batch` arrivals each.
std::vector<TemplateId> IngestInBatches(PreProcessor& pre,
                                        const std::vector<TraceEvent>& events,
                                        size_t batch, bool fractional = false) {
  std::vector<TemplateId> ids;
  std::vector<QueryArrival> arrivals;
  for (size_t at = 0; at < events.size(); at += batch) {
    arrivals.clear();
    for (size_t i = at; i < std::min(events.size(), at + batch); ++i) {
      arrivals.push_back({events[i].sql, events[i].timestamp, CountOf(i, fractional)});
    }
    std::vector<TemplateId> got = pre.IngestBatch(arrivals);
    ids.insert(ids.end(), got.begin(), got.end());
  }
  return ids;
}

/// Replays `events` per-query through a cache-enabled and a cache-disabled
/// PreProcessor and asserts identical outcomes everywhere.
void RunCacheDifferential(const std::vector<TraceEvent>& events) {
  MetricsRegistry m_on;
  MetricsRegistry m_off;
  PreProcessor::Options on;
  on.metrics = &m_on;
  PreProcessor::Options off;
  off.metrics = &m_off;
  off.template_cache_capacity = 0;
  PreProcessor cached(on);
  PreProcessor naive(off);

  for (const auto& e : events) {
    auto got = cached.Ingest(e.sql, e.timestamp);
    auto want = naive.Ingest(e.sql, e.timestamp);
    ASSERT_EQ(got.ok(), want.ok()) << e.sql;
    if (got.ok()) {
      ASSERT_EQ(got.value(), want.value()) << e.sql;
    }
  }
  ExpectSameTemplateState(cached, naive, /*same_cache=*/false);

  if (kMetricsEnabled) {
    // hits + misses == successful raw ingests, in both configurations.
    auto successes = m_on.GetCounter("preprocessor.ingests_total")->value();
    EXPECT_EQ(m_on.GetCounter("preprocessor.cache_hits_total")->value() +
                  m_on.GetCounter("preprocessor.cache_misses_total")->value(),
              successes);
    EXPECT_GT(m_on.GetCounter("preprocessor.cache_hits_total")->value(), 0u);
    EXPECT_EQ(m_off.GetCounter("preprocessor.cache_hits_total")->value(), 0u);
    EXPECT_EQ(m_off.GetCounter("preprocessor.cache_misses_total")->value(),
              successes);
    EXPECT_EQ(m_on.GetCounter("preprocessor.parse_failures_total")->value(),
              m_off.GetCounter("preprocessor.parse_failures_total")->value());
    EXPECT_EQ(m_on.GetCounter("preprocessor.templates_created_total")->value(),
              m_off.GetCounter("preprocessor.templates_created_total")->value());
  }
}

TEST(IngestCache, FuzzTraceMatchesUncachedPath) {
  RunCacheDifferential(MakeFuzzTrace(3000, 20260807));
}

TEST(IngestCache, SyntheticWorkloadsMatchUncachedPath) {
  const SyntheticWorkload workloads[] = {MakeBusTracker(), MakeAdmissions(),
                                         MakeMooc(), MakeNoisyComposite()};
  for (const auto& w : workloads) {
    SCOPED_TRACE(w.label());
    auto events =
        w.Materialize(0, 6 * kSecondsPerHour, kSecondsPerMinute, 99, 1.0, 40);
    ASSERT_FALSE(events.empty());
    RunCacheDifferential(events);
  }
}

/// Batched ingest must reproduce the per-query path bit-for-bit — ids,
/// histories, reservoirs, and the counter section of the metrics export —
/// with unit and with fractional counts, whatever the pool size.
TEST(IngestCache, BatchMatchesPerQueryAtThreadCounts) {
  auto events = MakeFuzzTrace(2500, 4242);
  auto workload_events =
      MakeBusTracker().Materialize(0, 3 * kSecondsPerHour, kSecondsPerMinute,
                                   17, 1.0, 40);
  events.insert(events.end(), workload_events.begin(), workload_events.end());
  MetricsRegistry::ExportOptions counters_only;
  counters_only.counters_only = true;

  size_t original_threads = GetThreadCount();
  for (bool fractional : {false, true}) {
    SCOPED_TRACE(fractional ? "fractional counts" : "unit counts");
    // Per-query baseline (cache enabled, sequential).
    MetricsRegistry m_base;
    PreProcessor::Options base_opts;
    base_opts.metrics = &m_base;
    PreProcessor baseline(base_opts);
    std::vector<TemplateId> base_ids = IngestPerQuery(baseline, events, fractional);

    for (size_t threads : {size_t{1}, size_t{8}}) {
      SCOPED_TRACE(threads);
      SetThreadCount(threads);
      MetricsRegistry m_batch;
      PreProcessor::Options batch_opts;
      batch_opts.metrics = &m_batch;
      PreProcessor batched(batch_opts);
      EXPECT_EQ(IngestInBatches(batched, events, 512, fractional), base_ids);
      ExpectSameTemplateState(batched, baseline, /*same_cache=*/true);
      if (kMetricsEnabled) {
        // The counter section is the golden-trace contract: byte-identical
        // to the per-query export.
        EXPECT_EQ(m_batch.ExportText(counters_only),
                  m_base.ExportText(counters_only));
      }
    }
  }
  SetThreadCount(original_threads);
}

/// The cache capacity knob: 1-entry and tiny caches still produce correct
/// ids (only hit rates change), and evictions are accounted.
TEST(IngestCache, TinyCacheStaysCorrect) {
  auto events = MakeFuzzTrace(1200, 777);
  MetricsRegistry m_tiny;
  PreProcessor::Options tiny;
  tiny.metrics = &m_tiny;
  tiny.template_cache_capacity = 2;
  PreProcessor small(tiny);
  PreProcessor::Options off;
  off.template_cache_capacity = 0;
  PreProcessor naive(off);
  for (const auto& e : events) {
    auto got = small.Ingest(e.sql, e.timestamp);
    auto want = naive.Ingest(e.sql, e.timestamp);
    ASSERT_EQ(got.ok(), want.ok()) << e.sql;
    if (got.ok()) {
      ASSERT_EQ(got.value(), want.value()) << e.sql;
    }
  }
  EXPECT_LE(small.cache_size(), 2u);
  ExpectSameTemplateState(small, naive, /*same_cache=*/false);
  if (kMetricsEnabled) {
    EXPECT_GT(m_tiny.GetCounter("preprocessor.cache_evictions_total")->value(),
              0u);
  }
}

/// Batched ingest under LRU pressure: with a 1- or 2-entry cache, arrivals
/// applied earlier in a batch evict entries the read-only probe saw, so
/// later arrivals of those keys parse under the lock, as they would arriving
/// alone; with the cache off (capacity 0) every arrival parses and counts
/// as a miss. Ids and template state must match the uncached per-query
/// path, and the counter export — hits, misses and evictions included —
/// must match per-query ingest at the same capacity, since the batch
/// touches the LRU once per arrival in arrival order.
TEST(IngestCache, BatchUnderLruPressureMatchesUncachedPath) {
  auto events = MakeFuzzTrace(1200, 777);
  MetricsRegistry m_off;
  PreProcessor::Options off;
  off.metrics = &m_off;
  off.template_cache_capacity = 0;
  PreProcessor naive(off);
  std::vector<TemplateId> want_ids = IngestPerQuery(naive, events);
  MetricsRegistry::ExportOptions counters_only;
  counters_only.counters_only = true;

  for (size_t capacity : {size_t{0}, size_t{1}, size_t{2}}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    MetricsRegistry m_query;
    PreProcessor::Options query_opts;
    query_opts.metrics = &m_query;
    query_opts.template_cache_capacity = capacity;
    PreProcessor per_query(query_opts);
    EXPECT_EQ(IngestPerQuery(per_query, events), want_ids);

    MetricsRegistry m_batch;
    PreProcessor::Options tiny;
    tiny.metrics = &m_batch;
    tiny.template_cache_capacity = capacity;
    PreProcessor batched(tiny);
    EXPECT_EQ(IngestInBatches(batched, events, 64), want_ids);
    EXPECT_LE(batched.cache_size(), capacity);
    ExpectSameTemplateState(batched, naive, /*same_cache=*/capacity == 0);
    ExpectSameTemplateState(batched, per_query, /*same_cache=*/true);
    if (kMetricsEnabled) {
      EXPECT_EQ(m_batch.ExportText(counters_only),
                m_query.ExportText(counters_only));
      EXPECT_EQ(m_batch.GetCounter("preprocessor.cache_hits_total")->value() +
                    m_batch.GetCounter("preprocessor.cache_misses_total")->value(),
                m_batch.GetCounter("preprocessor.ingests_total")->value());
      EXPECT_EQ(
          m_batch.GetCounter("preprocessor.parse_failures_total")->value(),
          m_off.GetCounter("preprocessor.parse_failures_total")->value());
    }
  }
}

/// Evicting idle templates must invalidate their cache entries: a later
/// arrival of the same SQL re-creates the template under a fresh id instead
/// of resurrecting the dead one.
TEST(IngestCache, EvictionInvalidatesCacheEntries) {
  PreProcessor pre;
  auto first = pre.Ingest("SELECT * FROM t WHERE x = 1", 0);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(pre.EvictIdleTemplates(kSecondsPerDay).size(), 1u);
  EXPECT_EQ(pre.cache_size(), 0u);
  auto second = pre.Ingest("SELECT * FROM t WHERE x = 2", 2 * kSecondsPerDay);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value(), first.value());
  EXPECT_NE(pre.GetTemplate(second.value()), nullptr);
  EXPECT_EQ(pre.GetTemplate(first.value()), nullptr);
}

}  // namespace
}  // namespace qb5000
