// Differential suite for the ingest fast path (DESIGN.md §11): the template
// cache and the batched/sharded ingest are pure accelerations — template
// ids, fingerprints, arrival histories, and counter exports must be
// bit-identical to the naive parse-every-query path, on adversarial fuzz
// input and on all four synthetic workloads, at any thread count.
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

/// Serializes a history's complete state (scalars + exact run structure of
/// every rung) — string equality here is full bit-identity of the history.
std::string EncodedHistory(const ArrivalHistory& history) {
  std::ostringstream out;
  out.precision(17);
  history.EncodeTo(out);
  return out.str();
}

/// Asserts two PreProcessors hold bit-identical template state: ids,
/// fingerprints, texts, types, totals, timestamps, and full arrival
/// histories (all rungs, via the canonical encoding). Parameter-reservoir
/// contents are deliberately exempt (DESIGN.md §11: the hit path samples
/// normalized token literals, the miss path samples parse-derived tuples).
void ExpectSameTemplateState(const PreProcessor& a, const PreProcessor& b) {
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
    EXPECT_EQ(EncodedHistory(ta->history), EncodedHistory(tb->history))
        << "id " << id;
  }
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
  ExpectSameTemplateState(cached, naive);

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
/// histories, and the deterministic counter section of the metrics export —
/// at every thread count.
TEST(IngestCache, BatchMatchesPerQueryAtThreadCounts) {
  auto events = MakeFuzzTrace(2500, 4242);
  auto workload_events =
      MakeBusTracker().Materialize(0, 3 * kSecondsPerHour, kSecondsPerMinute,
                                   17, 1.0, 40);
  events.insert(events.end(), workload_events.begin(), workload_events.end());

  // Per-query baseline (cache enabled, sequential).
  MetricsRegistry m_base;
  PreProcessor::Options base_opts;
  base_opts.metrics = &m_base;
  PreProcessor baseline(base_opts);
  std::vector<TemplateId> base_ids;
  base_ids.reserve(events.size());
  for (const auto& e : events) {
    auto id = baseline.Ingest(e.sql, e.timestamp);
    base_ids.push_back(id.ok() ? id.value() : 0);
  }
  MetricsRegistry::ExportOptions counters_only;
  counters_only.counters_only = true;
  std::string base_counters = m_base.ExportText(counters_only);

  size_t original_threads = GetThreadCount();
  for (size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE(threads);
    SetThreadCount(threads);
    MetricsRegistry m_batch;
    PreProcessor::Options batch_opts;
    batch_opts.metrics = &m_batch;
    PreProcessor batched(batch_opts);
    std::vector<TemplateId> batch_ids;
    batch_ids.reserve(events.size());
    constexpr size_t kBatch = 512;
    std::vector<QueryArrival> arrivals;
    for (size_t at = 0; at < events.size(); at += kBatch) {
      size_t end = std::min(events.size(), at + kBatch);
      arrivals.clear();
      for (size_t i = at; i < end; ++i) {
        arrivals.push_back(QueryArrival{events[i].sql, events[i].timestamp, 1.0});
      }
      auto ids = batched.IngestBatch(arrivals);
      batch_ids.insert(batch_ids.end(), ids.begin(), ids.end());
    }
    EXPECT_EQ(batch_ids, base_ids);
    ExpectSameTemplateState(batched, baseline);
    if (kMetricsEnabled) {
      // The counter section is the golden-trace contract: byte-identical
      // to the per-query export, modulo the one batches_total line.
      std::string batch_counters = m_batch.ExportText(counters_only);
      std::string expect = base_counters;
      size_t pos = expect.find("preprocessor.batches_total 0");
      ASSERT_NE(pos, std::string::npos);
      expect.replace(pos, std::string("preprocessor.batches_total 0").size(),
                     "preprocessor.batches_total " +
                         std::to_string((events.size() + kBatch - 1) / kBatch));
      EXPECT_EQ(batch_counters, expect);
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
  ExpectSameTemplateState(small, naive);
  if (kMetricsEnabled) {
    EXPECT_GT(m_tiny.GetCounter("preprocessor.cache_evictions_total")->value(),
              0u);
  }
}

/// Batched ingest under LRU pressure: with a 1- or 2-entry cache, the
/// merge's own miss inserts evict entries that the read-only probe saw as
/// hits, so the merge must re-parse those groups. Ids, template state, and
/// failure counts must still match the uncached per-query path. Hit counts
/// are not compared: the batch touches the LRU in group order, not arrival
/// order, so it hits at a different rate by design.
TEST(IngestCache, BatchUnderLruPressureMatchesUncachedPath) {
  auto events = MakeFuzzTrace(1200, 777);
  MetricsRegistry m_off;
  PreProcessor::Options off;
  off.metrics = &m_off;
  off.template_cache_capacity = 0;
  PreProcessor naive(off);
  std::vector<TemplateId> want_ids;
  want_ids.reserve(events.size());
  for (const auto& e : events) {
    auto id = naive.Ingest(e.sql, e.timestamp);
    want_ids.push_back(id.ok() ? id.value() : 0);
  }

  for (size_t capacity : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    MetricsRegistry m_batch;
    PreProcessor::Options tiny;
    tiny.metrics = &m_batch;
    tiny.template_cache_capacity = capacity;
    PreProcessor batched(tiny);
    std::vector<TemplateId> got_ids;
    got_ids.reserve(events.size());
    constexpr size_t kChunk = 64;
    std::vector<QueryArrival> arrivals;
    for (size_t at = 0; at < events.size(); at += kChunk) {
      size_t end = std::min(events.size(), at + kChunk);
      arrivals.clear();
      for (size_t i = at; i < end; ++i) {
        arrivals.push_back(QueryArrival{events[i].sql, events[i].timestamp, 1.0});
      }
      auto ids = batched.IngestBatch(arrivals);
      got_ids.insert(got_ids.end(), ids.begin(), ids.end());
    }
    EXPECT_EQ(got_ids, want_ids);
    EXPECT_LE(batched.cache_size(), capacity);
    ExpectSameTemplateState(batched, naive);
    if (kMetricsEnabled) {
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
