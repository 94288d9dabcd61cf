#include "core/qb5000.h"

#include "common/chaos.h"
#include "common/finite.h"
#include "common/mutex.h"

namespace qb5000 {

QueryBot5000::Config QueryBot5000::BindObservability(Config config,
                                                     MetricsRegistry* metrics) {
  config.preprocessor.metrics = metrics;
  config.clusterer.metrics = metrics;
  config.forecaster.metrics = metrics;
  return config;
}

QueryBot5000::QueryBot5000(Config config)
    : config_(BindObservability(std::move(config), metrics_.get())),
      pre_(config_.preprocessor),
      clusterer_(config_.clusterer),
      forecaster_(std::make_shared<const Forecaster>(config_.forecaster)) {
  maintenance_runs_total_ = metrics_->GetCounter("core.maintenance_runs_total");
  maintenance_skipped_total_ =
      metrics_->GetCounter("core.maintenance_skipped_total");
  forecasts_total_ = metrics_->GetCounter("core.forecasts_total");
  sheds_total_ = metrics_->GetCounter("core.sheds_total");
  rung_full_total_ = metrics_->GetCounter("core.forecast_rung_full_total");
  rung_linear_total_ = metrics_->GetCounter("core.forecast_rung_linear_total");
  rung_fallback_total_ =
      metrics_->GetCounter("core.forecast_rung_fallback_total");
  coverage_gauge_ = metrics_->GetGauge("core.coverage");
  modeled_clusters_gauge_ = metrics_->GetGauge("core.modeled_clusters");
  maintenance_seconds_ = metrics_->GetHistogram("core.maintenance_seconds");
  forecast_seconds_ = metrics_->GetHistogram("core.forecast_seconds");
  lock_wait_seconds_ = metrics_->GetHistogram("core.lock_wait_seconds");
  queue_depth_gauge_ = metrics_->GetGauge("core.queue_depth");
  queue_stalls_total_ =
      metrics_->GetCounter("core.queue_enqueue_stalls_total");
  bg_rounds_total_ = metrics_->GetCounter("core.bg_rounds_total");
  model_epoch_gauge_ = metrics_->GetGauge("core.model_epoch");
  drain_workers_gauge_ = metrics_->GetGauge("core.drain_workers");
  drain_merge_waits_total_ =
      metrics_->GetCounter("core.drain_merge_waits_total");
}

QueryBot5000::~QueryBot5000() {
  if (service_ != nullptr) (void)StopService();
}

bool QueryBot5000::AdmitArrivals(size_t n) {
  if (config_.max_pending_arrivals == 0 || n == 0) return true;
  auto& pending = resilience_->pending_arrivals;
  int64_t limit = static_cast<int64_t>(config_.max_pending_arrivals);
  // Backlog-bound semantics: admit while the backlog is below the limit,
  // whatever the increment — so one oversized batch against an idle
  // pipeline is admitted (and briefly overshoots) rather than being
  // unservable at any capacity. Shedding starts only under sustained
  // concurrent pressure, which is what the gate exists to bound.
  int64_t before = pending.fetch_add(static_cast<int64_t>(n),
                                     std::memory_order_acq_rel);
  if (before >= limit) {
    pending.fetch_sub(static_cast<int64_t>(n), std::memory_order_acq_rel);
    sheds_total_->Add(static_cast<uint64_t>(n));
    return false;
  }
  return true;
}

void QueryBot5000::ReleaseArrivals(size_t n) {
  if (config_.max_pending_arrivals == 0 || n == 0) return;
  resilience_->pending_arrivals.fetch_sub(static_cast<int64_t>(n),
                                          std::memory_order_acq_rel);
}

Status QueryBot5000::Ingest(std::string_view sql, Timestamp ts, double count) {
  if (!AdmitArrivals(1)) {
    return Status::Overloaded("ingest backlog full; retry with backoff");
  }
  Status out;
  {
    WriterLock lock(state_mu_);
    auto id = pre_.Ingest(sql, ts, count);
    out = id.ok() ? Status::Ok() : id.status();
  }
  ReleaseArrivals(1);
  return out;
}

// The PreProcessor takes the lock itself: shared for the cache probe,
// exclusive only for the merge; normalize/parse phases run unlocked. That
// hand-off protocol — pre_ touched only inside the phases IngestBatch locks —
// is beyond what Thread Safety Analysis can follow, so this one entry point
// opts out and tests/tsan carry the proof instead.
Result<std::vector<TemplateId>> QueryBot5000::IngestBatch(
    std::span<const QueryArrival> arrivals) QB_NO_THREAD_SAFETY_ANALYSIS {
  if (!AdmitArrivals(arrivals.size())) {
    return Status::Overloaded(
        "ingest backlog full; batch shed, retry with backoff");
  }
  // Chaos probe: parks the batch *after* admission, holding its backlog
  // reservation, so tests can deterministically drive concurrent arrivals
  // into the shed path while this batch is "in flight".
  ChaosHarness::Global().MaybeStall("ingest.batch");
  std::vector<TemplateId> ids = pre_.IngestBatch(arrivals, state_mu_);
  ReleaseArrivals(arrivals.size());
  return ids;
}

void QueryBot5000::IngestTemplatized(const TemplatizeOutput& templatized,
                                     Timestamp ts, double count) {
  WriterLock lock(state_mu_);
  pre_.IngestTemplatized(templatized, ts, count);
}

std::vector<ClusterId> QueryBot5000::ModeledClusters() const {
  ReaderLock lock(state_mu_);
  return ModeledClustersLocked();
}

std::vector<ClusterId> QueryBot5000::ModeledClustersLocked() const {
  // Take the highest-volume clusters until coverage_target of the total
  // volume is covered, capped at max_modeled_clusters (Section 5.3).
  std::vector<ClusterId> top =
      clusterer_.TopClustersByVolume(config_.max_modeled_clusters);
  double total = clusterer_.TotalVolume();
  if (total <= 0.0) return top;
  std::vector<ClusterId> chosen;
  double covered = 0.0;
  for (ClusterId id : top) {
    chosen.push_back(id);
    covered += clusterer_.clusters().at(id).volume;
    if (covered / total >= config_.coverage_target) break;
  }
  return chosen;
}

bool QueryBot5000::MaintenanceDueLocked(Timestamp now, bool force) {
  // last_maintenance_ starts at Timestamp::min() meaning "never ran";
  // `now - min()` is signed overflow (UB, UBSan-fatal), so test the
  // sentinel before forming the difference.
  bool never_ran =
      last_maintenance_ == std::numeric_limits<Timestamp>::min();
  if (!never_ran && now < last_maintenance_) {
    // The clock went backwards (NTP step, VM migration). Re-anchor the
    // timer to the regressed clock: leaving last_maintenance_ in the future
    // would silently disable periodic maintenance until the clock catches
    // back up past it plus a full period.
    last_maintenance_ = now;
  }
  bool due = never_ran ||
             now - last_maintenance_ >= config_.maintenance_period_seconds;
  bool triggered = clusterer_.ShouldTrigger(pre_);
  if (!force && !due && !triggered) {
    maintenance_skipped_total_->Add();
    return false;
  }
  maintenance_runs_total_->Add();
  return true;
}

std::vector<ClusterId> QueryBot5000::MaintenanceHousekeepLocked(
    Timestamp now, Timestamp* evict_cutoff) {
  // Forward-jump clamp, mirroring the backwards re-anchor in the due check:
  // after a forward clock step the apparent gap since the last pass can
  // dwarf any real elapsed time, and anchoring housekeeping at the stepped
  // `now` would mass-evict live templates and compact still-fresh history.
  // Cap the housekeeping anchor at the tolerated step past the last pass;
  // training and the maintenance timer still use the live clock (after the
  // step, the new time *is* the time — only the gap was fictitious).
  bool never_ran =
      last_maintenance_ == std::numeric_limits<Timestamp>::min();
  Timestamp housekeep_now = now;
  if (!never_ran) {
    int64_t tolerated =
        config_.maintenance_period_seconds + config_.max_clock_step_seconds;
    if (now - last_maintenance_ > tolerated) {
      housekeep_now = last_maintenance_ + tolerated;
    }
  }
  Timestamp cutoff = housekeep_now - config_.template_eviction_seconds;
  if (evict_cutoff != nullptr) *evict_cutoff = cutoff;
  {
    ScopedSpan span(tracer_.get(), "maintenance/evict");
    pre_.EvictIdleTemplates(cutoff);
  }
  {
    ScopedSpan span(tracer_.get(), "maintenance/compact");
    pre_.CompactBefore(housekeep_now);
  }
  {
    // Spill-tier maintenance rides the same pass (and the same forward
    // clamp): idle histories go cold, resident bytes come under budget, and
    // the spill file is GC'd once dead payloads dominate. A no-op beyond
    // gauge refresh when no spill path is configured.
    ScopedSpan span(tracer_.get(), "maintenance/history_budget");
    pre_.EnforceHistoryBudget(housekeep_now);
  }
  {
    ScopedSpan span(tracer_.get(), "maintenance/cluster");
    clusterer_.Update(pre_, now);
  }

  std::vector<ClusterId> clusters = ModeledClustersLocked();
  modeled_clusters_gauge_->Set(static_cast<double>(clusters.size()));
  double total_volume = clusterer_.TotalVolume();
  if (total_volume > 0.0) {
    double covered = 0.0;
    for (ClusterId id : clusters) {
      covered += clusterer_.clusters().at(id).volume;
    }
    coverage_gauge_->Set(covered / total_volume);
  } else {
    coverage_gauge_->Set(0.0);
  }
  if (clusters.empty()) {
    last_maintenance_ = now;  // nothing to model yet
    return clusters;
  }
  // Refresh the forecast fallback snapshot *before* training: if the train
  // that follows stalls or fails, bounded Forecasts still degrade onto
  // current history instead of a snapshot from the previous period.
  RefreshFallbackLocked(clusters, now);
  return clusters;
}

void QueryBot5000::PublishModelsLocked(Forecaster&& staged) {
  forecaster_ = std::make_shared<const Forecaster>(std::move(staged));
  uint64_t epoch = resilience_->model_epoch.fetch_add(
                       1, std::memory_order_acq_rel) + 1;
  model_epoch_gauge_->Set(static_cast<double>(epoch));
}

Status QueryBot5000::RunMaintenance(Timestamp now, bool force) {
  // Chaos probe: a clock step (NTP, VM resume) reaches maintenance through
  // its real entry value — timestamps are virtual, so this is the seam.
  now = ChaosHarness::Global().MaybeJumpClock("maintenance.clock", now);
  Stopwatch lock_wait;
  WriterLock lock(state_mu_);
  lock_wait_seconds_->Observe(lock_wait.ElapsedSeconds());
  if (!MaintenanceDueLocked(now, force)) return Status::Ok();

  ScopedTimer maintenance_timer(maintenance_seconds_);
  ScopedSpan maintenance_span(tracer_.get(), "maintenance");
  Timestamp evict_cutoff = std::numeric_limits<Timestamp>::min();
  std::vector<ClusterId> clusters =
      MaintenanceHousekeepLocked(now, &evict_cutoff);
  if (service_ != nullptr && service_->checkpointing() &&
      evict_cutoff != std::numeric_limits<Timestamp>::min()) {
    // A caller-driven pass while a checkpointing service runs: publish the
    // cutoff (monotonic max) for the consumer to fold into the delta log —
    // delta state itself is consumer-owned, so it is never written here.
    // Publishing under the exclusive lock means any delta write serialized
    // after this pass observes both the evictions and the cutoff.
    auto& ext = service_->external_evict_cutoff;
    Timestamp cur = ext.load(std::memory_order_relaxed);
    while (evict_cutoff > cur &&
           !ext.compare_exchange_weak(cur, evict_cutoff,
                                      std::memory_order_release,
                                      std::memory_order_relaxed)) {
    }
  }
  if (clusters.empty()) return Status::Ok();
  // Train a staged copy and swap it in whole — the synchronous path pays
  // the copy too so its observable state (rollback bookkeeping included)
  // stays bit-identical to the service path's off-lock training.
  Forecaster staged = *forecaster_;
  Status st;
  {
    ScopedSpan span(tracer_.get(), "maintenance/train");
    ChaosHarness::Global().MaybeStall("maintenance.train");
    st = staged.Train(pre_, clusterer_, clusters, now, config_.horizons);
  }
  PublishModelsLocked(std::move(staged));
  if (!st.ok()) return st;
  last_maintenance_ = now;
  return Status::Ok();
}

void QueryBot5000::RefreshFallbackLocked(
    const std::vector<ClusterId>& clusters, Timestamp now) {
  WorkloadForecast snapshot;
  snapshot.interval_seconds = config_.forecaster.interval_seconds;
  int64_t interval = config_.forecaster.interval_seconds;
  Timestamp from =
      now - static_cast<int64_t>(config_.forecaster.input_window) * interval;
  for (ClusterId id : clusters) {
    auto center = clusterer_.CenterSeries(pre_, id, interval, from, now);
    if (!center.ok()) continue;
    double sum = 0.0;
    size_t n = center->values().size();
    for (double v : center->values()) sum += v;
    double avg = n > 0 ? sum / static_cast<double>(n) : 0.0;
    auto it = clusterer_.clusters().find(id);
    double members =
        it != clusterer_.clusters().end()
            ? static_cast<double>(it->second.members.size())
            : 1.0;
    snapshot.clusters.push_back(id);
    snapshot.queries_per_interval.push_back(FiniteOr(avg, 0.0) * members);
  }
  MutexLock fb(&resilience_->fallback_mu);
  resilience_->fallback = std::move(snapshot);
  resilience_->fallback_valid = !resilience_->fallback.clusters.empty();
}

Result<QueryBot5000::WorkloadForecast> QueryBot5000::FallbackForecast() const {
  MutexLock fb(&resilience_->fallback_mu);
  if (!resilience_->fallback_valid) {
    return Status::FailedPrecondition(
        "no fallback snapshot; maintenance has not selected clusters yet");
  }
  return resilience_->fallback;
}

Result<QueryBot5000::WorkloadForecast> QueryBot5000::ForecastLocked(
    Timestamp now, int64_t horizon_seconds, const Deadline* deadline,
    ForecastRung* rung_used) const {
  if (!forecaster_->trained()) {
    return Status::FailedPrecondition(
        "no trained models; call RunMaintenance first");
  }
  // Housekeeping re-clusters before training publishes, and a failed or
  // rolled-back round keeps the old models: until the next publish they
  // may name a cluster that no longer exists. That is a precondition miss
  // (bounded callers degrade to the fallback snapshot), not a lookup error.
  for (ClusterId id : forecaster_->modeled_clusters()) {
    if (clusterer_.clusters().count(id) == 0) {
      return Status::FailedPrecondition(
          "models predate the current clustering; awaiting retrain");
    }
  }
  ForecastRung rung = ForecastRung::kFull;
  auto rates = forecaster_->Forecast(pre_, clusterer_, now, horizon_seconds,
                                    deadline, &rung);
  if (!rates.ok()) return rates.status();
  if (rung_used != nullptr) *rung_used = rung;
  (rung == ForecastRung::kFull ? rung_full_total_ : rung_linear_total_)->Add();
  WorkloadForecast forecast;
  forecast.clusters = forecaster_->modeled_clusters();
  forecast.queries_per_interval = std::move(*rates);
  forecast.interval_seconds = config_.forecaster.interval_seconds;
  // Models predict the cluster *center* (the members' average arrival
  // rate); the planning-facing number is the cluster total.
  for (size_t i = 0; i < forecast.clusters.size() &&
                     i < forecast.queries_per_interval.size();
       ++i) {
    auto it = clusterer_.clusters().find(forecast.clusters[i]);
    if (it != clusterer_.clusters().end()) {
      forecast.queries_per_interval[i] *=
          static_cast<double>(it->second.members.size());
    }
  }
  return forecast;
}

Result<QueryBot5000::WorkloadForecast> QueryBot5000::Forecast(
    Timestamp now, int64_t horizon_seconds) const {
  Stopwatch lock_wait;
  ReaderLock lock(state_mu_);
  lock_wait_seconds_->Observe(lock_wait.ElapsedSeconds());
  forecasts_total_->Add();
  ScopedTimer forecast_timer(forecast_seconds_);
  ScopedSpan forecast_span(tracer_.get(), "forecast");
  return ForecastLocked(now, horizon_seconds, /*deadline=*/nullptr,
                        /*rung_used=*/nullptr);
}

Result<QueryBot5000::WorkloadForecast> QueryBot5000::Forecast(
    Timestamp now, int64_t horizon_seconds, double budget_seconds,
    ForecastRung* rung_used) const {
  if (budget_seconds <= 0.0) {
    // Unbounded, but still reporting the rung for symmetric call sites.
    Stopwatch lock_wait;
    ReaderLock lock(state_mu_);
    lock_wait_seconds_->Observe(lock_wait.ElapsedSeconds());
    forecasts_total_->Add();
    ScopedTimer forecast_timer(forecast_seconds_);
    ScopedSpan forecast_span(tracer_.get(), "forecast");
    return ForecastLocked(now, horizon_seconds, nullptr, rung_used);
  }
  Deadline deadline(budget_seconds);
  Stopwatch lock_wait;
  // Spend at most half the budget waiting for the state lock; the
  // remainder is for gathering inputs and predicting. A writer that holds
  // the lock longer than that (maintenance mid-train, or wedged) must not
  // make Forecast miss its bound — the fallback rung serves lock-free.
  TimedReaderLock lock(state_mu_, budget_seconds * 0.5);
  lock_wait_seconds_->Observe(lock_wait.ElapsedSeconds());
  forecasts_total_->Add();
  ScopedTimer forecast_timer(forecast_seconds_);
  ScopedSpan forecast_span(tracer_.get(), "forecast");
  if (lock.held()) {
    auto result = ForecastLocked(now, horizon_seconds, &deadline, rung_used);
    StatusCode code = result.ok() ? StatusCode::kOk : result.status().code();
    bool degrade_to_fallback = code == StatusCode::kDeadlineExceeded ||
                               code == StatusCode::kFailedPrecondition;
    if (!degrade_to_fallback) return result;
    // Budget spent before any model could run, or no trained models at
    // all (e.g. the first training round was rejected by the health
    // gate): the history-average snapshot is the documented last rung.
    auto fallback = FallbackForecast();
    if (!fallback.ok()) return result;  // surface the original verdict
    if (rung_used != nullptr) *rung_used = ForecastRung::kFallback;
    rung_fallback_total_->Add();
    return fallback;
  }
  auto fallback = FallbackForecast();
  if (!fallback.ok()) return fallback.status();
  if (rung_used != nullptr) *rung_used = ForecastRung::kFallback;
  rung_fallback_total_->Add();
  return fallback;
}

// --- Always-on service mode (DESIGN.md §14) --------------------------------

Status QueryBot5000::StartService(ServiceOptions options) {
  if (service_ != nullptr) {
    return Status::FailedPrecondition("service already running");
  }
  if (options.queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be positive");
  }
  if (options.compact_every == 0) options.compact_every = 1;
  service_ = std::make_unique<ServiceState>(std::move(options));
  queue_depth_gauge_->Set(0.0);
  drain_workers_gauge_->Set(
      static_cast<double>(service_->options.drain_workers));
  if (service_->options.drain_workers > 0) {
    service_->pool.Start(service_->options.drain_workers);
  }
  if (service_->options.background) {
    service_->thread.Start([this] { return ServiceRound(); });
  }
  return Status::Ok();
}

Status QueryBot5000::StopService() {
  if (service_ == nullptr) {
    return Status::FailedPrecondition("service not running");
  }
  ServiceState& svc = *service_;
  // Shutdown ordering: producers have quiesced (caller's contract), so
  // stopping the thread — which drains to idle before joining — leaves the
  // queue empty and the consumer-only state single-threaded again.
  if (svc.options.background) {
    svc.thread.Stop();
  } else {
    while (ServiceRound()) {
    }
  }
  // The drain reached idle, so the retry stash drained with the ring and
  // the prep pool has no run in flight — safe to retire the workers.
  svc.pool.Stop();
  // Final durability flush: anything applied since the last periodic write,
  // caller-driven eviction cutoffs included.
  Status st = Status::Ok();
  if (svc.checkpointing()) {
    FoldExternalEvictCutoff();
    if (!svc.delta.base_valid) {
      st = ServiceFullCheckpoint();
    } else if (svc.dirty) {
      st = WriteDeltaCheckpoint();
    }
  }
  service_.reset();
  queue_depth_gauge_->Set(0.0);
  drain_workers_gauge_->Set(0.0);
  return st;
}

Status QueryBot5000::EnqueueBatch(std::span<const QueryArrival> arrivals) {
  ServiceState* svc = service_.get();
  if (svc == nullptr) {
    return Status::FailedPrecondition("service not running; StartService first");
  }
  if (arrivals.empty()) return Status::Ok();
  ArrivalChunk chunk;
  size_t total_bytes = 0;
  for (const QueryArrival& a : arrivals) total_bytes += a.sql.size();
  chunk.bytes.reserve(total_bytes);
  chunk.items.reserve(arrivals.size());
  for (const QueryArrival& a : arrivals) {
    ArrivalChunk::Item item;
    item.offset = static_cast<uint32_t>(chunk.bytes.size());
    item.length = static_cast<uint32_t>(a.sql.size());
    item.ts = a.ts;
    item.count = a.count;
    chunk.bytes.append(a.sql);
    chunk.items.push_back(item);
  }
  if (!svc->queue.TryPush(std::move(chunk))) {
    queue_stalls_total_->Add();
    return Status::Overloaded("service ingest queue full; retry with backoff");
  }
  queue_depth_gauge_->Set(static_cast<double>(svc->queue.ApproxSize()));
  if (svc->options.background) svc->thread.Wake();
  return Status::Ok();
}

void QueryBot5000::DrainForTest() {
  if (service_ == nullptr) return;
  if (service_->options.background) {
    service_->thread.WaitIdle();
    return;
  }
  while (ServiceRound()) {
  }
}

bool QueryBot5000::ServiceRound() {
  ServiceState& svc = *service_;
  bool did_work = false;
  if (svc.pool.workers() > 0) {
    did_work = DrainSharded();
  } else {
    ArrivalChunk chunk;
    while (svc.queue.TryPop(&chunk)) {
      // Chaos probe: a wedged drain (slow page-in, noisy neighbor) — the
      // queue must absorb producers meanwhile, and EnqueueBatch must shed
      // with kOverloaded once it fills, never block.
      ChaosHarness::Global().MaybeStall("service.drain");
      ApplyChunk(chunk);
      queue_depth_gauge_->Set(static_cast<double>(svc.queue.ApproxSize()));
      did_work = true;
    }
  }
  if (MaybeServiceMaintenance()) did_work = true;
  if (MaybeDeltaCheckpoint()) did_work = true;
  if (did_work) bg_rounds_total_->Add();
  return did_work;
}

std::vector<QueryArrival> QueryBot5000::ChunkViews(const ArrivalChunk& chunk) {
  std::vector<QueryArrival> arrivals;
  arrivals.reserve(chunk.items.size());
  for (const ArrivalChunk::Item& item : chunk.items) {
    QueryArrival a;
    a.sql = std::string_view(chunk.bytes.data() + item.offset, item.length);
    a.ts = item.ts;
    a.count = item.count;
    arrivals.push_back(a);
  }
  return arrivals;
}

void QueryBot5000::RecordChunkApplied(const ArrivalChunk& chunk,
                                      const std::vector<TemplateId>& ids) {
  ServiceState& svc = *service_;
  bool log_delta = svc.checkpointing();
  for (size_t i = 0; i < chunk.items.size(); ++i) {
    if (chunk.items[i].ts > svc.highwater) svc.highwater = chunk.items[i].ts;
    if (log_delta && i < ids.size() && ids[i] != 0) {
      DeltaLog::Arrival rec;
      rec.id = ids[i];
      rec.ts = chunk.items[i].ts;
      rec.count = chunk.items[i].count;
      svc.delta.arrivals.push_back(rec);
    }
  }
  if (!chunk.items.empty()) {
    svc.dirty = true;
    ++svc.chunks_applied;
  }
}

// Same hand-off protocol (and the same analysis opt-out) as IngestBatch:
// pre_ is touched only inside the phases IngestBatch locks internally.
void QueryBot5000::ApplyChunk(const ArrivalChunk& chunk)
    QB_NO_THREAD_SAFETY_ANALYSIS {
  std::vector<QueryArrival> arrivals = ChunkViews(chunk);
  std::vector<TemplateId> ids = pre_.IngestBatch(arrivals, state_mu_);
  RecordChunkApplied(chunk, ids);
}

namespace {
/// Run-size cap for the sharded drain: enough claimed chunks to keep every
/// prep worker busy ahead of the merge without materializing the whole ring
/// at once. Claim order == pop order == the order the inline drain applies,
/// so the cap affects pipelining only, never results.
constexpr size_t kDrainRunChunks = 16;
}  // namespace

bool QueryBot5000::DrainSharded() {
  ServiceState& svc = *service_;
  bool did_work = false;
  for (;;) {
    // Assemble a run: chunks stashed by a cut-short merge first (they were
    // claimed earlier, so they stay ahead of anything still in the ring).
    std::vector<ArrivalChunk> run;
    run.reserve(kDrainRunChunks);
    while (run.size() < kDrainRunChunks && !svc.retry.empty()) {
      run.push_back(std::move(svc.retry.front()));
      svc.retry.pop_front();
    }
    size_t base = run.size();
    run.resize(kDrainRunChunks);
    size_t got =
        svc.queue.TryPopBatch(run.data() + base, kDrainRunChunks - base);
    run.resize(base + got);
    if (run.empty()) return did_work;
    did_work = true;
    // Chaos probe: same wedged-drain seam as the inline path, once per run.
    ChaosHarness::Global().MaybeStall("service.drain");
    size_t merged = ApplyRunSharded(std::span<ArrivalChunk>(run));
    queue_depth_gauge_->Set(static_cast<double>(svc.queue.ApproxSize()));
    if (merged < run.size()) {
      // The service.merge alloc-fail probe cut the run short: stash the
      // unmerged tail in order and let the next round retry it. Previously
      // published models keep serving; nothing is lost or reordered.
      for (size_t i = run.size(); i-- > merged;) {
        svc.retry.push_front(std::move(run[i]));
      }
      return true;
    }
  }
}

// Prep runs on the DrainPool workers (shared-lock cache probe inside
// PrepareBatch), the ordered merge on this thread (exclusive lock inside
// MergePrepared) — the same phased hand-off protocol, and the same analysis
// opt-out, as IngestBatch.
size_t QueryBot5000::ApplyRunSharded(std::span<ArrivalChunk> run)
    QB_NO_THREAD_SAFETY_ANALYSIS {
  ServiceState& svc = *service_;
  struct PreparedChunk {
    std::vector<QueryArrival> arrivals;  ///< views into the chunk's bytes
    PreProcessor::PreparedBatch batch;
  };
  std::vector<PreparedChunk> prepped(run.size());
  svc.pool.BeginRun(run.size(), [&](size_t i) {
    // Chaos probe: one slow shard worker (page-in, noisy neighbor) must
    // delay the ordered merge, never reorder it.
    ChaosHarness::Global().MaybeStall("service.shard");
    prepped[i].arrivals = ChunkViews(run[i]);
    prepped[i].batch = pre_.PrepareBatch(prepped[i].arrivals, state_mu_);
  });
  size_t merged = 0;
  bool aborted = false;
  for (size_t i = 0; i < run.size(); ++i) {
    // Await in claim order even after an abort: EndRun requires every job
    // retired, and the stalled-worker chaos test relies on the wait.
    bool waited = svc.pool.AwaitPrepared(i);
    if (aborted) continue;
    if (waited) drain_merge_waits_total_->Add();
    if (ChaosHarness::Global().FailAlloc("service.merge")) {
      aborted = true;
      continue;
    }
    std::vector<TemplateId> ids = pre_.MergePrepared(
        std::move(prepped[i].batch), prepped[i].arrivals, state_mu_);
    RecordChunkApplied(run[i], ids);
    ++merged;
  }
  svc.pool.EndRun();
  return merged;
}

void QueryBot5000::FoldExternalEvictCutoff() {
  ServiceState& svc = *service_;
  Timestamp ext = svc.external_evict_cutoff.exchange(
      std::numeric_limits<Timestamp>::min(), std::memory_order_acq_rel);
  if (ext == std::numeric_limits<Timestamp>::min()) return;
  if (ext > svc.delta.evict_cutoff) {
    svc.delta.evict_cutoff = ext;
    // An eviction with no new arrivals still changes restorable state.
    svc.dirty = true;
  }
}

bool QueryBot5000::MaybeServiceMaintenance() {
  ServiceState& svc = *service_;
  if (!svc.options.auto_maintenance) return false;
  if (svc.highwater == std::numeric_limits<Timestamp>::min()) return false;
  // Retry gate: nothing new arrived since the last attempt, so a re-run
  // could only reproduce the same outcome (or spin on a failing train).
  if (svc.maintenance_attempt_chunks == svc.chunks_applied) return false;
  {
    // Cheap pre-check under the shared lock so idle rounds neither take the
    // exclusive lock nor churn the skipped counter. The service thread is
    // the only mutator of last_maintenance_ while the service runs, so the
    // verdict cannot go stale between this check and the pass itself.
    ReaderLock lock(state_mu_);
    bool never_ran =
        last_maintenance_ == std::numeric_limits<Timestamp>::min();
    bool due = never_ran ||
               svc.highwater - last_maintenance_ >=
                   config_.maintenance_period_seconds ||
               svc.highwater < last_maintenance_;
    if (!due && !clusterer_.ShouldTrigger(pre_)) return false;
  }
  svc.maintenance_attempt_chunks = svc.chunks_applied;
  (void)ServiceMaintenance(svc.highwater);
  return true;
}

Status QueryBot5000::ServiceMaintenance(Timestamp now) {
  ServiceState& svc = *service_;
  now = ChaosHarness::Global().MaybeJumpClock("maintenance.clock", now);
  ScopedTimer maintenance_timer(maintenance_seconds_);
  ScopedSpan maintenance_span(tracer_.get(), "maintenance");
  // Phase 1 (exclusive, brief): housekeeping, clustering, selection, and a
  // copy of the published models to stage the train on.
  Forecaster staged(config_.forecaster);
  std::vector<ClusterId> clusters;
  {
    Stopwatch lock_wait;
    WriterLock lock(state_mu_);
    lock_wait_seconds_->Observe(lock_wait.ElapsedSeconds());
    if (!MaintenanceDueLocked(now, /*force=*/false)) return Status::Ok();
    Timestamp evict_cutoff = std::numeric_limits<Timestamp>::min();
    clusters = MaintenanceHousekeepLocked(now, &evict_cutoff);
    if (evict_cutoff > svc.delta.evict_cutoff) {
      svc.delta.evict_cutoff = evict_cutoff;
    }
    if (clusters.empty()) return Status::Ok();
    staged = *forecaster_;
  }
  // Phase 2 (shared): the expensive train runs on the staged copy while
  // Forecast readers proceed concurrently — this is the lock-hold the old
  // synchronous path paid exclusively and the degradation ladder had to
  // absorb on every retrain.
  Status st;
  {
    ReaderLock lock(state_mu_);
    ScopedSpan span(tracer_.get(), "maintenance/train");
    ChaosHarness::Global().MaybeStall("maintenance.train");
    st = staged.Train(pre_, clusterer_, clusters, now, config_.horizons);
  }
  // Phase 3 (exclusive, O(1)): pointer-swap the snapshot in. Published even
  // when the train failed or was health-gate rejected, exactly like the
  // synchronous path — the rollback bookkeeping (last_recovery) must be
  // observable, and a rejected train kept the previous models anyway.
  {
    WriterLock lock(state_mu_);
    PublishModelsLocked(std::move(staged));
    if (st.ok()) last_maintenance_ = now;
  }
  return st;
}

bool QueryBot5000::MaybeDeltaCheckpoint() {
  ServiceState& svc = *service_;
  if (!svc.checkpointing()) return false;
  // Caller-driven maintenance may have evicted templates since the last
  // write; fold its cutoff in so the dirty check below sees it.
  FoldExternalEvictCutoff();
  if (svc.highwater == std::numeric_limits<Timestamp>::min()) return false;
  if (!svc.delta.base_valid) {
    // First write of this service session establishes the delta's base.
    (void)ServiceFullCheckpoint();
    svc.last_checkpoint = svc.highwater;
    return true;
  }
  bool has_last =
      svc.last_checkpoint != std::numeric_limits<Timestamp>::min();
  if (has_last && svc.highwater - svc.last_checkpoint <
                      svc.options.checkpoint_period_seconds) {
    return false;
  }
  if (!svc.dirty) {
    svc.last_checkpoint = svc.highwater;
    return false;
  }
  // Failures leave the log intact and retry next period (the arrival clock
  // advanced past this attempt either way, so there is no busy-loop).
  if (svc.deltas_since_full + 1 >= svc.options.compact_every) {
    (void)ServiceFullCheckpoint();
  } else {
    (void)WriteDeltaCheckpoint();
  }
  svc.last_checkpoint = svc.highwater;
  return true;
}

}  // namespace qb5000
