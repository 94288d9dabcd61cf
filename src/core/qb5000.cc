#include "core/qb5000.h"

#include <optional>

#include "common/chaos.h"
#include "common/finite.h"
#include "common/mutex.h"

namespace qb5000 {

namespace {

/// An arrival count is a number of identical queries: zero and fractions
/// are valid, but NaN or infinity would poison the template's history
/// total and every forecast built on it (and the checkpoint, whose text
/// stream cannot parse it back), and a negative count would erase
/// arrivals.
bool ValidCount(double count) { return IsFinite(count) && count >= 0.0; }

Status InvalidCount() {
  return Status::InvalidArgument(
      "arrival count must be finite and non-negative");
}

/// While a service runs it owns ingest: its arrival clock, maintenance
/// checks and checkpoint cadence advance only with the chunks it drains,
/// so an arrival applied around the queue would move none of them.
Status ServiceOwnsIngest() {
  return Status::FailedPrecondition(
      "service running; ingest through EnqueueBatch");
}

}  // namespace

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
}

QueryBot5000::~QueryBot5000() {
  if (service_ != nullptr) (void)StopService();
}

Status QueryBot5000::Ingest(std::string_view sql, Timestamp ts, double count) {
  if (!ValidCount(count)) return InvalidCount();
  if (service_ != nullptr) return ServiceOwnsIngest();
  WriterLock lock(state_mu_);
  auto id = pre_.Ingest(sql, ts, count);
  return id.ok() ? Status::Ok() : id.status();
}

// The PreProcessor takes the lock itself: shared for the cache probe,
// exclusive while it applies the arrivals; normalize and parse run unlocked.
// That hand-off protocol — pre_ touched only inside the phases IngestBatch locks —
// is beyond what Thread Safety Analysis can follow, so this one entry point
// opts out and tests/tsan carry the proof instead.
Result<std::vector<TemplateId>> QueryBot5000::IngestBatch(
    std::span<const QueryArrival> arrivals) QB_NO_THREAD_SAFETY_ANALYSIS {
  for (const QueryArrival& a : arrivals) {
    if (!ValidCount(a.count)) return InvalidCount();
  }
  if (service_ != nullptr) return ServiceOwnsIngest();
  return pre_.IngestBatch(arrivals, state_mu_);
}

Status QueryBot5000::IngestTemplatized(const TemplatizeOutput& templatized,
                                       Timestamp ts, double count) {
  if (!ValidCount(count)) return InvalidCount();
  if (service_ != nullptr) return ServiceOwnsIngest();
  WriterLock lock(state_mu_);
  pre_.IngestTemplatized(templatized, ts, count);
  return Status::Ok();
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

bool QueryBot5000::MaintenanceDueLocked(Timestamp now) const {
  // last_maintenance_ starts at Timestamp::min() meaning "never ran";
  // `now - min()` is signed overflow (UB, UBSan-fatal), so test the
  // sentinel before forming the difference. A backwards clock counts as
  // due so that RunMaintenance re-anchors the timer to it.
  if (last_maintenance_ == std::numeric_limits<Timestamp>::min()) return true;
  if (now < last_maintenance_) return true;
  if (now - last_maintenance_ >= config_.maintenance_period_seconds) {
    return true;
  }
  return clusterer_.ShouldTrigger(pre_);
}

std::vector<ClusterId> QueryBot5000::MaintenanceHousekeepLocked(Timestamp now) {
  // Chaos probe: a writer wedged while it holds the state lock exclusively
  // (page-in storm, noisy neighbor) — bounded Forecasts must degrade to the
  // fallback rung instead of waiting it out.
  ChaosHarness::Global().MaybeStall("maintenance.housekeep");
  // Forward-jump clamp, mirroring RunMaintenance's backwards re-anchor:
  // after a forward clock step (an NTP step, a resumed VM) the apparent gap
  // since the last pass can dwarf any real elapsed time, and anchoring
  // housekeeping at the stepped `now` would mass-evict live templates and
  // compact still-fresh history. A gap is tolerated up to the maintenance
  // period plus this slack; past that, the housekeeping anchor (eviction,
  // compaction) advances by only the tolerated amount, while training and
  // the maintenance timer still use the live clock (after the step, the
  // new time *is* the time — only the gap was fictitious). DESIGN.md §13.
  constexpr int64_t kMaxClockStepSeconds = kSecondsPerDay;
  bool never_ran =
      last_maintenance_ == std::numeric_limits<Timestamp>::min();
  Timestamp housekeep_now = now;
  if (!never_ran) {
    int64_t tolerated =
        config_.maintenance_period_seconds + kMaxClockStepSeconds;
    if (now - last_maintenance_ > tolerated) {
      housekeep_now = last_maintenance_ + tolerated;
    }
  }
  Timestamp cutoff = housekeep_now - config_.template_eviction_seconds;
  {
    ScopedSpan span(tracer_.get(), "maintenance/evict");
    pre_.EvictIdleTemplates(cutoff);
  }
  {
    ScopedSpan span(tracer_.get(), "maintenance/compact");
    pre_.CompactBefore(housekeep_now);
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
  // Timer and span start once the pass is due and outlive phase 1's lock.
  std::optional<ScopedTimer> maintenance_timer;
  std::optional<ScopedSpan> maintenance_span;
  // Phase 1 (exclusive, brief): clock re-anchor, due check, housekeeping,
  // clustering, selection, and a copy of the published models to stage the
  // train on.
  std::optional<Forecaster> staged;
  std::vector<ClusterId> clusters;
  {
    Stopwatch lock_wait;
    WriterLock lock(state_mu_);
    lock_wait_seconds_->Observe(lock_wait.ElapsedSeconds());
    if (last_maintenance_ != std::numeric_limits<Timestamp>::min() &&
        now < last_maintenance_) {
      // The clock went backwards (NTP step, VM migration). Re-anchor the
      // timer to the regressed clock: leaving last_maintenance_ in the
      // future would silently disable periodic maintenance until the clock
      // catches back up past it plus a full period.
      last_maintenance_ = now;
    }
    if (!force && !MaintenanceDueLocked(now)) {
      maintenance_skipped_total_->Add();
      return Status::Ok();
    }
    maintenance_runs_total_->Add();
    maintenance_timer.emplace(maintenance_seconds_);
    maintenance_span.emplace(tracer_.get(), "maintenance");
    clusters = MaintenanceHousekeepLocked(now);
    if (clusters.empty()) return Status::Ok();
    staged.emplace(*forecaster_);
  }
  // Phase 2 (shared): the expensive train runs on the staged copy while
  // Forecast, ModeledClusters and Checkpoint readers proceed concurrently,
  // so the degradation ladder does not fire on every retrain.
  Status st;
  {
    ReaderLock lock(state_mu_);
    ScopedSpan span(tracer_.get(), "maintenance/train");
    ChaosHarness::Global().MaybeStall("maintenance.train");
    st = staged->Train(pre_, clusterer_, clusters, now, config_.horizons);
  }
  // Phase 3 (exclusive, O(1)): pointer-swap the snapshot in. Published even
  // when the train failed — the rollback bookkeeping (last_recovery) must be
  // observable, and a failed train kept the previous models anyway — but
  // only a successful train advances the maintenance timer.
  {
    WriterLock lock(state_mu_);
    PublishModelsLocked(std::move(*staged));
    if (st.ok()) last_maintenance_ = now;
  }
  return st;
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
  return Forecast(now, horizon_seconds, 0.0, nullptr);
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
  // the lock longer than that (wedged in housekeeping, say) must not make
  // Forecast miss its bound — the fallback rung serves without the lock.
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
  service_ = std::make_unique<ServiceState>(std::move(options));
  queue_depth_gauge_->Set(0.0);
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
  // Final write, unconditional: it also carries a caller's maintenance
  // pass made after the last periodic write.
  Status st = Status::Ok();
  if (svc.checkpointing()) {
    st = Checkpoint(svc.options.checkpoint_path, svc.options.env);
  }
  service_.reset();
  queue_depth_gauge_->Set(0.0);
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
  for (const QueryArrival& a : arrivals) {
    if (!ValidCount(a.count)) return InvalidCount();
    total_bytes += a.sql.size();
  }
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
  {
    MutexLock lock(&svc->queue_mu);
    if (svc->queue.size() >= svc->options.queue_capacity) {
      queue_stalls_total_->Add();
      return Status::Overloaded(
          "service ingest queue full; retry with backoff");
    }
    svc->queue.push_back(std::move(chunk));
    queue_depth_gauge_->Set(static_cast<double>(svc->queue.size()));
  }
  // After the queue lock is released: Wake() takes the service thread's
  // lock, and two leaf locks never nest.
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
  bool applied = false;
  for (;;) {
    // One chunk per lock hold: the popped chunk leaves the queue, so at most
    // queue_capacity chunks are in flight, and producers push meanwhile.
    ArrivalChunk chunk;
    {
      MutexLock lock(&svc.queue_mu);
      if (svc.queue.empty()) break;
      chunk = std::move(svc.queue.front());
      svc.queue.pop_front();
      queue_depth_gauge_->Set(static_cast<double>(svc.queue.size()));
    }
    // Chaos probe: a wedged drain (slow page-in, noisy neighbor) — the
    // queue must absorb producers meanwhile, and EnqueueBatch must shed
    // with kOverloaded once it fills, never block.
    ChaosHarness::Global().MaybeStall("service.drain");
    ApplyChunk(chunk);
    applied = true;
  }
  // Due work is checked once, after the queue is drained, and only in a
  // round that applied chunks. The arrival clock and the data move only
  // with chunks, so an idle round has nothing to train on or persist, and
  // a failed pass is retried once new work arrives instead of spinning.
  // Draining first coalesces a backlog: chunks spanning many maintenance
  // and checkpoint periods cost one pass and one write. Checking after
  // every chunk instead ran up to 4x the passes and 15x the writes on
  // servicebench's multi-day bursts (DESIGN.md §14).
  if (!applied) return false;
  MaybeServiceMaintenance();
  MaybeCheckpoint();
  bg_rounds_total_->Add();
  return true;
}

// Same hand-off protocol (and the same analysis opt-out) as IngestBatch:
// pre_ is touched only inside the phases IngestBatch locks internally.
void QueryBot5000::ApplyChunk(const ArrivalChunk& chunk)
    QB_NO_THREAD_SAFETY_ANALYSIS {
  ServiceState& svc = *service_;
  std::vector<QueryArrival> arrivals;
  arrivals.reserve(chunk.items.size());
  for (const ArrivalChunk::Item& item : chunk.items) {
    QueryArrival a;
    a.sql = std::string_view(chunk.bytes.data() + item.offset, item.length);
    a.ts = item.ts;
    a.count = item.count;
    arrivals.push_back(a);
  }
  (void)pre_.IngestBatch(arrivals, state_mu_);
  for (const ArrivalChunk::Item& item : chunk.items) {
    if (item.ts > svc.highwater) svc.highwater = item.ts;
  }
}

void QueryBot5000::MaybeServiceMaintenance() {
  ServiceState& svc = *service_;
  if (!svc.options.auto_maintenance) return;
  {
    // Cheap pre-check under the shared lock so rounds with nothing due
    // neither take the exclusive lock nor churn the skipped counter. A
    // caller may drive a pass of its own and move last_maintenance_ after
    // this check; RunMaintenance re-checks under the exclusive lock, so a
    // stale verdict costs at most one skipped pass.
    ReaderLock lock(state_mu_);
    if (!MaintenanceDueLocked(svc.highwater)) return;
  }
  (void)RunMaintenance(svc.highwater);
}

void QueryBot5000::MaybeCheckpoint() {
  ServiceState& svc = *service_;
  if (!svc.checkpointing()) return;
  bool has_last =
      svc.last_checkpoint != std::numeric_limits<Timestamp>::min();
  if (has_last && svc.highwater - svc.last_checkpoint <
                      svc.options.checkpoint_period_seconds) {
    return;
  }
  // A failed write is retried a period later (the arrival clock advanced
  // past this attempt either way, so there is no busy-loop); the previous
  // checkpoint stays restorable meanwhile.
  (void)Checkpoint(svc.options.checkpoint_path, svc.options.env);
  svc.last_checkpoint = svc.highwater;
}

}  // namespace qb5000
