#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "clusterer/online_clusterer.h"
#include "common/clock.h"
#include "common/deadline.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/service.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/tracing.h"
#include "forecaster/forecaster.h"
#include "preprocessor/preprocessor.h"

namespace qb5000 {

class Env;
struct RestoreReport;

/// The QueryBot 5000 controller (Figure 2): wires the Pre-Processor,
/// Clusterer, and Forecaster into the pipeline a self-driving DBMS consumes.
///
/// Usage:
///   QueryBot5000 bot(config);
///   bot.Ingest(sql, now);              // continuously, per query
///   bot.RunMaintenance(now);           // periodically (e.g. daily)
///   auto f = bot.Forecast(now, kSecondsPerHour);  // per-cluster rates
///
/// Thread safety (DESIGN.md §9): mutators (Ingest, IngestTemplatized,
/// RunMaintenance outside its train) take the state lock exclusively;
/// readers (Forecast, ModeledClusters, Checkpoint) and the train take it
/// shared, so forecasting and checkpointing proceed concurrently with each
/// other and with a train, but never against a mutation. The unlocked
/// accessors (preprocessor(), mutable_preprocessor(), ...) are for
/// single-threaded setup and inspection only.
class QueryBot5000 {
 public:
  struct Config {
    PreProcessor::Options preprocessor;
    OnlineClusterer::Options clusterer;
    Forecaster::Options forecaster;
    /// Model the top clusters covering this fraction of workload volume...
    double coverage_target = 0.95;
    /// ...but never more than this many (Section 7.2 models 3-5 clusters).
    size_t max_modeled_clusters = 5;
    /// Horizons to maintain models for, in seconds.
    std::vector<int64_t> horizons = {kSecondsPerHour, 12 * kSecondsPerHour,
                                     kSecondsPerDay};
    /// How often RunMaintenance() re-clusters and re-trains, unless the
    /// new-template trigger fires earlier.
    int64_t maintenance_period_seconds = kSecondsPerDay;
    /// Templates idle longer than this are evicted (Section 5.2).
    int64_t template_eviction_seconds = 30 * kSecondsPerDay;
  };

  QueryBot5000() : QueryBot5000(Config()) {}
  explicit QueryBot5000(Config config);
  /// Stops a running service (see StartService) before tearing down state.
  ~QueryBot5000();
  /// Movable while quiescent only: the service round captures `this`, so a
  /// controller must never be moved between StartService and StopService.
  QueryBot5000(QueryBot5000&&) = default;
  QueryBot5000& operator=(QueryBot5000&&) = default;

  /// Always-on service mode (DESIGN.md §14). StartService turns this
  /// controller into the paper's embedded deployment shape: producers hand
  /// arrivals to EnqueueBatch, which copies them into a bounded queue and
  /// returns without ever touching the state lock; a dedicated background
  /// thread drains the queue, merges templates, and runs RunMaintenance
  /// when it falls due against the *arrival* clock (timestamps are
  /// virtual). With a checkpoint path configured it also writes a full
  /// checkpoint once per period of that clock, so neither training nor
  /// checkpointing ever stalls the producers.
  struct ServiceOptions {
    /// Queue capacity in enqueued chunks (one EnqueueBatch call = one
    /// chunk), exact. A full queue makes EnqueueBatch return kOverloaded —
    /// the queue *is* the admission gate.
    size_t queue_capacity = 256;
    /// False runs no thread: work queues up until DrainForTest() applies it
    /// inline on the caller. That is the deterministic mode tests use for
    /// exact-count metric assertions; production wants the default.
    bool background = true;
    /// False leaves maintenance caller-driven (RunMaintenance), making the
    /// service a pure buffered-ingest layer — what the sync-equivalence
    /// tests compare, and what deployments owning their own maintenance
    /// schedule want. True runs maintenance from the drain loop whenever
    /// it falls due against the arrival clock, checked only after a round
    /// that applied chunks: a failed pass is retried only after new work
    /// arrives, so an untrainable workload can never busy-loop the service
    /// thread.
    bool auto_maintenance = true;
    /// Periodic checkpointing (an empty path or a non-positive period
    /// disables it): the service writes Checkpoint(checkpoint_path) on the
    /// first round that applies arrivals, again each time the arrival clock
    /// has moved `checkpoint_period_seconds` past the last write, and once
    /// more at StopService. Restore(checkpoint_path) reads it back.
    std::string checkpoint_path;
    int64_t checkpoint_period_seconds = 0;
    Env* env = nullptr;  ///< filesystem seam; nullptr = Env::Default()
  };

  /// Starts service mode. Fails if the service is already running. Not
  /// thread-safe against other lifecycle calls or producers. Until
  /// StopService, EnqueueBatch is the only ingest path: Ingest, IngestBatch
  /// and IngestTemplatized return kFailedPrecondition, because the service
  /// owns ingest, and its arrival clock, maintenance checks and checkpoint
  /// cadence advance only with the chunks it drains.
  Status StartService(ServiceOptions options);

  /// Drains the queue, stops the background thread (if any), writes a
  /// final full checkpoint when checkpointing is configured, and
  /// returns the controller to synchronous mode. Producers must have
  /// quiesced first (shutdown ordering, DESIGN.md §14). Returns the final
  /// write's status; the service is torn down either way.
  Status StopService();

  /// Producer-side ingest for service mode: copies the arrivals (SQL bytes
  /// included) into one owned chunk and enqueues it under the queue's leaf
  /// lock: never takes state_mu_, never blocks on maintenance. kOverloaded
  /// (counted in core.queue_enqueue_stalls_total) means the queue is full —
  /// true backpressure, retryable with backoff. kFailedPrecondition when the
  /// service is not running. kInvalidArgument when any arrival's count is
  /// NaN, infinite, or negative; nothing from the batch is enqueued.
  Status EnqueueBatch(std::span<const QueryArrival> arrivals);

  /// Blocks until everything enqueued before this call has been applied and
  /// the service is idle. In background mode this waits on the service
  /// thread; in manual mode (background=false) it runs the drain inline.
  void DrainForTest();

  bool service_running() const { return service_ != nullptr; }

  /// Number of model publications (epoch-style pointer swaps) so far; also
  /// exported as the core.model_epoch gauge. Starts at 0; each maintenance
  /// pass that reaches training bumps it exactly once.
  uint64_t model_epoch() const {
    return resilience_->model_epoch.load(std::memory_order_acquire);
  }

  /// Ingests one query arriving at `ts`. A `count` that is NaN, infinite,
  /// or negative is rejected with kInvalidArgument; zero and fractional
  /// counts are valid. kFailedPrecondition while a service runs:
  /// EnqueueBatch is then the only ingest path (see StartService).
  Status Ingest(std::string_view sql, Timestamp ts, double count = 1.0);
  Status Ingest(const std::string& sql,  // lint:string-ref-ok
                Timestamp ts, double count = 1.0) {
    return Ingest(std::string_view(sql), ts, count);
  }
  Status Ingest(const char* sql, Timestamp ts, double count = 1.0) {
    return Ingest(std::string_view(sql), ts, count);
  }

  /// Batched ingest (DESIGN.md §11): normalize and parse run outside the
  /// state lock; the arrivals are then applied in order under it, held
  /// exclusively once per batch instead of once per query. Returns the
  /// TemplateId per arrival (0 = rejected, counted in
  /// preprocessor.parse_failures_total). Bit-identical ids, histories,
  /// reservoirs and counters to per-query Ingest for any count. The whole
  /// batch is refused as a unit: kInvalidArgument, returned when any
  /// arrival's count is NaN, infinite, or negative, and kFailedPrecondition,
  /// returned while a service runs, each mean no arrival in it was ingested.
  Result<std::vector<TemplateId>> IngestBatch(
      std::span<const QueryArrival> arrivals);

  /// Ingests an already-templatized arrival (bulk/generator path). Like the
  /// other entry points it refuses a NaN, infinite, or negative `count`
  /// with kInvalidArgument, and any arrival while a service runs with
  /// kFailedPrecondition; either way nothing is ingested.
  Status IngestTemplatized(const TemplatizeOutput& templatized, Timestamp ts,
                           double count = 1.0);

  /// Re-clusters and re-trains if the maintenance period elapsed or the
  /// workload-shift trigger fired. Call as often as you like; cheap when
  /// nothing is due. `force` bypasses the period check.
  ///
  /// One pass, the body the service thread runs too, in three phases:
  /// exclusive housekeeping (eviction, compaction, clustering, selection),
  /// training a staged model copy under the *shared* lock (Forecast,
  /// ModeledClusters and Checkpoint proceed meanwhile), and an O(1)
  /// exclusive publish. Other writers may run between the phases; driven
  /// while the service's auto_maintenance is on, it may overlap the
  /// service's own pass, and nothing serializes the two.
  ///
  /// Safe while a checkpointing service runs: the service's next periodic
  /// write, or the final one at StopService, carries the pass's evictions
  /// and clusters. Don't race this against StartService/StopService.
  Status RunMaintenance(Timestamp now, bool force = false);

  /// A workload forecast: expected queries per forecasting interval for
  /// each modeled cluster, `horizon_seconds` from `now`.
  struct WorkloadForecast {
    std::vector<ClusterId> clusters;
    Vector queries_per_interval;  ///< parallel to `clusters`
    int64_t interval_seconds = 0;
  };
  /// FailedPrecondition when no models are trained, or when the published
  /// models name a cluster that re-clustering has since removed (until the
  /// next successful training round publishes).
  Result<WorkloadForecast> Forecast(Timestamp now, int64_t horizon_seconds) const;

  /// Deadline-bounded forecast (DESIGN.md §13): spends at most
  /// `budget_seconds` of wall time, degrading down the ladder instead of
  /// blocking — full model stack, then linear-only once the budget is
  /// nearly spent, then the precomputed history-average snapshot when even
  /// the state lock cannot be had in time (e.g. a writer is wedged holding
  /// it). Per-rung accounting in core.forecast_rung_*_total;
  /// `rung_used` (optional) reports the serving rung. A non-positive
  /// budget is unbounded (identical to the overload above).
  Result<WorkloadForecast> Forecast(Timestamp now, int64_t horizon_seconds,
                                    double budget_seconds,
                                    ForecastRung* rung_used = nullptr) const;

  /// The clusters currently modeled (top by volume under coverage_target).
  std::vector<ClusterId> ModeledClusters() const;

  /// Writes a crash-safe checkpoint of the whole pipeline (format v2,
  /// core/checkpoint.cc): the Pre-Processor's templates and histories, the
  /// Clusterer's centers/assignments/volumes, and the controller's
  /// maintenance state, each section CRC32-protected, committed with an
  /// atomic write-temp/fsync/rename so the previous checkpoint survives a
  /// crash at any point. Forecaster models are not persisted — Restore()
  /// retrains them from history (Table 4: cheap). `env == nullptr` means
  /// Env::Default(); tests pass a FaultInjectingEnv.
  Status Checkpoint(const std::string& path, Env* env = nullptr) const;

  /// Restores a pipeline from Checkpoint() output. Recovery ladder:
  /// `path` first, then `path.bak` (the rotated last-good checkpoint); a
  /// corrupt clusterer/controller section degrades to re-clustering from
  /// restored histories rather than failing the restore, and the forecaster
  /// is retrained from the restored state. `report` (optional) describes
  /// any degradation taken.
  static Result<QueryBot5000> Restore(const std::string& path, Config config,
                                      Env* env = nullptr,
                                      RestoreReport* report = nullptr);

  /// When maintenance last ran; meaningful only if maintenance_has_run().
  /// Unlocked by design (single-threaded setup/inspection only, like the
  /// component accessors below); concurrent callers must hold state_mu_
  /// through a public reader instead.
  Timestamp last_maintenance() const QB_NO_THREAD_SAFETY_ANALYSIS {
    return last_maintenance_;
  }
  bool maintenance_has_run() const QB_NO_THREAD_SAFETY_ANALYSIS {
    return last_maintenance_ != std::numeric_limits<Timestamp>::min();
  }

  // Component accessors. Deliberately unlocked — they hand out references
  // into guarded state for single-threaded setup and test inspection, so
  // they opt out of the analysis rather than pretend to a capability the
  // caller cannot name. Do not call them concurrently with mutators.
  const PreProcessor& preprocessor() const QB_NO_THREAD_SAFETY_ANALYSIS {
    return pre_;
  }
  /// Mutable access for bulk feeders (e.g. SyntheticWorkload::FeedAggregated).
  PreProcessor& mutable_preprocessor() QB_NO_THREAD_SAFETY_ANALYSIS {
    return pre_;
  }
  const OnlineClusterer& clusterer() const QB_NO_THREAD_SAFETY_ANALYSIS {
    return clusterer_;
  }
  const Forecaster& forecaster() const QB_NO_THREAD_SAFETY_ANALYSIS {
    return *forecaster_;
  }
  const Config& config() const { return config_; }

  /// This instance's metrics registry. Every pipeline component writes here
  /// (the constructor overrides any registry set in the component Options).
  /// Thread-safe: export concurrently with ingest/maintenance. DESIGN.md §10.
  MetricsRegistry& Metrics() const { return *metrics_; }
  /// This instance's tracer; records spans for the cold paths only
  /// (maintenance, forecast, checkpoint, restore — never per-query Ingest).
  Tracer& Trace() const { return *tracer_; }

 private:
  struct ArrivalChunk;
  struct ServiceState;

  /// Parses one checkpoint document (core/checkpoint.cc). `allow_degraded`
  /// permits recovering with a rebuilt clusterer / default controller state
  /// when those sections are unusable; a strict pass requires every section
  /// intact so the ladder can prefer a complete `.bak` over a salvage.
  static Result<QueryBot5000> RestoreFromData(const std::string& data,
                                              const Config& config,
                                              bool allow_degraded,
                                              RestoreReport& report);

  /// ModeledClusters body for callers already holding state_mu_
  /// (housekeeping holds it exclusively; SharedMutex is not recursive).
  /// The annotation is what lets Thread Safety Analysis prove the
  /// public/`...Locked()` split: the public reader acquires and delegates,
  /// and any unlocked call of the helper is a compile error under Clang.
  std::vector<ClusterId> ModeledClustersLocked() const
      QB_REQUIRES_SHARED(state_mu_);

  /// Controller checkpoint section (core/checkpoint.cc). A `...Locked()`
  /// member rather than a free function so Checkpoint() can serialize under
  /// the shared lock it already holds without a recursive acquisition.
  std::string SerializeControllerLocked() const QB_REQUIRES_SHARED(state_mu_);

  /// Shared Forecast body for the bounded and unbounded entry points;
  /// callers hold state_mu_ (shared suffices). Increments the full/linear
  /// rung counters; the fallback rung is the callers' business (it runs
  /// precisely when this body cannot).
  Result<WorkloadForecast> ForecastLocked(Timestamp now,
                                          int64_t horizon_seconds,
                                          const Deadline* deadline,
                                          ForecastRung* rung_used) const
      QB_REQUIRES_SHARED(state_mu_);

  /// Serves the degradation ladder's last rung from the published
  /// history-average snapshot. Never touches state_mu_ — this is what
  /// keeps bounded Forecasts answerable while a writer holds the state
  /// lock exclusively for seconds at a time.
  Result<WorkloadForecast> FallbackForecast() const;

  /// Recomputes and publishes the fallback snapshot for `clusters`.
  /// RunMaintenance calls it after cluster selection but *before*
  /// training, so even a training round that stalls or fails leaves a
  /// fresh snapshot behind.
  void RefreshFallbackLocked(const std::vector<ClusterId>& clusters,
                             Timestamp now) QB_REQUIRES_SHARED(state_mu_);

  /// The one maintenance due test: true when maintenance never ran, when
  /// the clock went backwards past the last pass, when the period elapsed,
  /// or when the new-template trigger fired.
  bool MaintenanceDueLocked(Timestamp now) const
      QB_REQUIRES_SHARED(state_mu_);

  /// Maintenance phases B–D: forward-clamped housekeeping (eviction,
  /// compaction), re-clustering, cluster selection + coverage gauges, and
  /// the fallback-snapshot refresh. Returns the clusters to model; empty ⇒
  /// nothing to model yet (last_maintenance_ already advanced).
  std::vector<ClusterId> MaintenanceHousekeepLocked(Timestamp now)
      QB_REQUIRES(state_mu_);

  /// Maintenance phase F: swaps the staged (freshly trained or rolled-back)
  /// model snapshot in as the published one and bumps the model epoch.
  void PublishModelsLocked(Forecaster&& staged) QB_REQUIRES(state_mu_);

  /// One unit of service work: drain the queue, then, only if that applied
  /// chunks, maintenance if due against the arrival clock and a checkpoint
  /// if due. True ⇒ chunks were applied. Runs on the service thread
  /// (background mode) or the DrainForTest caller (manual mode) — never
  /// both.
  bool ServiceRound();

  /// Applies one dequeued chunk through the batched-ingest path, then
  /// advances the arrival clock.
  void ApplyChunk(const ArrivalChunk& chunk);

  /// The service's maintenance trigger: a shared-lock due pre-check, then
  /// RunMaintenance at the arrival clock.
  void MaybeServiceMaintenance();

  /// The service's durability: one Checkpoint() each time the arrival
  /// clock crosses a checkpoint period.
  void MaybeCheckpoint();

  /// Returns `config` with every component Options pointed at `metrics`
  /// (the per-instance registry always wins over caller-set registries).
  static Config BindObservability(Config config, MetricsRegistry* metrics);

  /// Observability owners. Declared before the components so the
  /// constructor can bind the registry into their Options; shared_ptr keeps
  /// cached instrument pointers valid across controller moves.
  std::shared_ptr<MetricsRegistry> metrics_ =
      std::make_shared<MetricsRegistry>();
  std::shared_ptr<Tracer> tracer_ = std::make_shared<Tracer>();

  /// Guards pre_/clusterer_/forecaster_/last_maintenance_. Heap-allocated so
  /// the controller stays movable (Restore returns by value; moves happen
  /// only before any concurrent use). All annotations name the raw alias
  /// `state_mu_` — Thread Safety Analysis unifies raw-pointer capability
  /// expressions but cannot see through a unique_ptr dereference — and the
  /// alias survives moves because the heap mutex address is stable.
  std::unique_ptr<SharedMutex> state_mu_owner_ = std::make_unique<SharedMutex>(
      lock_level::kControllerState, "core.state");
  SharedMutex* state_mu_ = state_mu_owner_.get();  // non-const: keeps moves

  /// Resilience state (DESIGN.md §13), heap-allocated for the same
  /// movability reason as the state mutex: atomics and mutexes pin their
  /// addresses, and the controller must stay movable for Restore().
  /// `fallback_mu` is leaf-level so publishing under the exclusively-held
  /// state lock (maintenance) and reading with *no* state lock (the shed
  /// path of a bounded Forecast) are both legal acquisitions.
  struct ResilienceState {
    /// Model publications so far; written under the exclusive state lock,
    /// readable without any lock (monitoring, model_epoch()).
    std::atomic<uint64_t> model_epoch{0};  // lint:raw-atomic-ok (epoch)
    Mutex fallback_mu{lock_level::kLeaf, "core.fallback"};
    WorkloadForecast fallback QB_GUARDED_BY(fallback_mu);
    bool fallback_valid QB_GUARDED_BY(fallback_mu) = false;
  };
  std::unique_ptr<ResilienceState> resilience_ =
      std::make_unique<ResilienceState>();

  /// One EnqueueBatch call, copied into owned storage: producers may reuse
  /// their buffers the moment EnqueueBatch returns, so the SQL bytes are
  /// concatenated here and each item borrows a (offset, length) window.
  struct ArrivalChunk {
    struct Item {
      uint32_t offset = 0;
      uint32_t length = 0;
      Timestamp ts = 0;
      double count = 1.0;
    };
    std::string bytes;
    std::vector<Item> items;
  };

  /// Everything service mode owns. Fields below the queue are consumer-only
  /// state: touched by ServiceRound (on the service thread or the manual
  /// DrainForTest caller) and by StopService after the thread has joined.
  struct ServiceState {
    explicit ServiceState(ServiceOptions opts) : options(std::move(opts)) {}
    ServiceOptions options;
    ServiceThread thread;

    /// Producers push whole chunks; the consumer pops one per lock hold.
    /// Leaf-level: never held across another acquisition.
    Mutex queue_mu{lock_level::kLeaf, "core.queue"};
    std::deque<ArrivalChunk> queue QB_GUARDED_BY(queue_mu);

    /// High-watermark arrival timestamp — the service's virtual "now" for
    /// maintenance and checkpoint due-checks.
    Timestamp highwater = std::numeric_limits<Timestamp>::min();
    /// `highwater` at the last periodic write attempt; min() = none yet.
    Timestamp last_checkpoint = std::numeric_limits<Timestamp>::min();

    bool checkpointing() const {
      return !options.checkpoint_path.empty() &&
             options.checkpoint_period_seconds > 0;
    }
  };
  std::unique_ptr<ServiceState> service_;

  Config config_;
  PreProcessor pre_ QB_GUARDED_BY(state_mu_);
  OnlineClusterer clusterer_ QB_GUARDED_BY(state_mu_);
  /// The published model snapshot (DESIGN.md §14): immutable once swapped
  /// in, so a maintenance pass trains a *copy* off the exclusive lock and
  /// PublishModelsLocked replaces the pointer in O(1). Readers holding the
  /// shared lock dereference it for the duration of one forecast; the
  /// shared_ptr keeps a superseded snapshot alive until its last reader
  /// returns.
  std::shared_ptr<const Forecaster> forecaster_ QB_GUARDED_BY(state_mu_);
  Timestamp last_maintenance_ QB_GUARDED_BY(state_mu_) =
      std::numeric_limits<Timestamp>::min();

  // Controller instruments (owned by *metrics_; see DESIGN.md §10).
  Counter* maintenance_runs_total_ = nullptr;
  Counter* maintenance_skipped_total_ = nullptr;  ///< called but not due
  Counter* forecasts_total_ = nullptr;
  Counter* rung_full_total_ = nullptr;      ///< forecasts: full model stack
  Counter* rung_linear_total_ = nullptr;    ///< forecasts: linear-only rung
  Counter* rung_fallback_total_ = nullptr;  ///< forecasts: history average
  Gauge* coverage_gauge_ = nullptr;  ///< volume fraction covered by models
  Gauge* modeled_clusters_gauge_ = nullptr;
  Histogram* maintenance_seconds_ = nullptr;
  Histogram* forecast_seconds_ = nullptr;
  Histogram* lock_wait_seconds_ = nullptr;  ///< cold-path acquisitions only
  // Service health (DESIGN.md §14).
  Gauge* queue_depth_gauge_ = nullptr;   ///< queued chunks, exact
  Counter* queue_stalls_total_ = nullptr;  ///< EnqueueBatch hit a full queue
  Counter* bg_rounds_total_ = nullptr;   ///< service rounds that did work
  Gauge* model_epoch_gauge_ = nullptr;   ///< publications, mirrors epoch
};

}  // namespace qb5000
