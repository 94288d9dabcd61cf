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
#include "common/mpsc_queue.h"
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
/// RunMaintenance) take the state lock exclusively; readers (Forecast,
/// ModeledClusters, Checkpoint) take it shared, so forecasting and
/// checkpointing proceed concurrently with each other but never against a
/// mutation. The unlocked accessors (preprocessor(), mutable_preprocessor(),
/// ...) are for single-threaded setup and inspection only.
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
    /// Forward clock steps are tolerated up to maintenance_period plus this
    /// slack; a larger apparent gap between maintenance passes (an NTP
    /// step, a resumed VM) is treated as a clock jump and the housekeeping
    /// anchors (template eviction, history compaction) advance by only the
    /// tolerated amount, so a stepped clock cannot mass-evict live
    /// templates or compact fresh history (DESIGN.md §13).
    int64_t max_clock_step_seconds = kSecondsPerDay;
    /// Admission gate (DESIGN.md §13): Ingest/IngestBatch arrivals in
    /// flight may not exceed this backlog; excess arrivals are shed with
    /// kOverloaded (counted in core.sheds_total) for the caller to retry
    /// with backoff (common/retry.h). Generous by default — the gate
    /// exists to bound memory and lock convoys under ingest storms, not to
    /// police steady-state traffic. 0 turns the gate off (unbounded).
    size_t max_pending_arrivals = size_t{1} << 20;
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
  /// arrivals to EnqueueBatch, which copies them into a bounded lock-free
  /// ring and returns without ever touching the state lock; a dedicated
  /// background thread drains the ring, merges templates, runs maintenance
  /// when it falls due against the *arrival* clock (timestamps are virtual),
  /// trains on a staged model copy under a shared lock so Forecast stays
  /// concurrent, and publishes the result by pointer swap (model_epoch()
  /// counts publications). With a checkpoint path configured it also keeps
  /// durability incremental: arrival deltas accrue into `path + ".delta"`
  /// between periodic full-snapshot compactions, so neither training nor
  /// checkpointing ever stalls the producers.
  struct ServiceOptions {
    /// Ring capacity in enqueued chunks (one EnqueueBatch call = one
    /// chunk), rounded up to a power of two. A full ring makes EnqueueBatch
    /// return kOverloaded — the queue *is* the service-mode admission gate.
    size_t queue_capacity = 256;
    /// False runs no thread: work queues up until DrainForTest() applies it
    /// inline on the caller. That is the deterministic mode tests use for
    /// exact-count metric assertions; production wants the default.
    bool background = true;
    /// False leaves maintenance caller-driven (RunMaintenance), making the
    /// service a pure buffered-ingest layer — what the sync-equivalence
    /// tests compare, and what deployments owning their own maintenance
    /// schedule want. True runs maintenance from the drain loop whenever
    /// it falls due against the arrival clock; a failed pass is retried
    /// only after new work arrives, so an untrainable workload can never
    /// busy-loop the service thread.
    bool auto_maintenance = true;
    /// Incremental checkpointing (empty path disables it): the service
    /// rewrites `checkpoint_path + ".delta"` atomically once per
    /// `checkpoint_period_seconds` of virtual (arrival-clock) time, and
    /// compacts into a fresh full checkpoint every `compact_every`-th
    /// write. Restore() picks the delta up automatically.
    std::string checkpoint_path;
    int64_t checkpoint_period_seconds = 0;
    size_t compact_every = 16;
    /// Sharded drain width (DESIGN.md §14): number of DrainPool workers
    /// that run the off-lock prepare phases (normalize, hash-stripe
    /// sharding, speculative parse) of claimed chunks in parallel. 0 (the
    /// default) keeps the classic inline drain — the consumer prepares and
    /// merges each chunk itself. N >= 1 starts N workers at StartService;
    /// the consumer claims a bounded run of chunks from the ring, hands
    /// their preparation to the pool, and merges strictly in queue (pop)
    /// order — so template ids, histories, and exact counters stay
    /// bit-identical to the inline drain (and to synchronous ingest) at any
    /// width. Exported as the core.drain_workers gauge.
    size_t drain_workers = 0;
    Env* env = nullptr;  ///< filesystem seam; nullptr = Env::Default()
  };

  /// Starts service mode. Fails if the service is already running. Not
  /// thread-safe against other lifecycle calls or producers.
  Status StartService(ServiceOptions options);

  /// Drains the queue, stops the background thread (if any), flushes a
  /// final delta/full checkpoint when checkpointing is configured, and
  /// returns the controller to synchronous mode. Producers must have
  /// quiesced first (shutdown ordering, DESIGN.md §14). Returns the flush
  /// status; the service is torn down either way.
  Status StopService();

  /// Producer-side ingest for service mode: copies the arrivals (SQL bytes
  /// included) into one owned chunk and enqueues it. Lock-free: never takes
  /// state_mu_, never blocks on maintenance. kOverloaded (counted in
  /// core.queue_enqueue_stalls_total) means the ring is full — true
  /// backpressure, retryable with backoff. kFailedPrecondition when the
  /// service is not running.
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

  /// Ingests one query arriving at `ts`. Returns kOverloaded (without
  /// touching any state) when the admission gate's backlog bound is hit;
  /// that failure is retryable — see common/retry.h.
  Status Ingest(std::string_view sql, Timestamp ts, double count = 1.0);
  Status Ingest(const std::string& sql,  // lint:string-ref-ok
                Timestamp ts, double count = 1.0) {
    return Ingest(std::string_view(sql), ts, count);
  }
  Status Ingest(const char* sql, Timestamp ts, double count = 1.0) {
    return Ingest(std::string_view(sql), ts, count);
  }

  /// Batched, sharded ingest (DESIGN.md §11): normalize/parse phases run on
  /// the thread pool outside the state lock; the merge holds it exclusively
  /// once per batch instead of once per query. Returns the TemplateId per
  /// arrival (0 = rejected, counted in preprocessor.parse_failures_total).
  /// Bit-identical ids/histories/counters to per-query Ingest at any thread
  /// count for integer-valued counts. The whole batch is admitted or shed
  /// as a unit: kOverloaded (retryable, core.sheds_total) means no arrival
  /// in it was ingested.
  Result<std::vector<TemplateId>> IngestBatch(
      std::span<const QueryArrival> arrivals);

  /// Ingests an already-templatized arrival (bulk/generator path). Not
  /// admission-gated: generators feed synthetic volume deliberately and own
  /// their own pacing.
  void IngestTemplatized(const TemplatizeOutput& templatized, Timestamp ts,
                         double count = 1.0);

  /// Re-clusters and re-trains if the maintenance period elapsed or the
  /// workload-shift trigger fired. Call as often as you like; cheap when
  /// nothing is due. `force` bypasses the period check.
  ///
  /// Safe to drive directly while a service runs, incremental checkpointing
  /// included: the eviction cutoff a direct pass applies is published to
  /// the service consumer (a monotonic-max handoff), folded into the delta
  /// log before its next write, and replayed on restore — so a restore can
  /// never resurrect templates a caller-driven pass evicted. The usual
  /// lifecycle contract still applies: don't race this against
  /// StartService/StopService themselves.
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
  /// the state lock cannot be had in time (e.g. maintenance is mid-train
  /// or wedged). Per-rung accounting in core.forecast_rung_*_total;
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
  /// `deltas` (optional): delta-sidecar candidates in preference order; the
  /// first one that parses and whose base CRC matches `data` is replayed.
  static Result<QueryBot5000> RestoreFromData(
      const std::string& data, const Config& config, bool allow_degraded,
      RestoreReport& report, const std::vector<std::string>* deltas = nullptr);

  /// ModeledClusters body for callers already holding state_mu_
  /// (RunMaintenance holds it exclusively; SharedMutex is not recursive).
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
  /// keeps bounded Forecasts answerable while maintenance holds the state
  /// lock for seconds at a time.
  Result<WorkloadForecast> FallbackForecast() const;

  /// Recomputes and publishes the fallback snapshot for `clusters`.
  /// RunMaintenance calls it after cluster selection but *before*
  /// training, so even a training round that stalls or fails leaves a
  /// fresh snapshot behind.
  void RefreshFallbackLocked(const std::vector<ClusterId>& clusters,
                             Timestamp now) QB_REQUIRES_SHARED(state_mu_);

  /// Admission gate: reserves backlog for `n` arrivals. False = shed (the
  /// caller returns kOverloaded and counts core.sheds_total).
  bool AdmitArrivals(size_t n);
  void ReleaseArrivals(size_t n);

  /// Maintenance phase A: backwards clock re-anchor plus the due/trigger
  /// check. False ⇒ not due (skip counter bumped); true ⇒ the pass runs
  /// (runs counter bumped).
  bool MaintenanceDueLocked(Timestamp now, bool force) QB_REQUIRES(state_mu_);

  /// Maintenance phases B–D: forward-clamped housekeeping (eviction,
  /// compaction), re-clustering, cluster selection + coverage gauges, and
  /// the fallback-snapshot refresh. Returns the clusters to model; empty ⇒
  /// nothing to model yet (last_maintenance_ already advanced). The
  /// eviction cutoff used is reported through `evict_cutoff` (if non-null)
  /// so the service's delta checkpoint can replay it on restore.
  std::vector<ClusterId> MaintenanceHousekeepLocked(
      Timestamp now, Timestamp* evict_cutoff) QB_REQUIRES(state_mu_);

  /// Maintenance phase F: swaps the staged (freshly trained or rolled-back)
  /// model snapshot in as the published one and bumps the model epoch.
  void PublishModelsLocked(Forecaster&& staged) QB_REQUIRES(state_mu_);

  /// One unit of service work: drain the ring, then maintenance if due
  /// against the arrival clock, then a delta/full checkpoint if due. True ⇒
  /// something was done. Runs on the service thread (background mode) or
  /// the DrainForTest caller (manual mode) — never both.
  bool ServiceRound();

  /// Applies one dequeued chunk through the batched-ingest merge path and
  /// accrues the returned template ids into the delta log.
  void ApplyChunk(const ArrivalChunk& chunk);

  /// Rebuilds the borrowed QueryArrival views over a chunk's owned bytes.
  static std::vector<QueryArrival> ChunkViews(const ArrivalChunk& chunk);

  /// Consumer-side bookkeeping shared by the inline and sharded drains:
  /// highwater advance, delta-log accrual, dirty/chunks_applied.
  void RecordChunkApplied(const ArrivalChunk& chunk,
                          const std::vector<TemplateId>& ids);

  /// Sharded drain (DESIGN.md §14): repeatedly claims a bounded run of
  /// chunks — the retry stash first, then ring pops — preps them on the
  /// DrainPool, and merges in claim order. True ⇒ at least one run was
  /// claimed.
  bool DrainSharded();

  /// Preps and merges one claimed run. Returns the number of chunks merged;
  /// fewer than run.size() means the service.merge alloc-fail probe fired
  /// and the caller must stash the remainder for the next round.
  size_t ApplyRunSharded(std::span<ArrivalChunk> run);

  /// Satellite of the delta log: consumes any eviction cutoff published by
  /// direct RunMaintenance calls (ServiceState::external_evict_cutoff) into
  /// delta.evict_cutoff, marking the log dirty when it advanced.
  void FoldExternalEvictCutoff();

  /// Due check + the three-phase service maintenance pass (exclusive
  /// housekeeping, staged training under the *shared* lock, exclusive
  /// publish). True ⇒ a pass ran.
  bool MaybeServiceMaintenance();
  Status ServiceMaintenance(Timestamp now);

  /// Incremental durability (core/checkpoint.cc): rewrite the delta file,
  /// or compact to a full snapshot every compact_every-th write. True ⇒ a
  /// write was attempted.
  bool MaybeDeltaCheckpoint();
  Status WriteDeltaCheckpoint();   ///< path + ".delta", atomic old-or-new
  Status ServiceFullCheckpoint();  ///< full snapshot; rebases the delta log

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
    /// Arrivals currently admitted into Ingest/IngestBatch.
    std::atomic<int64_t> pending_arrivals{0};  // lint:raw-atomic-ok (gate)
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

  /// The arrival deltas accrued since the last *full* checkpoint. Owned by
  /// the service consumer (single-threaded by the ServiceThread contract);
  /// serialized by WriteDeltaCheckpoint (core/checkpoint.cc).
  struct DeltaLog {
    struct Arrival {
      TemplateId id = 0;
      Timestamp ts = 0;
      double count = 1.0;
    };
    std::vector<Arrival> arrivals;
    /// Template ids >= this were created after the full snapshot; the delta
    /// carries their shells (text/fingerprint/type) so replay can rebuild.
    TemplateId base_next_id = 1;
    /// CRC32 of the full-checkpoint file the delta builds on. Restore
    /// applies a delta only when this matches the snapshot it actually
    /// loaded — a crash between compaction steps degrades to old-or-new,
    /// never to a delta replayed onto the wrong base.
    uint32_t base_crc = 0;
    bool base_valid = false;
    /// Latest eviction cutoff maintenance used; replayed after the arrivals
    /// so restore does not resurrect templates the live process evicted.
    Timestamp evict_cutoff = std::numeric_limits<Timestamp>::min();
  };

  /// Everything service mode owns. Fields below the queue are consumer-only
  /// state: touched by ServiceRound (on the service thread or the manual
  /// DrainForTest caller) and by StopService after the thread has joined.
  struct ServiceState {
    explicit ServiceState(ServiceOptions opts)
        : options(std::move(opts)), queue(options.queue_capacity) {}
    ServiceOptions options;
    MpscRingQueue<ArrivalChunk> queue;
    ServiceThread thread;
    DrainPool pool;  ///< started iff options.drain_workers >= 1

    /// Chunks claimed from the ring whose merge was cut short (the
    /// service.merge alloc-fail chaos seam): re-applied, still in claim
    /// order, at the head of the next round's run before any new pops — so
    /// a failed merge round degrades to a retry, never to reordering or
    /// loss, and the previously published models keep serving meanwhile.
    std::deque<ArrivalChunk> retry;

    /// Eviction cutoff published by direct RunMaintenance calls while this
    /// checkpointing service runs (monotonic max; min() = none pending).
    /// The consumer folds it into delta.evict_cutoff before deciding each
    /// delta write, so restores replay caller-driven evictions too. Atomic
    /// because the caller publishes from its own thread (under the
    /// exclusive state lock) while the consumer folds without it.
    std::atomic<Timestamp> external_evict_cutoff{  // lint:raw-atomic-ok (cutoff handoff)
        std::numeric_limits<Timestamp>::min()};

    /// High-watermark arrival timestamp — the service's virtual "now" for
    /// maintenance and checkpoint due-checks.
    Timestamp highwater = std::numeric_limits<Timestamp>::min();
    Timestamp last_checkpoint = std::numeric_limits<Timestamp>::min();
    size_t deltas_since_full = 0;
    bool dirty = false;  ///< un-checkpointed work since the last write
    DeltaLog delta;

    /// Maintenance retry gate: chunks applied so far, and the value of that
    /// counter when maintenance was last *attempted*. A pass whose training
    /// failed leaves last_maintenance_ unmoved (still due), so without this
    /// gate an idle drain loop would re-attempt it forever; gating on new
    /// chunks retries exactly when new data could change the outcome.
    uint64_t chunks_applied = 0;
    uint64_t maintenance_attempt_chunks =
        std::numeric_limits<uint64_t>::max();

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
  Counter* sheds_total_ = nullptr;  ///< arrivals rejected by the gate
  Counter* rung_full_total_ = nullptr;      ///< forecasts: full model stack
  Counter* rung_linear_total_ = nullptr;    ///< forecasts: linear-only rung
  Counter* rung_fallback_total_ = nullptr;  ///< forecasts: history average
  Gauge* coverage_gauge_ = nullptr;  ///< volume fraction covered by models
  Gauge* modeled_clusters_gauge_ = nullptr;
  Histogram* maintenance_seconds_ = nullptr;
  Histogram* forecast_seconds_ = nullptr;
  Histogram* lock_wait_seconds_ = nullptr;  ///< cold-path acquisitions only
  // Service health (DESIGN.md §14).
  Gauge* queue_depth_gauge_ = nullptr;   ///< ring occupancy, approximate
  Counter* queue_stalls_total_ = nullptr;  ///< EnqueueBatch hit a full ring
  Counter* bg_rounds_total_ = nullptr;   ///< service rounds that did work
  Gauge* model_epoch_gauge_ = nullptr;   ///< publications, mirrors epoch
  Gauge* drain_workers_gauge_ = nullptr;  ///< configured width; 0 = inline
  Counter* drain_merge_waits_total_ = nullptr;  ///< ordered-merge head-of-line stalls
};

}  // namespace qb5000
