// Load generator for the end-to-end service benchmark (see README.md beside
// this file). It generates one workload's inputs from a seed, drives a
// QueryBot5000 through its public service API the way an embedding DBMS
// would (open-loop producer on EnqueueBatch, a paced planner on the bounded
// Forecast), checks the program's outputs, and writes the raw measurements
// as one JSON document. Statistics, the run stamp and the printed result
// are run.py's job.
//
//   servicebench --workload NAME --seed N --seconds S --trace 0|1
//                --out RESULT.json [--spans SPANS.json] --work-dir DIR
//                [--force]
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/io.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "core/qb5000.h"
#include "preprocessor/templatizer.h"
#include "workloads.h"

namespace servicebench {
namespace {

using qb5000::ForecastRung;
using qb5000::kSecondsPerDay;
using qb5000::kSecondsPerHour;
using qb5000::kSecondsPerMinute;
using qb5000::QueryArrival;
using qb5000::QueryBot5000;
using qb5000::Status;

constexpr size_t kChunk = 64;               ///< arrivals per EnqueueBatch
constexpr double kForecastBudget = 0.001;   ///< the bounded-Forecast budget
constexpr int kMinSetups = 3;               ///< set-ups per run (median)...
constexpr int kMaxSetups = 40;              ///< ...repeated while cheap
constexpr double kSetupBudget = 2.0;        ///< seconds of set-up to reach
constexpr int64_t kScoreOrigins = 72;       ///< hourly forecast origins
constexpr double kPollSeconds = 200e-6;     ///< producer counter poll
/// After sending a chunk the producer reads the counter without sleeping
/// for this long, so a chunk applied within it is timed to the read, not
/// to the end of a 200 µs sleep. It spans template-churn's main mode of
/// about 1 ms, so the median chunk is always timed to a read.
constexpr double kSpinSeconds = 0.003;
constexpr double kWakeAheadSeconds = 0.001;  ///< fine polling before a due time
constexpr double kBurstRetrySeconds = 0.002;  ///< full-ring retry in the burst
constexpr double kDrainTimeout = 120.0;     ///< give up waiting (seconds)
constexpr size_t kFeedBatch = 4096;         ///< warm-up IngestBatch size
constexpr uint64_t kCountsSeed = 20180610;  ///< fixed rate-process draws

/// One workload: the arrival model plus the only options the benchmark sets
/// (forecaster model and horizons, checkpoint path and period, and the size
/// of the process-wide thread pool). Every other option is the library
/// default, so a PR that changes a default is measured here.
struct WorkloadSpec {
  const char* name;
  qb5000::ModelKind model;
  std::vector<int64_t> horizons;
  /// qb5000::SetThreadCount. The default pool has one thread per vCPU; on a
  /// shared host a vCPU the hypervisor takes away then stalls every
  /// parallel region a pool worker holds a task of, so the drain and
  /// training ran several times slower in some runs than in others. The
  /// benchmark gives the library the pool an embedding DBMS would leave it
  /// beside its own threads.
  size_t threads;
  double offered_qps;          ///< open-loop window rate (arrivals / s)
  double arrivals_per_day;     ///< virtual-time density of the trace
  int64_t warmup_days;         ///< history fed before the service starts
  int64_t aggregate_step;      ///< step of aggregated history feeds
  size_t burst_arrivals;       ///< length of one closed-loop burst
  int bursts;                  ///< bursts per run (capacity is their median)
  int64_t checkpoint_period;   ///< delta checkpoint period, virtual seconds
  /// Forecast cadence, wall seconds. A bounded Forecast holds the state
  /// reader lock while it predicts, so a chunk that arrives meanwhile waits
  /// for it at merge; the cadence keeps that lock duty near 5%, as a planner
  /// forecasting per tuning decision would, so the median chunk does not
  /// sit on the knee between waiting and not waiting.
  double planner_period;
  bool exact_template_count;   ///< live templates == generated templates
};

const WorkloadSpec kSpecs[] = {
    // Release churn over a few hundred live templates whose statement shapes
    // outnumber the template cache: a steady share of arrivals reaches the
    // parser, and the daily maintenance passes (about one per four wall
    // seconds) re-cluster every template. The 31-day warm-up gives the
    // long-lived families full feature coverage, the kd-tree probe path.
    // The drain, the checkpoints and the clusterer run inline on the service
    // thread (one-thread pool), busy about 15% of the window at this rate;
    // at 10k q/s chunks queued behind one another after stalls when the
    // host was busy, and the median applied latency moved with it. Each
    // burst spans 2.5 virtual days, so it defers a maintenance pass with new
    // templates and a checkpoint.
    {"template-churn", qb5000::ModelKind::kLr, {kSecondsPerHour}, 1, 6000.0,
     40000.0, 31, kSecondsPerHour, 100000, 5, 3 * kSecondsPerHour, 0.020,
     false},
    // HYBRID retraining on a 21-day window at a low arrival rate: training
    // on the service thread (with one pool worker) dominates and interferes
    // with ingest. The rate keeps a full ring (16384 arrivals, 5.9 s) longer
    // than one retrain (about 4 s); the density puts one retrain in the
    // window and one in each 5-virtual-day burst.
    {"retrain-heavy", qb5000::ModelKind::kHybrid,
     {kSecondsPerHour, 12 * kSecondsPerHour, kSecondsPerDay}, 2, 2800.0,
     40000.0, 22, kSecondsPerMinute, 200000, 3, 6 * kSecondsPerHour, 0.010,
     true},
};

// --- clocks and process stats ----------------------------------------------

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

/// Progress line on stderr with the benchmark clock.
void Log(const std::string& what) {
  std::fprintf(stderr, "[%8.3f] %s\n", Now(), what.c_str());
}

void SleepFor(double seconds) {
  if (seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

/// Aggregate CPU jiffies from /proc/stat: {steal, total}. The share of
/// CPU the hypervisor gave to other guests while the timed phases ran
/// tells a run on a contended host from a run of a slower program.
std::pair<uint64_t, uint64_t> StealJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t total = 0, steal = 0;
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    in >> v;
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

/// A /proc/self/status field in MB (e.g. VmRSS).
double ProcStatusMb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Resets the process's peak RSS (VmHWM) to its current RSS, so that VmHWM
/// read later is the peak since now. False if the kernel refused.
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

// --- spans -------------------------------------------------------------------

/// Small per-thread ids for span records (0 = the producer / main thread,
/// which asks first).
uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t index = next.fetch_add(1);
  return index;
}

/// In-memory span store, written out when the run ends. Benchmark spans
/// carry the chunk or forecast sequence number; program spans keep the
/// program's own id and parent.
class SpanLog {
 public:
  struct Span {
    std::string name;
    uint64_t seq = 0;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint32_t thread = 0;
    double start = 0.0;
    double end = 0.0;
  };

  void Record(std::string name, uint64_t seq, double start, double end,
              uint64_t id = 0, uint64_t parent = 0) {
    Span s{std::move(name), seq, id, parent, ThreadIndex(), start, end};
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }

  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Receives the program's own cold-path spans (maintenance and its phases,
/// checkpoint serialize/io/delta, forecast) through Trace().SetSink. Called
/// on the emitting thread, so the end time is read here on the benchmark's
/// clock and the start derived from the span's duration.
class ProgramSink : public qb5000::SpanSink {
 public:
  explicit ProgramSink(SpanLog* log) : log_(log) {}
  void OnSpanEnd(const qb5000::SpanRecord& span) override {
    double end = Now();
    log_->Record(span.name, 0, end - span.duration_seconds, end, span.id,
                 span.parent_id);
  }

 private:
  SpanLog* log_;
};

// --- counting Env --------------------------------------------------------------

/// Forwards to Env::Default() and counts what the durability layer does:
/// files opened, bytes appended, syncs and time in them, renames. With a
/// span log attached every file operation is also a span.
class CountingEnv : public qb5000::Env {
 public:
  struct Counts {
    std::atomic<uint64_t> opened{0};
    std::atomic<uint64_t> appended_bytes{0};
    std::atomic<uint64_t> syncs{0};
    std::atomic<uint64_t> sync_ns{0};
    std::atomic<uint64_t> renames{0};
  };

  void set_span_log(SpanLog* log) {
    log_.store(log, std::memory_order_release);
  }
  const Counts& counts() const { return counts_; }

  qb5000::Result<std::unique_ptr<qb5000::WritableFile>> NewWritableFile(
      const std::string& path) override {
    double t = Now();
    auto file = base_->NewWritableFile(path);
    Span("env/open", t);
    if (!file.ok()) return file.status();
    counts_.opened.fetch_add(1, std::memory_order_relaxed);
    return std::unique_ptr<qb5000::WritableFile>(
        std::make_unique<File>(this, std::move(file.value())));
  }
  qb5000::Result<std::unique_ptr<qb5000::ReadableFile>> NewReadableFile(
      const std::string& path) override {
    double t = Now();
    auto file = base_->NewReadableFile(path);
    Span("env/open_read", t);
    if (file.ok()) counts_.opened.fetch_add(1, std::memory_order_relaxed);
    return file;
  }
  qb5000::Result<std::unique_ptr<qb5000::RandomAccessFile>>
  NewRandomAccessFile(const std::string& path) override {
    return base_->NewRandomAccessFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    double t = Now();
    Status st = base_->RenameFile(from, to);
    Span("env/rename", t);
    counts_.renames.fetch_add(1, std::memory_order_relaxed);
    return st;
  }
  Status DeleteFile(const std::string& path) override {
    double t = Now();
    Status st = base_->DeleteFile(path);
    Span("env/delete", t);
    return st;
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }

 private:
  class File : public qb5000::WritableFile {
   public:
    File(CountingEnv* env, std::unique_ptr<qb5000::WritableFile> base)
        : env_(env), base_(std::move(base)) {}
    Status Append(std::string_view data) override {
      double t = Now();
      Status st = base_->Append(data);
      env_->Span("env/append", t);
      env_->counts_.appended_bytes.fetch_add(data.size(),
                                             std::memory_order_relaxed);
      return st;
    }
    Status Flush() override {
      double t = Now();
      Status st = base_->Flush();
      env_->Span("env/flush", t);
      return st;
    }
    Status Sync() override {
      double t = Now();
      Status st = base_->Sync();
      double end = env_->Span("env/sync", t);
      env_->counts_.syncs.fetch_add(1, std::memory_order_relaxed);
      env_->counts_.sync_ns.fetch_add(
          static_cast<uint64_t>((end - t) * 1e9), std::memory_order_relaxed);
      return st;
    }
    Status Close() override {
      double t = Now();
      Status st = base_->Close();
      env_->Span("env/close", t);
      return st;
    }

   private:
    CountingEnv* env_;
    std::unique_ptr<qb5000::WritableFile> base_;
  };

  /// Records a span from `start` to now when tracing; returns now.
  double Span(const char* name, double start) {
    double end = Now();
    SpanLog* log = log_.load(std::memory_order_acquire);
    if (log != nullptr) log->Record(name, 0, start, end);
    return end;
  }

  qb5000::Env* base_ = qb5000::Env::Default();
  std::atomic<SpanLog*> log_{nullptr};
  Counts counts_;
};

// --- inputs ------------------------------------------------------------------

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

struct Inputs {
  Generator gen;
  double scale = 1.0;
  Timestamp warm_end = 0;
  std::vector<Aggregate> warmup;
  std::vector<Arrival> window;
  std::vector<std::vector<Arrival>> bursts;  ///< consecutive in virtual time
  Timestamp burst_end = 0;      ///< newest arrival timestamp of the bursts
  Timestamp score_origin = 0;   ///< first hourly forecast origin
  std::vector<Aggregate> tail;  ///< held-out history after the bursts
  size_t templates_generated = 0;  ///< distinct templates before the tail
  uint64_t digest = 1469598103934665603ULL;
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  Inputs in;
  if (std::string(spec.name) == "retrain-heavy") {
    in.gen = Generator::Admissions(seed, 512);
  } else {
    in.gen = Generator::Churn(seed);
  }
  in.warm_end = spec.warmup_days * kSecondsPerDay;
  in.scale = spec.arrivals_per_day * static_cast<double>(spec.warmup_days) /
             in.gen.Expected(0, in.warm_end);
  // The arrival timestamps (the rate process the clusterer and the
  // forecaster learn from) are the workload's own and the same for every
  // seed; the seed draws the statement literals and the variant each
  // arrival uses. Seeds therefore measure one forecasting problem over
  // different bytes, and maintenance falls at the same virtual times.
  Rng counts(kCountsSeed);
  Rng rng(seed * 1000003ULL + 7);
  in.gen.EmitAggregated(0, in.warm_end, spec.aggregate_step, in.scale, counts,
                        &in.warmup);
  // A bulk history import goes template by template.
  std::stable_sort(in.warmup.begin(), in.warmup.end(),
                   [&](const Aggregate& a, const Aggregate& b) {
                     return in.gen.TemplateOf(a.stmt) < in.gen.TemplateOf(b.stmt);
                   });
  auto window_n = static_cast<size_t>(std::llround(spec.offered_qps * seconds));
  window_n = std::max(kChunk, window_n / kChunk * kChunk);
  constexpr Timestamp kFar = 3650 * kSecondsPerDay;
  Timestamp next = in.gen.Emit(in.warm_end, in.warm_end + kFar, in.scale,
                               window_n, counts, rng, &in.window);
  size_t burst_n = std::max(kChunk, spec.burst_arrivals / kChunk * kChunk);
  in.bursts.resize(static_cast<size_t>(spec.bursts));
  for (std::vector<Arrival>& burst : in.bursts) {
    next = in.gen.Emit(next, next + kFar, in.scale, burst_n, counts, rng,
                       &burst);
  }
  in.burst_end = in.bursts.back().back().ts;
  in.score_origin = qb5000::AlignDown(in.burst_end, kSecondsPerHour) +
                    kSecondsPerHour;
  int64_t max_h = *std::max_element(spec.horizons.begin(), spec.horizons.end());
  Timestamp tail_end =
      in.score_origin + (kScoreOrigins - 1) * kSecondsPerHour + max_h;
  in.gen.EmitAggregated(
      qb5000::AlignDown(in.burst_end, kSecondsPerMinute) + kSecondsPerMinute,
      in.score_origin, kSecondsPerMinute, in.scale, counts, &in.tail);
  in.gen.EmitAggregated(in.score_origin, tail_end, spec.aggregate_step,
                        in.scale, counts, &in.tail);

  std::vector<bool> seen(in.gen.num_templates(), false);
  for (const Aggregate& a : in.warmup) seen[in.gen.TemplateOf(a.stmt)] = true;
  for (const Arrival& a : in.window) seen[in.gen.TemplateOf(a.stmt)] = true;
  for (const std::vector<Arrival>& burst : in.bursts) {
    for (const Arrival& a : burst) seen[in.gen.TemplateOf(a.stmt)] = true;
  }
  in.templates_generated =
      static_cast<size_t>(std::count(seen.begin(), seen.end(), true));

  uint64_t h = in.digest;
  for (const std::string& s : in.gen.pool()) {
    uint64_t n = s.size();
    h = Fnv(h, &n, sizeof n);
    h = Fnv(h, s.data(), s.size());
  }
  for (const auto* v : {&in.warmup, &in.tail}) {
    for (const Aggregate& a : *v) {
      h = Fnv(h, &a.ts, sizeof a.ts);
      h = Fnv(h, &a.stmt, sizeof a.stmt);
      h = Fnv(h, &a.count, sizeof a.count);
    }
  }
  std::vector<const std::vector<Arrival>*> traces = {&in.window};
  for (const std::vector<Arrival>& burst : in.bursts) traces.push_back(&burst);
  for (const auto* v : traces) {
    for (const Arrival& a : *v) {
      h = Fnv(h, &a.ts, sizeof a.ts);
      h = Fnv(h, &a.stmt, sizeof a.stmt);
    }
  }
  in.digest = h;
  return in;
}

// --- result document ----------------------------------------------------------

/// Minimal JSON object writer: keys in insertion order, numbers with full
/// precision.
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    Key(key);
    if (std::isfinite(v)) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out_ << buf;
    } else {
      out_ << "null";
    }
    return *this;
  }
  Json& Int(const std::string& key, uint64_t v) {
    Key(key);
    out_ << v;
    return *this;
  }
  Json& Bool(const std::string& key, bool v) {
    Key(key);
    out_ << (v ? "true" : "false");
    return *this;
  }
  Json& Str(const std::string& key, const std::string& v) {
    Key(key);
    out_ << '"';
    for (char c : v) {
      if (c == '"' || c == '\\') out_ << '\\';
      if (static_cast<unsigned char>(c) < 0x20) {
        out_ << ' ';
      } else {
        out_ << c;
      }
    }
    out_ << '"';
    return *this;
  }
  Json& Raw(const std::string& key, const std::string& json) {
    Key(key);
    out_ << json;
    return *this;
  }
  Json& Array(const std::string& key, const std::vector<double>& v) {
    Key(key);
    out_ << '[';
    char buf[40];
    for (size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.9g", v[i]);
      out_ << (i ? "," : "") << buf;
    }
    out_ << ']';
    return *this;
  }
  std::string Done() { return "{" + out_.str() + "}"; }

 private:
  void Key(const std::string& key) {
    out_ << (first_ ? "" : ",") << '"' << key << "\":";
    first_ = false;
  }
  std::ostringstream out_;
  bool first_ = true;
};

// --- the run -----------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool force = false;
  std::string out;
  std::string spans;
  std::string work_dir;
};

/// Raw measurements plus check outcomes; serialized by WriteResult.
struct Measured {
  std::vector<double> setup_s;
  double window_start = 0, window_end = 0;   ///< benchmark clock
  std::vector<double> applied_s;             ///< per accepted chunk
  std::vector<double> late_s;                ///< generator lateness
  std::vector<double> enqueue_s;             ///< accepted EnqueueBatch calls
  uint64_t enqueue_refusals = 0;
  uint64_t queue_depth_max = 0;              ///< chunks sent, not applied
  std::vector<double> forecast_s;
  uint64_t rung_full = 0, rung_linear = 0, rung_fallback = 0;
  uint64_t chunks_attempted = 0, chunks_failed = 0;
  uint64_t forecasts_attempted = 0, forecasts_failed = 0;
  uint64_t window_arrivals = 0;              ///< accepted in the window
  double window_cpu_s = 0;                   ///< whole process
  /// The producer's and the planner's own CPU in the window, outside their
  /// EnqueueBatch and Forecast calls (spinning, polling, sleeping).
  double producer_cpu_s = 0, planner_cpu_s = 0;
  /// Per burst: its arrivals, seconds from its first enqueue until all
  /// were applied and until the service was idle again, and the program's
  /// CPU seconds over the latter (process CPU minus the producer's).
  std::vector<double> burst_arrivals, burst_drain_s, burst_s, burst_cpu_s;
  double rss_after_inputs_mb = 0;
  double peak_rss_mb = 0;  ///< VmHWM over the window, minus the above
  uint64_t steal_jiffies = 0, total_jiffies = 0;  ///< window and bursts
  double log_mse = 0;
  uint64_t scored = 0;
  std::string registry_window_start, registry_window_end, registry_end;
  uint64_t env_opened = 0, env_bytes = 0, env_syncs = 0, env_renames = 0;
  double env_sync_s = 0;
  double parse_s = 0;  ///< traced only: Templatize seconds per statement
  std::vector<std::string> forecast_errors;  ///< first few, verbatim
  std::vector<std::string> failures;  ///< failed output checks
};

/// Everything the producer tracks while the open-loop window runs.
class Producer {
 public:
  Producer(QueryBot5000& bot, const Inputs& in, SpanLog* log, Measured& m)
      : bot_(bot), in_(in), log_(log), m_(m) {
    ingests_ = bot.Metrics().GetCounter("preprocessor.ingests_total");
  }

  std::atomic<Timestamp>& latest_ts() { return latest_ts_; }

  /// Open loop: chunk i is due at start + i * 64 / rate whatever happened
  /// to chunk i-1; kOverloaded is retried with the documented backoff.
  void RunWindow(double rate) {
    const std::vector<Arrival>& trace = in_.window;
    size_t chunks = trace.size() / kChunk;
    base_ = ingests_->value();
    double interval = static_cast<double>(kChunk) / rate;
    double start = Now();
    double prev_done = start;
    std::vector<QueryArrival> batch;
    double cpu0 = ThreadCpuSeconds();
    enqueue_cpu_s_ = 0.0;
    for (size_t i = 0; i < chunks; ++i) {
      double due = start + static_cast<double>(i) * interval;
      for (;;) {
        double now = Poll();
        if (now >= due) break;
        // Read the counter without sleeping for kSpinSeconds after a send,
        // poll finely while a sent chunk waits to be applied and in the
        // last kWakeAheadSeconds before this chunk is due (a long sleep
        // wakes late); otherwise sleep until then.
        bool waiting = head_ < pending_.size();
        if (waiting && now - prev_done < kSpinSeconds) continue;
        bool fine = waiting || due - now <= kWakeAheadSeconds;
        SleepFor(fine ? std::min(due - now, kPollSeconds)
                      : due - now - kWakeAheadSeconds);
      }
      double attempt = Now();
      m_.late_s.push_back(attempt - std::max(due, prev_done));
      Fill(trace, i, &batch);
      ++m_.chunks_attempted;
      qb5000::RetryOptions retry;
      retry.sleep = [this](double s) { PollFor(s); };
      Status st = qb5000::RetryWithBackoff(
          [&] { return Enqueue(batch, i); }, retry);
      prev_done = Now();
      if (!st.ok()) {
        ++m_.chunks_failed;
        continue;
      }
      latest_ts_.store(batch.back().ts, std::memory_order_release);
      sent_ += kChunk;
      pending_.push_back({sent_, due, i});
      m_.queue_depth_max =
          std::max<uint64_t>(m_.queue_depth_max, pending_.size() - head_);
    }
    m_.window_arrivals = sent_;
    WaitApplied();
    m_.producer_cpu_s = ThreadCpuSeconds() - cpu0 - enqueue_cpu_s_;
  }

  /// Closed loop: keep the ring full until every arrival of `trace` is
  /// sent and applied, then wait until the service is idle: the full ring
  /// deferred a maintenance pass and a checkpoint (ServiceRound drains
  /// while the ring is non-empty), which the burst's time includes.
  void RunBurst(const std::vector<Arrival>& trace) {
    size_t chunks = trace.size() / kChunk;
    uint64_t base = ingests_->value();
    uint64_t total = chunks * kChunk;
    std::vector<QueryArrival> batch;
    double cpu0 = ProcessCpuSeconds() - ThreadCpuSeconds();
    double start = Now();
    for (size_t i = 0; i < chunks; ++i) {
      Fill(trace, i, &batch);
      for (;;) {
        Status st = bot_.EnqueueBatch(batch);
        if (st.ok()) break;
        if (st.code() != qb5000::StatusCode::kOverloaded ||
            Now() - start > kDrainTimeout) {
          m_.failures.push_back("burst enqueue failed: " + st.ToString());
          return;
        }
        // A full ring holds over ten milliseconds of drain work, so this
        // sleep keeps it full without taking CPU from the drain.
        SleepFor(kBurstRetrySeconds);
      }
    }
    while (ingests_->value() - base < total) {
      if (Now() - start > kDrainTimeout) {
        m_.failures.push_back("burst arrivals were not applied in time");
        return;
      }
      SleepFor(kBurstRetrySeconds);
    }
    double drained = Now() - start;
    bot_.DrainForTest();
    double idle = Now() - start;
    double cpu = ProcessCpuSeconds() - ThreadCpuSeconds() - cpu0;
    uint64_t applied = ingests_->value() - base;
    if (applied != total) {
      m_.failures.push_back("burst: applied " + std::to_string(applied) +
                            " != sent " + std::to_string(total));
      return;
    }
    m_.burst_arrivals.push_back(static_cast<double>(total));
    m_.burst_drain_s.push_back(drained);
    m_.burst_s.push_back(idle);
    m_.burst_cpu_s.push_back(cpu);
  }

  /// Counts the arrivals the service applied since the window began.
  uint64_t applied() const { return ingests_->value() - base_; }

 private:
  struct Pending {
    uint64_t cum;  ///< accepted arrivals through this chunk
    double due;
    uint64_t seq;
  };

  void Fill(const std::vector<Arrival>& trace, size_t chunk,
            std::vector<QueryArrival>* batch) const {
    batch->clear();
    for (size_t k = chunk * kChunk; k < (chunk + 1) * kChunk; ++k) {
      batch->push_back({in_.gen.pool()[trace[k].stmt], trace[k].ts, 1.0});
    }
  }

  Status Enqueue(const std::vector<QueryArrival>& batch, uint64_t seq) {
    double cpu = ThreadCpuSeconds();
    double t = Now();
    Status st = bot_.EnqueueBatch(batch);
    double end = Now();
    enqueue_cpu_s_ += ThreadCpuSeconds() - cpu;
    if (st.ok()) {
      m_.enqueue_s.push_back(end - t);
      if (log_ != nullptr) log_->Record("bench/enqueue", seq, t, end);
    } else {
      if (st.code() == qb5000::StatusCode::kOverloaded) ++m_.enqueue_refusals;
      if (log_ != nullptr) log_->Record("bench/enqueue_refused", seq, t, end);
    }
    return st;
  }

  /// Marks every pending chunk the exact ingest counter now covers as
  /// applied; returns the poll time.
  double Poll() {
    double now = Now();
    uint64_t applied = ingests_->value() - base_;
    while (head_ < pending_.size() && applied >= pending_[head_].cum) {
      const Pending& p = pending_[head_];
      m_.applied_s.push_back(now - p.due);
      if (log_ != nullptr) log_->Record("bench/chunk", p.seq, p.due, now);
      ++head_;
    }
    return now;
  }

  void PollFor(double seconds) {
    double until = Now() + seconds;
    for (double now = Poll(); now < until; now = Poll()) {
      SleepFor(std::min(until - now, kPollSeconds));
    }
  }

  void WaitApplied() {
    double start = Now();
    while (head_ < pending_.size()) {
      if (Poll() - start > kDrainTimeout) {
        m_.failures.push_back("window arrivals were not applied in time");
        return;
      }
      SleepFor(kPollSeconds);
    }
  }

  QueryBot5000& bot_;
  const Inputs& in_;
  SpanLog* log_;
  Measured& m_;
  qb5000::Counter* ingests_ = nullptr;  ///< exact applied-arrival count
  uint64_t base_ = 0;
  uint64_t sent_ = 0;
  double enqueue_cpu_s_ = 0.0;  ///< thread CPU inside EnqueueBatch
  std::vector<Pending> pending_;
  size_t head_ = 0;
  std::atomic<Timestamp> latest_ts_{0};
};

/// Planner: `count` bounded Forecasts, the k-th due `k` periods after the
/// start (a late one runs at once), cycling through the configured
/// horizons. The count is fixed so every run attempts the same operations.
void RunPlanner(const QueryBot5000& bot, const WorkloadSpec& spec,
                const std::atomic<Timestamp>& latest_ts, uint64_t count,
                SpanLog* log, Measured& m) {
  double start = Now();
  double cpu0 = ThreadCpuSeconds();
  double forecast_cpu = 0.0;
  for (uint64_t k = 0; k < count; ++k) {
    SleepFor(start + static_cast<double>(k) * spec.planner_period - Now());
    int64_t horizon = spec.horizons[k % spec.horizons.size()];
    Timestamp now_ts = latest_ts.load(std::memory_order_acquire);
    ForecastRung rung = ForecastRung::kFull;
    double cpu = ThreadCpuSeconds();
    double t = Now();
    auto f = bot.Forecast(now_ts, horizon, kForecastBudget, &rung);
    double end = Now();
    forecast_cpu += ThreadCpuSeconds() - cpu;
    ++m.forecasts_attempted;
    if (log != nullptr) log->Record("bench/forecast", k, t, end);
    if (!f.ok()) {
      ++m.forecasts_failed;
      if (m.forecast_errors.size() < 8) {
        m.forecast_errors.push_back(f.status().ToString());
      }
    } else {
      m.forecast_s.push_back(end - t);
      if (rung == ForecastRung::kFull) ++m.rung_full;
      if (rung == ForecastRung::kLinearOnly) ++m.rung_linear;
      if (rung == ForecastRung::kFallback) ++m.rung_fallback;
    }
  }
  m.planner_cpu_s = ThreadCpuSeconds() - cpu0 - forecast_cpu;
}

/// Feeds aggregated history through IngestBatch, as a bulk importer would.
bool Feed(QueryBot5000& bot, const Inputs& in,
          const std::vector<Aggregate>& rows, size_t from, size_t to,
          Measured& m) {
  std::vector<QueryArrival> batch;
  for (size_t i = from; i < to; i += kFeedBatch) {
    batch.clear();
    for (size_t k = i; k < std::min(to, i + kFeedBatch); ++k) {
      batch.push_back({in.gen.pool()[rows[k].stmt], rows[k].ts, rows[k].count});
    }
    auto ids = bot.IngestBatch(batch);
    if (!ids.ok()) {
      m.failures.push_back("IngestBatch: " + ids.status().ToString());
      return false;
    }
    if (std::count(ids->begin(), ids->end(), 0) != 0) {
      m.failures.push_back("IngestBatch rejected a generated statement");
      return false;
    }
  }
  return true;
}

void RemoveCheckpointFiles(const std::string& path) {
  for (const char* suffix : {"", ".bak", ".tmp", ".delta", ".delta.bak",
                             ".delta.tmp"}) {
    std::remove((path + suffix).c_str());
  }
}

QueryBot5000::Config MakeConfig(const WorkloadSpec& spec) {
  QueryBot5000::Config config;
  config.forecaster.kind = spec.model;
  config.horizons = spec.horizons;
  return config;
}

/// Construct, import the warm-up history, first maintenance pass,
/// StartService, first full-rung forecast.
std::unique_ptr<QueryBot5000> SetUp(const WorkloadSpec& spec,
                                    const Inputs& in,
                                    const QueryBot5000::ServiceOptions& svc,
                                    Measured& m) {
  double t = Now();
  auto bot = std::make_unique<QueryBot5000>(MakeConfig(spec));
  if (!Feed(*bot, in, in.warmup, 0, in.warmup.size(), m)) return nullptr;
  Log("set-up: history imported");
  Status st = bot->RunMaintenance(in.warm_end, /*force=*/true);
  Log("set-up: first maintenance done");
  if (!st.ok()) {
    m.failures.push_back("first maintenance: " + st.ToString());
    return nullptr;
  }
  st = bot->StartService(svc);
  if (!st.ok()) {
    m.failures.push_back("StartService: " + st.ToString());
    return nullptr;
  }
  ForecastRung rung = ForecastRung::kFallback;
  auto f = bot->Forecast(in.warm_end, spec.horizons.front(), 0.0, &rung);
  if (!f.ok() || rung != ForecastRung::kFull) {
    m.failures.push_back("first forecast was not served by the full model");
    return nullptr;
  }
  m.setup_s.push_back(Now() - t);
  return bot;
}

/// Restore from the final checkpoint plus its .delta sidecar must reproduce
/// the live template set and every template's history total.
void CheckRestore(const QueryBot5000& live, const WorkloadSpec& spec,
                  const std::string& path, qb5000::Env* env, Measured& m) {
  auto restored = QueryBot5000::Restore(path, MakeConfig(spec), env);
  if (!restored.ok()) {
    m.failures.push_back("Restore: " + restored.status().ToString());
    return;
  }
  const qb5000::PreProcessor& a = live.preprocessor();
  const qb5000::PreProcessor& b = restored->preprocessor();
  if (a.num_templates() != b.num_templates()) {
    m.failures.push_back("restored template count " +
                         std::to_string(b.num_templates()) + " != live " +
                         std::to_string(a.num_templates()));
    return;
  }
  for (qb5000::TemplateId id : a.TemplateIds()) {
    const auto* x = a.GetTemplate(id);
    const auto* y = b.GetTemplate(id);
    if (y == nullptr ||
        std::abs(x->history.Total() - y->history.Total()) >
            1e-9 * std::max(1.0, x->history.Total())) {
      m.failures.push_back("restored history total differs for template " +
                           std::to_string(id));
      return;
    }
  }
}

/// Forecasts every horizon at kScoreOrigins hourly origins while the
/// held-out tail is ingested, then scores each modeled cluster against its
/// realized volume in the target interval (log-space MSE, as the paper).
void Score(QueryBot5000& bot, const WorkloadSpec& spec, const Inputs& in,
           Measured& m) {
  struct Pending {
    qb5000::ClusterId cluster;
    Timestamp target_end;
    int64_t interval;
    double predicted;
  };
  std::vector<Pending> pending;
  size_t next = 0;
  auto ingest_until = [&](Timestamp ts) {
    size_t end = next;
    while (end < in.tail.size() && in.tail[end].ts < ts) ++end;  // step order
    bool ok = Feed(bot, in, in.tail, next, end, m);
    next = end;
    return ok;
  };
  for (int64_t k = 0; k < kScoreOrigins; ++k) {
    Timestamp origin = in.score_origin + k * kSecondsPerHour;
    if (!ingest_until(origin)) return;
    for (int64_t h : spec.horizons) {
      auto f = bot.Forecast(origin, h);
      if (!f.ok()) {
        m.failures.push_back("scoring forecast failed: " + f.status().ToString());
        return;
      }
      for (size_t c = 0; c < f->clusters.size(); ++c) {
        pending.push_back({f->clusters[c], origin + h, f->interval_seconds,
                           f->queries_per_interval[c]});
      }
    }
  }
  if (!ingest_until(std::numeric_limits<Timestamp>::max())) return;
  double se = 0.0;
  for (const Pending& p : pending) {
    auto series = bot.clusterer().CenterSeries(
        bot.preprocessor(), p.cluster, p.interval, p.target_end - p.interval,
        p.target_end);
    // Forecast reports cluster totals: the center (members' average) times
    // the member count, so the realized volume is scaled the same way.
    double actual = 0.0;
    if (series.ok() && series->size() > 0) {
      actual = series->values()[0] *
               static_cast<double>(
                   bot.clusterer().clusters().at(p.cluster).members.size());
    }
    double d = std::log1p(std::max(0.0, p.predicted)) -
               std::log1p(std::max(0.0, actual));
    se += d * d;
  }
  m.scored = pending.size();
  if (pending.empty()) {
    m.failures.push_back("no modeled cluster to score");
    return;
  }
  m.log_mse = se / static_cast<double>(pending.size());
}

/// Seconds one Templatize call (the parse a template-cache miss pays) takes
/// on the workload's own statements: the median over passes of up to 4096
/// distinct statements. The drain records no per-path times, so the traced
/// run splits the batch time into hit and miss paths with this.
double ParseSeconds(const Inputs& in) {
  const std::vector<std::string>& pool = in.gen.pool();
  size_t n = std::min<size_t>(pool.size(), 4096);
  size_t step = pool.size() / n;
  std::vector<double> passes;
  for (int pass = 0; pass < 5; ++pass) {
    double t = Now();
    for (size_t i = 0; i < n; ++i) {
      if (!qb5000::Templatize(pool[i * step]).ok()) return 0.0;
    }
    passes.push_back((Now() - t) / static_cast<double>(n));
  }
  std::sort(passes.begin(), passes.end());
  return passes[passes.size() / 2];
}

int RunBenchmark(const Options& opt) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : kSpecs) {
    if (opt.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  (void)ThreadIndex();  // the producer is thread 0
  qb5000::SetThreadCount(spec->threads);
  Measured m;
  SpanLog spans;
  SpanLog* log = opt.trace ? &spans : nullptr;

  // 1. Inputs (untimed).
  Inputs in = MakeInputs(*spec, opt.seed, opt.seconds);
  if (opt.trace) m.parse_s = ParseSeconds(in);
  m.rss_after_inputs_mb = ProcStatusMb("VmRSS");
  Log("inputs: " + std::to_string(in.warmup.size()) + " history rows, " +
      std::to_string(in.window.size()) + " window + " +
      std::to_string(in.bursts.size()) + " x " +
      std::to_string(in.bursts.front().size()) + " burst arrivals, " +
      std::to_string(in.templates_generated) + " templates");

  // 2. Set-up, several times; the last controller serves the run.
  CountingEnv env;
  QueryBot5000::ServiceOptions svc;
  svc.checkpoint_path = opt.work_dir + "/" + spec->name + ".qbc";
  svc.checkpoint_period_seconds = spec->checkpoint_period;
  svc.env = &env;
  std::unique_ptr<QueryBot5000> bot;
  double setup_total = 0.0;
  for (int i = 0; i < kMaxSetups &&
                  (i < kMinSetups || setup_total < kSetupBudget);
       ++i) {
    if (bot != nullptr) {
      (void)bot->StopService();
      bot.reset();
    }
    RemoveCheckpointFiles(svc.checkpoint_path);
    bot = SetUp(*spec, in, svc, m);
    if (bot == nullptr) break;
    setup_total += m.setup_s.back();
  }

  ProgramSink sink(&spans);
  if (bot != nullptr) {
    if (opt.trace) {
      bot->Trace().SetSink(&sink);
      env.set_span_log(&spans);
    }
    // 3. Open-loop window with the planner reading alongside.
    Producer producer(*bot, in, log, m);
    producer.latest_ts().store(in.warm_end);
    m.registry_window_start = bot->Metrics().ExportJson();
    uint64_t opened0 = env.counts().opened, bytes0 = env.counts().appended_bytes,
             syncs0 = env.counts().syncs, renames0 = env.counts().renames,
             sync_ns0 = env.counts().sync_ns;
    auto forecasts = static_cast<uint64_t>(opt.seconds / spec->planner_period);
    std::thread planner(RunPlanner, std::cref(*bot), std::cref(*spec),
                        std::cref(producer.latest_ts()), forecasts, log,
                        std::ref(m));
    if (!ResetPeakRss()) {
      m.failures.push_back("could not reset the peak RSS (/proc/self/clear_refs)");
    }
    auto steal0 = StealJiffies();
    double cpu0 = ProcessCpuSeconds();
    m.window_start = Now();
    Log("window: start");
    producer.RunWindow(spec->offered_qps);
    m.window_end = Now();
    Log("window: done");
    m.window_cpu_s = ProcessCpuSeconds() - cpu0;
    m.peak_rss_mb = ProcStatusMb("VmHWM") - m.rss_after_inputs_mb;
    planner.join();
    m.registry_window_end = bot->Metrics().ExportJson();
    m.env_opened = env.counts().opened - opened0;
    m.env_bytes = env.counts().appended_bytes - bytes0;
    m.env_syncs = env.counts().syncs - syncs0;
    m.env_renames = env.counts().renames - renames0;
    m.env_sync_s = 1e-9 * static_cast<double>(env.counts().sync_ns - sync_ns0);
    if (producer.applied() != m.window_arrivals) {
      m.failures.push_back("window: applied " +
                           std::to_string(producer.applied()) +
                           " != accepted " + std::to_string(m.window_arrivals));
    }

    // 4. Closed-loop capacity bursts.
    for (const std::vector<Arrival>& burst : in.bursts) {
      if (!m.failures.empty()) break;
      producer.RunBurst(burst);
    }
    auto steal1 = StealJiffies();
    m.steal_jiffies = steal1.first - steal0.first;
    m.total_jiffies = steal1.second - steal0.second;
    Log("bursts: done");
    bot->Trace().SetSink(nullptr);
    env.set_span_log(nullptr);

    // 5. Stop and score.
    Status st = bot->RunMaintenance(in.burst_end, /*force=*/true);
    if (!st.ok()) m.failures.push_back("forced maintenance: " + st.ToString());
    for (int64_t h : spec->horizons) {
      if (!bot->Forecast(in.burst_end, h).ok()) {
        m.failures.push_back("no forecast for horizon " + std::to_string(h));
      }
    }
    st = bot->StopService();
    if (!st.ok()) m.failures.push_back("StopService: " + st.ToString());
    if (uint64_t n = bot->Metrics()
                         .GetCounter("preprocessor.parse_failures_total")
                         ->value();
        n != 0) {
      m.failures.push_back(std::to_string(n) + " parse failures");
    }
    if (spec->exact_template_count &&
        bot->preprocessor().num_templates() != in.templates_generated) {
      m.failures.push_back(
          "live templates " +
          std::to_string(bot->preprocessor().num_templates()) +
          " != generated " + std::to_string(in.templates_generated));
    }
    Log("stopped");
    CheckRestore(*bot, *spec, svc.checkpoint_path, &env, m);
    Log("restore checked");
    if (m.failures.empty()) Score(*bot, *spec, in, m);
    Log("scored");
    m.registry_end = bot->Metrics().ExportJson();
  }

  Json j;
  j.Str("workload", spec->name)
      .Int("seed", opt.seed)
      .Num("seconds", opt.seconds)
      .Bool("trace", opt.trace)
      .Str("build_type", SERVICEBENCH_BUILD_TYPE)
      .Bool("metrics_enabled", qb5000::kMetricsEnabled)
      .Bool("forced", opt.force)
      .Str("input_digest", [&] {
        char buf[20];
        std::snprintf(buf, sizeof buf, "%016" PRIx64, in.digest);
        return std::string(buf);
      }())
      .Int("templates_generated", in.templates_generated)
      .Int("window_input_arrivals", in.window.size())
      .Num("offered_qps", spec->offered_qps)
      .Int("threads", qb5000::GetThreadCount())
      .Array("setup_s", m.setup_s)
      .Num("window_start", m.window_start)
      .Num("window_end", m.window_end)
      .Array("applied_s", m.applied_s)
      .Array("late_s", m.late_s)
      .Array("enqueue_s", m.enqueue_s)
      .Int("enqueue_refusals", m.enqueue_refusals)
      .Int("queue_depth_max", m.queue_depth_max)
      .Array("forecast_s", m.forecast_s)
      .Int("rung_full", m.rung_full)
      .Int("rung_linear", m.rung_linear)
      .Int("rung_fallback", m.rung_fallback)
      .Int("chunks_attempted", m.chunks_attempted)
      .Int("chunks_failed", m.chunks_failed)
      .Int("forecasts_attempted", m.forecasts_attempted)
      .Int("forecasts_failed", m.forecasts_failed)
      .Int("window_arrivals", m.window_arrivals)
      .Num("window_cpu_s", m.window_cpu_s)
      .Num("loadgen_cpu_s", m.producer_cpu_s + m.planner_cpu_s)
      .Array("burst_arrivals", m.burst_arrivals)
      .Array("burst_drain_s", m.burst_drain_s)
      .Array("burst_s", m.burst_s)
      .Array("burst_cpu_s", m.burst_cpu_s)
      .Int("steal_jiffies", m.steal_jiffies)
      .Int("total_jiffies", m.total_jiffies)
      .Num("rss_after_inputs_mb", m.rss_after_inputs_mb)
      .Num("peak_rss_mb", m.peak_rss_mb)
      .Num("log_mse", m.log_mse)
      .Int("scored", m.scored)
      .Int("env_opened", m.env_opened)
      .Int("env_appended_bytes", m.env_bytes)
      .Int("env_syncs", m.env_syncs)
      .Int("env_renames", m.env_renames)
      .Num("env_sync_s", m.env_sync_s)
      .Num("parse_s", m.parse_s)
      .Raw("registry_window_start", m.registry_window_start.empty()
                                        ? "null"
                                        : m.registry_window_start)
      .Raw("registry_window_end",
           m.registry_window_end.empty() ? "null" : m.registry_window_end)
      .Raw("registry_end", m.registry_end.empty() ? "null" : m.registry_end);
  std::string failures = "[";
  for (size_t i = 0; i < m.failures.size(); ++i) {
    Json f;
    f.Str("check", m.failures[i]);
    failures += (i ? "," : "") + f.Done();
  }
  j.Raw("failures", failures + "]");
  std::string errors = "[";
  for (size_t i = 0; i < m.forecast_errors.size(); ++i) {
    Json f;
    f.Str("error", m.forecast_errors[i]);
    errors += (i ? "," : "") + f.Done();
  }
  j.Raw("forecast_errors", errors + "]");
  {
    std::ofstream out(opt.out);
    out << j.Done() << '\n';
  }
  if (opt.trace && !opt.spans.empty()) {
    std::ofstream out(opt.spans);
    out << "[";
    bool first = true;
    for (const SpanLog::Span& s : spans.Take()) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "%s{\"seq\":%" PRIu64 ",\"id\":%" PRIu64
                    ",\"parent\":%" PRIu64 ",\"thread\":%u,\"start\":%.9f,"
                    "\"end\":%.9f,\"name\":\"",
                    first ? "" : ",\n", s.seq, s.id, s.parent, s.thread,
                    s.start, s.end);
      out << buf << s.name << "\"}";
      first = false;
    }
    out << "]\n";
  }
  if (!m.failures.empty()) {
    for (const std::string& f : m.failures) {
      std::fprintf(stderr, "check failed: %s\n", f.c_str());
    }
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace servicebench

int main(int argc, char** argv) {
  servicebench::Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--out") {
      opt.out = value();
    } else if (a == "--spans") {
      opt.spans = value();
    } else if (a == "--work-dir") {
      opt.work_dir = value();
    } else if (a == "--force") {
      opt.force = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (opt.workload.empty() || opt.out.empty() || opt.work_dir.empty() ||
      !(opt.seconds > 0)) {
    std::fprintf(stderr, "usage: servicebench --workload NAME --seed N "
                         "--seconds S --trace 0|1 --out FILE --work-dir DIR\n");
    return 2;
  }
  bool release = std::string(SERVICEBENCH_BUILD_TYPE) == "Release";
  if ((!release || !qb5000::kMetricsEnabled) && !opt.force) {
    std::fprintf(stderr,
                 "refusing a %s build with metrics %s: registry-derived "
                 "numbers would be wrong or zero (pass --force to run it)\n",
                 SERVICEBENCH_BUILD_TYPE,
                 qb5000::kMetricsEnabled ? "on" : "off");
    return 2;
  }
  return servicebench::RunBenchmark(opt);
}
