// Checkpoint format v2: the durable representation of a whole QueryBot5000
// pipeline. See core/checkpoint.h for the container layout and the recovery
// ladder, and DESIGN.md "Durability & crash recovery" for the rationale.
#include "core/checkpoint.h"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "common/io.h"
#include "common/mutex.h"
#include "common/strings.h"
#include "core/qb5000.h"
#include "preprocessor/snapshot.h"

namespace qb5000 {
namespace {

constexpr char kSectionPreprocessor[] = "preprocessor";
constexpr char kSectionClusterer[] = "clusterer";
constexpr char kSectionController[] = "controller";
constexpr char kSectionMetrics[] = "metrics";

// --- container --------------------------------------------------------------

struct Section {
  std::string payload;
  bool crc_ok = false;
};

struct Container {
  std::map<std::string, Section> sections;
  bool complete = false;  ///< header parsed and `end` marker reached
  std::string error;      ///< structural problem, when !complete
};

void AppendSection(AtomicFileWriter& writer, const std::string& name,
                   const std::string& payload) {
  std::string header;
  StrAppend(&header, "section ", name, ' ', payload.size(), ' ',
            Crc32(payload), '\n');
  (void)writer.Append(header).ok();  // errors are sticky; Commit reports
  (void)writer.Append(payload).ok();
  (void)writer.Append("\n").ok();
}

/// Parses as much of the container as is structurally sound. Sections with a
/// failing CRC are kept (flagged) so the caller can report *what* is corrupt;
/// a truncated or garbled tail stops the parse with `complete == false`.
Container ParseContainer(const std::string& data) {
  Container out;
  size_t pos = 0;
  auto read_line = [&](std::string* line) {
    size_t nl = data.find('\n', pos);
    if (nl == std::string::npos) return false;
    *line = data.substr(pos, nl - pos);
    pos = nl + 1;
    return true;
  };

  std::string line;
  {
    if (!read_line(&line)) {
      out.error = "missing header";
      return out;
    }
    std::istringstream header(line);
    std::string magic;
    int version = 0;
    if (!(header >> magic >> version) || magic != kCheckpointMagic) {
      out.error = std::string("not a ") + kCheckpointMagic + " document";
      return out;
    }
    if (version != kCheckpointVersion) {
      out.error = std::string("unsupported ") + kCheckpointMagic + " version";
      return out;
    }
  }

  while (true) {
    if (!read_line(&line)) {
      out.error = "truncated before end marker";
      return out;
    }
    if (line == "end") {
      out.complete = true;
      return out;
    }
    std::istringstream header(line);
    std::string keyword, name;
    size_t length = 0;
    uint32_t crc = 0;
    if (!(header >> keyword >> name >> length >> crc) ||
        keyword != "section") {
      out.error = "garbled section header";
      return out;
    }
    if (pos + length >= data.size() || data[pos + length] != '\n') {
      out.error = "truncated section " + name;
      return out;
    }
    Section section;
    section.payload = data.substr(pos, length);
    section.crc_ok = Crc32(section.payload) == crc;
    pos += length + 1;
    out.sections.emplace(std::move(name), std::move(section));
  }
}

// --- clusterer section ------------------------------------------------------

std::string SerializeClusterer(const OnlineClusterer& clusterer) {
  std::string out = "clusterer-v1\n";
  StrAppend(&out, "next_id ", clusterer.next_cluster_id(), " last_update ",
            clusterer.last_update_time(), " clusters ",
            clusterer.clusters().size(), '\n');
  for (const auto& [id, cluster] : clusterer.clusters()) {
    StrAppend(&out, "cluster ", id, ' ', cluster.volume, ' ',
              cluster.center.size(), ' ', cluster.members.size(), '\n');
    for (size_t i = 0; i < cluster.center.size(); ++i) {
      if (i > 0) out.push_back(' ');
      StrAppend(&out, cluster.center[i]);
    }
    out.push_back('\n');
    bool first = true;
    for (TemplateId member : cluster.members) {
      if (!first) out.push_back(' ');
      StrAppend(&out, member);
      first = false;
    }
    out.push_back('\n');
  }
  return out;
}

Status ParseClusterer(const std::string& payload, OnlineClusterer& clusterer) {
  std::istringstream in(payload);
  std::string tag;
  if (!(in >> tag) || tag != "clusterer-v1") {
    return Status::ParseError("bad clusterer section tag");
  }
  ClusterId next_id = 0;
  Timestamp last_update = 0;
  size_t count = 0;
  std::string kw_next, kw_last, kw_clusters;
  if (!(in >> kw_next >> next_id >> kw_last >> last_update >> kw_clusters >>
        count) ||
      kw_next != "next_id" || kw_last != "last_update" ||
      kw_clusters != "clusters") {
    return Status::ParseError("bad clusterer section header");
  }
  std::map<ClusterId, OnlineClusterer::Cluster> clusters;
  for (size_t i = 0; i < count; ++i) {
    std::string keyword;
    OnlineClusterer::Cluster cluster;
    size_t dim = 0, members = 0;
    if (!(in >> keyword >> cluster.id >> cluster.volume >> dim >> members) ||
        keyword != "cluster") {
      return Status::ParseError("bad cluster record");
    }
    cluster.center.resize(dim);
    for (size_t j = 0; j < dim; ++j) {
      if (!(in >> cluster.center[j])) {
        return Status::ParseError("truncated cluster center");
      }
    }
    for (size_t j = 0; j < members; ++j) {
      TemplateId member = 0;
      if (!(in >> member)) return Status::ParseError("truncated member list");
      cluster.members.insert(member);
    }
    ClusterId id = cluster.id;
    if (!clusters.emplace(id, std::move(cluster)).second) {
      return Status::ParseError("duplicate cluster id");
    }
  }
  return clusterer.RestoreState(std::move(clusters), next_id, last_update);
}

// --- controller section -----------------------------------------------------

struct ControllerState {
  bool has_maintenance = false;
  Timestamp last_maintenance = 0;
  std::vector<ClusterId> modeled;
};

Result<ControllerState> ParseController(const std::string& payload) {
  std::istringstream in(payload);
  std::string tag, keyword;
  if (!(in >> tag) || tag != "controller-v1") {
    return Status::ParseError("bad controller section tag");
  }
  ControllerState state;
  int has = 0;
  if (!(in >> keyword >> has >> state.last_maintenance) ||
      keyword != "last_maintenance" || (has != 0 && has != 1)) {
    return Status::ParseError("bad controller maintenance record");
  }
  state.has_maintenance = has == 1;
  size_t count = 0;
  if (!(in >> keyword >> count) || keyword != "modeled") {
    return Status::ParseError("bad controller modeled record");
  }
  for (size_t i = 0; i < count; ++i) {
    ClusterId id = 0;
    if (!(in >> id)) return Status::ParseError("truncated modeled list");
    state.modeled.push_back(id);
  }
  return state;
}

Timestamp MaxLastSeen(const PreProcessor& pre) {
  Timestamp latest = 0;
  for (TemplateId id : pre.TemplateIds()) {
    const auto* info = pre.GetTemplate(id);
    if (info != nullptr) latest = std::max(latest, info->last_seen);
  }
  return latest;
}

}  // namespace

// --- QueryBot5000 entry points ----------------------------------------------

// Defined here rather than in qb5000.cc because it is half of the checkpoint
// format. QB_REQUIRES_SHARED(state_mu_) (declaration, qb5000.h): Checkpoint()
// already holds the shared lock when it serializes, and SharedMutex is not
// recursive, so this must read the guarded fields directly — the annotation
// makes an unlocked call a compile error instead of a latent deadlock.
std::string QueryBot5000::SerializeControllerLocked() const {
  bool has_run =
      last_maintenance_ != std::numeric_limits<Timestamp>::min();
  std::string out = "controller-v1\n";
  StrAppend(&out, "last_maintenance ", has_run ? 1 : 0, ' ',
            has_run ? last_maintenance_ : 0, '\n');
  const auto& modeled = forecaster_->modeled_clusters();
  StrAppend(&out, "modeled ", modeled.size());
  for (ClusterId id : modeled) StrAppend(&out, ' ', id);
  out.push_back('\n');
  return out;
}

Status QueryBot5000::Checkpoint(const std::string& path, Env* env) const {
  ScopedTimer checkpoint_timer(
      metrics_->GetHistogram("core.checkpoint_seconds"));
  // Serialize the sections into memory under the shared state lock — a
  // consistent snapshot that other readers (Forecast) can overlap with —
  // then do the file I/O with the lock released so a slow disk never blocks
  // the pipeline.
  std::string pre_str, clusterer_str, controller_str, metrics_str;
  {
    Stopwatch lock_wait;
    ReaderLock lock(state_mu_);
    lock_wait_seconds_->Observe(lock_wait.ElapsedSeconds());
    ScopedSpan span(tracer_.get(), "checkpoint/serialize");
    Status st = Snapshot::Save(pre_, &pre_str);
    if (!st.ok()) return st;
    clusterer_str = SerializeClusterer(clusterer_);
    controller_str = SerializeControllerLocked();
    // Counters/gauges ride along in the checkpoint so totals survive a
    // restart (histograms describe the dead process; they do not).
    metrics_str = metrics_->SerializeState();
  }

  ScopedSpan io_span(tracer_.get(), "checkpoint/io");
  AtomicFileWriter writer(env, path);
  std::string header;
  StrAppend(&header, kCheckpointMagic, ' ', kCheckpointVersion, '\n');
  (void)writer.Append(header).ok();  // sticky errors; Commit reports
  AppendSection(writer, kSectionPreprocessor, pre_str);
  AppendSection(writer, kSectionClusterer, clusterer_str);
  AppendSection(writer, kSectionController, controller_str);
  AppendSection(writer, kSectionMetrics, metrics_str);
  (void)writer.Append("end\n").ok();
  Status committed = writer.Commit();
  if (committed.ok()) {
    metrics_->GetCounter("checkpoint.writes_total")->Add();
    metrics_->GetCounter("checkpoint.bytes_written_total")
        ->Add(pre_str.size() + clusterer_str.size() + controller_str.size() +
              metrics_str.size());
  }
  return committed;
}

Result<QueryBot5000> QueryBot5000::RestoreFromData(
    const std::string& data, const Config& config, bool allow_degraded,
    RestoreReport& report) {
  Container container = ParseContainer(data);
  if (!container.complete && !allow_degraded) {
    return Status::ParseError(container.error);
  }

  // The preprocessor section is the one piece that cannot be rebuilt from
  // anywhere else; without it the document is unusable at any strictness.
  auto pre_it = container.sections.find(kSectionPreprocessor);
  if (pre_it == container.sections.end()) {
    return Status::ParseError(container.error.empty()
                                  ? "missing preprocessor section"
                                  : container.error);
  }
  if (!pre_it->second.crc_ok) {
    return Status::ParseError("preprocessor section checksum mismatch");
  }

  QueryBot5000 bot(config);
  // The bot is local, but the restore ladder below writes straight into its
  // guarded fields; holding the writer lock keeps those accesses provable
  // by Thread Safety Analysis (and costs nothing — it is uncontended).
  // Released by scope exit on every return path, before the caller can
  // publish the bot to other threads.
  WriterLock state_lock(bot.state_mu_);
  size_t crc_failures = 0;
  for (const auto& [name, section] : container.sections) {
    (void)name;
    if (!section.crc_ok) ++crc_failures;
  }
  bot.metrics_->GetCounter("checkpoint.crc_failures_total")->Add(crc_failures);

  // Restore persisted counters/gauges first: the rebuild work below (gauge
  // refreshes, degraded re-clustering, retraining) then accumulates on top
  // of the restored totals. A bad metrics section is never fatal — the
  // pipeline state does not depend on its own statistics.
  auto metrics_it = container.sections.find(kSectionMetrics);
  if (metrics_it != container.sections.end() && metrics_it->second.crc_ok) {
    Status st = bot.metrics_->RestoreState(metrics_it->second.payload);
    if (!st.ok()) {
      report.detail += "metrics section unusable: " + st.ToString() + ". ";
    }
  } else if (metrics_it != container.sections.end()) {
    report.detail += "metrics section checksum mismatch; counters reset. ";
  }

  // Load into the bot's config copy so the restored PreProcessor writes to
  // the bot's registry, not to whatever the caller's Options pointed at.
  std::istringstream pre_stream(pre_it->second.payload);
  auto pre = Snapshot::Load(pre_stream, bot.config_.preprocessor);
  if (!pre.ok()) return pre.status();
  bot.pre_ = std::move(*pre);

  // Clusterer section: restore, or (degraded) rebuild from the histories.
  bool clusterer_ok = false;
  std::string clusterer_error;
  auto clu_it = container.sections.find(kSectionClusterer);
  if (clu_it == container.sections.end()) {
    clusterer_error = "clusterer section missing";
  } else if (!clu_it->second.crc_ok) {
    clusterer_error = "clusterer section checksum mismatch";
  } else {
    Status st = ParseClusterer(clu_it->second.payload, bot.clusterer_);
    if (st.ok()) {
      clusterer_ok = true;
    } else {
      clusterer_error = st.ToString();
    }
  }
  if (!clusterer_ok && !allow_degraded) {
    return Status::ParseError(clusterer_error);
  }

  // Controller section: restore, or (degraded) fall back to defaults.
  ControllerState controller;
  bool controller_ok = false;
  std::string controller_error;
  auto ctl_it = container.sections.find(kSectionController);
  if (ctl_it == container.sections.end()) {
    controller_error = "controller section missing";
  } else if (!ctl_it->second.crc_ok) {
    controller_error = "controller section checksum mismatch";
  } else {
    auto parsed = ParseController(ctl_it->second.payload);
    if (parsed.ok()) {
      controller = std::move(*parsed);
      controller_ok = true;
    } else {
      controller_error = parsed.status().ToString();
    }
  }
  if (!controller_ok && !allow_degraded) {
    return Status::ParseError(controller_error);
  }

  if (controller_ok && controller.has_maintenance) {
    bot.last_maintenance_ = controller.last_maintenance;
  }
  if (!controller_ok) {
    report.controller_defaults = true;
    report.detail += controller_error + "; controller state reset. ";
  }

  // The reference time for rebuilding/retraining: the last maintenance run
  // if we know it, else the newest arrival in the restored histories.
  bool has_run = bot.last_maintenance_ != std::numeric_limits<Timestamp>::min();
  Timestamp now = has_run ? bot.last_maintenance_ : MaxLastSeen(bot.pre_);
  if (!clusterer_ok) {
    report.reclustered = true;
    report.detail += clusterer_error + "; re-clustered from histories. ";
    bot.clusterer_.Update(bot.pre_, now);
    controller.modeled = bot.ModeledClustersLocked();
  }

  // Forecasting models are never persisted: retrain them from the restored
  // histories (Table 4: seconds). An untrainable state (e.g. too little
  // history) is not a restore failure — Forecast() stays unavailable until
  // the next successful RunMaintenance(), exactly as on a cold start.
  if (!controller.modeled.empty()) {
    Forecaster staged = *bot.forecaster_;
    Status trained = staged.Train(bot.pre_, bot.clusterer_,
                                  controller.modeled, now, config.horizons);
    bot.PublishModelsLocked(std::move(staged));
    if (trained.ok()) {
      report.forecaster_trained = true;
    } else {
      report.detail += "forecaster retrain failed: " + trained.ToString() +
                       "; models unavailable until next maintenance. ";
    }
  }
  return bot;
}

Result<QueryBot5000> QueryBot5000::Restore(const std::string& path,
                                           Config config, Env* env,
                                           RestoreReport* report) {
  RestoreReport local;
  RestoreReport& rep = report != nullptr ? *report : local;
  rep = RestoreReport();
  if (env == nullptr) env = Env::Default();

  // Stamps the surviving bot with which ladder rung recovered it (1-4) and
  // how long the whole ladder took. Discarded attempts leave no trace: their
  // registries die with their bots.
  Stopwatch restore_timer;
  auto finish = [&restore_timer](QueryBot5000& bot, int rung) {
    bot.metrics_->GetCounter("checkpoint.restores_total")->Add();
    bot.metrics_->GetGauge("checkpoint.recovery_rung")
        ->Set(static_cast<double>(rung));
    bot.metrics_->GetHistogram("core.restore_seconds")
        ->Observe(restore_timer.ElapsedSeconds());
  };

  // Recovery ladder: (1) primary, fully intact; (2) backup, fully intact;
  // (3) primary, salvaging what validates; (4) backup, same. A complete
  // older checkpoint beats a degraded newer one — degradation loses the
  // clusterer's id stability, a complete .bak loses at most one period.
  const std::string backup = AtomicFileWriter::BackupPath(path);
  auto primary = ReadFileToString(env, path);
  Status first_error =
      primary.ok() ? Status::Ok() : primary.status();

  if (primary.ok()) {
    rep = RestoreReport();
    auto bot = RestoreFromData(*primary, config, /*allow_degraded=*/false, rep);
    if (bot.ok()) {
      finish(*bot, 1);
      return bot;
    }
    first_error = bot.status();
  }

  auto fallback = ReadFileToString(env, backup);
  if (fallback.ok()) {
    rep = RestoreReport();
    auto bot =
        RestoreFromData(*fallback, config, /*allow_degraded=*/false, rep);
    if (bot.ok()) {
      rep.used_backup = true;
      finish(*bot, 2);
      return bot;
    }
  }

  if (primary.ok()) {
    rep = RestoreReport();
    auto bot = RestoreFromData(*primary, config, /*allow_degraded=*/true, rep);
    if (bot.ok()) {
      finish(*bot, 3);
      return bot;
    }
  }
  if (fallback.ok()) {
    rep = RestoreReport();
    auto bot = RestoreFromData(*fallback, config, /*allow_degraded=*/true, rep);
    if (bot.ok()) {
      rep.used_backup = true;
      finish(*bot, 4);
      return bot;
    }
  }
  return Status(first_error.code(),
                "checkpoint unrecoverable (" + path + "): " +
                    first_error.message());
}

}  // namespace qb5000
