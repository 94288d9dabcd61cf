#pragma once

#include <string>

namespace qb5000 {

/// Checkpoint container format v2 (written by QueryBot5000::Checkpoint,
/// core/checkpoint.cc):
///
///   qb5000-checkpoint 2\n
///   section <name> <byte-length> <crc32>\n
///   <payload bytes>\n
///   ... more sections ...
///   end\n
///
/// Sections in write order: `preprocessor` (the Snapshot v3 stream for the
/// Pre-Processor's templates/histories/samples/totals), `clusterer` (centers,
/// assignments, volumes, id counter), `controller` (maintenance state and
/// modeled clusters), `metrics` (the registry's counters and gauges, so
/// lifetime totals survive a restart; histograms are not persisted, and a
/// corrupt metrics section degrades to reset counters instead of failing
/// the restore). Each payload carries its own CRC32 so corruption is
/// detected per section; unknown section names are skipped on read for
/// forward compatibility.
inline constexpr char kCheckpointMagic[] = "qb5000-checkpoint";
inline constexpr int kCheckpointVersion = 2;

/// Incremental delta sidecar, `<checkpoint-path>.delta` (written by the
/// always-on service between full checkpoints, core/checkpoint.cc). Same
/// section container as the full checkpoint but with its own magic:
///
///   qb5000-delta 1\n
///   section delta-meta <len> <crc32>\n       base_crc / base_next_id / evict
///   section new-templates <len> <crc32>\n    shells for ids >= base_next_id
///   section arrivals <len> <crc32>\n         (id, ts, count) triples
///   end\n
///
/// `delta-meta` binds the sidecar to one exact full-checkpoint file by the
/// CRC32 of that file's committed bytes; Restore() replays a delta only
/// when the binding matches the document it actually loaded, so a crash
/// anywhere in the write/compact cycle degrades to old-or-new state, never
/// to a delta applied onto the wrong base. New-template shells carry
/// identity only (fingerprint, text, type, tables, first_seen); totals and
/// histories are rebuilt by replaying the arrival triples, and parameter
/// samples from the delta window are deliberately not persisted.
inline constexpr char kDeltaMagic[] = "qb5000-delta";
inline constexpr int kDeltaVersion = 1;

/// What QueryBot5000::Restore() had to do to come back up. All-false plus
/// `forecaster_trained` means a clean, full restore.
struct RestoreReport {
  /// The primary file was missing or unusable; `path.bak` was loaded.
  bool used_backup = false;
  /// The clusterer section was corrupt or missing: the preprocessor was
  /// restored and the clusterer rebuilt by re-clustering the histories.
  bool reclustered = false;
  /// The controller section was corrupt or missing: maintenance state was
  /// reset to defaults (next RunMaintenance() call will be due).
  bool controller_defaults = false;
  /// Forecasting models were retrained from the restored history.
  bool forecaster_trained = false;
  /// A delta sidecar bound to the restored full checkpoint was replayed on
  /// top of it (new-template shells, arrival deltas, eviction cutoff).
  bool delta_applied = false;
  /// Human-readable notes on every degradation step taken.
  std::string detail;
};

}  // namespace qb5000
