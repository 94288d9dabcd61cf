#pragma once

#include <string>

namespace qb5000 {

/// Checkpoint container format v2 (written by QueryBot5000::Checkpoint,
/// core/checkpoint.cc, whether a caller asks for it or a checkpointing
/// service writes it once per period):
///
///   qb5000-checkpoint 2\n
///   section <name> <byte-length> <crc32>\n
///   <payload bytes>\n
///   ... more sections ...
///   end\n
///
/// Sections in write order: `preprocessor` (the Snapshot v4 stream for the
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
  /// Human-readable notes on every degradation step taken.
  std::string detail;
};

}  // namespace qb5000
