#pragma once

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "preprocessor/preprocessor.h"

namespace qb5000 {

/// Persistence for the Pre-Processor's state — the paper's "internal
/// database" of templates, arrival-rate histories, and parameter samples
/// (Section 3). Forecasting models are deliberately not persisted: they
/// retrain from history in seconds (Table 4) and depend on the cluster
/// assignment of the moment.
///
/// The format is a versioned, length-prefixed text format: stable across
/// platforms, diffable, and safe for arbitrary SQL bytes in template text.
/// On disk it lives only inside the CRC-checked checkpoint container
/// (core/checkpoint.h), which writes these streams atomically.
class Snapshot {
 public:
  /// Appends the serialization of `pre` to `*out`. Parameter samples are
  /// persisted along with each template.
  static Status Save(const PreProcessor& pre, std::string* out);

  /// Restores a Pre-Processor saved by Save(). `options` supplies the
  /// runtime knobs (they are not part of the snapshot).
  static Result<PreProcessor> Load(std::istream& in,
                                   PreProcessor::Options options);
};

}  // namespace qb5000
