// Seeded input generation for the service benchmark. Every workload is a
// set of template families: a family follows one arrival-rate shape over an
// active span, and each of its templates receives the family rate times its
// own weight. A template owns statement variants that differ in their
// literals, so a template's arrivals exercise normalization the way fresh
// parameters do; the churn workload's variants also differ in shapes the
// templatizer folds into one template. The program under test never sees
// this model, only the SQL strings and timestamps it produces.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"

namespace qb5000 {
class SyntheticWorkload;
}  // namespace qb5000

namespace servicebench {

using qb5000::Rng;
using qb5000::Timestamp;

/// One query arrival; `stmt` indexes Generator::pool().
struct Arrival {
  Timestamp ts = 0;
  uint32_t stmt = 0;
};

/// `count` identical queries at `ts` (history warm-up and held-out tail).
struct Aggregate {
  Timestamp ts = 0;
  uint32_t stmt = 0;
  double count = 0.0;
};

class Generator {
 public:
  /// The Admissions streams, each a family of one template with
  /// `variants` fresh-literal statements.
  static Generator Admissions(uint64_t seed, size_t variants);
  /// MOOC-style release churn over a structural statement space: a few
  /// long-lived families plus a new family switching on every half virtual
  /// day and off two days later (as many live at time 0 as at any later
  /// time). Every template carries many statement shapes that share its
  /// fingerprint but not its template-cache key.
  static Generator Churn(uint64_t seed);

  /// Statement texts; Arrival/Aggregate::stmt index this.
  const std::vector<std::string>& pool() const { return pool_; }
  /// Generator-side template index of a statement.
  uint32_t TemplateOf(uint32_t stmt) const { return stmt_template_[stmt]; }
  size_t num_templates() const { return templates_.size(); }

  /// Expected unscaled arrivals over [from, to) at minute resolution.
  double Expected(Timestamp from, Timestamp to) const;

  /// One Arrival per query over [from, to), time-ordered: per minute and
  /// active family a Poisson count of `scale` times the family rate, each
  /// arrival assigned a template by weight and a second within the minute
  /// (all drawn from `counts`) and a variant (drawn from `rng`). Stops early
  /// once `out` holds `limit` arrivals; returns the end of the last minute
  /// generated.
  Timestamp Emit(Timestamp from, Timestamp to, double scale, size_t limit,
                 Rng& counts, Rng& rng, std::vector<Arrival>* out) const;

  /// Per-template Poisson counts (drawn from `counts`) per `step` over
  /// [from, to), each carried by the template's first variant. Zero counts
  /// are skipped. Rows come out step by step, not time-sorted within a step.
  void EmitAggregated(Timestamp from, Timestamp to, int64_t step,
                      double scale, Rng& counts,
                      std::vector<Aggregate>* out) const;

 private:
  struct Family {
    std::function<double(Timestamp)> rate_per_minute;  ///< unscaled
    Timestamp from = 0;
    Timestamp until = std::numeric_limits<Timestamp>::max();
    std::vector<uint32_t> templates;
    std::vector<double> cum_weight;  ///< inclusive prefix sums, last = 1
  };
  struct Template {
    uint32_t first_stmt = 0;
    uint32_t variants = 0;
    double weight = 0.0;  ///< share of its family's rate
  };

  /// Appends a template with the given variant texts to `family`.
  void AddTemplate(Family& family, std::vector<std::string> variants,
                   double weight);
  /// Fills cum_weight from the templates' weights (normalised to 1).
  void Seal(Family& family);
  static Generator FromWorkload(const qb5000::SyntheticWorkload& workload,
                                size_t variants, uint64_t seed);

  std::vector<Family> families_;
  std::vector<Template> templates_;
  std::vector<std::string> pool_;
  std::vector<uint32_t> stmt_template_;
};

}  // namespace servicebench
