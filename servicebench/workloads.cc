#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "workload/patterns.h"
#include "workload/workload.h"

namespace servicebench {

using qb5000::kSecondsPerDay;
using qb5000::kSecondsPerHour;
using qb5000::kSecondsPerMinute;

void Generator::AddTemplate(Family& family, std::vector<std::string> variants,
                            double weight) {
  Template t;
  t.first_stmt = static_cast<uint32_t>(pool_.size());
  t.variants = static_cast<uint32_t>(variants.size());
  t.weight = weight;
  auto index = static_cast<uint32_t>(templates_.size());
  for (std::string& v : variants) {
    pool_.push_back(std::move(v));
    stmt_template_.push_back(index);
  }
  family.templates.push_back(index);
  templates_.push_back(t);
}

void Generator::Seal(Family& family) {
  double total = 0.0;
  for (uint32_t t : family.templates) total += templates_[t].weight;
  double run = 0.0;
  family.cum_weight.clear();
  for (uint32_t t : family.templates) {
    templates_[t].weight /= total;
    run += templates_[t].weight;
    family.cum_weight.push_back(run);
  }
  family.cum_weight.back() = 1.0;
}

Generator Generator::FromWorkload(const qb5000::SyntheticWorkload& workload,
                                  size_t variants, uint64_t seed) {
  Generator g;
  Rng rng(seed);
  for (const qb5000::TemplateStream& stream : workload.streams()) {
    Family family;
    family.rate_per_minute = stream.rate_per_minute;
    family.from = stream.active_from;
    family.until = stream.active_until;
    std::vector<std::string> texts;
    texts.reserve(variants);
    for (size_t v = 0; v < variants; ++v) texts.push_back(stream.make_sql(rng));
    g.AddTemplate(family, std::move(texts), 1.0);
    g.Seal(family);
    g.families_.push_back(std::move(family));
  }
  return g;
}

Generator Generator::Admissions(uint64_t seed, size_t variants) {
  qb5000::WorkloadOptions options;
  options.seed = seed;
  return FromWorkload(qb5000::MakeAdmissions(options), variants, seed + 1);
}

namespace {

// Structural statement space for the churn workload:
// tables x (projections x predicate shapes for SELECT, set columns x
// predicate shapes for UPDATE). Every combination templatizes to its own
// template (its own semantic fingerprint).
constexpr size_t kTables = 40;
constexpr size_t kProjections = 12;
constexpr size_t kPredicates = 20;
constexpr size_t kSetColumns = 4;
/// Statement shapes per template: an ORM-style `id IN (...)` list of 1 to
/// kInLengths literals, placed before or after the template's predicate,
/// the predicate bare or parenthesized, and for SELECTs one of kTails
/// ORDER BY / LIMIT endings, with or without DISTINCT. The templatizer
/// folds every shape of a combination into one template, but each shape is
/// its own template-cache key, so the live templates carry several times
/// the default 4096 cache entries and a steady share of arrivals misses the
/// cache and reaches the parser.
constexpr size_t kInLengths = 8;
constexpr size_t kTails = 4;
constexpr size_t kShapes = kInLengths * 2 * 2 * kTails * 2;
const char* const kTailTexts[kTails] = {"", " LIMIT 100", " ORDER BY id",
                                        " ORDER BY id LIMIT 100"};
/// Long-lived families, active over the whole trace: after a warm-up longer
/// than the clusterer's 30-day feature window their histories cover every
/// sample position, which is what the exact kd-tree probe requires; the
/// cold tail of each family drifts between clusters, and those re-placements
/// are the kd-tree's queries. The families carry most of the volume, so the
/// planner models their clusters and a bounded Forecast gathers every
/// member's history: twelve templates per family keep that gather well
/// inside the 1 ms budget (at 16 it took 0.9 ms) while some still drift (at
/// 8 none did).
constexpr size_t kBaseFamilies = 4;
constexpr size_t kBaseTemplates = 12;
/// Releases: a new family of kReleaseTemplates switches on every
/// kReleaseEvery and off kReleaseLifetime later; releases continue for
/// kReleaseSpan, longer than any workload's trace.
constexpr int64_t kReleaseEvery = 12 * kSecondsPerHour;
constexpr int64_t kReleaseLifetime = 2 * kSecondsPerDay;
constexpr int64_t kReleaseSpan = 64 * kSecondsPerDay;
constexpr size_t kReleaseTemplates = 6;

const char* const kTableNames[10] = {"accounts", "orders",   "items",
                                     "events",   "users",    "sessions",
                                     "payments", "reviews",  "courses",
                                     "posts"};
const char* const kProjectionTexts[kProjections] = {
    "*",          "id",           "id, c0",         "c1, c2",
    "id, c3, c4", "COUNT(*)",     "MAX(c5)",        "c6",
    "id, s0",     "s1, c7",       "c0, c1, c2, c3", "MIN(c2), MAX(c2)"};
const char* const kSetTexts[kSetColumns] = {"c0", "c3", "c6", "c7"};

std::string Int(Rng& rng) { return std::to_string(rng.UniformInt(1, 99999)); }
std::string Str(Rng& rng) {
  return "v" + std::to_string(rng.UniformInt(1, 9999));
}

std::string Predicate(size_t shape, Rng& rng) {
  switch (shape) {
    case 0: return "id > " + Int(rng);
    case 1: return "c0 = " + Int(rng);
    case 2: return "c1 = " + Int(rng) + " AND c2 > " + Int(rng);
    case 3: return "c3 IN (" + Int(rng) + ", " + Int(rng) + ", " + Int(rng) + ")";
    case 4: return "c4 BETWEEN " + Int(rng) + " AND " + Int(rng);
    case 5: return "s0 = '" + Str(rng) + "'";
    case 6: return "s1 LIKE '" + Str(rng) + "%'";
    case 7: return "c5 > " + Int(rng);
    case 8: return "c6 < " + Int(rng) + " AND c7 = " + Int(rng);
    case 9: return "c0 = " + Int(rng) + " OR c1 = " + Int(rng);
    case 10: return "c2 IS NULL";
    case 11: return "c3 >= " + Int(rng) + " AND c3 < " + Int(rng);
    case 12: return "s0 = '" + Str(rng) + "' AND c4 = " + Int(rng);
    case 13: return "c2 < " + Int(rng);
    case 14: return "c5 = " + Int(rng);
    case 15: return "NOT c6 = " + Int(rng);
    case 16:
      return "c7 BETWEEN " + Int(rng) + " AND " + Int(rng) + " AND s1 = '" +
             Str(rng) + "'";
    case 17: return "c1 > " + Int(rng);
    case 18:
      return "c0 = " + Int(rng) + " AND c1 = " + Int(rng) + " AND c2 = " +
             Int(rng);
    default: return "s1 IS NOT NULL AND c4 < " + Int(rng);
  }
}

std::string TableName(size_t table) {
  return std::string(kTableNames[table % 10]) + "_" +
         std::to_string(table / 10);
}

/// Shape `shape` (< kShapes) of combination `combo`, with fresh literals.
std::string ChurnStatement(size_t combo, size_t shape, Rng& rng) {
  std::string in_list = "id IN (" + Int(rng);
  for (size_t i = 1; i <= shape % kInLengths; ++i) in_list += ", " + Int(rng);
  in_list += ")";
  bool in_first = shape / kInLengths % 2 == 0;
  bool parens = shape / (2 * kInLengths) % 2 == 1;
  size_t tail = shape / (4 * kInLengths) % kTails;
  bool distinct = shape / (4 * kInLengths * kTails) == 1;
  size_t pred = combo % kPredicates;
  std::string predicate = Predicate(pred, rng);
  if (parens) predicate = "(" + predicate + ")";
  std::string where = in_first ? in_list + " AND " + predicate
                               : predicate + " AND " + in_list;
  constexpr size_t kSelects = kTables * kProjections * kPredicates;
  if (combo < kSelects) {
    size_t table = combo / (kProjections * kPredicates);
    size_t proj = combo / kPredicates % kProjections;
    return std::string(distinct ? "SELECT DISTINCT " : "SELECT ") +
           kProjectionTexts[proj] + " FROM " +
           TableName(table) + " WHERE " + where + kTailTexts[tail];
  }
  combo -= kSelects;
  size_t table = combo / (kSetColumns * kPredicates);
  size_t set = combo / kPredicates % kSetColumns;
  return "UPDATE " + TableName(table) + " SET " + kSetTexts[set] + " = " +
         Int(rng) + " WHERE " + where;
}

/// Deterministic per-(family, day) noise in [-1, 1].
double DayNoise(uint64_t salt, Timestamp ts) {
  return qb5000::PseudoNoise(ts, salt, kSecondsPerDay);
}

}  // namespace

Generator Generator::Churn(uint64_t seed) {
  Generator g;
  Rng shape_rng(0x5eed5eedULL);  // the release schedule is the workload's
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  constexpr size_t kCombos =
      kTables * kPredicates * (kProjections + kSetColumns);
  std::vector<uint32_t> combos(kCombos);
  for (size_t i = 0; i < kCombos; ++i) combos[i] = static_cast<uint32_t>(i);
  std::shuffle(combos.begin(), combos.end(), shape_rng.engine());
  size_t next_combo = 0;
  constexpr int64_t kActiveReleases = kReleaseLifetime / kReleaseEvery;
  constexpr int64_t kReleases = kReleaseSpan / kReleaseEvery + kActiveReleases;
  static_assert(kBaseFamilies * kBaseTemplates + kReleases * kReleaseTemplates <=
                kCombos);
  for (int64_t f = 0; f < static_cast<int64_t>(kBaseFamilies) + kReleases; ++f) {
    bool base = f < static_cast<int64_t>(kBaseFamilies);
    Family family;
    if (!base) {
      // Release r switches on so that kActiveReleases are live at time 0.
      int64_t r = f - static_cast<int64_t>(kBaseFamilies);
      family.from = (r - kActiveReleases + 1) * kReleaseEvery;
      family.until = family.from + kReleaseLifetime;
    }
    double volume = (base ? 2.0 : 1.0) * std::exp(shape_rng.Gaussian(0.0, 0.5));
    double amplitude = shape_rng.Uniform(0.3, 0.9);
    double phase = shape_rng.Uniform(0.0, 1.0);
    double peak_hour = shape_rng.Uniform(6.0, 22.0);
    uint64_t salt = shape_rng.engine()();
    Timestamp from = family.from;
    int64_t span = base ? kReleaseSpan : kReleaseLifetime;
    switch (f % 4) {
      case 0:  // diurnal
        family.rate_per_minute = [=](Timestamp ts) {
          double day = static_cast<double>(ts) / kSecondsPerDay;
          return volume * (1.0 + 0.2 * DayNoise(salt, ts)) *
                 (1.0 + amplitude *
                            std::sin(2.0 * std::numbers::pi * (day - phase)));
        };
        break;
      case 1:  // flat
        family.rate_per_minute = [=](Timestamp ts) {
          return volume * (1.0 + 0.2 * DayNoise(salt, ts));
        };
        break;
      case 2:  // growth over the family's lifetime
        family.rate_per_minute = [=](Timestamp ts) {
          double age = static_cast<double>(ts - from) / static_cast<double>(span);
          return volume * (1.0 + 0.2 * DayNoise(salt, ts)) *
                 (0.3 + 1.2 * std::clamp(age, 0.0, 1.0));
        };
        break;
      default:  // daily spike
        family.rate_per_minute = [=](Timestamp ts) {
          return volume * (1.0 + 0.2 * DayNoise(salt, ts)) *
                 (0.5 + 2.5 * qb5000::HourBump(ts, peak_hour, 1.0));
        };
        break;
    }
    size_t templates = base ? kBaseTemplates : kReleaseTemplates;
    for (size_t k = 0; k < templates; ++k) {
      size_t combo = combos[next_combo++];
      std::vector<std::string> texts;
      texts.reserve(kShapes);
      for (size_t v = 0; v < kShapes; ++v) {
        texts.push_back(ChurnStatement(combo, v, rng));
      }
      // Zipf-like popularity inside the family: a few hot templates whose
      // shapes stay cached and a cold tail whose shapes keep missing.
      g.AddTemplate(family, std::move(texts),
                    1.0 / std::pow(static_cast<double>(k + 1), 0.8));
    }
    g.Seal(family);
    g.families_.push_back(std::move(family));
  }
  return g;
}

double Generator::Expected(Timestamp from, Timestamp to) const {
  double total = 0.0;
  for (Timestamp m = from; m < to; m += kSecondsPerMinute) {
    for (const Family& f : families_) {
      if (m >= f.from && m < f.until) {
        total += std::max(0.0, f.rate_per_minute(m));
      }
    }
  }
  return total;
}

Timestamp Generator::Emit(Timestamp from, Timestamp to, double scale,
                          size_t limit, Rng& counts, Rng& rng,
                          std::vector<Arrival>* out) const {
  std::vector<Arrival> minute;
  Timestamp m = from;
  for (; m < to && out->size() < limit; m += kSecondsPerMinute) {
    minute.clear();
    for (const Family& f : families_) {
      if (m < f.from || m >= f.until) continue;
      int64_t n = counts.Poisson(std::max(0.0, f.rate_per_minute(m)) * scale);
      for (int64_t i = 0; i < n; ++i) {
        size_t k = static_cast<size_t>(
            std::lower_bound(f.cum_weight.begin(), f.cum_weight.end(),
                             counts.Uniform()) -
            f.cum_weight.begin());
        const Template& t =
            templates_[f.templates[std::min(k, f.templates.size() - 1)]];
        Timestamp second = counts.UniformInt(0, kSecondsPerMinute - 1);
        uint32_t v = static_cast<uint32_t>(rng.UniformInt(0, t.variants - 1));
        minute.push_back({m + second, t.first_stmt + v});
      }
    }
    std::stable_sort(minute.begin(), minute.end(),
                     [](const Arrival& a, const Arrival& b) {
                       return a.ts < b.ts;
                     });
    size_t room = limit - out->size();
    out->insert(out->end(), minute.begin(),
                minute.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(room, minute.size())));
  }
  return m;
}

void Generator::EmitAggregated(Timestamp from, Timestamp to, int64_t step,
                               double scale, Rng& counts,
                               std::vector<Aggregate>* out) const {
  for (Timestamp s = from; s < to; s += step) {
    for (const Family& f : families_) {
      if (s + step <= f.from || s >= f.until) continue;
      double family_expected = 0.0;
      for (Timestamp m = std::max(s, f.from); m < std::min(s + step, f.until);
           m += kSecondsPerMinute) {
        family_expected += std::max(0.0, f.rate_per_minute(m));
      }
      family_expected *= scale;
      for (uint32_t t : f.templates) {
        auto n = static_cast<double>(
            counts.Poisson(family_expected * templates_[t].weight));
        if (n > 0) out->push_back({std::max(s, f.from), templates_[t].first_stmt, n});
      }
    }
  }
}

}  // namespace servicebench
