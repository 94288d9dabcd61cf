#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "dbms/table.h"
#include "sql/ast.h"

namespace qb5000::dbms {

/// Deterministic cost model parameters. Latencies are simulated from page
/// and row counts so experiments are reproducible and hardware-independent;
/// the *relative* behavior (point index lookup << sequential scan; writes
/// pay per maintained index) mirrors the paper's MySQL/PostgreSQL targets.
struct CostModel {
  double rows_per_page = 64;
  /// Buffer-pool size in pages; the paper sizes it at 1/5 of the database.
  double buffer_pool_pages = 4000;
  double page_miss_us = 120.0;
  double page_hit_us = 1.0;
  double row_cpu_us = 0.1;
  double index_probe_us = 3.0;  ///< tree descent per lookup
  double row_write_us = 4.0;    ///< base write cost per row
  double index_maintain_us = 3.0;  ///< extra write cost per index per row
};

/// Execution outcome and its simulated cost.
struct ExecStats {
  size_t rows_examined = 0;
  size_t rows_returned = 0;
  size_t rows_written = 0;
  bool used_index = false;
  std::string index_used;  ///< "table.column" when used_index
  double latency_us = 0.0;
};

/// The miniature single-node engine: catalog + heap tables + ordered
/// secondary indexes + a predicate-driven executor with a page-based cost
/// model. Stands in for MySQL/PostgreSQL in the Section 7.6/7.7
/// index-selection experiments (see DESIGN.md substitutions).
class Database {
 public:
  Database() : Database(CostModel()) {}
  /// `metrics` receives `dbms.*` instruments; nullptr = the process global.
  explicit Database(CostModel cost, MetricsRegistry* metrics = nullptr);

  Status CreateTable(const std::string& name, std::vector<Column> columns);
  Table* GetTable(const std::string& name);
  const Table* GetTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  Status CreateIndex(const std::string& table, const std::string& column);
  Status DropIndex(const std::string& table, const std::string& column);
  /// All secondary indexes as "table.column".
  std::vector<std::string> ListIndexes() const;
  size_t NumIndexes() const;

  /// Parses and executes one statement.
  Result<ExecStats> Execute(const std::string& sql);
  Result<ExecStats> Execute(const sql::Statement& stmt);

  /// What-if cost (simulated microseconds) of a statement if the indexes in
  /// `hypothetical` ("table.column") existed in addition to the real ones.
  /// Uses table statistics only — nothing is built or touched.
  Result<double> EstimateCost(const sql::Statement& stmt,
                              const std::set<std::string>& hypothetical) const;

 private:
  /// Execute(stmt) body; the public wrapper folds the outcome into the
  /// dbms.* counters.
  Result<ExecStats> ExecuteUncounted(const sql::Statement& stmt);

  CostModel cost_;
  std::map<std::string, std::unique_ptr<Table>> tables_;

  // Instrument handles (owned by the registry; see DESIGN.md §10).
  Counter* statements_total_ = nullptr;  ///< Execute() calls that ran
  Counter* rows_examined_total_ = nullptr;
  Counter* rows_written_total_ = nullptr;
  Counter* index_builds_total_ = nullptr;
  Counter* index_drops_total_ = nullptr;
};

}  // namespace qb5000::dbms
