#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/token.h"

namespace qb5000 {
class Arena;
}  // namespace qb5000

namespace qb5000::sql {

/// Tokenizes a SQL string. Normalization happens here: keywords are
/// uppercased, identifiers lowercased, string quotes stripped. Comments
/// (`--` to end of line, `/* */`) are skipped.
///
/// Zero-copy: token text aliases `sql` where the source span is already
/// canonical and `arena` where it is not (mixed-case identifiers, escaped
/// strings). The returned tokens are valid only while both live.
Result<std::vector<Token>> Tokenize(std::string_view sql, Arena* arena);

/// One-pass, parameter-insensitive canonical form of a statement — the
/// template-cache key (DESIGN.md §11). Shares the scanner's character rules
/// with Tokenize so that NormalizeQuery succeeds iff Tokenize succeeds on
/// the same bytes, with identical error messages.
struct NormalizedQuery {
  /// Canonical text: tokens separated by ' ', keywords uppercased,
  /// identifiers lowercased, literals replaced by type-tagged markers
  /// ("#i" / "#f" / "#s" — '#' can never appear in a real token, so the
  /// markers cannot collide). Typed markers matter because the grammar is
  /// literal-type-sensitive (e.g. LIMIT requires an integer token), so two
  /// statements differing only in literal *type* must not share a key.
  std::string key;
  /// 64-bit mixing hash of `key` (word-at-a-time, not FNV — scan latency
  /// matters more than avalanche here); used for cache-map hashing. Not
  /// stable across versions: never persist it.
  uint64_t hash = 0;
  /// The literal values encountered, in token order (string escapes
  /// resolved). The cache-hit path samples parameters from these.
  std::vector<Literal> literals;
  /// Number of real tokens (end-of-input marker excluded).
  size_t token_count = 0;
};

/// Computes the normalized cache key for `sql` into `out`, reusing `out`'s
/// buffers (clears, does not shrink). Fails exactly when Tokenize fails.
Status NormalizeQuery(std::string_view sql, NormalizedQuery* out);

}  // namespace qb5000::sql
