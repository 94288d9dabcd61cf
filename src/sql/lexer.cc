#include "sql/lexer.h"

#include <array>

#include "common/arena.h"
#include "common/check.h"

namespace qb5000::sql {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

constexpr uint64_t FnvStep(uint64_t h, char c) {
  return (h ^ static_cast<unsigned char>(c)) * kFnvPrime;
}

/// Per-byte character classes for the scan hot path. Equivalent to the
/// <cctype> C-locale predicates but a single table load instead of a libc
/// call per character.
enum CharClass : uint8_t {
  kClassSpace = 1,       ///< isspace
  kClassDigit = 2,       ///< isdigit
  kClassIdentStart = 4,  ///< isalpha or '_'
  kClassIdentChar = 8,   ///< isalnum or '_'
};

constexpr std::array<uint8_t, 256> MakeCharClassTable() {
  std::array<uint8_t, 256> t{};
  for (int c = 0; c < 256; ++c) {
    uint8_t f = 0;
    if (c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
        c == '\r') {
      f |= kClassSpace;
    }
    if (c >= '0' && c <= '9') f |= kClassDigit | kClassIdentChar;
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_') {
      f |= kClassIdentStart | kClassIdentChar;
    }
    t[static_cast<size_t>(c)] = f;
  }
  return t;
}

constexpr std::array<uint8_t, 256> kCharClass = MakeCharClassTable();

bool HasClass(char c, uint8_t mask) {
  return (kCharClass[static_cast<unsigned char>(c)] & mask) != 0;
}

bool IsIdentStart(char c) { return HasClass(c, kClassIdentStart); }

bool IsIdentChar(char c) { return HasClass(c, kClassIdentChar); }

bool IsSpace(char c) { return HasClass(c, kClassSpace); }

bool IsDigit(char c) { return HasClass(c, kClassDigit); }

char AsciiLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

char AsciiUpper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

constexpr size_t kMaxKeywordLength = 8;  // DISTINCT

/// The dialect's reserved words, open-addressed by the FNV-1a hash of the
/// canonical uppercase spelling. The scanner computes that hash during the
/// uppercase copy it already makes, so a keyword probe costs one table
/// index plus (usually) one memcmp — no libstdc++ hash, no node chasing.
/// Slots hold views of string literals, so a hit yields token text with
/// static storage duration.
struct KeywordTable {
  static constexpr size_t kSlots = 128;  // 45 keywords => <40% load
  std::array<std::string_view, kSlots> slots{};
  /// prefilter[letter] bit L set <=> some keyword of length L starts with
  /// that letter. One load rejects most identifiers before the uppercase
  /// copy / hash / probe (e.g. no keyword is 1 long, so `o` never probes).
  std::array<uint16_t, 26> prefilter{};

  void Insert(std::string_view word) {
    uint64_t h = kFnvOffset;
    for (char c : word) h = FnvStep(h, c);
    size_t idx = static_cast<size_t>(h) & (kSlots - 1);
    while (!slots[idx].empty()) idx = (idx + 1) & (kSlots - 1);
    slots[idx] = word;
    prefilter[static_cast<size_t>(word[0] - 'A')] |=
        static_cast<uint16_t>(1u << word.size());
  }

  bool MightBeKeyword(char first, size_t length) const {
    char upper = AsciiUpper(first);
    if (upper < 'A' || upper > 'Z') return false;
    return (prefilter[static_cast<size_t>(upper - 'A')] >> length) & 1u;
  }

  /// Returns the canonical static span, or empty if not a keyword.
  std::string_view Find(std::string_view upper_word, uint64_t hash) const {
    size_t idx = static_cast<size_t>(hash) & (kSlots - 1);
    while (!slots[idx].empty()) {
      if (slots[idx] == upper_word) return slots[idx];
      idx = (idx + 1) & (kSlots - 1);
    }
    return {};
  }
};

const KeywordTable& Keywords() {
  static const KeywordTable* table = [] {
    auto* t = new KeywordTable();
    for (std::string_view word :
         {"SELECT",   "FROM",  "WHERE",  "INSERT", "INTO",    "VALUES",
          "UPDATE",   "SET",   "DELETE", "AND",    "OR",      "NOT",
          "IN",       "IS",    "NULL",   "LIKE",   "BETWEEN", "JOIN",
          "INNER",    "LEFT",  "RIGHT",  "OUTER",  "ON",      "AS",
          "GROUP",    "BY",    "HAVING", "ORDER",  "ASC",     "DESC",
          "LIMIT",    "OFFSET", "DISTINCT", "COUNT", "SUM",   "AVG",
          "MIN",      "MAX",   "TRUE",   "FALSE",  "EXISTS",  "UNION",
          "ALL",      "CROSS", "FULL"}) {
      t->Insert(word);
    }
    return t;
  }();
  return *table;
}

/// A pre-materialization token: `span` aliases the source (or a static
/// canonical string for keywords/placeholders/normalized operators), and
/// `rewrite` marks spans that are not yet canonical (mixed-case
/// identifiers, string literals containing escapes). Tokenize and
/// NormalizeQuery decide how to materialize those; the scanning rules —
/// and therefore the accept/reject behavior — are shared here.
struct RawToken {
  TokenType type = TokenType::kEnd;
  std::string_view span;
  size_t pos = 0;
  bool rewrite = false;
};

class Scanner {
 public:
  explicit Scanner(std::string_view sql)
      : sql_(sql), keywords_(Keywords()) {}

  /// Scans the next token into `tok`; returns false on a scan error (the
  /// error is in status()). Success does not construct a Status — the
  /// per-token return is one bool, which matters at ~45 tokens/statement.
  bool Next(RawToken* tok) {
    const std::string_view sql = sql_;
    const size_t n = sql.size();
    size_t i = i_;
    while (i < n) {
      char c = sql[i];
      if (IsSpace(c)) {
        ++i;
        continue;
      }
      // Comments.
      if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
        while (i < n && sql[i] != '\n') ++i;
        continue;
      }
      if (c == '/' && i + 1 < n && sql[i + 1] == '*') {
        size_t close = sql.find("*/", i + 2);
        if (close == std::string_view::npos) {
          return Fail("unterminated block comment");
        }
        i = close + 2;
        continue;
      }
      size_t start = i;
      tok->pos = start;
      tok->rewrite = false;
      // Identifiers and keywords.
      if (IsIdentStart(c)) {
        bool has_upper = false;
        while (i < n && IsIdentChar(sql[i])) {
          has_upper = has_upper || (sql[i] >= 'A' && sql[i] <= 'Z');
          ++i;
        }
        std::string_view word = sql.substr(start, i - start);
        if (word.size() <= kMaxKeywordLength &&
            keywords_.MightBeKeyword(word[0], word.size())) {
          char upper[kMaxKeywordLength];
          uint64_t h = kFnvOffset;
          for (size_t k = 0; k < word.size(); ++k) {
            upper[k] = AsciiUpper(word[k]);
            h = FnvStep(h, upper[k]);
          }
          std::string_view canonical =
              keywords_.Find(std::string_view(upper, word.size()), h);
          if (!canonical.empty()) {
            tok->type = TokenType::kKeyword;
            tok->span = canonical;  // static canonical uppercase text
            i_ = i;
            return true;
          }
        }
        tok->type = TokenType::kIdentifier;
        tok->span = word;
        tok->rewrite = has_upper;  // needs lowercasing
        i_ = i;
        return true;
      }
      // Quoted identifiers (treated as identifiers, normalized to lowercase).
      if (c == '`' || c == '"') {
        char quote = c;
        ++i;
        size_t qstart = i;
        bool has_upper = false;
        while (i < n && sql[i] != quote) {
          has_upper = has_upper || (sql[i] >= 'A' && sql[i] <= 'Z');
          ++i;
        }
        if (i >= n) return Fail("unterminated quoted identifier");
        tok->type = TokenType::kIdentifier;
        tok->span = sql.substr(qstart, i - qstart);
        tok->rewrite = has_upper;
        i_ = i + 1;
        return true;
      }
      // String literals with '' and backslash escaping.
      if (c == '\'') {
        ++i;
        size_t vstart = i;
        bool closed = false;
        bool has_escape = false;
        while (i < n) {
          if (sql[i] == '\'') {
            if (i + 1 < n && sql[i + 1] == '\'') {
              has_escape = true;
              i += 2;
              continue;
            }
            closed = true;
            break;
          }
          if (sql[i] == '\\' && i + 1 < n) {
            has_escape = true;
            i += 2;
            continue;
          }
          ++i;
        }
        if (!closed) return Fail("unterminated string literal");
        tok->type = TokenType::kString;
        tok->span = sql.substr(vstart, i - vstart);
        tok->rewrite = has_escape;  // escapes still need resolving
        i_ = i + 1;
        return true;
      }
      // Numbers (optional leading sign is handled by the parser).
      if (IsDigit(c) || (c == '.' && i + 1 < n && IsDigit(sql[i + 1]))) {
        bool is_float = false;
        while (i < n && IsDigit(sql[i])) ++i;
        if (i < n && sql[i] == '.') {
          is_float = true;
          ++i;
          while (i < n && IsDigit(sql[i])) ++i;
        }
        if (i < n && (sql[i] == 'e' || sql[i] == 'E')) {
          size_t save = i;
          ++i;
          if (i < n && (sql[i] == '+' || sql[i] == '-')) ++i;
          if (i < n && IsDigit(sql[i])) {
            is_float = true;
            while (i < n && IsDigit(sql[i])) ++i;
          } else {
            i = save;
          }
        }
        tok->type = is_float ? TokenType::kFloat : TokenType::kInteger;
        tok->span = sql.substr(start, i - start);
        i_ = i;
        return true;
      }
      // Placeholders.
      if (c == '?') {
        tok->type = TokenType::kPlaceholder;
        tok->span = "?";
        i_ = i + 1;
        return true;
      }
      if (c == '$' && i + 1 < n && IsDigit(sql[i + 1])) {
        ++i;
        while (i < n && IsDigit(sql[i])) ++i;
        tok->type = TokenType::kPlaceholder;
        tok->span = "?";
        i_ = i;
        return true;
      }
      // Multi-char operators.
      if (i + 1 < n) {
        std::string_view two = sql.substr(i, 2);
        if (two == "<>" || two == "!=" || two == "<=" || two == ">=" ||
            two == "||") {
          tok->type = TokenType::kOperator;
          tok->span = two == "!=" ? std::string_view("<>") : two;
          i_ = i + 2;
          return true;
        }
      }
      switch (c) {
        case ',':
          tok->type = TokenType::kComma;
          break;
        case '(':
          tok->type = TokenType::kLeftParen;
          break;
        case ')':
          tok->type = TokenType::kRightParen;
          break;
        case '.':
          tok->type = TokenType::kDot;
          break;
        case ';':
          tok->type = TokenType::kSemicolon;
          break;
        case '=':
        case '<':
        case '>':
        case '+':
        case '-':
        case '*':
        case '/':
        case '%':
          tok->type = TokenType::kOperator;
          break;
        default:
          return Fail("unexpected character '" + std::string(1, c) +
                      "' at offset " + std::to_string(start));
      }
      tok->span = sql.substr(i, 1);
      i_ = i + 1;
      return true;
    }
    tok->type = TokenType::kEnd;
    tok->span = {};
    tok->pos = n;
    i_ = n;
    return true;
  }

  const Status& status() const { return status_; }

 private:
  bool Fail(std::string message) {
    status_ = Status::ParseError(std::move(message));
    return false;
  }

  std::string_view sql_;
  size_t i_ = 0;
  Status status_;
  const KeywordTable& keywords_;  ///< guard-checked once per statement
};

/// Appends `raw` (a string literal's inner span) with '' and backslash
/// escapes resolved, via `emit(char)`.
template <typename Emit>
void ResolveEscapes(std::string_view raw, Emit emit) {
  for (size_t i = 0; i < raw.size();) {
    if (raw[i] == '\'' && i + 1 < raw.size() && raw[i + 1] == '\'') {
      emit('\'');
      i += 2;
      continue;
    }
    if (raw[i] == '\\' && i + 1 < raw.size()) {
      emit(raw[i + 1]);
      i += 2;
      continue;
    }
    emit(raw[i]);
    ++i;
  }
}

uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = kFnvOffset;
  for (char c : s) h = FnvStep(h, c);
  return h;
}

/// Word-at-a-time mixing hash for normalized keys. FNV-1a's byte-serial
/// multiply chain costs ~3 cycles/byte of pure latency; on a ~200-byte key
/// that is most of a microsecond-scale budget. This reads 8 bytes per
/// round over the just-built key (L1-resident) instead. Quality only needs
/// to cover hash-map bucketing — collisions cost a memcmp, never
/// correctness.
uint64_t HashKey(std::string_view s) {
  constexpr uint64_t kMul = 0x9DDFEA08EB382D69ULL;  // Murmur-style mixer
  uint64_t h = 0x9E3779B97F4A7C15ULL ^ (static_cast<uint64_t>(s.size()) * kFnvPrime);
  size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    uint64_t word;
    __builtin_memcpy(&word, s.data() + i, 8);
    h = (h ^ word) * kMul;
    h ^= h >> 32;
  }
  uint64_t tail = 0;
  for (size_t shift = 0; i < s.size(); ++i, shift += 8) {
    tail |= static_cast<uint64_t>(static_cast<unsigned char>(s[i])) << shift;
  }
  h = (h ^ tail) * kMul;
  h ^= h >> 29;
  return h;
}

}  // namespace

bool IsKeyword(std::string_view upper_word) {
  return !Keywords().Find(upper_word, Fnv1a64(upper_word)).empty();
}

Result<std::vector<Token>> Tokenize(std::string_view sql, Arena* arena) {
  QB_CHECK(arena != nullptr);
  std::vector<Token> tokens;
  Scanner scanner(sql);
  RawToken raw;
  for (;;) {
    if (!scanner.Next(&raw)) return scanner.status();
    std::string_view text = raw.span;
    if (raw.rewrite) {
      if (raw.type == TokenType::kIdentifier) {
        char* mem = static_cast<char*>(arena->Allocate(raw.span.size(), 1));
        for (size_t k = 0; k < raw.span.size(); ++k) {
          mem[k] = AsciiLower(raw.span[k]);
        }
        text = {mem, raw.span.size()};
      } else {  // kString: resolve escapes (never grows the span)
        char* mem = static_cast<char*>(arena->Allocate(raw.span.size(), 1));
        size_t len = 0;
        ResolveEscapes(raw.span, [&](char c) { mem[len++] = c; });
        text = {mem, len};
      }
    }
    tokens.push_back({raw.type, text, raw.pos});
    if (raw.type == TokenType::kEnd) break;
  }
  return tokens;
}

Status NormalizeQuery(std::string_view sql, NormalizedQuery* out) {
  out->key.clear();
  out->hash = 0;
  out->token_count = 0;
  // Literal slots are assigned in place so their string buffers survive
  // across calls (the doc contract: clears, does not shrink); the resize at
  // the end trims to this call's count.
  size_t literal_count = 0;
  auto literal_slot = [&](LiteralType type) -> std::string& {
    if (literal_count < out->literals.size()) {
      Literal& lit = out->literals[literal_count++];
      lit.type = type;
      return lit.text;
    }
    out->literals.push_back({type, std::string()});
    return out->literals[literal_count++].text;
  };
  out->key.reserve(sql.size() + 8);
  Scanner scanner(sql);
  RawToken raw;
  for (;;) {
    if (!scanner.Next(&raw)) {
      out->literals.resize(literal_count);
      return scanner.status();
    }
    if (raw.type == TokenType::kEnd) break;
    ++out->token_count;
    if (!out->key.empty()) out->key.push_back(' ');
    switch (raw.type) {
      case TokenType::kInteger:
        out->key.append("#i");
        literal_slot(LiteralType::kInteger).assign(raw.span);
        break;
      case TokenType::kFloat:
        out->key.append("#f");
        literal_slot(LiteralType::kFloat).assign(raw.span);
        break;
      case TokenType::kString: {
        out->key.append("#s");
        std::string& value = literal_slot(LiteralType::kString);
        if (raw.rewrite) {
          value.clear();
          value.reserve(raw.span.size());
          ResolveEscapes(raw.span, [&](char c) { value.push_back(c); });
        } else {
          value.assign(raw.span);
        }
        break;
      }
      case TokenType::kIdentifier:
        if (raw.rewrite) {
          for (char c : raw.span) out->key.push_back(AsciiLower(c));
        } else {
          out->key.append(raw.span);
        }
        break;
      default:
        out->key.append(raw.span);
        break;
    }
  }
  out->literals.resize(literal_count);
  out->hash = HashKey(out->key);
  return Status::Ok();
}

}  // namespace qb5000::sql
