#include "preprocessor/snapshot.h"

#include <array>
#include <istream>
#include <string>
#include <string_view>

#include "common/strings.h"

namespace qb5000 {
namespace {

constexpr char kMagic[] = "qb5000-snapshot";
/// v3: compressed two-rung history payload (ArrivalHistory::EncodeTo), and
///     the grand and per-type query totals after the templates.
/// v4: v3 plus the next template id after the totals.
/// Load() accepts v3 and v4; Save() writes v4. v3 restores the next id as
/// the largest restored id plus one. The dense v1 and three-rung v2 formats
/// are refused as unsupported versions.
constexpr int kVersion = 4;

// --- primitive writers (length-prefixed strings; text numbers) -------------

void WriteString(std::string* out, std::string_view s) {
  StrAppend(out, s.size(), '\n', s, '\n');
}

// --- primitive readers ------------------------------------------------------

Result<std::string> ReadString(std::istream& in) {
  size_t length = 0;
  if (!(in >> length)) return Status::ParseError("bad string length");
  in.get();  // consume '\n'
  std::string s(length, '\0');
  if (!in.read(s.data(), static_cast<std::streamsize>(length))) {
    return Status::ParseError("truncated string");
  }
  in.get();  // trailing '\n'
  return s;
}

}  // namespace

Status Snapshot::Save(const PreProcessor& pre, std::string* out) {
  StrAppend(out, kMagic, ' ', kVersion, '\n');
  auto ids = pre.TemplateIds();
  StrAppend(out, "templates ", ids.size(), '\n');
  for (TemplateId id : ids) {
    const auto* info = pre.GetTemplate(id);
    if (info == nullptr) return Status::Internal("missing template");
    StrAppend(out, "template ", info->id, '\n');
    WriteString(out, info->fingerprint);
    WriteString(out, info->text);
    StrAppend(out, static_cast<int>(info->type), ' ', info->first_seen, ' ',
              info->last_seen, ' ', info->total_queries, '\n');
    StrAppend(out, "tables ", info->tables.size(), '\n');
    for (const auto& table : info->tables) WriteString(out, table);
    StrAppend(out, "history ", info->history.Total(), ' ',
              info->history.last_arrival(), '\n');
    info->history.EncodeTo(out);
    const auto& samples = info->param_samples;
    StrAppend(out, "params ", samples.capacity(), ' ', samples.seen(), ' ',
              samples.items().size(), '\n');
    for (const auto& params : samples.items()) {
      StrAppend(out, params.size(), '\n');
      for (const auto& literal : params) {
        StrAppend(out, static_cast<int>(literal.type), '\n');
        WriteString(out, literal.text);
      }
    }
  }
  StrAppend(out, "totals ", pre.total_queries());
  for (int type = 0; type < 4; ++type) {
    StrAppend(out, ' ',
              pre.QueriesOfType(static_cast<sql::StatementType>(type)));
  }
  StrAppend(out, "\nnext_id ", pre.next_template_id(), "\nend\n");
  return Status::Ok();
}

Result<PreProcessor> Snapshot::Load(std::istream& in,
                                    PreProcessor::Options options) {
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kMagic) {
    return Status::ParseError("not a qb5000 snapshot");
  }
  if (version != 3 && version != kVersion) {
    return Status::ParseError("unsupported snapshot version");
  }
  std::string keyword;
  size_t count = 0;
  if (!(in >> keyword >> count) || keyword != "templates") {
    return Status::ParseError("missing templates section");
  }
  PreProcessor pre(options);
  for (size_t t = 0; t < count; ++t) {
    TemplateId id = 0;
    if (!(in >> keyword >> id) || keyword != "template") {
      return Status::ParseError("missing template record");
    }
    PreProcessor::TemplateInfo info(PreProcessor::kParamSampleCapacity);
    info.id = id;
    auto fingerprint = ReadString(in);
    if (!fingerprint.ok()) return fingerprint.status();
    info.fingerprint = std::move(*fingerprint);
    auto text = ReadString(in);
    if (!text.ok()) return text.status();
    info.text = std::move(*text);
    int type = 0;
    if (!(in >> type >> info.first_seen >> info.last_seen >>
          info.total_queries)) {
      return Status::ParseError("bad template scalars");
    }
    if (type < 0 || type > 3) return Status::ParseError("bad statement type");
    info.type = static_cast<sql::StatementType>(type);
    size_t num_tables = 0;
    if (!(in >> keyword >> num_tables) || keyword != "tables") {
      return Status::ParseError("missing tables section");
    }
    for (size_t i = 0; i < num_tables; ++i) {
      auto table = ReadString(in);
      if (!table.ok()) return table.status();
      info.tables.push_back(std::move(*table));
    }
    // The header repeats the payload's total and last arrival, which
    // DecodeFrom restores.
    double history_total = 0;
    Timestamp last_arrival = 0;
    if (!(in >> keyword >> history_total >> last_arrival) ||
        keyword != "history") {
      return Status::ParseError("missing history section");
    }
    auto history = ArrivalHistory::DecodeFrom(in);
    if (!history.ok()) return history.status();
    info.history = std::move(*history);
    size_t capacity = 0, kept = 0;
    uint64_t seen = 0;
    if (!(in >> keyword >> capacity >> seen >> kept) || keyword != "params") {
      return Status::ParseError("missing params section");
    }
    std::vector<std::vector<sql::Literal>> items;
    for (size_t i = 0; i < kept; ++i) {
      size_t width = 0;
      if (!(in >> width)) return Status::ParseError("bad param tuple");
      std::vector<sql::Literal> tuple(width);
      for (size_t j = 0; j < width; ++j) {
        int literal_type = 0;
        if (!(in >> literal_type)) return Status::ParseError("bad literal");
        tuple[j].type = static_cast<sql::LiteralType>(literal_type);
        auto literal_text = ReadString(in);
        if (!literal_text.ok()) return literal_text.status();
        tuple[j].text = std::move(*literal_text);
      }
      items.push_back(std::move(tuple));
    }
    info.param_samples.Restore(std::move(items), seen);
    Status st = pre.RestoreTemplate(std::move(info));
    if (!st.ok()) return st;
  }
  double total = 0;
  std::array<double, 4> by_type{};
  if (!(in >> keyword >> total >> by_type[0] >> by_type[1] >> by_type[2] >>
        by_type[3]) ||
      keyword != "totals") {
    return Status::ParseError("missing totals section");
  }
  pre.RestoreTotals(total, by_type);
  if (version >= 4) {
    TemplateId next_id = 0;
    if (!(in >> keyword >> next_id) || keyword != "next_id") {
      return Status::ParseError("missing next_id");
    }
    // An id at or below a restored template's would hand that id out twice.
    if (next_id < pre.next_template_id()) {
      return Status::ParseError("next_id at or below a restored template id");
    }
    pre.RestoreNextTemplateId(next_id);
  }
  if (!(in >> keyword) || keyword != "end") {
    return Status::ParseError("missing end marker");
  }
  return pre;
}

}  // namespace qb5000
