#include "preprocessor/snapshot.h"

#include <istream>
#include <ostream>
#include <string>

namespace qb5000 {
namespace {

constexpr char kMagic[] = "qb5000-snapshot";
/// v1: dense history series (recent minute vector + hourly archive vector).
/// v2: compressed three-rung history payload (ArrivalHistory::EncodeResolved).
/// Load() accepts both; Save() writes v2.
constexpr int kVersion = 2;
constexpr int kOldestSupportedVersion = 1;

// --- primitive writers (length-prefixed strings; text numbers) -------------

void WriteString(std::ostream& out, const std::string& s) {
  out << s.size() << '\n' << s << '\n';
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

Result<TimeSeries> ReadSeries(std::istream& in) {
  Timestamp start = 0;
  int64_t interval = 0;
  size_t n = 0;
  if (!(in >> start >> interval >> n)) {
    return Status::ParseError("bad series header");
  }
  if (interval <= 0) return Status::ParseError("bad series interval");
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) {
    if (!(in >> values[i])) return Status::ParseError("truncated series");
  }
  return TimeSeries(start, interval, std::move(values));
}

}  // namespace

Status Snapshot::Save(const PreProcessor& pre, std::ostream& out) {
  out.precision(17);  // doubles must round-trip exactly
  out << kMagic << ' ' << kVersion << '\n';
  auto ids = pre.TemplateIds();
  out << "templates " << ids.size() << '\n';
  for (TemplateId id : ids) {
    const auto* info = pre.GetTemplate(id);
    if (info == nullptr) return Status::Internal("missing template");
    out << "template " << info->id << '\n';
    WriteString(out, info->fingerprint);
    WriteString(out, info->text);
    out << static_cast<int>(info->type) << ' ' << info->first_seen << ' '
        << info->last_seen << ' ' << info->total_queries << '\n';
    out << "tables " << info->tables.size() << '\n';
    for (const auto& table : info->tables) WriteString(out, table);
    out << "history " << info->history.Total() << ' '
        << info->history.last_arrival() << '\n';
    // Reads through the spill store when the history is cold — checkpoints
    // always hold the full state, which is what makes the spill file itself
    // disposable.
    Status history_status = info->history.EncodeResolved(out);
    if (!history_status.ok()) return history_status;
    const auto& samples = info->param_samples;
    out << "params " << samples.capacity() << ' ' << samples.seen() << ' '
        << samples.items().size() << '\n';
    for (const auto& params : samples.items()) {
      out << params.size() << '\n';
      for (const auto& literal : params) {
        out << static_cast<int>(literal.type) << '\n';
        WriteString(out, literal.text);
      }
    }
  }
  out << "end\n";
  if (!out) return Status::Internal("write failed");
  return Status::Ok();
}

Result<PreProcessor> Snapshot::Load(std::istream& in,
                                    PreProcessor::Options options) {
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kMagic) {
    return Status::ParseError("not a qb5000 snapshot");
  }
  if (version < kOldestSupportedVersion || version > kVersion) {
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
    PreProcessor::TemplateInfo info(options.param_sample_capacity);
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
    double history_total = 0;
    Timestamp last_arrival = 0;
    if (!(in >> keyword >> history_total >> last_arrival) ||
        keyword != "history") {
      return Status::ParseError("missing history section");
    }
    if (version == 1) {
      // Dense v1 payload: two flat series, converted bucket-for-bucket.
      auto recent = ReadSeries(in);
      if (!recent.ok()) return recent.status();
      auto archive = ReadSeries(in);
      if (!archive.ok()) return archive.status();
      auto history = ArrivalHistory::FromDense(*recent, *archive,
                                               history_total, last_arrival);
      if (!history.ok()) return history.status();
      info.history = std::move(*history);
    } else {
      auto history = ArrivalHistory::DecodeFrom(in);
      if (!history.ok()) return history.status();
      info.history = std::move(*history);
    }
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
  if (!(in >> keyword) || keyword != "end") {
    return Status::ParseError("missing end marker");
  }
  return pre;
}

}  // namespace qb5000
