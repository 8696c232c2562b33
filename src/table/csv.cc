#include "table/csv.h"

#include <fstream>
#include <sstream>

namespace dust::table {

namespace {

// Parses all CSV records from `text`. Handles quoted fields with embedded
// separators, escaped quotes (""), and both \n and \r\n record endings.
std::vector<std::vector<std::string>> ParseRecords(const std::string& text) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> current;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;

  auto end_field = [&] {
    current.push_back(field);
    field.clear();
    field_started = false;
  };
  auto end_record = [&] {
    // A blank line (e.g., the trailing newline) is no record, but a lone
    // quoted "" is: the one-column row whose only cell is empty.
    const bool blank = current.empty() && !field_started;
    end_field();
    if (!blank) records.push_back(current);
    current.clear();
  };

  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        if (!field_started && field.empty()) {
          in_quotes = true;
          field_started = true;
        } else {
          field += c;  // stray quote mid-field: keep literal
        }
        break;
      case ',':
        end_field();
        break;
      case '\r':
        break;  // handled with the following \n
      case '\n':
        end_record();
        break;
      default:
        field += c;
        field_started = true;
        break;
    }
  }
  if (!field.empty() || field_started || !current.empty()) end_record();
  return records;
}

bool NeedsQuoting(const std::string& s) {
  return s.find_first_of(",\"\n\r") != std::string::npos;
}

std::string QuoteField(const std::string& s) {
  if (!NeedsQuoting(s)) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

Result<Table> ParseCsv(const std::string& text, const std::string& table_name) {
  auto records = ParseRecords(text);
  if (records.empty()) {
    return Status::InvalidArgument("CSV has no header record");
  }
  Table table(table_name);
  const auto& header = records[0];
  for (const std::string& name : header) {
    table.AddColumn(name);
  }
  for (size_t r = 1; r < records.size(); ++r) {
    const auto& record = records[r];
    if (record.size() != header.size()) {
      return Status::InvalidArgument(
          "CSV record arity mismatch at record " + std::to_string(r));
    }
    std::vector<Value> row;
    row.reserve(record.size());
    for (const std::string& cell : record) {
      row.push_back(cell.empty() ? Value::Null() : Value(cell));
    }
    DUST_RETURN_IF_ERROR(table.AddRow(std::move(row)));
  }
  return table;
}

Result<Table> ReadCsvFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  size_t slash = path.find_last_of('/');
  std::string base = (slash == std::string::npos) ? path : path.substr(slash + 1);
  size_t dot = base.find_last_of('.');
  if (dot != std::string::npos) base = base.substr(0, dot);
  return ParseCsv(buffer.str(), base);
}

std::string ToCsv(const Table& table) {
  std::string out;
  for (size_t j = 0; j < table.num_columns(); ++j) {
    if (j > 0) out += ',';
    out += QuoteField(table.column(j).name);
  }
  out += '\n';
  for (size_t i = 0; i < table.num_rows(); ++i) {
    const size_t line_start = out.size();
    for (size_t j = 0; j < table.num_columns(); ++j) {
      if (j > 0) out += ',';
      const Value& v = table.at(i, j);
      if (!v.is_null()) out += QuoteField(v.text());
    }
    // A one-column row with an empty cell would be a blank line, which
    // readers skip; an explicit "" keeps the row.
    if (out.size() == line_start) out += "\"\"";
    out += '\n';
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << ToCsv(table);
  // The stream buffers what it is given, so a write that fails only at the
  // final flush (a full disk) shows up at close, not before.
  out.close();
  return out ? Status::Ok() : Status::IoError("write failed: " + path);
}

}  // namespace dust::table
