// RFC-4180-style CSV reading and writing (quoted fields, embedded commas,
// quotes, and newlines). Empty fields load as nulls.
#ifndef DUST_TABLE_CSV_H_
#define DUST_TABLE_CSV_H_

#include <string>

#include "table/table.h"
#include "util/status.h"

namespace dust::table {

/// Parses CSV text (first record is the header) into a Table.
/// InvalidArgument when the header names a column twice or a record's
/// field count differs from the header's.
Result<Table> ParseCsv(const std::string& text, const std::string& table_name);

/// Reads a CSV file; the table is named after the file's basename.
Result<Table> ReadCsvFile(const std::string& path);

/// Serializes a table to CSV text (header + rows; nulls as empty fields,
/// except that a row rendering as an empty line is written as "" so the
/// reader, which skips blank lines, keeps it).
std::string ToCsv(const Table& table);

/// Writes CSV to `path`.
Status WriteCsvFile(const Table& table, const std::string& path);

}  // namespace dust::table

#endif  // DUST_TABLE_CSV_H_
