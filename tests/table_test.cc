// Unit tests for src/table: values, tables, CSV, serialization, unions.
#include <gtest/gtest.h>

#include <fstream>

#include "table/csv.h"
#include "table/serialize.h"
#include "table/table.h"
#include "table/union.h"

namespace dust::table {
namespace {

Table ParkTable() {
  Table t("parks");
  t.AddColumn("Park Name");
  t.AddColumn("Supervisor");
  t.AddColumn("Country");
  EXPECT_TRUE(t.AddRow({Value("River Park"), Value("Vera Onate"), Value("USA")})
                  .ok());
  EXPECT_TRUE(
      t.AddRow({Value("Hyde Park"), Value("Jenny Rishi"), Value("UK")}).ok());
  return t;
}

TEST(ValueTest, NullSemantics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToDisplay(), "nan");
  EXPECT_FALSE(v.IsNumeric());
  EXPECT_EQ(v, Value::Null());
}

TEST(ValueTest, TextAndNumeric) {
  Value text("Park");
  Value num("42.5");
  EXPECT_FALSE(text.is_null());
  EXPECT_FALSE(text.IsNumeric());
  EXPECT_TRUE(num.IsNumeric());
  EXPECT_DOUBLE_EQ(num.AsNumber(), 42.5);
  EXPECT_EQ(text.ToDisplay(), "Park");
  EXPECT_NE(text, num);
  EXPECT_EQ(Value("a"), Value("a"));
}

TEST(ColumnTest, NumericFraction) {
  Column c;
  c.values = {Value("1"), Value("2.5"), Value("x"), Value::Null()};
  EXPECT_NEAR(c.NumericFraction(), 2.0 / 3.0, 1e-9);
  Column all_null;
  all_null.values = {Value::Null()};
  EXPECT_TRUE(all_null.AllNull());
  EXPECT_DOUBLE_EQ(all_null.NumericFraction(), 1.0);
}

TEST(TableTest, BasicShape) {
  Table t = ParkTable();
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.ColumnIndex("Supervisor"), 1);
  EXPECT_EQ(t.ColumnIndex("Missing"), -1);
  EXPECT_EQ(t.at(1, 2).text(), "UK");
}

TEST(TableTest, RowMaterialization) {
  Table t = ParkTable();
  auto row = t.Row(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].text(), "River Park");
}

TEST(TableTest, AddRowArityMismatchFails) {
  Table t = ParkTable();
  EXPECT_FALSE(t.AddRow({Value("x")}).ok());
}

TEST(TableTest, AddColumnPadsWithNulls) {
  Table t = ParkTable();
  t.AddColumn("Phone");
  EXPECT_EQ(t.num_columns(), 4u);
  EXPECT_TRUE(t.at(0, 3).is_null());
}

TEST(TableTest, AddColumnSizeMismatchFails) {
  Table t = ParkTable();
  EXPECT_FALSE(t.AddColumn("Bad", {Value("only one")}).ok());
}

TEST(TableTest, DropAllNullColumns) {
  Table t("x");
  ASSERT_TRUE(t.AddColumn("a", {Value("1"), Value("2")}).ok());
  ASSERT_TRUE(t.AddColumn("b", {Value::Null(), Value::Null()}).ok());
  t.DropAllNullColumns();
  EXPECT_EQ(t.num_columns(), 1u);
  EXPECT_EQ(t.column(0).name, "a");
}

TEST(TableTest, SelectRowsAndProjectColumns) {
  Table t = ParkTable();
  Table sel = t.SelectRows({1});
  EXPECT_EQ(sel.num_rows(), 1u);
  EXPECT_EQ(sel.at(0, 0).text(), "Hyde Park");
  Table proj = t.ProjectColumns({2, 0});
  EXPECT_EQ(proj.column(0).name, "Country");
  EXPECT_EQ(proj.column(1).name, "Park Name");
  EXPECT_EQ(proj.at(0, 0).text(), "USA");
}

TEST(CsvTest, ParseBasic) {
  auto r = ParseCsv("a,b\n1,2\n3,4\n", "t");
  ASSERT_TRUE(r.ok());
  const Table& t = r.value();
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.at(1, 1).text(), "4");
}

TEST(CsvTest, EmptyFieldsBecomeNulls) {
  auto r = ParseCsv("a,b\n1,\n", "t");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().at(0, 1).is_null());
}

TEST(CsvTest, QuotedFieldsWithCommasAndQuotes) {
  auto r = ParseCsv("name,city\n\"Brandon, MN\",\"say \"\"hi\"\"\"\n", "t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().at(0, 0).text(), "Brandon, MN");
  EXPECT_EQ(r.value().at(0, 1).text(), "say \"hi\"");
}

TEST(CsvTest, QuotedNewlines) {
  auto r = ParseCsv("a\n\"line1\nline2\"\n", "t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().at(0, 0).text(), "line1\nline2");
}

TEST(CsvTest, CrLfHandled) {
  auto r = ParseCsv("a,b\r\n1,2\r\n", "t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_rows(), 1u);
}

TEST(CsvTest, ArityMismatchRejected) {
  auto r = ParseCsv("a,b\n1\n", "t");
  EXPECT_FALSE(r.ok());
}

TEST(CsvTest, RepeatedHeaderNameRejected) {
  // A repeated name leaves the column ambiguous: an output under this
  // header would carry two city columns. The parse fails and names it.
  auto r = ParseCsv("city,city\nAlice,Wonder\n", "q");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("\"city\""), std::string::npos)
      << r.status().ToString();
  EXPECT_FALSE(ParseCsv("a,b,a\n1,2,3\n", "t").ok());
  EXPECT_TRUE(ParseCsv("city,City\nAlice,Wonder\n", "t").ok());
}

TEST(CsvTest, RoundTrip) {
  Table t = ParkTable();
  t.AddColumn("Notes");  // null column
  auto r = ParseCsv(ToCsv(t), "parks");
  ASSERT_TRUE(r.ok());
  const Table& back = r.value();
  ASSERT_EQ(back.num_rows(), t.num_rows());
  ASSERT_EQ(back.num_columns(), t.num_columns());
  for (size_t i = 0; i < t.num_rows(); ++i) {
    for (size_t j = 0; j < t.num_columns(); ++j) {
      EXPECT_EQ(back.at(i, j), t.at(i, j));
    }
  }
}

TEST(CsvTest, OneColumnNullCellSurvivesRoundTrip) {
  // A null cell of a one-column table must not be written as a blank line,
  // which the reader skips: the row would silently disappear.
  Table t("one");
  ASSERT_TRUE(
      t.AddColumn("c", {Value("x"), Value::Null(), Value("z")}).ok());
  auto r = ParseCsv(ToCsv(t), "one");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 3u);
  EXPECT_EQ(r.value().at(0, 0).text(), "x");
  EXPECT_TRUE(r.value().at(1, 0).is_null());
  EXPECT_EQ(r.value().at(2, 0).text(), "z");
}

TEST(CsvTest, BlankLinesAreSkippedNotArityErrors) {
  auto r = ParseCsv("a,b\n1,2\n\n3,4\n\n", "t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_rows(), 2u);
  EXPECT_EQ(r.value().at(1, 0).text(), "3");
}

TEST(CsvTest, WriteThatFailsAtTheFlushIsAnError) {
  // /dev/full accepts the open and every buffered byte, then fails the
  // flush with ENOSPC.
  if (!std::ofstream("/dev/full")) GTEST_SKIP() << "/dev/full cannot be opened";
  Status written = WriteCsvFile(ParkTable(), "/dev/full");
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.code(), StatusCode::kIoError);
}

TEST(CsvTest, RoundTripWithSpecialChars) {
  Table t("x");
  ASSERT_TRUE(t.AddColumn("c", {Value("a,b"), Value("q\"q"), Value("n\nn")}).ok());
  auto r = ParseCsv(ToCsv(t), "x");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().at(0, 0).text(), "a,b");
  EXPECT_EQ(r.value().at(1, 0).text(), "q\"q");
  EXPECT_EQ(r.value().at(2, 0).text(), "n\nn");
}

TEST(SerializeTest, PaperExample4Format) {
  // Sec. 4, Example 4: [CLS] Park Name River Park [SEP] Supervisor Vera
  // Onate [SEP] City Fresno [SEP] Country USA [SEP]
  std::vector<std::string> headers = {"Park Name", "Supervisor", "City",
                                      "Country"};
  std::vector<Value> values = {Value("River Park"), Value("Vera Onate"),
                               Value("Fresno"), Value("USA")};
  EXPECT_EQ(SerializeTuple(headers, values),
            "[CLS] Park Name River Park [SEP] Supervisor Vera Onate [SEP] "
            "City Fresno [SEP] Country USA [SEP]");
}

TEST(SerializeTest, NullCellsSkipped) {
  std::vector<std::string> headers = {"A", "B", "C"};
  std::vector<Value> values = {Value("x"), Value::Null(), Value("z")};
  EXPECT_EQ(SerializeTuple(headers, values),
            "[CLS] A x [SEP] C z [SEP]");
}

TEST(SerializeTest, AllNullProducesEmptyMarkerPair) {
  std::vector<std::string> headers = {"A"};
  std::vector<Value> values = {Value::Null()};
  EXPECT_EQ(SerializeTuple(headers, values), "[CLS] [SEP]");
}

TEST(SerializeTest, TableRowUsesTableHeaders) {
  Table t = ParkTable();
  EXPECT_EQ(SerializeTableRow(t, 1),
            "[CLS] Park Name Hyde Park [SEP] Supervisor Jenny Rishi [SEP] "
            "Country UK [SEP]");
}

TEST(SerializeTest, AlignedSerializationRenamesAndSkipsUnaligned) {
  // A lake table whose "Supervised by" aligns to "Supervisor" and which has
  // no "City" column: the aligned serialization uses query headers and
  // skips the missing column entirely (null).
  Table lake("d");
  ASSERT_TRUE(lake.AddColumn("Name of Park", {Value("Chippewa Park")}).ok());
  ASSERT_TRUE(lake.AddColumn("Supervised by", {Value("Tim Erickson")}).ok());
  std::vector<int> subset = {0, 1, -1};
  std::vector<std::string> renamed = {"Park Name", "Supervisor", "City"};
  EXPECT_EQ(SerializeTableRowAligned(lake, 0, subset, renamed),
            "[CLS] Park Name Chippewa Park [SEP] Supervisor Tim Erickson "
            "[SEP]");
}

TEST(UnionTest, OuterUnionPadsWithNulls) {
  Table a("a");
  ASSERT_TRUE(a.AddColumn("x", {Value("1")}).ok());
  ASSERT_TRUE(a.AddColumn("y", {Value("2")}).ok());
  Table b("b");
  ASSERT_TRUE(b.AddColumn("xx", {Value("3"), Value("4")}).ok());

  std::vector<const Table*> sources = {&a, &b};
  std::vector<ColumnMapping> mappings = {{0, 1}, {0, -1}};
  std::vector<TupleRef> provenance;
  auto r = OuterUnion(sources, mappings, {"X", "Y"}, &provenance);
  ASSERT_TRUE(r.ok());
  const Table& u = r.value();
  EXPECT_EQ(u.num_rows(), 3u);
  EXPECT_EQ(u.at(0, 0).text(), "1");
  EXPECT_EQ(u.at(1, 0).text(), "3");
  EXPECT_TRUE(u.at(1, 1).is_null());
  ASSERT_EQ(provenance.size(), 3u);
  EXPECT_EQ(provenance[0], (TupleRef{0, 0}));
  EXPECT_EQ(provenance[2], (TupleRef{1, 1}));
}

TEST(UnionTest, OuterUnionValidatesMappingArity) {
  Table a("a");
  ASSERT_TRUE(a.AddColumn("x", {Value("1")}).ok());
  std::vector<const Table*> sources = {&a};
  std::vector<ColumnMapping> bad = {{0}};
  EXPECT_FALSE(OuterUnion(sources, bad, {"X", "Y"}, nullptr).ok());
  std::vector<ColumnMapping> out_of_range = {{5, -1}};
  EXPECT_FALSE(OuterUnion(sources, out_of_range, {"X", "Y"}, nullptr).ok());
}

TEST(UnionTest, BagUnionKeepsDuplicates) {
  Table a = ParkTable();
  Table b = ParkTable();
  auto r = BagUnion({&a, &b}, "both");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_rows(), 4u);
}

TEST(UnionTest, SetUnionDropsDuplicates) {
  Table a = ParkTable();
  Table b = ParkTable();
  auto r = SetUnion({&a, &b}, "both");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_rows(), 2u);
}

TEST(UnionTest, SchemaMismatchRejected) {
  Table a = ParkTable();
  Table b("other");
  ASSERT_TRUE(b.AddColumn("z", {Value("1")}).ok());
  EXPECT_FALSE(BagUnion({&a, &b}, "x").ok());
}

TEST(UnionTest, DeduplicateDistinguishesNullFromText) {
  Table t("x");
  ASSERT_TRUE(t.AddColumn("a", {Value("nan"), Value::Null()}).ok());
  Table d = DeduplicateRows(t);
  EXPECT_EQ(d.num_rows(), 2u);  // "nan" text != null
}

TEST(UnionTest, RowKeySeparatesColumns) {
  // ("ab","c") must differ from ("a","bc").
  Table t1("x");
  ASSERT_TRUE(t1.AddColumn("a", {Value("ab")}).ok());
  ASSERT_TRUE(t1.AddColumn("b", {Value("c")}).ok());
  Table t2("y");
  ASSERT_TRUE(t2.AddColumn("a", {Value("a")}).ok());
  ASSERT_TRUE(t2.AddColumn("b", {Value("bc")}).ok());
  EXPECT_NE(RowKey(t1, 0), RowKey(t2, 0));
}

}  // namespace
}  // namespace dust::table
