#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "stats/csv.hpp"

namespace trim {
namespace {

// ---------- CSV ----------

TEST(Csv, WriterProducesParseableFile) {
  const std::string path = ::testing::TempDir() + "/trim_csv_test.csv";
  {
    stats::CsvWriter csv{path};
    csv.header({"a", "b"});
    csv.row(std::vector<double>{1.5, 2.0});
    csv.row(std::vector<std::string>{"x", "y"});
    EXPECT_EQ(csv.rows_written(), 2u);
  }
  std::ifstream in{path};
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,2");
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::remove(path.c_str());
}

TEST(Csv, WriterThrowsOnBadPath) {
  EXPECT_THROW(stats::CsvWriter{"/nonexistent_dir_zz/x.csv"}, std::runtime_error);
}

TEST(Csv, MaybeWriteIsNoOpWithoutEnv) {
  ::unsetenv("REPRO_CSV_DIR");
  stats::TimeSeries ts;
  ts.record(sim::SimTime::millis(1), 2.0);
  EXPECT_EQ(stats::maybe_write_series("nope", ts, "v"), "");
}

TEST(Csv, MaybeWriteSeriesAndCdfWithEnv) {
  const std::string dir = ::testing::TempDir();
  ::setenv("REPRO_CSV_DIR", dir.c_str(), 1);
  stats::TimeSeries ts;
  ts.record(sim::SimTime::millis(1), 2.0);
  ts.record(sim::SimTime::millis(2), 3.0);
  const auto series_path = stats::maybe_write_series("series_test", ts, "pkts");
  EXPECT_FALSE(series_path.empty());

  stats::Cdf cdf;
  cdf.add(1.0);
  cdf.add(2.0);
  const auto cdf_path = stats::maybe_write_cdf("cdf_test", cdf, "ms");
  EXPECT_FALSE(cdf_path.empty());

  std::ifstream in{cdf_path};
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "ms,cum_prob");
  std::getline(in, line);
  EXPECT_EQ(line, "1,0.5");

  ::unsetenv("REPRO_CSV_DIR");
  std::remove(series_path.c_str());
  std::remove(cdf_path.c_str());
}

}  // namespace
}  // namespace trim
