#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "events/event_io.hpp"
#include "test_util.hpp"

namespace evd::events {
namespace {

class EventIoTest : public ::testing::Test {
 protected:
  std::string path(const char* name) { return test::unique_temp_path(name); }
  void TearDown() override {
    std::remove(path("evd_io_test.csv").c_str());
    std::remove(path("evd_io_test.bin").c_str());
  }
};

TEST_F(EventIoTest, CsvRoundTrip) {
  const auto stream = test::make_stream(64, 48, 500);
  write_csv(path("evd_io_test.csv"), stream);
  const auto loaded = read_csv(path("evd_io_test.csv"));
  EXPECT_EQ(loaded.width, 64);
  EXPECT_EQ(loaded.height, 48);
  EXPECT_EQ(loaded.events, stream.events);
}

TEST_F(EventIoTest, BinaryRoundTrip) {
  const auto stream = test::make_stream(128, 128, 2000);
  write_binary(path("evd_io_test.bin"), stream);
  const auto loaded = read_binary(path("evd_io_test.bin"));
  EXPECT_EQ(loaded.width, stream.width);
  EXPECT_EQ(loaded.height, stream.height);
  EXPECT_EQ(loaded.events, stream.events);
}

TEST_F(EventIoTest, EmptyStreamRoundTrips) {
  EventStream stream;
  stream.width = 10;
  stream.height = 20;
  write_csv(path("evd_io_test.csv"), stream);
  write_binary(path("evd_io_test.bin"), stream);
  EXPECT_TRUE(read_csv(path("evd_io_test.csv")).empty());
  EXPECT_EQ(read_binary(path("evd_io_test.bin")).height, 20);
}

TEST_F(EventIoTest, BadMagicThrows) {
  {
    std::ofstream out(path("evd_io_test.bin"), std::ios::binary);
    out << "garbage data here";
  }
  EXPECT_THROW(read_binary(path("evd_io_test.bin")), std::runtime_error);
}

TEST_F(EventIoTest, MalformedCsvThrows) {
  {
    std::ofstream out(path("evd_io_test.csv"));
    out << "not a header\n";
  }
  EXPECT_THROW(read_csv(path("evd_io_test.csv")), std::runtime_error);
}

TEST_F(EventIoTest, MissingFileThrows) {
  EXPECT_THROW(read_csv("/nonexistent.csv"), std::runtime_error);
  EXPECT_THROW(read_binary("/nonexistent.bin"), std::runtime_error);
}

}  // namespace
}  // namespace evd::events
