#include <gtest/gtest.h>

#include <cstdio>

#include "common/serialization.hpp"
#include "test_util.hpp"

namespace evd {
namespace {

class SerializationTest : public ::testing::Test {
 protected:
  std::string path_ = test::unique_temp_path("evd_serialization_test.bin");
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(SerializationTest, RoundTripScalars) {
  {
    BinaryWriter writer(path_);
    writer.write_u32(0xDEADBEEF);
    writer.write_i64(-123456789012345LL);
    writer.write_f32(3.25f);
    writer.write_f64(-2.5e100);
    writer.write_string("hello world");
  }
  BinaryReader reader(path_);
  EXPECT_EQ(reader.read_u32(), 0xDEADBEEF);
  EXPECT_EQ(reader.read_i64(), -123456789012345LL);
  EXPECT_FLOAT_EQ(reader.read_f32(), 3.25f);
  EXPECT_DOUBLE_EQ(reader.read_f64(), -2.5e100);
  EXPECT_EQ(reader.read_string(), "hello world");
  EXPECT_TRUE(reader.at_end());
}

TEST_F(SerializationTest, RoundTripVector) {
  const std::vector<float> data = {1.0f, -2.0f, 0.5f};
  {
    BinaryWriter writer(path_);
    writer.write_f32_vector(data);
    writer.write_f32_vector({});
  }
  BinaryReader reader(path_);
  EXPECT_EQ(reader.read_f32_vector(), data);
  EXPECT_TRUE(reader.read_f32_vector().empty());
}

TEST_F(SerializationTest, TruncatedReadThrows) {
  {
    BinaryWriter writer(path_);
    writer.write_u32(7);
  }
  BinaryReader reader(path_);
  reader.read_u32();
  EXPECT_THROW(reader.read_i64(), std::runtime_error);
}

TEST_F(SerializationTest, MissingFileThrows) {
  EXPECT_THROW(BinaryReader("/nonexistent/path/file.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace evd
