// Shared helpers for the test suite: numeric gradient checking, small
// stream factories and draining a session's decisions.
#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "events/event.hpp"
#include "nn/layer.hpp"
#include "nn/tensor.hpp"

namespace evd::test {

/// Central-difference numeric gradient of a scalar function of a tensor.
inline nn::Tensor numeric_gradient(
    const std::function<double(const nn::Tensor&)>& f, const nn::Tensor& x,
    float eps = 1e-3f) {
  nn::Tensor grad(x.shape());
  nn::Tensor probe = x;
  for (Index i = 0; i < x.numel(); ++i) {
    const float original = probe[i];
    probe[i] = original + eps;
    const double up = f(probe);
    probe[i] = original - eps;
    const double down = f(probe);
    probe[i] = original;
    grad[i] = static_cast<float>((up - down) / (2.0 * eps));
  }
  return grad;
}

/// Assert two gradients agree within mixed absolute/relative tolerance.
inline void expect_gradients_close(const nn::Tensor& analytic,
                                   const nn::Tensor& numeric,
                                   double tolerance = 2e-2) {
  ASSERT_EQ(analytic.numel(), numeric.numel());
  for (Index i = 0; i < analytic.numel(); ++i) {
    const double a = analytic[i];
    const double n = numeric[i];
    const double scale = std::max({std::abs(a), std::abs(n), 1.0});
    EXPECT_NEAR(a, n, tolerance * scale) << "component " << i;
  }
}

/// Base seed for randomised test inputs: EVD_TEST_SEED env override wins,
/// otherwise the given fallback — so any seed-sensitive failure can be
/// reproduced (or the whole suite re-rolled) without a rebuild.
inline std::uint64_t test_seed(std::uint64_t fallback = 7) {
  if (const char* env = std::getenv("EVD_TEST_SEED");
      env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 0);
  }
  return fallback;
}

/// A temp-file path unique to the running test case and process:
/// `<suite>.<test>.<pid>.<name>` under the temp directory. ctest runs every
/// case as its own process, in parallel, so a fixed file name races.
inline std::string unique_temp_path(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string file = info != nullptr ? std::string(info->test_suite_name()) +
                                           "." + info->name() + "."
                                     : std::string();
  file += std::to_string(::getpid()) + "." + name;
  std::replace(file.begin(), file.end(), '/', '_');  // parameterized names
  return (std::filesystem::temp_directory_path() / file).string();
}

/// Every decision `session` holds undrained, oldest first.
inline std::vector<core::Decision> drained(core::StreamSession& session) {
  std::vector<core::Decision> out;
  session.drain(out);
  return out;
}

/// Sentinel default for make_stream: "use test_seed()".
inline constexpr std::uint64_t kDefaultStreamSeed = ~0ULL;

/// The seed the most recent make_stream call actually used — printed by the
/// failure listener in test_main.cpp so failures are reproducible.
inline std::uint64_t& last_stream_seed() {
  static std::uint64_t seed = 0;
  return seed;
}

/// Small synthetic sorted event stream on a width x height sensor.
inline events::EventStream make_stream(Index width, Index height, Index count,
                                       std::uint64_t seed = kDefaultStreamSeed,
                                       TimeUs duration = 100000) {
  if (seed == kDefaultStreamSeed) seed = test_seed();
  last_stream_seed() = seed;
  events::EventStream stream;
  stream.width = width;
  stream.height = height;
  Rng rng(seed);
  stream.events.reserve(static_cast<size_t>(count));
  for (Index i = 0; i < count; ++i) {
    events::Event e;
    e.x = static_cast<std::int16_t>(rng.uniform_int(
        static_cast<std::uint64_t>(width)));
    e.y = static_cast<std::int16_t>(rng.uniform_int(
        static_cast<std::uint64_t>(height)));
    e.polarity = rng.bernoulli(0.5) ? Polarity::On : Polarity::Off;
    e.t = static_cast<TimeUs>(rng.uniform() * static_cast<double>(duration));
    stream.events.push_back(e);
  }
  events::sort_by_time(stream.events);
  return stream;
}

}  // namespace evd::test
