// Direct kernel-level checks of the bitwise-equivalence contract
// (kernels.hpp): every tier, every weight-access path (gathered vs
// transposed) and every tail width must produce identical bits. The
// integration-level simd.* oracles cover the same contract through
// Conv2d/SpikingNet/GraphConv; these tests pin the kernel API itself —
// partition invariance, chunking, threshold edges — with hand-built
// inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"

namespace evd::simd {
namespace {

/// Deterministic pseudo-random float in [-1, 1] (Knuth multiplicative hash).
float unit_val(std::uint32_t i) {
  const std::uint32_t h = (i + 1u) * 2654435761u;
  return static_cast<float>(static_cast<int>(h % 2001u) - 1000) / 1000.0f;
}

std::vector<float> filled(std::size_t n, std::uint32_t salt) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = unit_val(static_cast<std::uint32_t>(i) ^ (salt * 7919u));
  }
  return v;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// ---- cnn.conv_forward ------------------------------------------------------

TEST(SimdConvKernel, VectorTierMatchesScalarBitwiseAcrossTailWidths) {
  const Tier best = detect_best();
  if (best == Tier::Scalar) GTEST_SKIP() << "no vector tier on this machine";
  const Index rows = 9;
  const Index oc_total = 5;  // exercises the 4-tile plus a 1-tile remainder
  for (Index cols = 1; cols <= 33; ++cols) {
    const auto w = filled(static_cast<std::size_t>(oc_total * rows), 1);
    const auto bias = filled(static_cast<std::size_t>(oc_total), 2);
    const auto col = filled(static_cast<std::size_t>(rows * cols), 3);
    std::vector<float> out_s(static_cast<std::size_t>(oc_total * cols));
    std::vector<float> out_v(out_s.size());
    {
      ScopedTier tier(Tier::Scalar);
      conv_gemm_block(w.data(), bias.data(), col.data(), out_s.data(), 0,
                      oc_total, rows, cols, 0, cols);
    }
    {
      ScopedTier tier(best);
      conv_gemm_block(w.data(), bias.data(), col.data(), out_v.data(), 0,
                      oc_total, rows, cols, 0, cols);
    }
    EXPECT_TRUE(same_bits(out_s, out_v)) << "cols=" << cols;
  }
}

TEST(SimdConvKernel, PixelRangePartitionMatchesFullRange) {
  // The L2-blocking caller splits the pixel range; any split point must
  // reproduce the single-call bits exactly (per-pixel order is over r only).
  const Index rows = 7, cols = 29, oc_total = 3;
  const auto w = filled(static_cast<std::size_t>(oc_total * rows), 4);
  const auto bias = filled(static_cast<std::size_t>(oc_total), 5);
  const auto col = filled(static_cast<std::size_t>(rows * cols), 6);
  for (const Tier tier_choice : {Tier::Scalar, detect_best()}) {
    ScopedTier tier(tier_choice);
    std::vector<float> full(static_cast<std::size_t>(oc_total * cols));
    conv_gemm_block(w.data(), bias.data(), col.data(), full.data(), 0,
                    oc_total, rows, cols, 0, cols);
    for (Index split = 1; split < cols; split += 7) {
      std::vector<float> split_out(full.size(), -7.0f);
      conv_gemm_block(w.data(), bias.data(), col.data(), split_out.data(), 0,
                      oc_total, rows, cols, 0, split);
      conv_gemm_block(w.data(), bias.data(), col.data(), split_out.data(), 0,
                      oc_total, rows, cols, split, cols);
      EXPECT_TRUE(same_bits(full, split_out))
          << tier_name(tier_choice) << " split=" << split;
    }
  }
}

// ---- snn.step --------------------------------------------------------------

struct LifResult {
  std::vector<float> v;
  std::vector<float> membrane_pre;
  std::vector<Index> spikes_out;
};

LifResult run_lif(Tier tier, bool use_transposed, Index n, Index in_dim,
                  const std::vector<Index>& spikes, bool reset_to_zero,
                  Index chunk = 0) {
  const auto w = filled(static_cast<std::size_t>(n * in_dim), 10);
  std::vector<float> w_t;
  if (use_transposed) {
    w_t.resize(w.size());
    for (Index o = 0; o < n; ++o) {
      for (Index i = 0; i < in_dim; ++i) {
        w_t[static_cast<std::size_t>(i * n + o)] =
            w[static_cast<std::size_t>(o * in_dim + i)];
      }
    }
  }
  const auto b = filled(static_cast<std::size_t>(n), 11);
  LifResult r;
  r.v = filled(static_cast<std::size_t>(n), 12);
  r.membrane_pre.assign(static_cast<std::size_t>(n), 0.0f);
  ScopedTier guard(tier);
  const Index step = chunk > 0 ? chunk : n;
  for (Index nb = 0; nb < n; nb += step) {
    const Index ne = std::min(n, nb + step);
    lif_step_block(r.v.data(), b.data(), w.data(),
                   use_transposed ? w_t.data() : nullptr, in_dim, n,
                   spikes.data(), static_cast<Index>(spikes.size()), nb, ne,
                   0.9f, 0.35f, reset_to_zero, r.membrane_pre.data(),
                   r.spikes_out);
  }
  return r;
}

TEST(SimdLifKernel, AllTiersAndPathsMatchScalarBitwise) {
  const Tier best = detect_best();
  const std::vector<Index> spikes = {0, 2, 3, 7, 8, 10};
  for (const Index n : {1, 7, 8, 9, 16, 23}) {
    for (const bool reset_to_zero : {false, true}) {
      const auto ref = run_lif(Tier::Scalar, false, n, 11, spikes,
                               reset_to_zero);
      for (const bool transposed : {false, true}) {
        const auto got = run_lif(best, transposed, n, 11, spikes,
                                 reset_to_zero);
        EXPECT_TRUE(same_bits(ref.v, got.v))
            << "n=" << n << " transposed=" << transposed;
        EXPECT_TRUE(same_bits(ref.membrane_pre, got.membrane_pre))
            << "n=" << n << " transposed=" << transposed;
        EXPECT_EQ(ref.spikes_out, got.spikes_out)
            << "n=" << n << " transposed=" << transposed;
      }
    }
  }
}

TEST(SimdLifKernel, ChunkedCallsReproduceSingleCall) {
  // The net chunks neurons for parallelism; chunk boundaries must not move
  // bits or reorder emitted spikes (ascending within and across chunks).
  const std::vector<Index> spikes = {1, 4, 5};
  for (const Tier tier_choice : {Tier::Scalar, detect_best()}) {
    for (const bool transposed : {false, true}) {
      const auto whole = run_lif(tier_choice, transposed, 23, 7, spikes,
                                 false);
      const auto chunked = run_lif(tier_choice, transposed, 23, 7, spikes,
                                   false, /*chunk=*/6);
      EXPECT_TRUE(same_bits(whole.v, chunked.v));
      EXPECT_EQ(whole.spikes_out, chunked.spikes_out);
    }
  }
}

TEST(SimdLifKernel, FiresAtExactlyThresholdAndSubtractResets) {
  // v' lands exactly on theta: the >= comparison must fire the neuron in
  // every tier, and subtract-reset must leave exactly zero behind.
  for (const Tier tier_choice : {Tier::Scalar, detect_best()}) {
    ScopedTier guard(tier_choice);
    std::vector<float> v(9, 0.0f);
    const std::vector<float> b(9, 0.5f);  // beta*0 + 0.5 == theta
    const std::vector<float> w(9, 0.0f);  // in_dim 1, no spikes
    std::vector<Index> fired;
    lif_step_block(v.data(), b.data(), w.data(), nullptr, 1, 9, nullptr, 0, 0,
                   9, 0.9f, 0.5f, /*reset_to_zero=*/false, nullptr, fired);
    ASSERT_EQ(fired.size(), 9u) << tier_name(tier_choice);
    for (Index o = 0; o < 9; ++o) {
      EXPECT_EQ(fired[static_cast<std::size_t>(o)], o);
      EXPECT_EQ(v[static_cast<std::size_t>(o)], 0.0f);
    }
  }
}

// ---- gnn.message_pass ------------------------------------------------------

struct GnnCase {
  Index in = 5, out = 11;
  std::vector<float> w_self, w_nbr, bias, w_self_t, w_nbr_t;
  std::vector<float> feats;  // neighbor feature storage, [degree][in]
  std::vector<GnnNeighbor> neighbors;

  explicit GnnCase(Index degree) {
    w_self = filled(static_cast<std::size_t>(out * in), 20);
    w_nbr = filled(static_cast<std::size_t>(out * (in + 3)), 21);
    bias = filled(static_cast<std::size_t>(out), 22);
    w_self_t.resize(w_self.size());
    for (Index o = 0; o < out; ++o) {
      for (Index f = 0; f < in; ++f) {
        w_self_t[static_cast<std::size_t>(f * out + o)] =
            w_self[static_cast<std::size_t>(o * in + f)];
      }
    }
    w_nbr_t.resize(w_nbr.size());
    for (Index o = 0; o < out; ++o) {
      for (Index f = 0; f < in + 3; ++f) {
        w_nbr_t[static_cast<std::size_t>(f * out + o)] =
            w_nbr[static_cast<std::size_t>(o * (in + 3) + f)];
      }
    }
    feats = filled(static_cast<std::size_t>(degree * in), 23);
    for (Index j = 0; j < degree; ++j) {
      GnnNeighbor nb;
      nb.features = feats.data() + j * in;
      nb.dx = unit_val(static_cast<std::uint32_t>(90 + j));
      nb.dy = unit_val(static_cast<std::uint32_t>(190 + j));
      nb.dz = unit_val(static_cast<std::uint32_t>(290 + j));
      neighbors.push_back(nb);
    }
  }

  std::vector<float> run(Tier tier, bool transposed) const {
    const auto h_self = filled(static_cast<std::size_t>(in), 24);
    std::vector<float> result(static_cast<std::size_t>(out), -9.0f);
    ScopedTier guard(tier);
    gnn_apply_node(w_self.data(), transposed ? w_self_t.data() : nullptr,
                   w_nbr.data(), transposed ? w_nbr_t.data() : nullptr,
                   bias.data(), in, out, h_self.data(), neighbors.data(),
                   static_cast<Index>(neighbors.size()), result.data());
    return result;
  }
};

TEST(SimdGnnKernel, AllTiersAndPathsMatchScalarBitwise) {
  const Tier best = detect_best();
  for (const Index degree : {0, 1, 2, 6}) {
    const GnnCase c(degree);
    const auto ref = c.run(Tier::Scalar, false);
    for (const bool transposed : {false, true}) {
      EXPECT_TRUE(same_bits(ref, c.run(best, transposed)))
          << "degree=" << degree << " transposed=" << transposed;
    }
  }
}

TEST(SimdGnnKernel, DuplicateNeighborsTieWithoutDivergence) {
  // Identical neighbors produce tied Max contributions; the blend rule
  // (strictly-greater replaces) must agree with the scalar first-wins rule.
  GnnCase c(3);
  c.neighbors[2] = c.neighbors[0];
  const auto ref = c.run(Tier::Scalar, false);
  for (const bool transposed : {false, true}) {
    EXPECT_TRUE(same_bits(ref, c.run(detect_best(), transposed)));
  }
}

TEST(SimdGnnKernel, ReluClampsToPositiveZeroEverywhere) {
  // Zero weights/bias/features drive pre-activation to ±0; every tier and
  // path must emit exactly +0.0f (the scalar `pre > 0 ? pre : 0.0f` branch).
  GnnCase c(2);
  std::fill(c.w_self.begin(), c.w_self.end(), 0.0f);
  std::fill(c.w_nbr.begin(), c.w_nbr.end(), 0.0f);
  std::fill(c.bias.begin(), c.bias.end(), -0.0f);
  std::fill(c.w_self_t.begin(), c.w_self_t.end(), 0.0f);
  std::fill(c.w_nbr_t.begin(), c.w_nbr_t.end(), 0.0f);
  const float positive_zero = 0.0f;
  for (const Tier tier_choice : {Tier::Scalar, detect_best()}) {
    for (const bool transposed : {false, true}) {
      for (const float r : c.run(tier_choice, transposed)) {
        EXPECT_EQ(std::memcmp(&r, &positive_zero, sizeof(float)), 0)
            << tier_name(tier_choice);
      }
    }
  }
}

}  // namespace
}  // namespace evd::simd
