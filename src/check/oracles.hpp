// The built-in differential-oracle pairs — redundant implementations this
// codebase already maintains, now permanently cross-checked on generated
// inputs:
//
//   conv2d.direct_vs_gemm        reference loop nest vs im2col + blocked GEMM
//   snn.clocked_vs_event_driven  per-step update vs lazy analytic decay
//   gnn.batch_vs_incremental     k-d tree rebuild vs O(1) grid-hash insert
//   par.cnn_conv_1_vs_4_threads  bitwise determinism of the conv hot path
//   par.snn_forward_1_vs_4_threads   ... of the spiking forward pass
//   par.gnn_build_1_vs_4_threads     ... of batch graph construction
//   hw.systolic_vs_naive         accelerator model vs naive counter roll-up
//   hw.zero_skip_vs_naive        ditto for the zero-skipping model
//   simd.conv_vs_scalar          vectorized GEMM microkernel vs the scalar
//                                reference kernel (bitwise, any EVD_SIMD)
//   simd.snn_step_vs_scalar      vectorized LIF update + spike scatter vs
//                                scalar (bitwise logits/membranes/spikes)
//   simd.gnn_accumulate_vs_scalar  gathered neighbor accumulate vs scalar
//                                (bounded-ULP; bitwise in practice)
//   runtime.*, sched.*, route.*, shard.*
//                                serving-plane oracles: sessions served
//                                through a SessionManager or ShardManager
//                                vs a reference run must emit bitwise
//                                identical decision streams (each contract
//                                is stated at its oracle in oracles.cpp)
//
// The kernel-level case structs and diff properties are public so the
// fault-injection self-test can perturb one side and verify the harness
// catches it and shrinks the counterexample. The serving oracles are
// reached through the registry.
#pragma once

#include <array>
#include <optional>

#include "check/generators.hpp"
#include "check/oracle.hpp"
#include "common/parallel.hpp"
#include "hw/systolic.hpp"
#include "hw/zero_skip.hpp"
#include "nn/conv2d.hpp"
#include "snn/event_driven.hpp"

namespace evd::check {

// ---- conv2d: Direct vs Im2colGemm (and serial vs threaded) ----------------

struct ConvCase {
  nn::Conv2dConfig config;       ///< algo is overridden per run.
  std::uint64_t weight_seed = 1; ///< Both instances init from this seed.
  nn::Tensor input;              ///< [C, H, W], mixed zeros / values.
};

Gen<ConvCase> conv_case_gen();
std::optional<std::string> diff_conv_direct_vs_gemm(const ConvCase& c);
std::optional<std::string> diff_conv_serial_vs_threads(const ConvCase& c);

// ---- SNN: clocked vs event-driven execution -------------------------------

/// Weights / LIF constants are dyadic (exact in float), so both executors'
/// membrane arithmetic is exact and the spike trains must match bit-for-bit.
struct SnnLayerCase {
  Index in = 1;
  Index out = 1;
  std::vector<float> weights;  ///< [out * in], dyadic.
  snn::LifConfig lif;          ///< Dyadic beta / threshold.
  snn::SpikeTrain input;
};

Gen<SnnLayerCase> snn_layer_case_gen();
std::optional<std::string> diff_snn_clocked_vs_event_driven(
    const SnnLayerCase& c);

// ---- SNN: full network forward, serial vs threaded ------------------------

struct SnnNetCase {
  std::vector<Index> layer_sizes;
  std::uint64_t weight_seed = 1;
  snn::SpikeTrain input;
};

Gen<SnnNetCase> snn_net_case_gen();
std::optional<std::string> diff_snn_net_serial_vs_threads(const SnnNetCase& c);

// ---- GNN: batch (k-d tree) vs incremental (grid hash) construction --------

struct GraphCase {
  events::EventStream stream;
  float radius = 3.0f;
  Index max_neighbors = 8;
};

Gen<GraphCase> graph_case_gen();
/// Compares per-node degree and neighbour *distance multisets* (exact float
/// equality) — invariant under permutation of exactly-tied candidates, which
/// is the one legitimate way the two builders may disagree.
std::optional<std::string> diff_gnn_batch_vs_incremental(const GraphCase& c);
/// Bitwise identity of the batch builder across thread counts.
std::optional<std::string> diff_gnn_build_serial_vs_threads(const GraphCase& c);

// ---- simd: vector tiers vs the scalar reference kernels -------------------

/// Generated single-node graph-conv evaluation for the gathered
/// neighbor-accumulate kernel (simd::gnn_apply_node): own feature vector,
/// 0..N neighbors with feature vectors and spatiotemporal offsets, dims
/// spanning full vector widths and scalar tails.
struct GnnNodeCase {
  Index in = 1;
  Index out = 1;
  std::uint64_t weight_seed = 1;
  std::vector<float> h_self;                          ///< [in]
  std::vector<std::vector<float>> neighbor_features;  ///< each [in]
  std::vector<std::array<float, 3>> offsets;          ///< (dx, dy, dz)
};

Gen<GnnNodeCase> gnn_node_case_gen();
/// Conv2d GEMM forward under the scalar tier vs the best vector tier —
/// bitwise (ULP bound 0) even on non-dyadic He-normal weights, because the
/// lanes replay the scalar accumulation order with unfused mul+add.
std::optional<std::string> diff_simd_conv_vs_scalar(const ConvCase& c);
/// SpikingNet::step driven over a whole spike train under both tiers:
/// per-step logits, membranes and readout sums must match bitwise.
std::optional<std::string> diff_simd_snn_step_vs_scalar(const SnnNetCase& c);
/// GraphConv::apply_node under both tiers, compared within a small ULP
/// bound (the implementation is bitwise; the bound documents the slack a
/// future faithfully-rounded tier would be granted).
std::optional<std::string> diff_simd_gnn_accumulate_vs_scalar(
    const GnnNodeCase& c);

// ---- hw: accelerator models vs naive counter roll-ups ---------------------

struct HwCase {
  nn::OpCounter workload;
  hw::SystolicConfig systolic;
  hw::ZeroSkipConfig zero_skip;
};

Gen<HwCase> hw_case_gen();
std::optional<std::string> diff_systolic_vs_naive(const HwCase& c);
std::optional<std::string> diff_zero_skip_vs_naive(const HwCase& c);

/// Run fn at the given pool size, restoring the previous size afterwards.
template <typename Fn>
auto with_thread_count(Index threads, Fn&& fn) {
  struct Restore {
    Index previous;
    ~Restore() { par::set_thread_count(previous); }
  } restore{par::thread_count()};
  par::set_thread_count(threads);
  return fn();
}

/// Register every built-in pair into the global registry (idempotent).
void register_builtin_oracles();

}  // namespace evd::check
