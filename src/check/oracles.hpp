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
//   runtime.multiplex_vs_sequential.{cnn,snn,gnn}
//                                K sessions pumped through the
//                                SessionManager on 4 workers vs the same op
//                                lists fed directly, one session at a time —
//                                decision streams must match bitwise
//   runtime.fault_isolation      healthy sessions' decision streams with vs
//                                without a quarantined (injected-fault)
//                                neighbor — must match bitwise
//   runtime.checkpoint_replay    a session that faults, restores from its
//                                checkpoint and replays must emit the exact
//                                decision stream of a never-faulted run
//   sched.plan_vs_sequential.{cnn,snn,gnn}
//                                sessions pumped under a random valid
//                                execution plan (routed paths, a drawn
//                                burst, shuffled worker regions) vs
//                                direct sequential feeding — decision
//                                streams must match bitwise (the planner's
//                                equivalence contract)
//   route.cnn_sparse_vs_dense    CNN sessions pinned to the sparse conv
//                                path vs the default path — bitwise
//   route.snn_clocked_vs_event   SNN sessions pinned to event-driven
//                                stepping vs default clocked — bitwise
//   route.gnn_batch_vs_incremental
//                                GNN sessions pinned to the full-sweep
//                                batch message pass vs default incremental
//                                — bitwise (registration of these three is
//                                what marks the paths proved/routable)
//   shard.sharded_vs_sequential.{cnn,snn,gnn}
//                                sessions spread over N shard groups (each
//                                its own manager + lock-free ingress ring)
//                                pumped on 4 workers vs direct sequential
//                                feeding — decision streams must match
//                                bitwise at any shard/thread count
//   shard.migration_replay       sessions checkpoint-migrated between
//                                shards mid-stream must emit the exact
//                                decision stream of a never-migrated run
//
// Case structs and diff properties are public so the fault-injection
// self-test can perturb one side and verify the harness catches it and
// shrinks the counterexample.
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
/// 0..N neighbors with feature vectors and spatiotemporal offsets, both
/// aggregations, dims spanning full vector widths and scalar tails.
struct GnnNodeCase {
  Index in = 1;
  Index out = 1;
  std::uint64_t weight_seed = 1;
  bool max_aggregation = true;
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

// ---- runtime: multiplexed vs sequential session serving -------------------

/// Generated interleavings for the SessionManager determinism contract:
/// 1..4 sessions, each with its own feed/advance schedule on a 16x16
/// sensor (tiny untrained pipelines — determinism, not accuracy, is the
/// property under test).
Gen<MultiSessionSchedule> multiplex_case_gen();
/// Feed every session's ops directly and sequentially, then the same ops
/// through a SessionManager pumped on 4 workers with a small burst (many
/// interleaved rounds), and require the per-session decision streams to be
/// identical — exact label, timestamp and bit-for-bit confidence.
std::optional<std::string> diff_cnn_multiplex_vs_sequential(
    const MultiSessionSchedule& c);
std::optional<std::string> diff_snn_multiplex_vs_sequential(
    const MultiSessionSchedule& c);
std::optional<std::string> diff_gnn_multiplex_vs_sequential(
    const MultiSessionSchedule& c);
/// Serve the same multi-session schedule twice through a SessionManager —
/// once with observability enabled (spans, counters, latency histograms all
/// firing) and once with EVD_OBS forced off — and require every session's
/// decision stream to be bitwise identical. Holds the "observers never
/// perturb the observed" contract of evd::obs.
std::optional<std::string> diff_obs_on_vs_off(const MultiSessionSchedule& c);

// ---- fault tolerance: isolation and checkpoint/restore --------------------

/// Serve the schedule twice — clean, and with an extra saboteur session that
/// takes an injected op fault (no checkpoint, so it quarantines) — and
/// require every healthy session's decision stream to be bitwise identical
/// across the two runs. Holds the blast-radius contract of session
/// quarantine: a faulted neighbor is invisible to everyone else.
std::optional<std::string> diff_fault_isolation(const MultiSessionSchedule& c);
/// Feed every session's ops directly (sequential reference), then serve the
/// same schedule through a manager with periodic checkpointing and an
/// injected one-shot op fault on session 0: the faulted session must
/// restore from its last checkpoint, replay, retry, and end with a decision
/// stream bitwise identical to the never-faulted reference.
std::optional<std::string> diff_checkpoint_replay(const MultiSessionSchedule& c);

// ---- sched: plan-driven pump vs sequential reference ----------------------

/// Feed every session's ops directly and sequentially, then serve the same
/// schedule through a SessionManager on 4 workers with an execution plan
/// installed — drawn at random from the schedule itself (seeded by its op
/// counts, so shrinking the schedule shrinks the witness plan with it) —
/// and require bitwise-identical per-session decision streams. A plan may
/// re-partition sessions across workers, reorder visits, change the burst
/// and re-route paths, but must never change a single emitted bit.
std::optional<std::string> diff_cnn_plan_vs_sequential(
    const MultiSessionSchedule& c);
std::optional<std::string> diff_snn_plan_vs_sequential(
    const MultiSessionSchedule& c);
std::optional<std::string> diff_gnn_plan_vs_sequential(
    const MultiSessionSchedule& c);

// ---- route: forced execution paths vs the default path --------------------

/// Feed every session's ops directly on the default path (sequential
/// reference), then serve the same schedule on 4 workers with every
/// session pinned to the named variant via set_execution_path, and require
/// bitwise-identical decision streams (ULP 0). These are the per-placement
/// equivalence proofs that make a path routable: register_builtin_oracles
/// marks CnnSparse / SnnEventDriven / GnnBatch proved exactly because it
/// registers these oracles into the CI-run suite.
std::optional<std::string> diff_route_cnn_sparse_vs_dense(
    const MultiSessionSchedule& c);
std::optional<std::string> diff_route_snn_clocked_vs_event(
    const MultiSessionSchedule& c);
std::optional<std::string> diff_route_gnn_batch_vs_incremental(
    const MultiSessionSchedule& c);

// ---- shard: sharded serving vs the sequential reference -------------------

/// Feed every session's ops directly and sequentially, then serve the same
/// schedule through a ShardManager (3 shard groups, each with its private
/// SessionManager and MPSC ingress ring) pumped on 4 workers, and require
/// bitwise-identical per-session decision streams — the replay-transparency
/// contract of evd::shard: partitioning the serving plane may change *where*
/// and *when* ops execute, never what they compute.
std::optional<std::string> diff_cnn_sharded_vs_sequential(
    const MultiSessionSchedule& c);
std::optional<std::string> diff_snn_sharded_vs_sequential(
    const MultiSessionSchedule& c);
std::optional<std::string> diff_gnn_sharded_vs_sequential(
    const MultiSessionSchedule& c);
/// Same setup (GNN sessions — decisions on every surviving event), but every
/// session is checkpoint-migrated to another shard midway through its
/// schedule and again before the final drain: the moved sessions must emit
/// the exact decision stream of a never-migrated sequential run.
std::optional<std::string> diff_shard_migration_replay(
    const MultiSessionSchedule& c);

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
