#include "check/oracles.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "check/ulp.hpp"
#include "cnn/cnn_pipeline.hpp"
#include "fault/injector.hpp"
#include "gnn/gnn_pipeline.hpp"
#include "gnn/graph_builder.hpp"
#include "gnn/graph_conv.hpp"
#include "gnn/incremental.hpp"
#include "gnn/kdtree.hpp"
#include "obs/metrics.hpp"
#include "route/route.hpp"
#include "sched/plan.hpp"
#include "shard/shard_manager.hpp"
#include "simd/dispatch.hpp"
#include "runtime/session_manager.hpp"
#include "snn/snn_model.hpp"
#include "snn/snn_pipeline.hpp"

namespace evd::check {
namespace {

constexpr Index kThreadedCount = 4;

std::string show_lif(const snn::LifConfig& lif) {
  std::ostringstream os;
  os << "lif{beta=" << lif.beta << ", theta=" << lif.threshold
     << ", reset_to_zero=" << (lif.reset_to_zero ? "true" : "false") << "}";
  return os.str();
}

std::optional<std::string> diff_trains(const snn::SpikeTrain& a,
                                       const snn::SpikeTrain& b) {
  if (a.steps != b.steps) {
    return "step count: " + std::to_string(a.steps) + " vs " +
           std::to_string(b.steps);
  }
  for (Index t = 0; t < a.steps; ++t) {
    const auto& sa = a.active[static_cast<size_t>(t)];
    const auto& sb = b.active[static_cast<size_t>(t)];
    if (sa != sb) {
      std::ostringstream os;
      os << "spikes at step " << t << ": {";
      for (const Index i : sa) os << i << " ";
      os << "} vs {";
      for (const Index i : sb) os << i << " ";
      os << "}";
      return os.str();
    }
  }
  return std::nullopt;
}

}  // namespace

// ---- conv2d ---------------------------------------------------------------

Gen<ConvCase> conv_case_gen() {
  Gen<ConvCase> gen;
  gen.sample = [](Rng& rng) {
    ConvCase c;
    c.config.in_channels = 1 + static_cast<Index>(rng.uniform_int(3));
    c.config.out_channels = 1 + static_cast<Index>(rng.uniform_int(3));
    c.config.kernel = 1 + static_cast<Index>(rng.uniform_int(3));
    c.config.stride = 1 + static_cast<Index>(rng.uniform_int(2));
    c.config.padding = static_cast<Index>(rng.uniform_int(2));
    c.weight_seed = rng.next_u64();
    const Index h = c.config.kernel + static_cast<Index>(rng.uniform_int(6));
    const Index w = c.config.kernel + static_cast<Index>(rng.uniform_int(6));
    c.input = tensor_gen({c.config.in_channels, h, w}, 1.0f, 0.35).sample(rng);
    return c;
  };
  gen.shrink = [](const ConvCase& c) {
    std::vector<ConvCase> out;
    for (auto& smaller : shrink_tensor(c.input)) {
      ConvCase candidate = c;
      candidate.input = std::move(smaller);
      out.push_back(std::move(candidate));
    }
    return out;
  };
  gen.show = [](const ConvCase& c) {
    std::ostringstream os;
    os << "conv ic=" << c.config.in_channels << " oc=" << c.config.out_channels
       << " k=" << c.config.kernel << " stride=" << c.config.stride
       << " pad=" << c.config.padding << " weight_seed=" << c.weight_seed
       << ", " << show_tensor(c.input);
    return os.str();
  };
  return gen;
}

std::optional<std::string> diff_conv_direct_vs_gemm(const ConvCase& c) {
  nn::Conv2dConfig direct_config = c.config;
  direct_config.algo = nn::ConvAlgo::Direct;
  nn::Conv2dConfig gemm_config = c.config;
  gemm_config.algo = nn::ConvAlgo::Gemm;
  Rng direct_rng(c.weight_seed);
  Rng gemm_rng(c.weight_seed);
  nn::Conv2d direct(direct_config, direct_rng);
  nn::Conv2d gemm(gemm_config, gemm_rng);
  const nn::Tensor a = direct.forward(c.input, false);
  const nn::Tensor b = gemm.forward(c.input, false);
  // Accumulation order per output element is identical, so agreement is
  // exact (a GEMM padding tap only ever adds w * 0.0f).
  return diff_floats("direct vs gemm output", a.data(), b.data(), a.numel());
}

std::optional<std::string> diff_conv_serial_vs_threads(const ConvCase& c) {
  auto run = [&c] {
    nn::Conv2dConfig config = c.config;  // Auto: shape-pure algo choice
    Rng rng(c.weight_seed);
    nn::Conv2d conv(config, rng);
    return conv.forward(c.input, false);
  };
  const nn::Tensor serial = with_thread_count(1, run);
  const nn::Tensor threaded = with_thread_count(kThreadedCount, run);
  return diff_floats("conv output at 1 vs " + std::to_string(kThreadedCount) +
                         " threads",
                     serial.data(), threaded.data(), serial.numel());
}

// ---- SNN layer ------------------------------------------------------------

Gen<SnnLayerCase> snn_layer_case_gen() {
  Gen<SnnLayerCase> gen;
  auto weight = dyadic_in(1.0f, 8);
  auto beta = element_of<float>({1.0f, 0.5f, 0.25f});
  auto threshold = element_of<float>({1.0f, 0.5f, 1.5f});
  gen.sample = [weight, beta, threshold](Rng& rng) {
    SnnLayerCase c;
    c.in = 1 + static_cast<Index>(rng.uniform_int(6));
    c.out = 1 + static_cast<Index>(rng.uniform_int(5));
    c.weights.resize(static_cast<size_t>(c.in * c.out));
    for (auto& w : c.weights) w = weight.sample(rng);
    c.lif.beta = beta.sample(rng);
    c.lif.threshold = threshold.sample(rng);
    c.lif.reset_to_zero = rng.bernoulli(0.5);
    c.input = spike_train_gen(8, c.in, 0.3).sample(rng);
    return c;
  };
  gen.shrink = [](const SnnLayerCase& c) {
    std::vector<SnnLayerCase> out;
    for (auto& fewer : shrink_spike_train(c.input)) {
      SnnLayerCase candidate = c;
      candidate.input = std::move(fewer);
      out.push_back(std::move(candidate));
    }
    // Zero out weights one at a time (shrinks the surviving interaction).
    size_t zeroed = 0;
    for (size_t i = 0; i < c.weights.size() && zeroed < 8; ++i) {
      if (c.weights[i] == 0.0f) continue;
      SnnLayerCase candidate = c;
      candidate.weights[i] = 0.0f;
      out.push_back(std::move(candidate));
      ++zeroed;
    }
    return out;
  };
  gen.show = [](const SnnLayerCase& c) {
    std::ostringstream os;
    os << "snn layer " << c.in << "->" << c.out << " " << show_lif(c.lif)
       << " weights=[";
    for (size_t i = 0; i < c.weights.size() && i < 16; ++i) {
      os << (i ? ", " : "") << c.weights[i];
    }
    os << (c.weights.size() > 16 ? ", ...] " : "] ");
    os << show_spike_train(c.input);
    return os.str();
  };
  return gen;
}

std::optional<std::string> diff_snn_clocked_vs_event_driven(
    const SnnLayerCase& c) {
  nn::Tensor weight({c.out, c.in});
  std::copy(c.weights.begin(), c.weights.end(), weight.data());
  snn::SpikingLayerSpec spec;
  spec.weight = &weight;
  spec.lif = c.lif;
  snn::ExecutionCost clocked_cost, event_cost;
  const snn::SpikeTrain clocked = snn::run_clocked(spec, c.input, clocked_cost);
  const snn::SpikeTrain event =
      snn::run_event_driven(spec, c.input, event_cost);
  if (auto mismatch = diff_trains(clocked, event)) {
    return "clocked vs event-driven: " + *mismatch;
  }
  return diff_scalar("output spike count",
                     static_cast<double>(clocked_cost.output_spikes),
                     static_cast<double>(event_cost.output_spikes));
}

// ---- SNN network ----------------------------------------------------------

Gen<SnnNetCase> snn_net_case_gen() {
  Gen<SnnNetCase> gen;
  gen.sample = [](Rng& rng) {
    SnnNetCase c;
    const Index input = 4 + static_cast<Index>(rng.uniform_int(12));
    const Index hidden = 4 + static_cast<Index>(rng.uniform_int(12));
    const Index output = 2 + static_cast<Index>(rng.uniform_int(4));
    c.layer_sizes = {input, hidden, output};
    c.weight_seed = rng.next_u64();
    c.input = spike_train_gen(10, input, 0.25).sample(rng);
    return c;
  };
  gen.shrink = [](const SnnNetCase& c) {
    std::vector<SnnNetCase> out;
    for (auto& fewer : shrink_spike_train(c.input)) {
      SnnNetCase candidate = c;
      candidate.input = std::move(fewer);
      out.push_back(std::move(candidate));
    }
    return out;
  };
  gen.show = [](const SnnNetCase& c) {
    std::ostringstream os;
    os << "snn net {";
    for (size_t i = 0; i < c.layer_sizes.size(); ++i) {
      os << (i ? "," : "") << c.layer_sizes[i];
    }
    os << "} weight_seed=" << c.weight_seed << ", " << show_spike_train(c.input);
    return os.str();
  };
  return gen;
}

std::optional<std::string> diff_snn_net_serial_vs_threads(const SnnNetCase& c) {
  auto run = [&c] {
    snn::SpikingNetConfig config;
    config.layer_sizes = c.layer_sizes;
    Rng rng(c.weight_seed);
    snn::SpikingNet net(config, rng);
    return net.forward(c.input, false);
  };
  const nn::Tensor serial = with_thread_count(1, run);
  const nn::Tensor threaded = with_thread_count(kThreadedCount, run);
  return diff_floats("snn logits at 1 vs " + std::to_string(kThreadedCount) +
                         " threads",
                     serial.data(), threaded.data(), serial.numel());
}

// ---- GNN ------------------------------------------------------------------

Gen<GraphCase> graph_case_gen() {
  Gen<GraphCase> gen;
  auto radius = element_of<float>({2.0f, 3.0f, 4.0f});
  auto degree = element_of<Index>({4, 8, 12});
  StreamGenConfig stream_config;
  stream_config.max_width = 24;
  stream_config.max_height = 24;
  stream_config.max_events = 200;
  auto stream = event_stream_gen(stream_config);
  gen.sample = [radius, degree, stream](Rng& rng) {
    GraphCase c;
    c.stream = stream.sample(rng);
    c.radius = radius.sample(rng);
    c.max_neighbors = degree.sample(rng);
    return c;
  };
  gen.shrink = [](const GraphCase& c) {
    std::vector<GraphCase> out;
    for (auto& fewer : shrink_stream(c.stream)) {
      GraphCase candidate = c;
      candidate.stream = std::move(fewer);
      out.push_back(std::move(candidate));
    }
    return out;
  };
  gen.show = [](const GraphCase& c) {
    std::ostringstream os;
    os << "graph radius=" << c.radius << " max_neighbors=" << c.max_neighbors
       << ", " << show_stream(c.stream);
    return os.str();
  };
  return gen;
}

namespace {

/// Sorted squared distances from node i to its neighbours — the
/// tie-permutation-invariant signature the two builders must share.
std::vector<float> neighbor_distances(const gnn::EventGraph& graph, Index i) {
  std::vector<float> distances;
  for (const Index j : graph.neighbors(i)) {
    distances.push_back(
        gnn::squared_distance(graph.node(i).position, graph.node(j).position));
  }
  std::sort(distances.begin(), distances.end());
  return distances;
}

std::optional<std::string> diff_graphs_by_distance(
    const gnn::EventGraph& a, const gnn::EventGraph& b, const char* what) {
  if (a.node_count() != b.node_count()) {
    return std::string(what) + ": node count " +
           std::to_string(a.node_count()) + " vs " +
           std::to_string(b.node_count());
  }
  for (Index i = 0; i < a.node_count(); ++i) {
    const auto da = neighbor_distances(a, i);
    const auto db = neighbor_distances(b, i);
    if (da != db) {
      std::ostringstream os;
      os << what << ": node " << i << " neighbour distances {";
      for (const float d : da) os << d << " ";
      os << "} vs {";
      for (const float d : db) os << d << " ";
      os << "}";
      return os.str();
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> diff_gnn_batch_vs_incremental(const GraphCase& c) {
  gnn::GraphBuildConfig batch_config;
  batch_config.radius = c.radius;
  batch_config.max_neighbors = c.max_neighbors;
  batch_config.max_nodes = std::max<Index>(c.stream.size(), 1);
  gnn::IncrementalConfig inc_config;
  inc_config.radius = c.radius;
  inc_config.max_neighbors = c.max_neighbors;
  inc_config.cell_capacity = 1024;  // ample: no eviction, exact equivalence
  if (c.stream.width <= 0 || c.stream.height <= 0) return std::nullopt;
  const gnn::EventGraph batch = gnn::build_graph(c.stream, batch_config);
  const gnn::EventGraph incremental = gnn::build_graph_incremental(
      c.stream, inc_config, batch_config.max_nodes);
  return diff_graphs_by_distance(batch, incremental, "batch vs incremental");
}

std::optional<std::string> diff_gnn_build_serial_vs_threads(
    const GraphCase& c) {
  gnn::GraphBuildConfig config;
  config.radius = c.radius;
  config.max_neighbors = c.max_neighbors;
  config.max_nodes = std::max<Index>(c.stream.size(), 1);
  auto run = [&] { return gnn::build_graph(c.stream, config); };
  const gnn::EventGraph serial = with_thread_count(1, run);
  const gnn::EventGraph threaded = with_thread_count(kThreadedCount, run);
  // The parallel layer promises bitwise determinism, so compare exactly.
  if (serial.node_count() != threaded.node_count() ||
      serial.edge_count() != threaded.edge_count()) {
    return "graph shape: " + std::to_string(serial.node_count()) + "n/" +
           std::to_string(serial.edge_count()) + "e vs " +
           std::to_string(threaded.node_count()) + "n/" +
           std::to_string(threaded.edge_count()) + "e";
  }
  for (Index i = 0; i < serial.node_count(); ++i) {
    const auto sa = serial.neighbors(i);
    const auto sb = threaded.neighbors(i);
    if (!std::equal(sa.begin(), sa.end(), sb.begin(), sb.end())) {
      return "neighbours of node " + std::to_string(i) +
             " differ across thread counts";
    }
  }
  return std::nullopt;
}

// ---- simd: vector tiers vs the scalar reference kernels -------------------

namespace {

/// Run fn with the given SIMD tier active, restoring the previous tier.
template <typename Fn>
auto with_simd_tier(simd::Tier tier, Fn&& fn) {
  simd::ScopedTier scoped(tier);
  return fn();
}

std::string tier_pair_label(const std::string& what) {
  return what + " (scalar vs " + simd::tier_name(simd::detect_best()) + ")";
}

}  // namespace

std::optional<std::string> diff_simd_conv_vs_scalar(const ConvCase& c) {
  auto run = [&c] {
    nn::Conv2dConfig config = c.config;
    config.algo = nn::ConvAlgo::Gemm;  // force the vectorized GEMM path
    Rng rng(c.weight_seed);
    nn::Conv2d conv(config, rng);
    return conv.forward(c.input, false);
  };
  const nn::Tensor scalar = with_simd_tier(simd::Tier::Scalar, run);
  const nn::Tensor vector = with_simd_tier(simd::detect_best(), run);
  // He-normal weights are not dyadic, yet the bound is 0 ULPs: the vector
  // lanes replay the scalar per-pixel accumulation order with unfused
  // mul+add, so the agreement is bitwise, not merely close.
  return diff_floats_ulp(tier_pair_label("conv gemm output"), scalar.data(),
                         vector.data(), scalar.numel(), 0);
}

std::optional<std::string> diff_simd_snn_step_vs_scalar(const SnnNetCase& c) {
  struct StepRun {
    std::vector<nn::Tensor> logits;
    snn::SnnState state;
  };
  auto run = [&c] {
    snn::SpikingNetConfig config;
    config.layer_sizes = c.layer_sizes;
    Rng rng(c.weight_seed);
    snn::SpikingNet net(config, rng);
    net.freeze();  // the serving path: transposed weights
    StepRun r;
    r.state = net.make_state();
    for (Index t = 0; t < c.input.steps; ++t) {
      r.logits.push_back(
          net.step(r.state, c.input.active[static_cast<size_t>(t)]));
    }
    return r;
  };
  const StepRun scalar = with_simd_tier(simd::Tier::Scalar, run);
  const StepRun vector = with_simd_tier(simd::detect_best(), run);
  for (size_t t = 0; t < scalar.logits.size(); ++t) {
    if (auto d = diff_floats_ulp(
            tier_pair_label("snn step logits at t=" + std::to_string(t)),
            scalar.logits[t].data(), vector.logits[t].data(),
            scalar.logits[t].numel(), 0)) {
      return d;
    }
  }
  for (size_t l = 0; l < scalar.state.membrane.size(); ++l) {
    if (auto d = diff_floats_ulp(
            tier_pair_label("snn membrane layer " + std::to_string(l)),
            scalar.state.membrane[l].data(), vector.state.membrane[l].data(),
            static_cast<Index>(scalar.state.membrane[l].size()), 0)) {
      return d;
    }
  }
  if (auto d = diff_floats_ulp(
          tier_pair_label("snn readout sum"), scalar.state.readout_sum.data(),
          vector.state.readout_sum.data(),
          static_cast<Index>(scalar.state.readout_sum.size()), 0)) {
    return d;
  }
  // Bitwise membranes imply identical threshold crossings; the explicit
  // spike-count check catches a kernel that fires the right membrane but
  // emits the wrong ids.
  return diff_scalar("snn hidden spikes in final step",
                     static_cast<double>(scalar.state.step_hidden_spikes),
                     static_cast<double>(vector.state.step_hidden_spikes));
}

Gen<GnnNodeCase> gnn_node_case_gen() {
  Gen<GnnNodeCase> gen;
  gen.sample = [](Rng& rng) {
    GnnNodeCase c;
    c.in = 1 + static_cast<Index>(rng.uniform_int(12));
    // Spans one-or-more full vector widths plus every tail length.
    c.out = 1 + static_cast<Index>(rng.uniform_int(20));
    c.weight_seed = rng.next_u64();
    c.max_aggregation = rng.bernoulli(0.5);
    c.h_self.resize(static_cast<size_t>(c.in));
    for (auto& x : c.h_self) {
      x = rng.bernoulli(0.2) ? 0.0f
                             : static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    const Index degree = static_cast<Index>(rng.uniform_int(7));  // 0..6
    c.neighbor_features.assign(static_cast<size_t>(degree), {});
    c.offsets.assign(static_cast<size_t>(degree), {});
    for (Index j = 0; j < degree; ++j) {
      auto& feats = c.neighbor_features[static_cast<size_t>(j)];
      feats.resize(static_cast<size_t>(c.in));
      for (auto& x : feats) {
        x = rng.bernoulli(0.2) ? 0.0f
                               : static_cast<float>(rng.uniform(-1.0, 1.0));
      }
      for (auto& o : c.offsets[static_cast<size_t>(j)]) {
        o = static_cast<float>(rng.uniform(-3.0, 3.0));
      }
    }
    return c;
  };
  gen.shrink = [](const GnnNodeCase& c) {
    std::vector<GnnNodeCase> out;
    for (size_t j = 0; j < c.neighbor_features.size(); ++j) {
      GnnNodeCase candidate = c;
      candidate.neighbor_features.erase(candidate.neighbor_features.begin() +
                                        static_cast<std::ptrdiff_t>(j));
      candidate.offsets.erase(candidate.offsets.begin() +
                              static_cast<std::ptrdiff_t>(j));
      out.push_back(std::move(candidate));
    }
    return out;
  };
  gen.show = [](const GnnNodeCase& c) {
    std::ostringstream os;
    os << "gnn node in=" << c.in << " out=" << c.out
       << " agg=" << (c.max_aggregation ? "max" : "mean")
       << " degree=" << c.neighbor_features.size()
       << " weight_seed=" << c.weight_seed;
    return os.str();
  };
  return gen;
}

std::optional<std::string> diff_simd_gnn_accumulate_vs_scalar(
    const GnnNodeCase& c) {
  Rng rng(c.weight_seed);
  gnn::GraphConv conv(c.in, c.out, rng,
                      c.max_aggregation ? gnn::Aggregation::Max
                                        : gnn::Aggregation::Mean);
  conv.freeze();  // the serving path: transposed weights
  std::vector<gnn::GraphConv::NeighborRef> refs(c.neighbor_features.size());
  for (size_t j = 0; j < refs.size(); ++j) {
    refs[j].features = c.neighbor_features[j].data();
    refs[j].dx = c.offsets[j][0];
    refs[j].dy = c.offsets[j][1];
    refs[j].dz = c.offsets[j][2];
  }
  auto run = [&] {
    std::vector<float> out(static_cast<size_t>(c.out));
    conv.apply_node(c.h_self.data(), refs, out.data());
    return out;
  };
  const std::vector<float> scalar = with_simd_tier(simd::Tier::Scalar, run);
  const std::vector<float> vector = with_simd_tier(simd::detect_best(), run);
  // In practice bitwise (distance 0); the 2-ULP bound is the documented
  // slack for a future faithfully-rounded tier.
  return diff_floats_ulp(tier_pair_label("gnn apply_node output"),
                         scalar.data(), vector.data(), c.out, 2);
}

// ---- hw -------------------------------------------------------------------

Gen<HwCase> hw_case_gen() {
  Gen<HwCase> gen;
  auto lanes = element_of<Index>({1, 16, 128, 256});
  auto vec_lanes = element_of<Index>({1, 4, 8, 16});
  auto dims = element_of<Index>({4, 8, 16});
  auto freq = element_of<double>({100.0, 200.0, 800.0});
  auto efficiency = element_of<double>({0.0, 0.5, 0.8, 1.0});
  auto utilization = element_of<double>({0.5, 0.85, 1.0});
  auto reuse = element_of<double>({1.0, 16.0});
  gen.sample = [=](Rng& rng) {
    HwCase c;
    auto count = [&rng] {
      return static_cast<std::int64_t>(rng.uniform_int(1'000'000'000ULL));
    };
    c.workload.mults = count();
    c.workload.adds = count();
    c.workload.comparisons = count();
    // Deliberately allow zero_skippable > macs() to exercise the clamp.
    c.workload.zero_skippable_mults = count();
    c.workload.param_bytes_read = count();
    c.workload.act_bytes_read = count();
    c.workload.act_bytes_written = count();
    c.workload.state_bytes_rw = count();
    c.systolic.rows = dims.sample(rng);
    c.systolic.cols = dims.sample(rng);
    c.systolic.frequency_mhz = freq.sample(rng);
    c.systolic.utilization = utilization.sample(rng);
    c.systolic.reuse_factor = reuse.sample(rng);
    c.systolic.simd_lanes = vec_lanes.sample(rng);
    c.zero_skip.lanes = lanes.sample(rng);
    c.zero_skip.frequency_mhz = freq.sample(rng);
    c.zero_skip.skip_efficiency = efficiency.sample(rng);
    c.zero_skip.irregular_access_penalty = rng.bernoulli(0.5) ? 1.0 : 1.25;
    c.zero_skip.compression_overhead = rng.bernoulli(0.5) ? 0.0 : 0.10;
    c.zero_skip.reuse_factor = reuse.sample(rng);
    c.zero_skip.simd_lanes = vec_lanes.sample(rng);
    return c;
  };
  gen.shrink = [](const HwCase& c) {
    std::vector<HwCase> out;
    auto halve = [&out, &c](std::int64_t nn::OpCounter::* field) {
      if (c.workload.*field == 0) return;
      HwCase candidate = c;
      candidate.workload.*field /= 2;
      out.push_back(std::move(candidate));
    };
    halve(&nn::OpCounter::mults);
    halve(&nn::OpCounter::adds);
    halve(&nn::OpCounter::comparisons);
    halve(&nn::OpCounter::zero_skippable_mults);
    halve(&nn::OpCounter::param_bytes_read);
    halve(&nn::OpCounter::act_bytes_read);
    halve(&nn::OpCounter::act_bytes_written);
    halve(&nn::OpCounter::state_bytes_rw);
    return out;
  };
  gen.show = [](const HwCase& c) {
    std::ostringstream os;
    os << "workload{mults=" << c.workload.mults << " adds=" << c.workload.adds
       << " cmp=" << c.workload.comparisons
       << " zskip=" << c.workload.zero_skippable_mults
       << " pbytes=" << c.workload.param_bytes_read
       << " abytes=" << c.workload.act_bytes_read << "+"
       << c.workload.act_bytes_written
       << " sbytes=" << c.workload.state_bytes_rw << "} systolic{"
       << c.systolic.rows << "x" << c.systolic.cols << " @"
       << c.systolic.frequency_mhz << "MHz util=" << c.systolic.utilization
       << " vlanes=" << c.systolic.simd_lanes
       << "} zskip{lanes=" << c.zero_skip.lanes << " @"
       << c.zero_skip.frequency_mhz
       << "MHz eff=" << c.zero_skip.skip_efficiency
       << " vlanes=" << c.zero_skip.simd_lanes << "}";
    return os.str();
  };
  return gen;
}

std::optional<std::string> diff_systolic_vs_naive(const HwCase& c) {
  const hw::AcceleratorReport report = hw::run_systolic(c.workload, c.systolic);
  // Naive roll-up straight from the documented model: latency = dense MACs
  // over active PEs, energy = every MAC plus word traffic divided by reuse.
  const auto& w = c.workload;
  const auto& cfg = c.systolic;
  const double macs = static_cast<double>(std::min(w.mults, w.adds));
  const double latency =
      macs /
      (static_cast<double>(cfg.rows * cfg.cols * cfg.simd_lanes) *
       cfg.utilization) /
      cfg.frequency_mhz;
  const std::int64_t vector_ops =
      (std::min(w.mults, w.adds) + cfg.simd_lanes - 1) / cfg.simd_lanes;
  const double compute =
      macs * (cfg.table.add_pj + cfg.table.mult_pj) +
      static_cast<double>(w.comparisons) * cfg.table.compare_pj;
  const double memory =
      (static_cast<double>(w.param_bytes_read) +
       static_cast<double>(w.act_bytes_read + w.act_bytes_written)) /
          cfg.reuse_factor * cfg.table.sram_pj_per_byte +
      static_cast<double>(w.state_bytes_rw) * cfg.table.sram_pj_per_byte;
  if (auto d = diff_scalar("systolic effective MACs",
                           static_cast<double>(report.effective_macs), macs)) {
    return d;
  }
  if (auto d =
          diff_scalar("systolic latency", report.latency_us, latency, 1e-12)) {
    return d;
  }
  if (auto d = diff_scalar("systolic vector ops",
                           static_cast<double>(report.vector_ops),
                           static_cast<double>(vector_ops))) {
    return d;
  }
  return diff_scalar("systolic energy", report.energy.total_pj(),
                     compute + memory, 1e-12);
}

std::optional<std::string> diff_zero_skip_vs_naive(const HwCase& c) {
  const hw::AcceleratorReport report =
      hw::run_zero_skip(c.workload, c.zero_skip);
  const auto& w = c.workload;
  const auto& cfg = c.zero_skip;
  const std::int64_t macs = std::min(w.mults, w.adds);
  const std::int64_t skipped = std::min(w.zero_skippable_mults, macs);
  const std::int64_t executed = macs - skipped;
  const double slots = static_cast<double>(executed) +
                       (1.0 - cfg.skip_efficiency) *
                           static_cast<double>(skipped);
  const double latency = slots /
                         static_cast<double>(cfg.lanes * cfg.simd_lanes) /
                         cfg.frequency_mhz;
  const std::int64_t vector_ops =
      (executed + cfg.simd_lanes - 1) / cfg.simd_lanes;
  const double density =
      macs > 0 ? static_cast<double>(executed) / static_cast<double>(macs)
               : 1.0;
  const double compute =
      static_cast<double>(executed) * (cfg.table.add_pj + cfg.table.mult_pj) +
      static_cast<double>(w.comparisons) * cfg.table.compare_pj;
  const double memory =
      static_cast<double>(w.param_bytes_read) / cfg.reuse_factor *
          cfg.table.sram_pj_per_byte +
      static_cast<double>(w.act_bytes_read + w.act_bytes_written) * density *
          (1.0 + cfg.compression_overhead) * cfg.irregular_access_penalty /
          cfg.reuse_factor * cfg.table.sram_pj_per_byte +
      static_cast<double>(w.state_bytes_rw) * cfg.table.sram_pj_per_byte;
  if (auto d = diff_scalar("zero-skip executed + skipped MACs",
                           static_cast<double>(report.effective_macs +
                                               report.skipped_macs),
                           static_cast<double>(macs))) {
    return d;
  }
  if (auto d =
          diff_scalar("zero-skip latency", report.latency_us, latency, 1e-12)) {
    return d;
  }
  if (auto d = diff_scalar("zero-skip vector ops",
                           static_cast<double>(report.vector_ops),
                           static_cast<double>(vector_ops))) {
    return d;
  }
  return diff_scalar("zero-skip energy", report.energy.total_pj(),
                     compute + memory, 1e-12);
}

// ---- runtime: multiplexed vs sequential session serving -------------------

namespace {

constexpr Index kMuxGeometry = 16;

/// Apply one scheduled op directly to a session (the sequential reference).
void apply_op(core::StreamSession& session, const SessionOp& op) {
  if (op.kind == SessionOp::Kind::Feed) {
    session.feed(op.event);
  } else {
    session.advance_to(op.t);
  }
}

/// Every decision `session` holds undrained, oldest first.
std::vector<core::Decision> drained(core::StreamSession& session) {
  std::vector<core::Decision> out;
  session.drain(out);
  return out;
}

/// The shared diff body: `pipeline` opens one session per schedule entry.
/// Sequential reference first (feed each session's ops directly, one session
/// at a time), then the same ops through a SessionManager pumped at
/// kThreadedCount workers with a tiny burst so sessions interleave across
/// many rounds. Decision streams must match exactly — operator== on
/// core::Decision compares label, timestamp and confidence bit-for-bit.
template <typename Pipeline>
std::optional<std::string> diff_multiplex(Pipeline& pipeline,
                                          const MultiSessionSchedule& c) {
  std::vector<std::vector<core::Decision>> reference;
  reference.reserve(c.sessions.size());
  for (const auto& ops : c.sessions) {
    const auto session = pipeline.open_session(c.width, c.height);
    for (const auto& op : ops) apply_op(*session, op);
    reference.push_back(drained(*session));
  }
  return with_thread_count(
      kThreadedCount, [&]() -> std::optional<std::string> {
        runtime::SessionManager manager(/*burst=*/3);
        std::vector<runtime::SessionId> ids;
        ids.reserve(c.sessions.size());
        for (size_t s = 0; s < c.sessions.size(); ++s) {
          ids.push_back(manager.add(pipeline.open_session(c.width, c.height)));
        }
        // Interleave submission round-robin across sessions, pumping midway,
        // so ops arrive while other sessions are already being served.
        size_t cursor = 0;
        bool more = true;
        while (more) {
          more = false;
          for (size_t s = 0; s < c.sessions.size(); ++s) {
            if (cursor >= c.sessions[s].size()) continue;
            more = true;
            const auto& op = c.sessions[s][cursor];
            if (op.kind == SessionOp::Kind::Feed) {
              manager.submit(ids[s], op.event);
            } else {
              manager.submit_advance(ids[s], op.t);
            }
          }
          ++cursor;
          if (cursor % 5 == 0) manager.pump();
        }
        manager.pump_all();
        for (size_t s = 0; s < c.sessions.size(); ++s) {
          const auto mux = drained(manager.session(ids[s]));
          const auto& ref = reference[s];
          if (mux.size() != ref.size()) {
            return "session " + std::to_string(s) + ": " +
                   std::to_string(mux.size()) + " decisions multiplexed vs " +
                   std::to_string(ref.size()) + " sequential";
          }
          for (size_t i = 0; i < ref.size(); ++i) {
            if (!(mux[i] == ref[i])) {
              std::ostringstream os;
              os << "session " << s << " decision " << i << ": multiplexed {t="
                 << mux[i].t << ", label=" << mux[i].label
                 << ", conf=" << mux[i].confidence << "} vs sequential {t="
                 << ref[i].t << ", label=" << ref[i].label
                 << ", conf=" << ref[i].confidence << "}";
              return os.str();
            }
          }
        }
        return std::nullopt;
      });
}

}  // namespace

Gen<MultiSessionSchedule> multiplex_case_gen() {
  // Degraded-sensor regimes (leak bursts, HDR flicker) are mixed into the
  // shared schedule generator, so every serving-plane oracle downstream of
  // this gen — multiplex, obs, fault, plan, route, shard — is exercised on
  // the pathological streams real DVS hardware produces, not only on
  // uniform noise.
  MultiScheduleGenConfig config;
  config.width = kMuxGeometry;
  config.height = kMuxGeometry;
  config.max_sessions = 4;
  config.max_ops_per_session = 30;
  config.duration_us = 60000;
  config.degraded_fraction = 0.3;
  return multi_schedule_gen(config);
}

std::optional<std::string> diff_cnn_multiplex_vs_sequential(
    const MultiSessionSchedule& c) {
  cnn::CnnPipelineConfig config;
  config.width = kMuxGeometry;
  config.height = kMuxGeometry;
  config.num_classes = 2;
  config.base_filters = 2;
  config.frame_period_us = 10000;  // several frame closes per schedule
  cnn::CnnPipeline pipeline(config);
  return diff_multiplex(pipeline, c);
}

std::optional<std::string> diff_snn_multiplex_vs_sequential(
    const MultiSessionSchedule& c) {
  snn::SnnPipelineConfig config;
  config.width = kMuxGeometry;
  config.height = kMuxGeometry;
  config.num_classes = 2;
  config.hidden = 16;
  config.encoder.spatial_factor = 2;
  config.timestep_us = 5000;
  snn::SnnPipeline pipeline(config);
  return diff_multiplex(pipeline, c);
}

std::optional<std::string> diff_gnn_multiplex_vs_sequential(
    const MultiSessionSchedule& c) {
  gnn::GnnPipelineConfig config;
  config.width = kMuxGeometry;
  config.height = kMuxGeometry;
  config.num_classes = 2;
  config.model.hidden = 8;
  config.model.layers = 2;
  config.stream_stride = 2;
  gnn::GnnPipeline pipeline(config);
  return diff_multiplex(pipeline, c);
}

// ---- obs: observability must not perturb the decision stream --------------

namespace {

/// Serve schedule `c` through a SessionManager (GNN sessions — decisions on
/// every surviving event, the densest stream of the three paradigms) and
/// return each session's decisions, with observability forced to `obs_on`.
std::vector<std::vector<core::Decision>> serve_with_obs(
    gnn::GnnPipeline& pipeline, const MultiSessionSchedule& c, bool obs_on) {
  struct RestoreObs {
    bool previous;
    ~RestoreObs() { obs::set_enabled(previous); }
  } restore{obs::enabled()};
  obs::set_enabled(obs_on);
  return with_thread_count(kThreadedCount, [&] {
    runtime::SessionManager manager(/*burst=*/3);
    std::vector<runtime::SessionId> ids;
    ids.reserve(c.sessions.size());
    for (size_t s = 0; s < c.sessions.size(); ++s) {
      ids.push_back(manager.add(pipeline.open_session(c.width, c.height)));
    }
    size_t cursor = 0;
    bool more = true;
    while (more) {
      more = false;
      for (size_t s = 0; s < c.sessions.size(); ++s) {
        if (cursor >= c.sessions[s].size()) continue;
        more = true;
        const auto& op = c.sessions[s][cursor];
        if (op.kind == SessionOp::Kind::Feed) {
          manager.submit(ids[s], op.event);
        } else {
          manager.submit_advance(ids[s], op.t);
        }
      }
      ++cursor;
      if (cursor % 5 == 0) manager.pump();
    }
    manager.pump_all();
    std::vector<std::vector<core::Decision>> streams;
    streams.reserve(ids.size());
    for (const auto id : ids) {
      streams.push_back(drained(manager.session(id)));
    }
    return streams;
  });
}

}  // namespace

std::optional<std::string> diff_obs_on_vs_off(const MultiSessionSchedule& c) {
  gnn::GnnPipelineConfig config;
  config.width = kMuxGeometry;
  config.height = kMuxGeometry;
  config.num_classes = 2;
  config.model.hidden = 8;
  config.model.layers = 2;
  config.stream_stride = 2;
  gnn::GnnPipeline pipeline(config);
  const auto on = serve_with_obs(pipeline, c, /*obs_on=*/true);
  const auto off = serve_with_obs(pipeline, c, /*obs_on=*/false);
  for (size_t s = 0; s < on.size(); ++s) {
    if (on[s].size() != off[s].size()) {
      return "session " + std::to_string(s) + ": " +
             std::to_string(on[s].size()) + " decisions with obs on vs " +
             std::to_string(off[s].size()) + " with obs off";
    }
    for (size_t i = 0; i < on[s].size(); ++i) {
      if (!(on[s][i] == off[s][i])) {
        std::ostringstream os;
        os << "session " << s << " decision " << i << ": obs-on {t="
           << on[s][i].t << ", label=" << on[s][i].label
           << ", conf=" << on[s][i].confidence << "} vs obs-off {t="
           << off[s][i].t << ", label=" << off[s][i].label
           << ", conf=" << off[s][i].confidence << "}";
        return os.str();
      }
    }
  }
  return std::nullopt;
}

// ---- fault tolerance: isolation and checkpoint/restore --------------------

namespace {

gnn::GnnPipelineConfig fault_oracle_pipeline_config() {
  // Same tiny GNN the obs oracle serves: a decision on every surviving
  // event, so any perturbation of a healthy session shows immediately.
  gnn::GnnPipelineConfig config;
  config.width = kMuxGeometry;
  config.height = kMuxGeometry;
  config.num_classes = 2;
  config.model.hidden = 8;
  config.model.layers = 2;
  config.stream_stride = 2;
  return config;
}

/// Serve `sessions` op lists through a manager at kThreadedCount workers
/// (round-robin submit, pump every 5th cursor — the multiplex shape) and
/// return each session's decision stream, drained after every pump as a
/// serving consumer does, so restores land between drains. `config`
/// applies to every session. Pass `storage` (a fresh manager) to inspect
/// fault state after the run.
std::vector<std::vector<core::Decision>> serve_sessions(
    gnn::GnnPipeline& pipeline, Index width, Index height,
    const std::vector<std::vector<SessionOp>>& sessions,
    const runtime::ManagedSessionConfig& config,
    runtime::SessionManager* storage = nullptr) {
  return with_thread_count(kThreadedCount, [&] {
    std::optional<runtime::SessionManager> local;
    if (storage == nullptr) local.emplace(/*burst=*/3);
    runtime::SessionManager& manager = storage != nullptr ? *storage : *local;
    std::vector<runtime::SessionId> ids;
    ids.reserve(sessions.size());
    for (size_t s = 0; s < sessions.size(); ++s) {
      ids.push_back(manager.add(pipeline.open_session(width, height), config));
    }
    std::vector<std::vector<core::Decision>> streams(ids.size());
    const auto drain_all = [&] {
      for (size_t s = 0; s < ids.size(); ++s) manager.drain(ids[s], streams[s]);
    };
    size_t cursor = 0;
    bool more = true;
    while (more) {
      more = false;
      for (size_t s = 0; s < sessions.size(); ++s) {
        if (cursor >= sessions[s].size()) continue;
        more = true;
        const auto& op = sessions[s][cursor];
        if (op.kind == SessionOp::Kind::Feed) {
          manager.submit(ids[s], op.event);
        } else {
          manager.submit_advance(ids[s], op.t);
        }
      }
      ++cursor;
      if (cursor % 5 == 0) {
        manager.pump();
        drain_all();
      }
    }
    manager.pump_all();
    drain_all();
    return streams;
  });
}

std::optional<std::string> diff_decision_streams(
    const std::vector<std::vector<core::Decision>>& got,
    const std::vector<std::vector<core::Decision>>& want, size_t count,
    const char* got_name, const char* want_name) {
  for (size_t s = 0; s < count; ++s) {
    if (got[s].size() != want[s].size()) {
      return "session " + std::to_string(s) + ": " +
             std::to_string(got[s].size()) + " decisions " + got_name +
             " vs " + std::to_string(want[s].size()) + " " + want_name;
    }
    for (size_t i = 0; i < got[s].size(); ++i) {
      if (!(got[s][i] == want[s][i])) {
        std::ostringstream os;
        os << "session " << s << " decision " << i << ": " << got_name
           << " {t=" << got[s][i].t << ", label=" << got[s][i].label
           << ", conf=" << got[s][i].confidence << "} vs " << want_name
           << " {t=" << want[s][i].t << ", label=" << want[s][i].label
           << ", conf=" << want[s][i].confidence << "}";
        return os.str();
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> diff_fault_isolation(const MultiSessionSchedule& c) {
  gnn::GnnPipeline pipeline(fault_oracle_pipeline_config());
  const runtime::ManagedSessionConfig config;  // no checkpoint: fault -> quarantine

  // Clean run: the schedule as generated, no injection.
  const auto clean =
      serve_sessions(pipeline, c.width, c.height, c.sessions, config);

  // Faulted run: append a saboteur session fed a copy of session 0's ops,
  // with a one-shot injected op fault targeted at it. No checkpoint is
  // configured, so the saboteur quarantines; the healthy sessions must not
  // move by a single bit.
  auto with_saboteur = c.sessions;
  const auto saboteur = static_cast<std::int64_t>(with_saboteur.size());
  with_saboteur.push_back(c.sessions.front());
  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::SessionThrow;
  plan.target = saboteur;
  plan.after = 2;
  plan.max_fires = 1;
  std::vector<std::vector<core::Decision>> faulted;
  std::int64_t fires = 0;
  runtime::SessionManager manager(/*burst=*/3);
  {
    fault::ScopedInjection injection("runtime.pump.op_fault", plan);
    faulted = serve_sessions(pipeline, c.width, c.height, with_saboteur,
                             config, &manager);
    fires = fault::Injector::instance().fires("runtime.pump.op_fault");
  }
  if (fires > 0) {
    if (manager.state(saboteur) != runtime::SessionState::Faulted) {
      return "saboteur session took an injected fault but is not Faulted";
    }
    if (manager.fault_message(saboteur).empty()) {
      return "quarantined saboteur has an empty fault_message";
    }
    if (manager.stats().faults.quarantined_sessions != 1) {
      return "expected exactly 1 quarantined session, got " +
             std::to_string(manager.stats().faults.quarantined_sessions);
    }
  }
  return diff_decision_streams(faulted, clean, c.sessions.size(),
                               "with faulted neighbor", "clean");
}

std::optional<std::string> diff_checkpoint_replay(
    const MultiSessionSchedule& c) {
  gnn::GnnPipeline pipeline(fault_oracle_pipeline_config());

  // Never-faulted reference: each session's ops fed directly, sequentially.
  std::vector<std::vector<core::Decision>> reference;
  reference.reserve(c.sessions.size());
  for (const auto& ops : c.sessions) {
    const auto session = pipeline.open_session(c.width, c.height);
    for (const auto& op : ops) apply_op(*session, op);
    reference.push_back(drained(*session));
  }

  // Served run: periodic checkpoints, restore-on-fault, and a one-shot
  // injected fault on session 0 mid-stream. The restore must land exactly
  // where the fault struck: checkpoint load + replay + retry, bitwise.
  // Session 0's op 5..8 faults, picked by its length: with 3 ops a pump
  // and a checkpoint every 4, some restores replay ops whose decisions
  // were drained after an earlier pump and some replay none.
  runtime::ManagedSessionConfig config;
  config.checkpoint_every = 4;
  config.restore_on_fault = true;
  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::SessionThrow;
  plan.target = 0;
  plan.after = 5 + static_cast<Index>(c.sessions.front().size() % 4);
  plan.max_fires = 1;
  std::vector<std::vector<core::Decision>> served;
  std::int64_t fires = 0;
  runtime::SessionManager manager(/*burst=*/3);
  {
    fault::ScopedInjection injection("runtime.pump.op_fault", plan);
    served = serve_sessions(pipeline, c.width, c.height, c.sessions, config,
                            &manager);
    fires = fault::Injector::instance().fires("runtime.pump.op_fault");
  }
  if (fires > 0) {
    if (manager.state(0) != runtime::SessionState::Active) {
      return "faulted session did not recover: " + manager.fault_message(0);
    }
    if (manager.stats().faults.restores < 1) {
      return "fault fired but no restore was counted";
    }
  }
  return diff_decision_streams(served, reference, c.sessions.size(),
                               "restored", "sequential reference");
}

// ---- sched: plan-driven pump vs sequential reference ----------------------

namespace {

/// A random valid plan for `n` sessions of `paradigm`: the ids shuffled into
/// one or two non-empty regions, a burst in [1, 4], and the paradigm's path
/// drawn uniformly from its routable set. The oracles thereby cover
/// arbitrary plans, not only the ones the planner would choose.
sched::Plan random_plan(Index n, const std::string& paradigm,
                        std::uint64_t seed) {
  Rng rng(seed);
  sched::Plan plan;
  plan.session_count = n;
  plan.burst = 1 + static_cast<Index>(rng.uniform_int(4));
  std::vector<Index> ids(static_cast<size_t>(n));
  std::iota(ids.begin(), ids.end(), Index{0});
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[static_cast<size_t>(rng.uniform_int(i))]);
  }
  // Region 0 takes the first `split` shuffled ids, region 1 the rest.
  const Index split =
      n < 2 || rng.bernoulli(0.5)
          ? n
          : 1 + static_cast<Index>(
                    rng.uniform_int(static_cast<std::uint64_t>(n - 1)));
  for (Index i = 0; i < n; ++i) {
    const size_t r = i < split ? 0 : 1;
    if (plan.regions.size() <= r) plan.regions.resize(r + 1);
    plan.regions[r].sessions.push_back(ids[static_cast<size_t>(i)]);
  }
  const std::vector<route::PathId> routable =
      route::PathRegistry::instance().routable(paradigm);
  plan.placements.push_back(
      {paradigm, routable[static_cast<size_t>(rng.uniform_int(
                     routable.size()))]});
  plan.refresh_labels();
  return plan;
}

/// Sequential reference, then the same ops served under a random plan. The
/// plan is derived deterministically from the schedule (seeded by its
/// per-session op counts), so every generated case exercises a different
/// plan and a shrunk schedule carries a correspondingly shrunk witness plan.
template <typename Pipeline>
std::optional<std::string> diff_planned(Pipeline& pipeline,
                                        const std::string& paradigm,
                                        const MultiSessionSchedule& c) {
  std::vector<std::vector<core::Decision>> reference;
  reference.reserve(c.sessions.size());
  std::uint64_t schedule_seed = 0x9E3779B97F4A7C15ULL;
  for (const auto& ops : c.sessions) {
    const auto session = pipeline.open_session(c.width, c.height);
    for (const auto& op : ops) apply_op(*session, op);
    reference.push_back(drained(*session));
    schedule_seed = schedule_seed * 0x100000001B3ULL + ops.size();
  }
  return with_thread_count(
      kThreadedCount, [&]() -> std::optional<std::string> {
        runtime::SessionManager manager(/*burst=*/3);
        std::vector<runtime::SessionId> ids;
        ids.reserve(c.sessions.size());
        for (size_t s = 0; s < c.sessions.size(); ++s) {
          ids.push_back(manager.add(pipeline.open_session(c.width, c.height)));
        }
        manager.set_plan(random_plan(static_cast<Index>(c.sessions.size()),
                                     paradigm, schedule_seed));
        size_t cursor = 0;
        bool more = true;
        while (more) {
          more = false;
          for (size_t s = 0; s < c.sessions.size(); ++s) {
            if (cursor >= c.sessions[s].size()) continue;
            more = true;
            const auto& op = c.sessions[s][cursor];
            if (op.kind == SessionOp::Kind::Feed) {
              manager.submit(ids[s], op.event);
            } else {
              manager.submit_advance(ids[s], op.t);
            }
          }
          ++cursor;
          if (cursor % 5 == 0) manager.pump();
        }
        manager.pump_all();
        std::vector<std::vector<core::Decision>> planned;
        planned.reserve(ids.size());
        for (const auto id : ids) {
          planned.push_back(drained(manager.session(id)));
        }
        if (auto d = diff_decision_streams(planned, reference,
                                           c.sessions.size(), "planned",
                                           "sequential reference")) {
          return "under plan " + manager.plan().describe() + "\n" + *d;
        }
        return std::nullopt;
      });
}

}  // namespace

std::optional<std::string> diff_cnn_plan_vs_sequential(
    const MultiSessionSchedule& c) {
  cnn::CnnPipelineConfig config;
  config.width = kMuxGeometry;
  config.height = kMuxGeometry;
  config.num_classes = 2;
  config.base_filters = 2;
  config.frame_period_us = 10000;
  cnn::CnnPipeline pipeline(config);
  return diff_planned(pipeline, "cnn", c);
}

std::optional<std::string> diff_snn_plan_vs_sequential(
    const MultiSessionSchedule& c) {
  snn::SnnPipelineConfig config;
  config.width = kMuxGeometry;
  config.height = kMuxGeometry;
  config.num_classes = 2;
  config.hidden = 16;
  config.encoder.spatial_factor = 2;
  config.timestep_us = 5000;
  snn::SnnPipeline pipeline(config);
  return diff_planned(pipeline, "snn", c);
}

std::optional<std::string> diff_gnn_plan_vs_sequential(
    const MultiSessionSchedule& c) {
  gnn::GnnPipelineConfig config;
  config.width = kMuxGeometry;
  config.height = kMuxGeometry;
  config.num_classes = 2;
  config.model.hidden = 8;
  config.model.layers = 2;
  config.stream_stride = 2;
  gnn::GnnPipeline pipeline(config);
  return diff_planned(pipeline, "gnn", c);
}

// ---- route: forced execution paths vs the default path --------------------

namespace {

/// Default-path sequential reference, then the same ops through sessions
/// pinned to `forced` (route::PathId) and served on 4 workers. This is the
/// per-placement equivalence proof behind PathRegistry::mark_proved: a
/// plan may re-route a paradigm's hot stage onto this variant only because
/// this oracle holds the decision streams bitwise identical (ULP 0).
template <typename Pipeline>
std::optional<std::string> diff_route(Pipeline& pipeline, route::PathId forced,
                                      const MultiSessionSchedule& c) {
  std::vector<std::vector<core::Decision>> reference;
  reference.reserve(c.sessions.size());
  for (const auto& ops : c.sessions) {
    const auto session = pipeline.open_session(c.width, c.height);
    for (const auto& op : ops) apply_op(*session, op);
    reference.push_back(drained(*session));
  }
  return with_thread_count(
      kThreadedCount, [&]() -> std::optional<std::string> {
        runtime::SessionManager manager(/*burst=*/3);
        std::vector<runtime::SessionId> ids;
        ids.reserve(c.sessions.size());
        for (size_t s = 0; s < c.sessions.size(); ++s) {
          auto session = pipeline.open_session(c.width, c.height);
          if (!session->set_execution_path(forced)) {
            return std::string("session declined execution path ") +
                   route::path_name(forced);
          }
          ids.push_back(manager.add(std::move(session)));
        }
        size_t cursor = 0;
        bool more = true;
        while (more) {
          more = false;
          for (size_t s = 0; s < c.sessions.size(); ++s) {
            if (cursor >= c.sessions[s].size()) continue;
            more = true;
            const auto& op = c.sessions[s][cursor];
            if (op.kind == SessionOp::Kind::Feed) {
              manager.submit(ids[s], op.event);
            } else {
              manager.submit_advance(ids[s], op.t);
            }
          }
          ++cursor;
          if (cursor % 5 == 0) manager.pump();
        }
        manager.pump_all();
        std::vector<std::vector<core::Decision>> routed;
        routed.reserve(ids.size());
        for (const auto id : ids) {
          routed.push_back(drained(manager.session(id)));
        }
        return diff_decision_streams(routed, reference, c.sessions.size(),
                                     route::path_name(forced),
                                     "default path");
      });
}

}  // namespace

std::optional<std::string> diff_route_cnn_sparse_vs_dense(
    const MultiSessionSchedule& c) {
  cnn::CnnPipelineConfig config;
  config.width = kMuxGeometry;
  config.height = kMuxGeometry;
  config.num_classes = 2;
  config.base_filters = 2;
  config.frame_period_us = 10000;
  cnn::CnnPipeline pipeline(config);
  return diff_route(pipeline, route::PathId::CnnSparse, c);
}

std::optional<std::string> diff_route_snn_clocked_vs_event(
    const MultiSessionSchedule& c) {
  snn::SnnPipelineConfig config;
  config.width = kMuxGeometry;
  config.height = kMuxGeometry;
  config.num_classes = 2;
  config.hidden = 16;
  config.encoder.spatial_factor = 2;
  config.timestep_us = 5000;
  snn::SnnPipeline pipeline(config);
  return diff_route(pipeline, route::PathId::SnnEventDriven, c);
}

std::optional<std::string> diff_route_gnn_batch_vs_incremental(
    const MultiSessionSchedule& c) {
  gnn::GnnPipelineConfig config;
  config.width = kMuxGeometry;
  config.height = kMuxGeometry;
  config.num_classes = 2;
  config.model.hidden = 8;
  config.model.layers = 2;
  config.stream_stride = 2;
  gnn::GnnPipeline pipeline(config);
  return diff_route(pipeline, route::PathId::GnnBatch, c);
}

// ---- shard: sharded serving vs the sequential reference -------------------

namespace {

/// The shard analogue of diff_multiplex: the same sequential reference,
/// then the same ops served through a ShardManager — 3 shard groups, each a
/// private SessionManager behind its lock-free ingress ring — pumped at
/// kThreadedCount workers with a tiny per-shard burst so sessions interleave
/// across many rounds and shards drain concurrently. Replay transparency
/// demands the partitioning never shows in the decision streams.
///
/// With `migrate_midway`, every session is additionally checkpoint-migrated
/// to the next shard around the ring at its schedule midpoint and once more
/// before the final drain — decisions recorded before the move, across it
/// and after it must still match the never-migrated reference exactly.
template <typename Pipeline>
std::optional<std::string> diff_sharded(Pipeline& pipeline,
                                        const MultiSessionSchedule& c,
                                        bool migrate_midway) {
  std::vector<std::vector<core::Decision>> reference;
  reference.reserve(c.sessions.size());
  for (const auto& ops : c.sessions) {
    const auto session = pipeline.open_session(c.width, c.height);
    for (const auto& op : ops) apply_op(*session, op);
    reference.push_back(drained(*session));
  }
  return with_thread_count(
      kThreadedCount, [&]() -> std::optional<std::string> {
        shard::ShardManagerConfig cfg;
        cfg.shards = 3;
        cfg.burst = 3;
        shard::ShardManager manager(cfg);
        std::vector<shard::ShardManager::SessionId> ids;
        ids.reserve(c.sessions.size());
        size_t longest = 0;
        for (size_t s = 0; s < c.sessions.size(); ++s) {
          ids.push_back(manager.add(
              [&] { return pipeline.open_session(c.width, c.height); }));
          longest = std::max(longest, c.sessions[s].size());
        }
        const auto rotate_all = [&] {
          for (const auto id : ids) {
            manager.migrate(
                id, (manager.shard_of(id) + 1) % manager.shard_count());
          }
        };
        // Round-robin submission with mid-stream pumps, as in the multiplex
        // oracle. A full ingress ring pumps and retries: the oracle asserts
        // equality of complete streams, so shedding here would be noise.
        size_t cursor = 0;
        bool more = true;
        while (more) {
          more = false;
          for (size_t s = 0; s < c.sessions.size(); ++s) {
            if (cursor >= c.sessions[s].size()) continue;
            more = true;
            const auto& op = c.sessions[s][cursor];
            if (op.kind == SessionOp::Kind::Feed) {
              while (!manager.submit(ids[s], op.event)) manager.pump();
            } else {
              while (!manager.submit_advance(ids[s], op.t)) manager.pump();
            }
          }
          ++cursor;
          if (cursor % 5 == 0) manager.pump();
          if (migrate_midway && cursor == (longest + 1) / 2) rotate_all();
        }
        if (migrate_midway) rotate_all();
        manager.pump_all();
        for (size_t s = 0; s < c.sessions.size(); ++s) {
          const auto got = drained(manager.session(ids[s]));
          const auto& ref = reference[s];
          if (got.size() != ref.size()) {
            return "session " + std::to_string(s) + ": " +
                   std::to_string(got.size()) + " decisions sharded vs " +
                   std::to_string(ref.size()) + " sequential";
          }
          for (size_t i = 0; i < ref.size(); ++i) {
            if (!(got[i] == ref[i])) {
              std::ostringstream os;
              os << "session " << s << " decision " << i << ": sharded {t="
                 << got[i].t << ", label=" << got[i].label
                 << ", conf=" << got[i].confidence << "} vs sequential {t="
                 << ref[i].t << ", label=" << ref[i].label
                 << ", conf=" << ref[i].confidence << "}";
              return os.str();
            }
          }
        }
        return std::nullopt;
      });
}

}  // namespace

std::optional<std::string> diff_cnn_sharded_vs_sequential(
    const MultiSessionSchedule& c) {
  cnn::CnnPipelineConfig config;
  config.width = kMuxGeometry;
  config.height = kMuxGeometry;
  config.num_classes = 2;
  config.base_filters = 2;
  config.frame_period_us = 10000;
  cnn::CnnPipeline pipeline(config);
  return diff_sharded(pipeline, c, /*migrate_midway=*/false);
}

std::optional<std::string> diff_snn_sharded_vs_sequential(
    const MultiSessionSchedule& c) {
  snn::SnnPipelineConfig config;
  config.width = kMuxGeometry;
  config.height = kMuxGeometry;
  config.num_classes = 2;
  config.hidden = 16;
  config.encoder.spatial_factor = 2;
  config.timestep_us = 5000;
  snn::SnnPipeline pipeline(config);
  return diff_sharded(pipeline, c, /*migrate_midway=*/false);
}

std::optional<std::string> diff_gnn_sharded_vs_sequential(
    const MultiSessionSchedule& c) {
  gnn::GnnPipelineConfig config;
  config.width = kMuxGeometry;
  config.height = kMuxGeometry;
  config.num_classes = 2;
  config.model.hidden = 8;
  config.model.layers = 2;
  config.stream_stride = 2;
  gnn::GnnPipeline pipeline(config);
  return diff_sharded(pipeline, c, /*migrate_midway=*/false);
}

std::optional<std::string> diff_shard_migration_replay(
    const MultiSessionSchedule& c) {
  // GNN sessions: a decision on every surviving event, the densest stream
  // of the three paradigms — the strictest witness for migration replay.
  gnn::GnnPipelineConfig config;
  config.width = kMuxGeometry;
  config.height = kMuxGeometry;
  config.num_classes = 2;
  config.model.hidden = 8;
  config.model.layers = 2;
  config.stream_stride = 2;
  gnn::GnnPipeline pipeline(config);
  return diff_sharded(pipeline, c, /*migrate_midway=*/true);
}

// ---- registration ---------------------------------------------------------

void register_builtin_oracles() {
  static const bool registered = [] {
    registry().add(make_diff_oracle<ConvCase>(
        "conv2d.direct_vs_gemm",
        "Conv2d reference loop nest vs im2col + cache-blocked GEMM (exact)",
        conv_case_gen(), diff_conv_direct_vs_gemm));
    registry().add(make_diff_oracle<SnnLayerCase>(
        "snn.clocked_vs_event_driven",
        "Clocked per-step LIF layer vs lazy event-driven execution (exact "
        "spike trains on dyadic constants)",
        snn_layer_case_gen(), diff_snn_clocked_vs_event_driven));
    registry().add(make_diff_oracle<GraphCase>(
        "gnn.batch_vs_incremental",
        "k-d tree batch graph build vs O(1) grid-hash incremental build "
        "(degree + neighbour distance multisets)",
        graph_case_gen(), diff_gnn_batch_vs_incremental));
    registry().add(make_diff_oracle<ConvCase>(
        "par.cnn_conv_1_vs_4_threads",
        "CNN conv hot path is bitwise identical at any EVD_THREADS",
        conv_case_gen(), diff_conv_serial_vs_threads));
    registry().add(make_diff_oracle<SnnNetCase>(
        "par.snn_forward_1_vs_4_threads",
        "SpikingNet forward logits are bitwise identical at any EVD_THREADS",
        snn_net_case_gen(), diff_snn_net_serial_vs_threads));
    registry().add(make_diff_oracle<GraphCase>(
        "par.gnn_build_1_vs_4_threads",
        "Batch graph construction is bitwise identical at any EVD_THREADS",
        graph_case_gen(), diff_gnn_build_serial_vs_threads));
    registry().add(make_diff_oracle<ConvCase>(
        "simd.conv_vs_scalar",
        "Vectorized GEMM microkernel vs the scalar reference kernel "
        "(bitwise — 0 ULPs — under any EVD_SIMD tier)",
        conv_case_gen(), diff_simd_conv_vs_scalar));
    registry().add(make_diff_oracle<SnnNetCase>(
        "simd.snn_step_vs_scalar",
        "Vectorized LIF membrane update + compressed spike emit vs scalar "
        "on a frozen net: bitwise per-step logits, membranes and spike "
        "counts (the kernel tests cover the unfrozen gather path)",
        snn_net_case_gen(), diff_simd_snn_step_vs_scalar));
    registry().add(make_diff_oracle<GnnNodeCase>(
        "simd.gnn_accumulate_vs_scalar",
        "Gathered neighbor-accumulate (apply_node) on a frozen conv vs "
        "scalar within 2 ULPs (bitwise in practice; the kernel tests cover "
        "the unfrozen gather path)",
        gnn_node_case_gen(), diff_simd_gnn_accumulate_vs_scalar));
    registry().add(make_diff_oracle<HwCase>(
        "hw.systolic_vs_naive",
        "Systolic-array model vs naive roll-up of the same counters",
        hw_case_gen(), diff_systolic_vs_naive));
    registry().add(make_diff_oracle<HwCase>(
        "hw.zero_skip_vs_naive",
        "Zero-skipping model vs naive roll-up (incl. skippable > MACs clamp)",
        hw_case_gen(), diff_zero_skip_vs_naive));
    registry().add(make_diff_oracle<MultiSessionSchedule>(
        "runtime.multiplex_vs_sequential.cnn",
        "CNN sessions multiplexed on 4 workers emit the exact decision "
        "stream of sequential feeding",
        multiplex_case_gen(), diff_cnn_multiplex_vs_sequential));
    registry().add(make_diff_oracle<MultiSessionSchedule>(
        "runtime.multiplex_vs_sequential.snn",
        "SNN sessions multiplexed on 4 workers emit the exact decision "
        "stream of sequential feeding",
        multiplex_case_gen(), diff_snn_multiplex_vs_sequential));
    registry().add(make_diff_oracle<MultiSessionSchedule>(
        "runtime.multiplex_vs_sequential.gnn",
        "GNN sessions multiplexed on 4 workers emit the exact decision "
        "stream of sequential feeding",
        multiplex_case_gen(), diff_gnn_multiplex_vs_sequential));
    registry().add(make_diff_oracle<MultiSessionSchedule>(
        "runtime.obs_on_vs_off",
        "Observability (spans, counters, latency histograms) never perturbs "
        "the served decision streams — bitwise identical on vs off",
        multiplex_case_gen(), diff_obs_on_vs_off));
    registry().add(make_diff_oracle<MultiSessionSchedule>(
        "runtime.fault_isolation",
        "Healthy sessions' decision streams are bitwise identical with and "
        "without a quarantined (injected-fault) neighbor",
        multiplex_case_gen(), diff_fault_isolation));
    registry().add(make_diff_oracle<MultiSessionSchedule>(
        "runtime.checkpoint_replay",
        "A session that faults, restores from its checkpoint and replays "
        "emits the exact decision stream of a never-faulted run",
        multiplex_case_gen(), diff_checkpoint_replay));
    registry().add(make_diff_oracle<MultiSessionSchedule>(
        "sched.plan_vs_sequential.cnn",
        "CNN sessions pumped under a random valid execution plan emit "
        "the exact decision stream of sequential feeding",
        multiplex_case_gen(), diff_cnn_plan_vs_sequential));
    registry().add(make_diff_oracle<MultiSessionSchedule>(
        "sched.plan_vs_sequential.snn",
        "SNN sessions pumped under a random valid execution plan emit "
        "the exact decision stream of sequential feeding",
        multiplex_case_gen(), diff_snn_plan_vs_sequential));
    registry().add(make_diff_oracle<MultiSessionSchedule>(
        "sched.plan_vs_sequential.gnn",
        "GNN sessions pumped under a random valid execution plan emit "
        "the exact decision stream of sequential feeding",
        multiplex_case_gen(), diff_gnn_plan_vs_sequential));
    registry().add(make_diff_oracle<MultiSessionSchedule>(
        "route.cnn_sparse_vs_dense",
        "CNN sessions routed onto the zero-skipping sparse conv path emit "
        "the exact decision stream of the default path",
        multiplex_case_gen(), diff_route_cnn_sparse_vs_dense));
    registry().add(make_diff_oracle<MultiSessionSchedule>(
        "route.snn_clocked_vs_event",
        "SNN sessions routed onto event-driven stepping emit the exact "
        "decision stream of the default clocked path",
        multiplex_case_gen(), diff_route_snn_clocked_vs_event));
    registry().add(make_diff_oracle<MultiSessionSchedule>(
        "route.gnn_batch_vs_incremental",
        "GNN sessions routed onto the full-sweep batch message pass emit "
        "the exact decision stream of the default incremental path",
        multiplex_case_gen(), diff_route_gnn_batch_vs_incremental));
    registry().add(make_diff_oracle<MultiSessionSchedule>(
        "shard.sharded_vs_sequential.cnn",
        "CNN sessions spread over 3 shards (private managers behind "
        "lock-free ingress rings) pumped on 4 workers emit the exact "
        "decision stream of sequential feeding",
        multiplex_case_gen(), diff_cnn_sharded_vs_sequential));
    registry().add(make_diff_oracle<MultiSessionSchedule>(
        "shard.sharded_vs_sequential.snn",
        "SNN sessions spread over 3 shards pumped on 4 workers emit the "
        "exact decision stream of sequential feeding",
        multiplex_case_gen(), diff_snn_sharded_vs_sequential));
    registry().add(make_diff_oracle<MultiSessionSchedule>(
        "shard.sharded_vs_sequential.gnn",
        "GNN sessions spread over 3 shards pumped on 4 workers emit the "
        "exact decision stream of sequential feeding",
        multiplex_case_gen(), diff_gnn_sharded_vs_sequential));
    registry().add(make_diff_oracle<MultiSessionSchedule>(
        "shard.migration_replay",
        "Sessions checkpoint-migrated between shards mid-stream emit the "
        "exact decision stream of a never-migrated run",
        multiplex_case_gen(), diff_shard_migration_replay));
    // Registering the route.* oracles is what entitles the planner to
    // choose these variants: the suite runs them in CI, so the proved
    // marks below are never ahead of an actual equivalence proof.
    route::PathRegistry::instance().mark_proved(route::PathId::CnnSparse);
    route::PathRegistry::instance().mark_proved(route::PathId::SnnEventDriven);
    route::PathRegistry::instance().mark_proved(route::PathId::GnnBatch);
    return true;
  }();
  (void)registered;
}

}  // namespace evd::check
