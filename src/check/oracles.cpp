#include "check/oracles.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <sstream>

#include "check/serve.hpp"
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
       << " degree=" << c.neighbor_features.size()
       << " weight_seed=" << c.weight_seed;
    return os.str();
  };
  return gen;
}

std::optional<std::string> diff_simd_gnn_accumulate_vs_scalar(
    const GnnNodeCase& c) {
  Rng rng(c.weight_seed);
  gnn::GraphConv conv(c.in, c.out, rng);
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

// ---- serving plane: one driver behind every runtime/sched/route/shard oracle

namespace {

constexpr Index kMuxGeometry = 16;
constexpr Index kBurst = 3;  ///< Tiny: sessions interleave across rounds.
constexpr size_t kPumpEvery = 5;  ///< Turns between mid-stream pumps.
constexpr Index kShards = 3;

// Tiny untrained pipelines on a 16x16 sensor: determinism, not accuracy, is
// the property under test. GNN sessions decide on every surviving event,
// the densest stream of the three, so any perturbation shows immediately.
cnn::CnnPipelineConfig cnn_config() {
  cnn::CnnPipelineConfig config;
  config.width = kMuxGeometry;
  config.height = kMuxGeometry;
  config.num_classes = 2;
  config.base_filters = 2;
  config.frame_period_us = 10000;  // several frame closes per schedule
  return config;
}

snn::SnnPipelineConfig snn_config() {
  snn::SnnPipelineConfig config;
  config.width = kMuxGeometry;
  config.height = kMuxGeometry;
  config.num_classes = 2;
  config.hidden = 16;
  config.encoder.spatial_factor = 2;
  config.timestep_us = 5000;
  return config;
}

gnn::GnnPipelineConfig gnn_config() {
  gnn::GnnPipelineConfig config;
  config.width = kMuxGeometry;
  config.height = kMuxGeometry;
  config.num_classes = 2;
  config.model.hidden = 8;
  config.model.layers = 2;
  config.stream_stride = 2;
  return config;
}

/// 1..4 sessions, each with its own feed/advance tape. Degraded-sensor
/// regimes (leak bursts, HDR flicker) are mixed in, so every serving oracle
/// runs on the pathological streams real DVS hardware produces, not only on
/// uniform noise.
Gen<MultiSessionSchedule> schedule_gen() {
  MultiScheduleGenConfig config;
  config.width = kMuxGeometry;
  config.height = kMuxGeometry;
  config.max_sessions = 4;
  config.max_ops_per_session = 30;
  config.duration_us = 60000;
  config.degraded_fraction = 0.3;
  return multi_schedule_gen(config);
}

/// One session per schedule entry, opened from `pipeline` on `manager`.
template <typename Pipeline>
std::vector<runtime::SessionId> add_sessions(
    runtime::SessionManager& manager, Pipeline& pipeline,
    const MultiSessionSchedule& c,
    const runtime::ManagedSessionConfig& config = {}) {
  std::vector<runtime::SessionId> ids;
  for (size_t s = 0; s < c.sessions.size(); ++s) {
    ids.push_back(
        manager.add(pipeline.open_session(c.width, c.height), config));
  }
  return ids;
}

/// Serves the schedule's ops to `ids` (a runtime::SessionManager or a
/// shard::ShardManager) at kThreadedCount workers: one op per session per
/// turn, so ops arrive while other sessions are being served, a pump()
/// round every kPumpEvery-th turn, every session drained after every pump.
/// `after_turn(k)` runs after turn k; the last turn is the one past every
/// list, just before the final pump_all.
template <typename Manager>
Streams serve_schedule(
    Manager& manager, const std::vector<runtime::SessionId>& ids,
    const std::vector<std::vector<SessionOp>>& sessions,
    const std::function<void(size_t)>& after_turn = nullptr) {
  const Tape tape = round_robin(sessions, 1, kPumpEvery, Pump::Round);
  return with_thread_count(kThreadedCount, [&] {
    Streams streams;
    serve(manager, ids, tape, &streams, after_turn);
    return streams;
  });
}

/// runtime.multiplex_vs_sequential.*: multiplexing sessions on a shared
/// pool never changes what any of them decides.
template <typename Pipeline>
std::optional<std::string> diff_multiplexed(Pipeline&& pipeline,
                                            const MultiSessionSchedule& c) {
  const Streams want = serve_sequential(pipeline, c);
  runtime::SessionManager manager(kBurst);
  const auto ids = add_sessions(manager, pipeline, c);
  return diff_decision_streams(serve_schedule(manager, ids, c.sessions),
                               want, "multiplexed", "sequential");
}

/// runtime.obs_on_vs_off: the same schedule served with observability on
/// (spans, counters, latency histograms all firing) and forced off — the
/// "observers never perturb the observed" contract of evd::obs.
std::optional<std::string> diff_obs_on_vs_off(const MultiSessionSchedule& c) {
  gnn::GnnPipeline pipeline(gnn_config());
  const auto served = [&](bool obs_on) {
    struct RestoreObs {
      bool previous;
      ~RestoreObs() { obs::set_enabled(previous); }
    } restore{obs::enabled()};
    obs::set_enabled(obs_on);
    runtime::SessionManager manager(kBurst);
    return serve_schedule(manager, add_sessions(manager, pipeline, c),
                          c.sessions);
  };
  const Streams on = served(true);
  const Streams off = served(false);
  return diff_decision_streams(on, off, "with obs on", "with obs off");
}

/// runtime.fault_isolation: the blast-radius contract of quarantine. The
/// schedule is served clean, then again beside a saboteur session (a copy
/// of session 0's ops) that takes a one-shot injected op fault with no
/// checkpoint, so it quarantines; no healthy session may move by a bit.
std::optional<std::string> diff_fault_isolation(const MultiSessionSchedule& c) {
  gnn::GnnPipeline pipeline(gnn_config());
  runtime::SessionManager clean_manager(kBurst);
  const Streams clean = serve_schedule(
      clean_manager, add_sessions(clean_manager, pipeline, c), c.sessions);

  MultiSessionSchedule sabotaged = c;
  sabotaged.sessions.push_back(c.sessions.front());
  runtime::SessionManager manager(kBurst);
  const auto ids = add_sessions(manager, pipeline, sabotaged);
  const runtime::SessionId saboteur = ids.back();
  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::SessionThrow;
  plan.target = saboteur;
  plan.after = 2;
  plan.max_fires = 1;
  Streams faulted;
  std::int64_t fires = 0;
  {
    fault::ScopedInjection injection("runtime.pump.op_fault", plan);
    faulted = serve_schedule(manager, ids, sabotaged.sessions);
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
  return diff_decision_streams(faulted, clean, "with faulted neighbor",
                               "clean");
}

/// runtime.checkpoint_replay: with periodic checkpoints and restore-on-fault,
/// a one-shot injected fault on session 0 must restore from the last
/// checkpoint, replay, retry, and end bitwise equal to the never-faulted
/// reference. The fault strikes session 0's op 5..8, picked by its length:
/// with 3 ops a pump and a checkpoint every 4, some restores replay ops
/// whose decisions were drained after an earlier pump and some replay none.
std::optional<std::string> diff_checkpoint_replay(
    const MultiSessionSchedule& c) {
  gnn::GnnPipeline pipeline(gnn_config());
  const Streams want = serve_sequential(pipeline, c);
  runtime::ManagedSessionConfig config;
  config.checkpoint_every = 4;
  config.restore_on_fault = true;
  runtime::SessionManager manager(kBurst);
  const auto ids = add_sessions(manager, pipeline, c, config);
  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::SessionThrow;
  plan.target = ids.front();
  plan.after = 5 + static_cast<Index>(c.sessions.front().size() % 4);
  plan.max_fires = 1;
  Streams served;
  std::int64_t fires = 0;
  {
    fault::ScopedInjection injection("runtime.pump.op_fault", plan);
    served = serve_schedule(manager, ids, c.sessions);
    fires = fault::Injector::instance().fires("runtime.pump.op_fault");
  }
  if (fires > 0) {
    if (manager.state(ids.front()) != runtime::SessionState::Active) {
      return "faulted session did not recover: " +
             manager.fault_message(ids.front());
    }
    if (manager.stats().faults.restores < 1) {
      return "fault fired but no restore was counted";
    }
  }
  return diff_decision_streams(served, want, "restored",
                               "sequential reference");
}

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
  return plan;
}

/// sched.plan_vs_sequential.*: the planner's equivalence contract. A plan
/// may re-partition sessions across workers, reorder visits, change the
/// burst and re-route paths, but never change a single emitted bit. The
/// plan is seeded by the schedule's per-session op counts, so every case
/// exercises a different plan and a shrunk schedule carries a
/// correspondingly shrunk witness plan.
template <typename Pipeline>
std::optional<std::string> diff_planned(Pipeline&& pipeline,
                                        const std::string& paradigm,
                                        const MultiSessionSchedule& c) {
  const Streams want = serve_sequential(pipeline, c);
  std::uint64_t schedule_seed = 0x9E3779B97F4A7C15ULL;
  for (const auto& ops : c.sessions) {
    schedule_seed = schedule_seed * 0x100000001B3ULL + ops.size();
  }
  runtime::SessionManager manager(kBurst);
  const auto ids = add_sessions(manager, pipeline, c);
  manager.set_plan(random_plan(static_cast<Index>(ids.size()), paradigm,
                               schedule_seed));
  if (auto d = diff_decision_streams(serve_schedule(manager, ids, c.sessions),
                                     want, "planned", "sequential reference")) {
    return "under plan " + manager.plan().describe() + "\n" + *d;
  }
  return std::nullopt;
}

/// route.*: every session pinned to `forced` vs the default path. This is
/// the per-placement equivalence proof behind PathRegistry::mark_proved: a
/// plan may re-route a paradigm's hot stage onto this variant only because
/// this oracle holds the decision streams bitwise identical (ULP 0).
template <typename Pipeline>
std::optional<std::string> diff_route(Pipeline&& pipeline,
                                      route::PathId forced,
                                      const MultiSessionSchedule& c) {
  const Streams want = serve_sequential(pipeline, c);
  runtime::SessionManager manager(kBurst);
  const auto ids = add_sessions(manager, pipeline, c);
  for (const auto id : ids) {
    if (!manager.session(id).set_execution_path(forced)) {
      return std::string("session declined execution path ") +
             route::path_name(forced);
    }
  }
  return diff_decision_streams(serve_schedule(manager, ids, c.sessions), want,
                               route::path_name(forced), "default path");
}

/// shard.sharded_vs_sequential.*: the replay-transparency contract of
/// evd::shard. kShards shard groups, each a private SessionManager behind
/// its lock-free ingress ring, drain concurrently; partitioning the serving
/// plane may change where and when ops execute, never what they compute.
///
/// shard.migration_replay (`migrate`): every session is also
/// checkpoint-migrated to the next shard around the ring at its schedule
/// midpoint and once more before the final pump_all; decisions recorded
/// before, across and after each move must match the never-migrated
/// reference.
template <typename Pipeline>
std::optional<std::string> diff_sharded(Pipeline&& pipeline,
                                        const MultiSessionSchedule& c,
                                        bool migrate) {
  const Streams want = serve_sequential(pipeline, c);
  shard::ShardManagerConfig config;
  config.shards = kShards;
  config.burst = kBurst;
  shard::ShardManager manager(config);
  std::vector<runtime::SessionId> ids;
  size_t longest = 0;
  for (const auto& ops : c.sessions) {
    ids.push_back(
        manager.add([&] { return pipeline.open_session(c.width, c.height); }));
    longest = std::max(longest, ops.size());
  }
  const auto rotate_all = [&](size_t turn) {
    if (turn != (longest + 1) / 2 && turn != longest + 1) return;
    for (const auto id : ids) {
      manager.migrate(id, (manager.shard_of(id) + 1) % manager.shard_count());
    }
  };
  const Streams got =
      serve_schedule(manager, ids, c.sessions,
                     migrate ? std::function<void(size_t)>(rotate_all)
                             : nullptr);
  return diff_decision_streams(got, want, migrate ? "migrated" : "sharded",
                               "sequential");
}

}  // namespace

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
    using Schedule = MultiSessionSchedule;
    const auto serving = [](const char* name, const char* description,
                            DiffOracle<Schedule>::Property diff) {
      registry().add(make_diff_oracle<Schedule>(name, description,
                                                schedule_gen(),
                                                std::move(diff)));
    };
    serving("runtime.multiplex_vs_sequential.cnn",
            "CNN sessions multiplexed on 4 workers emit the exact decision "
            "stream of sequential feeding",
            [](const Schedule& c) {
              return diff_multiplexed(cnn::CnnPipeline(cnn_config()), c);
            });
    serving("runtime.multiplex_vs_sequential.snn",
            "SNN sessions multiplexed on 4 workers emit the exact decision "
            "stream of sequential feeding",
            [](const Schedule& c) {
              return diff_multiplexed(snn::SnnPipeline(snn_config()), c);
            });
    serving("runtime.multiplex_vs_sequential.gnn",
            "GNN sessions multiplexed on 4 workers emit the exact decision "
            "stream of sequential feeding",
            [](const Schedule& c) {
              return diff_multiplexed(gnn::GnnPipeline(gnn_config()), c);
            });
    serving("runtime.obs_on_vs_off",
            "Observability (spans, counters, latency histograms) never "
            "perturbs the served decision streams — bitwise identical on vs "
            "off",
            diff_obs_on_vs_off);
    serving("runtime.fault_isolation",
            "Healthy sessions' decision streams are bitwise identical with "
            "and without a quarantined (injected-fault) neighbor",
            diff_fault_isolation);
    serving("runtime.checkpoint_replay",
            "A session that faults, restores from its checkpoint and replays "
            "emits the exact decision stream of a never-faulted run",
            diff_checkpoint_replay);
    serving("sched.plan_vs_sequential.cnn",
            "CNN sessions pumped under a random valid execution plan emit "
            "the exact decision stream of sequential feeding",
            [](const Schedule& c) {
              return diff_planned(cnn::CnnPipeline(cnn_config()), "cnn", c);
            });
    serving("sched.plan_vs_sequential.snn",
            "SNN sessions pumped under a random valid execution plan emit "
            "the exact decision stream of sequential feeding",
            [](const Schedule& c) {
              return diff_planned(snn::SnnPipeline(snn_config()), "snn", c);
            });
    serving("sched.plan_vs_sequential.gnn",
            "GNN sessions pumped under a random valid execution plan emit "
            "the exact decision stream of sequential feeding",
            [](const Schedule& c) {
              return diff_planned(gnn::GnnPipeline(gnn_config()), "gnn", c);
            });
    serving("route.cnn_sparse_vs_dense",
            "CNN sessions routed onto the zero-skipping sparse conv path emit "
            "the exact decision stream of the default path",
            [](const Schedule& c) {
              return diff_route(cnn::CnnPipeline(cnn_config()),
                                route::PathId::CnnSparse, c);
            });
    serving("route.snn_clocked_vs_event",
            "SNN sessions routed onto event-driven stepping emit the exact "
            "decision stream of the default clocked path",
            [](const Schedule& c) {
              return diff_route(snn::SnnPipeline(snn_config()),
                                route::PathId::SnnEventDriven, c);
            });
    serving("route.gnn_batch_vs_incremental",
            "GNN sessions routed onto the full-sweep batch message pass emit "
            "the exact decision stream of the default incremental path",
            [](const Schedule& c) {
              return diff_route(gnn::GnnPipeline(gnn_config()),
                                route::PathId::GnnBatch, c);
            });
    serving("shard.sharded_vs_sequential.cnn",
            "CNN sessions spread over 3 shards (private managers behind "
            "lock-free ingress rings) pumped on 4 workers emit the exact "
            "decision stream of sequential feeding",
            [](const Schedule& c) {
              return diff_sharded(cnn::CnnPipeline(cnn_config()), c, false);
            });
    serving("shard.sharded_vs_sequential.snn",
            "SNN sessions spread over 3 shards pumped on 4 workers emit the "
            "exact decision stream of sequential feeding",
            [](const Schedule& c) {
              return diff_sharded(snn::SnnPipeline(snn_config()), c, false);
            });
    serving("shard.sharded_vs_sequential.gnn",
            "GNN sessions spread over 3 shards pumped on 4 workers emit the "
            "exact decision stream of sequential feeding",
            [](const Schedule& c) {
              return diff_sharded(gnn::GnnPipeline(gnn_config()), c, false);
            });
    serving("shard.migration_replay",
            "Sessions checkpoint-migrated between shards mid-stream emit the "
            "exact decision stream of a never-migrated run",
            [](const Schedule& c) {
              return diff_sharded(gnn::GnnPipeline(gnn_config()), c, true);
            });
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
