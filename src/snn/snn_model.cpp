#include "snn/snn_model.hpp"

#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "common/parallel.hpp"
#include "nn/counters.hpp"
#include "simd/kernels.hpp"
#include "nn/init.hpp"
#include "nn/optimizer.hpp"
#include "nn/softmax.hpp"

namespace evd::snn {
namespace {

/// Neurons per parallel chunk for layer updates. Shape-only, so spike order
/// (chunks concatenated in ascending order = ascending neuron id) and
/// membrane arithmetic are identical for any thread count.
constexpr Index kNeuronGrain = 128;

}  // namespace

SpikingNet::SpikingNet(SpikingNetConfig config, Rng& rng)
    : config_(std::move(config)) {
  if (config_.layer_sizes.size() < 2) {
    throw std::invalid_argument("SpikingNet: need >= 2 layer sizes");
  }
  for (size_t l = 0; l + 1 < config_.layer_sizes.size(); ++l) {
    const Index in = config_.layer_sizes[l];
    const Index out = config_.layer_sizes[l + 1];
    // snprintf-built names sidestep a GCC 12 -Wrestrict false positive in
    // the inlined std::string concatenation path.
    char w_name[24];
    char b_name[24];
    std::snprintf(w_name, sizeof w_name, "W%zu", l);
    std::snprintf(b_name, sizeof b_name, "b%zu", l);
    weights_.emplace_back(w_name, nn::he_normal({out, in}, in, rng));
    biases_.emplace_back(b_name, nn::Tensor({out}));
  }
}

std::vector<nn::Param*> SpikingNet::params() {
  weights_t_.clear();
  std::vector<nn::Param*> all;
  for (auto& w : weights_) all.push_back(&w);
  for (auto& b : biases_) all.push_back(&b);
  return all;
}

Index SpikingNet::param_count() const {
  Index n = 0;
  for (const auto& w : weights_) n += w.value.numel();
  for (const auto& b : biases_) n += b.value.numel();
  return n;
}

void SpikingNet::freeze() {
  if (frozen()) return;
  weights_t_.resize(weights_.size());
  for (size_t l = 0; l < weights_.size(); ++l) {
    const Index in = config_.layer_sizes[l];
    const Index out = config_.layer_sizes[l + 1];
    auto& wt = weights_t_[l];
    wt.resize(static_cast<size_t>(in) * static_cast<size_t>(out));
    const float* w = weights_[l].value.data();
    for (Index o = 0; o < out; ++o) {
      for (Index i = 0; i < in; ++i) {
        wt[static_cast<size_t>(i) * static_cast<size_t>(out) +
           static_cast<size_t>(o)] = w[o * in + i];
      }
    }
  }
}

nn::Tensor SpikingNet::forward(const SpikeTrain& input, bool train) {
  const Index L = layer_count();           // linear maps
  const Index hidden_layers = L - 1;       // spiking layers
  const Index T = input.steps;
  if (input.size != config_.layer_sizes.front()) {
    throw std::invalid_argument("SpikingNet::forward: input size mismatch");
  }
  const Index out_size = config_.layer_sizes.back();
  const float theta = config_.lif.threshold;
  const float beta = config_.lif.beta;

  if (train) {
    cached_steps_ = T;
    cached_input_copy_ = input;
    cached_spikes_.assign(static_cast<size_t>(hidden_layers), {});
    cached_membrane_.clear();
    for (Index l = 0; l < hidden_layers; ++l) {
      cached_spikes_[static_cast<size_t>(l)].resize(static_cast<size_t>(T));
      cached_membrane_.emplace_back(
          std::vector<Index>{T, config_.layer_sizes[static_cast<size_t>(l + 1)]});
    }
  }

  // Transient membrane state.
  std::vector<std::vector<float>> v(static_cast<size_t>(hidden_layers));
  for (Index l = 0; l < hidden_layers; ++l) {
    v[static_cast<size_t>(l)].assign(
        static_cast<size_t>(config_.layer_sizes[static_cast<size_t>(l + 1)]),
        0.0f);
  }
  std::vector<float> v_out(static_cast<size_t>(out_size), 0.0f);
  std::vector<double> logit_sum(static_cast<size_t>(out_size), 0.0);

  last_hidden_spikes_ = 0;
  const bool counting = nn::active_counter() != nullptr;
  std::vector<Index> spikes_in, spikes_next;

  for (Index t = 0; t < T; ++t) {
    spikes_in = input.active[static_cast<size_t>(t)];
    for (Index l = 0; l < hidden_layers; ++l) {
      auto& vl = v[static_cast<size_t>(l)];
      const Index n = static_cast<Index>(vl.size());
      const Index in_dim = config_.layer_sizes[static_cast<size_t>(l)];
      const float* w = weights_[static_cast<size_t>(l)].value.data();
      const float* b = biases_[static_cast<size_t>(l)].value.data();
      // Fused leak + bias + event-driven synaptic accumulation + threshold,
      // parallel over neuron chunks; the per-chunk body dispatches on the
      // SIMD tier (EVD_SIMD). Per neuron the addition order (bias, then
      // spikes in arrival order) matches the serial reference in every
      // tier; chunk spike lists concatenate in chunk order, preserving
      // ascending ids. Membrane is cached pre-reset (for the surrogate
      // gradient) when training.
      const Index nchunks = par::chunk_count(0, n, kNeuronGrain);
      std::vector<std::vector<Index>> chunk_spikes(
          static_cast<size_t>(nchunks));
      float* membrane_row =
          train ? &cached_membrane_[static_cast<size_t>(l)].at2(t, 0)
                : nullptr;
      const float* w_t = weight_t(l);
      par::parallel_for_chunks(0, n, kNeuronGrain, [&](Index chunk, Index nb,
                                                       Index ne) {
        simd::lif_step_block(vl.data(), b, w, w_t, in_dim, n,
                             spikes_in.data(),
                             static_cast<Index>(spikes_in.size()), nb, ne,
                             beta, theta, config_.lif.reset_to_zero,
                             membrane_row,
                             chunk_spikes[static_cast<size_t>(chunk)]);
      });
      spikes_next.clear();
      for (const auto& local : chunk_spikes) {
        spikes_next.insert(spikes_next.end(), local.begin(), local.end());
      }
      if (counting) {
        nn::count_mult(n);                                   // leak
        nn::count_add(n);                                    // bias
        nn::count_add(static_cast<std::int64_t>(spikes_in.size()) * n);
        nn::count_compare(n);                                // threshold
        nn::count_param_read(
            (static_cast<std::int64_t>(spikes_in.size()) * n + n) * 4);
        nn::count_state_rw(n * 8);                           // V read+write
      }
      if (train) {
        cached_spikes_[static_cast<size_t>(l)][static_cast<size_t>(t)] =
            spikes_next;
      }
      last_hidden_spikes_ += static_cast<Index>(spikes_next.size());
      spikes_in = spikes_next;
    }
    // Readout integrator (non-spiking).
    {
      const Index in_dim = config_.layer_sizes[static_cast<size_t>(L - 1)];
      const float* w = weights_.back().value.data();
      const float* b = biases_.back().value.data();
      for (Index o = 0; o < out_size; ++o) {
        v_out[static_cast<size_t>(o)] =
            config_.readout_beta * v_out[static_cast<size_t>(o)] + b[o];
      }
      for (const Index i : spikes_in) {
        for (Index o = 0; o < out_size; ++o) {
          v_out[static_cast<size_t>(o)] += w[o * in_dim + i];
        }
      }
      for (Index o = 0; o < out_size; ++o) {
        logit_sum[static_cast<size_t>(o)] += v_out[static_cast<size_t>(o)];
      }
      if (counting) {
        nn::count_mult(out_size);
        nn::count_add(static_cast<std::int64_t>(spikes_in.size() + 2) *
                      out_size);
        nn::count_state_rw(out_size * 8);
      }
    }
  }

  Index hidden_neurons = 0;
  for (Index l = 1; l + 1 < static_cast<Index>(config_.layer_sizes.size());
       ++l) {
    hidden_neurons += config_.layer_sizes[static_cast<size_t>(l)];
  }
  last_density_ = (T > 0 && hidden_neurons > 0)
                      ? static_cast<double>(last_hidden_spikes_) /
                            (static_cast<double>(T) *
                             static_cast<double>(hidden_neurons))
                      : 0.0;

  nn::Tensor logits({out_size});
  for (Index o = 0; o < out_size; ++o) {
    logits[o] = static_cast<float>(logit_sum[static_cast<size_t>(o)] /
                                   static_cast<double>(T));
  }
  return logits;
}

void SpikingNet::backward(const nn::Tensor& grad_logits) {
  const Index L = layer_count();
  const Index hidden_layers = L - 1;
  const Index T = cached_steps_;
  if (T == 0) throw std::logic_error("SpikingNet::backward: no cached forward");
  const Index out_size = config_.layer_sizes.back();
  const float theta = config_.lif.threshold;
  const float beta = config_.lif.beta;

  // ---- Readout layer ----
  // logits = (1/T) sum_t V_out[t]; V_out[t] = rb * V_out[t-1] + W s[t] + b.
  const Index top = hidden_layers - 1;  // index of last spiking layer
  const Index top_size = config_.layer_sizes[static_cast<size_t>(L - 1)];
  nn::Tensor ds_top({T, top_size});  // dL/d s_top[t]
  {
    std::vector<float> delta(static_cast<size_t>(out_size), 0.0f);
    auto& w_out = weights_.back();
    auto& b_out = biases_.back();
    for (Index t = T - 1; t >= 0; --t) {
      for (Index o = 0; o < out_size; ++o) {
        delta[static_cast<size_t>(o)] =
            grad_logits[o] / static_cast<float>(T) +
            config_.readout_beta * delta[static_cast<size_t>(o)];
      }
      const auto& spikes =
          top >= 0 ? cached_spikes_[static_cast<size_t>(top)]
                         [static_cast<size_t>(t)]
                   : cached_input_copy_.active[static_cast<size_t>(t)];
      for (Index o = 0; o < out_size; ++o) {
        const float d = delta[static_cast<size_t>(o)];
        b_out.grad[o] += d;
        for (const Index i : spikes) {
          w_out.grad[o * top_size + i] += d;
        }
      }
      // Upstream gradient to the top spiking layer's spikes.
      if (top >= 0) {
        for (Index i = 0; i < top_size; ++i) {
          float acc = 0.0f;
          for (Index o = 0; o < out_size; ++o) {
            acc += w_out.value[o * top_size + i] *
                   delta[static_cast<size_t>(o)];
          }
          ds_top.at2(t, i) = acc;
        }
      }
    }
  }

  // ---- Spiking layers, top to bottom ----
  nn::Tensor ds = std::move(ds_top);  // dL/ds for current layer, [T, n]
  for (Index l = hidden_layers - 1; l >= 0; --l) {
    const Index n = config_.layer_sizes[static_cast<size_t>(l + 1)];
    const Index in_dim = config_.layer_sizes[static_cast<size_t>(l)];
    auto& w = weights_[static_cast<size_t>(l)];
    auto& b = biases_[static_cast<size_t>(l)];
    const auto& membrane = cached_membrane_[static_cast<size_t>(l)];

    nn::Tensor ds_below;
    const bool need_below = l > 0;
    if (need_below) ds_below = nn::Tensor({T, in_dim});

    std::vector<float> dv(static_cast<size_t>(n), 0.0f);
    for (Index t = T - 1; t >= 0; --t) {
      // dL/dV[t] = ds[t] * sg'(V[t]-theta) + beta * dL/dV[t+1]
      for (Index o = 0; o < n; ++o) {
        const float sg = surrogate_grad(config_.surrogate,
                                        membrane.at2(t, o) - theta,
                                        config_.surrogate_slope);
        dv[static_cast<size_t>(o)] =
            ds.at2(t, o) * sg + beta * dv[static_cast<size_t>(o)];
      }
      const auto& in_spikes =
          l > 0 ? cached_spikes_[static_cast<size_t>(l - 1)]
                      [static_cast<size_t>(t)]
                : cached_input_copy_.active[static_cast<size_t>(t)];
      for (Index o = 0; o < n; ++o) {
        const float d = dv[static_cast<size_t>(o)];
        if (d == 0.0f) continue;
        b.grad[o] += d;
        for (const Index i : in_spikes) {
          w.grad[o * in_dim + i] += d;
        }
      }
      if (need_below) {
        for (Index i = 0; i < in_dim; ++i) {
          float acc = 0.0f;
          for (Index o = 0; o < n; ++o) {
            acc += w.value[o * in_dim + i] * dv[static_cast<size_t>(o)];
          }
          ds_below.at2(t, i) = acc;
        }
      }
    }
    if (need_below) ds = std::move(ds_below);
  }
}

SnnState SpikingNet::make_state() const {
  SnnState state;
  const Index hidden_layers = layer_count() - 1;
  for (Index l = 0; l < hidden_layers; ++l) {
    state.membrane.emplace_back(
        static_cast<size_t>(config_.layer_sizes[static_cast<size_t>(l + 1)]),
        0.0f);
  }
  state.membrane.emplace_back(
      static_cast<size_t>(config_.layer_sizes.back()), 0.0f);
  state.readout_sum.assign(static_cast<size_t>(config_.layer_sizes.back()),
                           0.0f);
  return state;
}

nn::Tensor SpikingNet::step(SnnState& state,
                            const std::vector<Index>& input_spikes) const {
  const Index L = layer_count();
  const Index hidden_layers = L - 1;
  const float theta = config_.lif.threshold;
  const float beta = config_.lif.beta;
  const bool counting = nn::active_counter() != nullptr;

  std::vector<Index> spikes_in = input_spikes;
  std::vector<Index> spikes_next;
  // Spike accounting lives in the state, not the net: step() must stay
  // const-safe on `this` so concurrent sessions can share one network.
  state.step_hidden_spikes = 0;
  for (Index l = 0; l < hidden_layers; ++l) {
    auto& vl = state.membrane[static_cast<size_t>(l)];
    const Index n = static_cast<Index>(vl.size());
    const Index in_dim = config_.layer_sizes[static_cast<size_t>(l)];
    const float* w = weights_[static_cast<size_t>(l)].value.data();
    const float* b = biases_[static_cast<size_t>(l)].value.data();
    // SIMD-dispatched LIF chunk update; spike order and membrane bits are
    // tier-invariant (see simd::lif_step_block).
    const Index nchunks = par::chunk_count(0, n, kNeuronGrain);
    std::vector<std::vector<Index>> chunk_spikes(static_cast<size_t>(nchunks));
    const float* w_t = weight_t(l);
    par::parallel_for_chunks(0, n, kNeuronGrain, [&](Index chunk, Index nb,
                                                     Index ne) {
      simd::lif_step_block(vl.data(), b, w, w_t, in_dim, n, spikes_in.data(),
                           static_cast<Index>(spikes_in.size()), nb, ne, beta,
                           theta, config_.lif.reset_to_zero, nullptr,
                           chunk_spikes[static_cast<size_t>(chunk)]);
    });
    spikes_next.clear();
    for (const auto& local : chunk_spikes) {
      spikes_next.insert(spikes_next.end(), local.begin(), local.end());
    }
    if (counting) {
      nn::count_mult(n);
      nn::count_add(static_cast<std::int64_t>(spikes_in.size() + 1) * n);
      nn::count_compare(n);
      nn::count_state_rw(n * 8);
      nn::count_param_read(
          (static_cast<std::int64_t>(spikes_in.size()) * n + n) * 4);
    }
    state.step_hidden_spikes += static_cast<Index>(spikes_next.size());
    spikes_in = spikes_next;
  }

  return readout(state, spikes_in);
}

nn::Tensor SpikingNet::step_event(
    SnnState& state, const std::vector<Index>& input_spikes) const {
  // One spike-driven kernel call per layer on the calling thread — see the
  // header for the bitwise-equivalence argument against step(). The op
  // counting below is deliberately identical to step()'s: both paths do
  // the same arithmetic, so the analytic ledgers must agree too (the
  // modeled cost difference between the paths lives in the planner's
  // per-path profiles, not here).
  const Index hidden_layers = layer_count() - 1;
  const float theta = config_.lif.threshold;
  const float beta = config_.lif.beta;
  const bool counting = nn::active_counter() != nullptr;

  std::vector<Index> spikes_in = input_spikes;
  std::vector<Index> spikes_next;
  state.step_hidden_spikes = 0;
  for (Index l = 0; l < hidden_layers; ++l) {
    auto& vl = state.membrane[static_cast<size_t>(l)];
    const Index n = static_cast<Index>(vl.size());
    const Index in_dim = config_.layer_sizes[static_cast<size_t>(l)];
    const float* w = weights_[static_cast<size_t>(l)].value.data();
    const float* b = biases_[static_cast<size_t>(l)].value.data();
    const float* w_t = weight_t(l);
    spikes_next.clear();
    simd::lif_step_block(vl.data(), b, w, w_t, in_dim, n, spikes_in.data(),
                         static_cast<Index>(spikes_in.size()), 0, n, beta,
                         theta, config_.lif.reset_to_zero, nullptr,
                         spikes_next);
    if (counting) {
      nn::count_mult(n);
      nn::count_add(static_cast<std::int64_t>(spikes_in.size() + 1) * n);
      nn::count_compare(n);
      nn::count_state_rw(n * 8);
      nn::count_param_read(
          (static_cast<std::int64_t>(spikes_in.size()) * n + n) * 4);
    }
    state.step_hidden_spikes += static_cast<Index>(spikes_next.size());
    spikes_in = spikes_next;
  }
  return readout(state, spikes_in);
}

nn::Tensor SpikingNet::readout(SnnState& state,
                               const std::vector<Index>& spikes_in) const {
  const Index L = layer_count();
  auto& v_out = state.membrane.back();
  const Index out_size = static_cast<Index>(v_out.size());
  const Index in_dim = config_.layer_sizes[static_cast<size_t>(L - 1)];
  const float* w = weights_.back().value.data();
  const float* b = biases_.back().value.data();
  for (Index o = 0; o < out_size; ++o) {
    v_out[static_cast<size_t>(o)] =
        config_.readout_beta * v_out[static_cast<size_t>(o)] + b[o];
  }
  for (const Index i : spikes_in) {
    for (Index o = 0; o < out_size; ++o) {
      v_out[static_cast<size_t>(o)] += w[o * in_dim + i];
    }
  }
  ++state.steps_seen;
  nn::Tensor logits({out_size});
  for (Index o = 0; o < out_size; ++o) {
    state.readout_sum[static_cast<size_t>(o)] += v_out[static_cast<size_t>(o)];
    logits[o] = state.readout_sum[static_cast<size_t>(o)] /
                static_cast<float>(state.steps_seen);
  }
  return logits;
}

SnnFitReport fit_snn(SpikingNet& net, std::span<const SpikeTrain> inputs,
                     std::span<const Index> labels,
                     const SnnFitOptions& options) {
  if (inputs.size() != labels.size()) {
    throw std::invalid_argument("fit_snn: inputs/labels mismatch");
  }
  nn::Adam optimizer(net.params(), options.lr);
  Rng rng(options.shuffle_seed);
  std::vector<size_t> order(inputs.size());
  std::iota(order.begin(), order.end(), 0);

  SnnFitReport report;
  for (Index epoch = 0; epoch < options.epochs; ++epoch) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_int(i)]);
    }
    double loss_sum = 0.0;
    Index correct = 0;
    for (const size_t idx : order) {
      const nn::Tensor logits = net.forward(inputs[idx], /*train=*/true);
      const auto ce = nn::softmax_cross_entropy(logits, labels[idx]);
      net.backward(ce.grad);
      nn::clip_grad_norm(net.params(), options.grad_clip);
      optimizer.step();
      loss_sum += ce.loss;
      correct += (logits.argmax() == labels[idx]) ? 1 : 0;
    }
    report.epoch_loss.push_back(loss_sum / static_cast<double>(inputs.size()));
    report.epoch_accuracy.push_back(static_cast<double>(correct) /
                                    static_cast<double>(inputs.size()));
    if (options.verbose) {
      std::printf("  [snn] epoch %lld loss %.4f acc %.3f\n",
                  static_cast<long long>(epoch), report.epoch_loss.back(),
                  report.epoch_accuracy.back());
    }
  }
  return report;
}

double evaluate_snn(SpikingNet& net, std::span<const SpikeTrain> inputs,
                    std::span<const Index> labels) {
  if (inputs.empty()) return 0.0;
  Index correct = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    correct +=
        (net.forward(inputs[i], false).argmax() == labels[i]) ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(inputs.size());
}

}  // namespace evd::snn
