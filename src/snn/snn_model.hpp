// Multi-layer spiking network trained with surrogate-gradient BPTT
// (paper §III-A [30]).
//
// Architecture: L-1 spiking LIF layers followed by a non-spiking leaky
// integrator readout; the logits are the time-averaged readout membrane
// potentials (a membrane-potential loss, [30]). Hidden spikes are binary, so
// forward synaptic work is pure *additions* gated by spikes — the property
// the paper's energy argument rests on — and is counted as such through the
// OpCounter.
//
// Backward implements truncation-free BPTT with the reset path detached
// (standard surrogate-gradient practice): for each spiking layer
//   dL/dV[t] = dL/ds[t] * sg'(V[t] - theta) + beta * dL/dV[t+1].
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "nn/layer.hpp"
#include "snn/encoding.hpp"
#include "snn/lif.hpp"
#include "snn/surrogate.hpp"

namespace evd::snn {

struct SpikingNetConfig {
  std::vector<Index> layer_sizes;  ///< {input, hidden..., output}.
  LifConfig lif;                   ///< Hidden-layer dynamics.
  float readout_beta = 0.95f;      ///< Output integrator leak.
  SurrogateKind surrogate = SurrogateKind::FastSigmoid;
  float surrogate_slope = 2.0f;
};

/// Persistent layer state for streaming (stateful stepping) mode.
///
/// Everything step() mutates lives here, not in the net: concurrent
/// sessions share one SpikingNet (const parameters) and each brings its own
/// SnnState, so stepping different states from different threads is safe.
struct SnnState {
  std::vector<std::vector<float>> membrane;  ///< Per layer (incl. readout).
  std::vector<float> readout_sum;            ///< Accumulated readout logits.
  Index steps_seen = 0;
  Index step_hidden_spikes = 0;  ///< Hidden spikes in the most recent step().
};

class SpikingNet {
 public:
  SpikingNet(SpikingNetConfig config, Rng& rng);

  /// Full-sequence forward; returns logits [output_size]. When `train`,
  /// caches membrane and spike trajectories for backward().
  nn::Tensor forward(const SpikeTrain& input, bool train);

  /// BPTT given dL/dlogits; accumulates parameter gradients.
  void backward(const nn::Tensor& grad_logits);

  /// Mutable weight handles. Thaws, like weight(l) and bias(l): drops the
  /// transposed copies, since the caller may write through the handles.
  std::vector<nn::Param*> params();
  Index param_count() const;

  /// Build the transposed weight copies from the current weights; a no-op
  /// while they exist. Serving freezes once, on the control thread.
  void freeze();
  bool frozen() const noexcept { return !weights_t_.empty(); }

  /// Hidden spike count of the most recent forward (activity metric).
  Index last_hidden_spikes() const noexcept { return last_hidden_spikes_; }
  /// Mean hidden spikes per neuron per step in the last forward.
  double last_spike_density() const noexcept { return last_density_; }

  // ---- Streaming (stateful) mode ----
  SnnState make_state() const;
  /// Advance one timestep with the given active input indices; returns the
  /// current running logits (time-averaged readout membrane).
  nn::Tensor step(SnnState& state,
                  const std::vector<Index>& input_spikes) const;

  /// Event-driven stepping: the same timestep arithmetic as step(), but
  /// each layer runs as ONE spike-driven kernel call on the calling thread
  /// instead of a fork-join over neuron chunks with per-chunk spike-list
  /// concatenation. Bitwise-identical to step() by construction — neurons
  /// are independent, the kernel's full-range spike emission equals the
  /// chunked emission concatenated in ascending order, and the readout is
  /// shared code — which the route.snn_clocked_vs_event oracle enforces at
  /// ULP 0. The win is scheduling, not arithmetic: no pool dispatch or
  /// barrier per layer and no per-chunk vector churn, which is what makes
  /// it the right path for sparse, latency-sensitive streams (the paper's
  /// event-driven execution style).
  nn::Tensor step_event(SnnState& state,
                        const std::vector<Index>& input_spikes) const;

  const SpikingNetConfig& config() const noexcept { return config_; }
  Index layer_count() const noexcept {
    return static_cast<Index>(weights_.size());
  }
  nn::Param& weight(Index l) {
    weights_t_.clear();
    return weights_.at(static_cast<size_t>(l));
  }
  nn::Param& bias(Index l) {
    weights_t_.clear();
    return biases_.at(static_cast<size_t>(l));
  }

 private:
  SpikingNetConfig config_;
  std::vector<nn::Param> weights_;
  std::vector<nn::Param> biases_;

  /// Layer l's transposed weights, or nullptr (gather fallback) unfrozen.
  const float* weight_t(Index l) const noexcept {
    return frozen() ? weights_t_[static_cast<size_t>(l)].data() : nullptr;
  }

  /// Shared readout tail of step()/step_event(): leaky output-membrane
  /// update from the last hidden layer's spikes, running-average logits.
  nn::Tensor readout(SnnState& state,
                     const std::vector<Index>& spikes_in) const;

  // Per-layer transposed ([in][out]) weight copies feeding the LIF kernel's
  // contiguous-streaming path (simd::lif_step_block's w_t): the per-spike
  // synapse fetch becomes a sequential row read instead of a strided gather
  // through the row-major matrix. freeze() builds them, params(), weight(l)
  // and bias(l) drop them, and while empty the kernel gathers instead,
  // bitwise equal. All run on the control thread, never while a session on
  // this net is pumped, so step()/step_event() read without a lock.
  std::vector<std::vector<float>> weights_t_;

  // Training caches (valid after forward(train=true)).
  Index cached_steps_ = 0;
  std::vector<std::vector<std::vector<Index>>> cached_spikes_;  ///< [layer][t]
  std::vector<nn::Tensor> cached_membrane_;  ///< [hidden layer] -> [T, n]
  SpikeTrain cached_input_copy_;

  Index last_hidden_spikes_ = 0;
  double last_density_ = 0.0;
};

struct SnnFitOptions {
  Index epochs = 10;
  float lr = 2e-3f;
  std::uint64_t shuffle_seed = 1;
  float grad_clip = 5.0f;
  bool verbose = false;
};

struct SnnFitReport {
  std::vector<double> epoch_loss;
  std::vector<double> epoch_accuracy;
};

SnnFitReport fit_snn(SpikingNet& net, std::span<const SpikeTrain> inputs,
                     std::span<const Index> labels,
                     const SnnFitOptions& options);

double evaluate_snn(SpikingNet& net, std::span<const SpikeTrain> inputs,
                    std::span<const Index> labels);

}  // namespace evd::snn
