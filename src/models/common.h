#pragma once
// Shared helpers for the model builders.

#include "models/zoo.h"
#include "nn/activations.h"
#include "nn/batchnorm_tt.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "snn/lif.h"
#include "snn/plif.h"

namespace snnskip::detail {

/// Spiking or analog neuron per the model config.
inline LayerPtr make_neuron(const ModelConfig& cfg, const std::string& name) {
  if (cfg.mode == NeuronMode::Spiking) {
    if (cfg.neuron == NeuronKind::Plif) {
      return std::make_unique<Plif>(cfg.lif, name);
    }
    return std::make_unique<Lif>(cfg.lif, name);
  }
  return std::make_unique<ReLU>();
}

/// conv3x3 -> BNTT -> neuron stem.
inline void add_stem(Network& net, const ModelConfig& cfg,
                     std::int64_t out_c, Rng& rng) {
  auto conv = std::make_unique<Conv2d>(cfg.in_channels, out_c, 3, 1, 1,
                                       /*bias=*/false, rng, "stem.conv");
  // The stem is the network's first layer: nothing consumes dL/dx, so skip
  // the dX kernel entirely (backward still returns a zero tensor of the
  // input shape).
  conv->set_input_grad_needed(false);
  net.add_layer(std::move(conv));
  net.add_layer(std::make_unique<BatchNormTT>(out_c, cfg.max_timesteps, 0.1f,
                                              1e-5f, "stem.bn"));
  net.add_layer(make_neuron(cfg, "stem.lif"));
}

/// global-average-pool -> linear classification head (optionally spiking).
inline void add_head(Network& net, const ModelConfig& cfg,
                     std::int64_t feat_c, Rng& rng) {
  net.add_layer(std::make_unique<GlobalAvgPool2d>());
  net.add_layer(std::make_unique<Linear>(feat_c, cfg.num_classes,
                                         /*bias=*/true, rng, "head.fc"));
  if (cfg.spiking_head && cfg.mode == NeuronMode::Spiking) {
    net.add_layer(make_neuron(cfg, "head.lif"));
  }
}

inline BlockConfig block_config(const ModelConfig& cfg) {
  BlockConfig bc;
  bc.mode = cfg.mode;
  bc.neuron = cfg.neuron;
  bc.max_timesteps = cfg.max_timesteps;
  bc.lif = cfg.lif;
  bc.dsc_fraction = cfg.dsc_fraction;
  return bc;
}

}  // namespace snnskip::detail
