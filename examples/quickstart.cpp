// Quickstart: build a spiking network, train it on a synthetic event
// dataset, and inspect accuracy / firing rate / MACs.
//
//   ./examples/quickstart [--epochs N] [--width W] [--timesteps T]
//                         [--trace-out trace.json]
//
// This walks the library's main public API surface in ~60 lines:
//   make_datasets -> build_model -> fit -> evaluate -> count_macs.
// With --trace-out, telemetry is enabled for the run and a Chrome
// trace_event file (chrome://tracing, Perfetto) plus an aggregate span
// summary are produced at the end.

#include <cstdio>

#include "graph/mac_counter.h"
#include "metrics/energy.h"
#include "models/zoo.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_export.h"
#include "train/checkpoint.h"
#include "train/evaluate.h"
#include "train/trainer.h"
#include "util/cli.h"

using namespace snnskip;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);

  const std::string trace_out = args.get("trace-out", "");
  if (!trace_out.empty()) Telemetry::set_enabled(true);

  // 1. A synthetic CIFAR-10-DVS-like event dataset (no files needed; every
  //    sample is generated deterministically from the seed).
  SyntheticConfig data_cfg;
  data_cfg.height = 12;
  data_cfg.width = 12;
  data_cfg.timesteps = args.get_int("timesteps", 6);
  data_cfg.train_size = 200;
  data_cfg.val_size = 60;
  data_cfg.test_size = 60;
  const DatasetBundle data = make_datasets("cifar10-dvs", data_cfg);

  // 2. A spiking ResNet-18-style model with its native residual skips.
  ModelConfig model_cfg;
  model_cfg.mode = NeuronMode::Spiking;
  model_cfg.in_channels = 2;  // DVS polarity channels
  model_cfg.num_classes = 10;
  model_cfg.max_timesteps = data_cfg.timesteps;
  model_cfg.width = args.get_int("width", 6);
  Network net = build_model("resnet18s", model_cfg,
                            default_adjacencies("resnet18s", model_cfg));
  std::printf("model: resnet18s, %zu parameters, %zu searchable blocks\n",
              net.parameter_count(), net.blocks().size());

  // 3. Train with surrogate-gradient BPTT.
  TrainConfig train_cfg;
  train_cfg.epochs = args.get_int("epochs", 3);
  train_cfg.batch_size = 20;
  train_cfg.lr = 0.15f;
  ProgressPrinter progress;  // one stderr line per epoch
  train_cfg.observers.push_back(&progress);
  TelemetryObserver telemetry_observer;
  if (!trace_out.empty()) train_cfg.observers.push_back(&telemetry_observer);
  const FitResult fr =
      fit(net, NeuronMode::Spiking, data.train, data.val, train_cfg);
  std::printf("best val accuracy: %.1f%%\n", fr.best_val_acc * 100.0);

  // 4. Evaluate on the test split with firing-rate instrumentation.
  FiringRateRecorder recorder;
  const EvalResult test =
      evaluate(net, NeuronMode::Spiking, *data.test, train_cfg, &recorder);
  const MacReport macs = count_macs(net, Shape{1, 2, 12, 12});
  const EnergyModel energy;

  std::printf("test accuracy : %.1f%%\n", test.accuracy * 100.0);
  std::printf("firing rate   : %.2f%%\n", test.firing_rate * 100.0);
  std::printf("MACs per step : %lld\n",
              static_cast<long long>(macs.total));
  std::printf("energy proxy  : %.1f nJ (SNN) vs %.1f nJ (equivalent ANN)\n",
              energy.snn_energy_pj(macs.total, test.firing_rate,
                                   data_cfg.timesteps) / 1e3,
              energy.ann_energy_pj(macs.total) / 1e3);

  // 5. Checkpoint the trained weights and prove a fresh network restores
  //    to the same test accuracy.
  const std::string ckpt = "quickstart_model.ckpt";
  if (save_network(ckpt, net)) {
    model_cfg.seed ^= 0xFFULL;  // different random init
    Network restored = build_model("resnet18s", model_cfg,
                                   default_adjacencies("resnet18s", model_cfg));
    load_network(ckpt, restored);
    const EvalResult again =
        evaluate(restored, NeuronMode::Spiking, *data.test, train_cfg);
    std::printf("checkpoint    : saved to %s, restored model scores %.1f%%\n",
                ckpt.c_str(), again.accuracy * 100.0);
  }

  // 6. Export the profiling trace + aggregate summary when requested.
  if (!trace_out.empty()) {
    if (write_chrome_trace(trace_out)) {
      std::printf("trace         : wrote %s (load in chrome://tracing)\n",
                  trace_out.c_str());
    } else {
      std::fprintf(stderr, "trace         : failed to write %s\n",
                   trace_out.c_str());
    }
    std::printf("%s", telemetry_summary().c_str());
  }
  return 0;
}
