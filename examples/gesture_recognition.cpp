// Gesture recognition on the synthetic DVS128-Gesture stand-in — the edge
// workload the paper's introduction motivates (low-power event cameras).
//
// Trains a spiking MobileNetV2-style model (the family the paper found to
// benefit most from skip optimization, +24% on DVS128 Gesture) and prints
// the per-class confusion breakdown plus efficiency numbers.
//
//   ./examples/gesture_recognition [--epochs N] [--width W]

#include <cstdio>
#include <vector>

#include "data/dataloader.h"
#include "graph/mac_counter.h"
#include "metrics/confusion.h"
#include "models/zoo.h"
#include "nn/loss.h"
#include "tensor/ops.h"
#include "train/evaluate.h"
#include "train/trainer.h"
#include "util/cli.h"

using namespace snnskip;

namespace {

const char* kGestureNames[11] = {
    "circle-cw", "circle-ccw", "wave-right", "wave-left",  "wave-up",
    "wave-down", "zoom-in",    "zoom-out",   "diag-tlbr",  "diag-brtl",
    "other"};

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);

  SyntheticConfig data_cfg;
  data_cfg.height = 12;
  data_cfg.width = 12;
  data_cfg.timesteps = 8;  // gestures need temporal integration
  data_cfg.train_size = 220;
  data_cfg.val_size = 66;
  data_cfg.test_size = 66;
  const DatasetBundle data = make_datasets("dvs128-gesture", data_cfg);

  ModelConfig model_cfg;
  model_cfg.in_channels = 2;
  model_cfg.num_classes = 11;
  model_cfg.max_timesteps = data_cfg.timesteps;
  model_cfg.width = args.get_int("width", 6);
  Network net = build_model("mobilenetv2s", model_cfg,
                            default_adjacencies("mobilenetv2s", model_cfg));

  // The paper's DVS128-Gesture recipe uses Adam (§IV).
  TrainConfig train_cfg;
  train_cfg.opt = OptKind::Adam;
  train_cfg.lr = 0.005f;
  train_cfg.epochs = args.get_int("epochs", 5);
  train_cfg.batch_size = 22;
  ProgressPrinter progress;  // one stderr line per epoch
  train_cfg.observers.push_back(&progress);
  fit(net, NeuronMode::Spiking, data.train, data.val, train_cfg);

  // Evaluate and print a per-class breakdown.
  FiringRateRecorder recorder;
  const EvalResult test =
      evaluate(net, NeuronMode::Spiking, *data.test, train_cfg, &recorder);

  // Per-class breakdown via the confusion matrix.
  ConfusionMatrix confusion(11);
  DataLoader loader(*data.test, 22, false, 0);
  loader.start_epoch(0);
  Batch batch;
  EventEncoder enc(data_cfg.timesteps, 2);
  while (loader.next(batch)) {
    net.reset_state();
    Tensor logits;
    for (std::int64_t t = 0; t < data_cfg.timesteps; ++t) {
      Tensor out = net.forward(enc.encode(batch.x, t), false);
      if (t == 0) logits = std::move(out);
      else logits.add_(out);
    }
    confusion.add_batch(batch.y, argmax_rows(logits));
  }
  net.reset_state();

  std::printf("\noverall test accuracy: %.1f%%  macro-F1: %.3f  firing "
              "rate: %.2f%%\n\n",
              test.accuracy * 100.0, confusion.macro_f1(),
              test.firing_rate * 100.0);
  std::printf("%-12s %8s %10s\n", "gesture", "recall", "precision");
  for (std::int64_t c = 0; c < 11; ++c) {
    std::printf("%-12s %7.1f%% %9.1f%%\n", kGestureNames[c],
                confusion.recall(c) * 100.0, confusion.precision(c) * 100.0);
  }

  const MacReport macs = count_macs(net, Shape{1, 2, 12, 12});
  std::printf("\nMACs per timestep: %lld (x %lld steps, %.2f%% active)\n",
              static_cast<long long>(macs.total),
              static_cast<long long>(data_cfg.timesteps),
              test.firing_rate * 100.0);
  return 0;
}
