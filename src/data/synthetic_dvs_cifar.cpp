#include "data/synthetic_dvs_cifar.h"

#include <cmath>
#include <vector>

#include "util/rng.h"

namespace snnskip {

SyntheticDvsCifar::SyntheticDvsCifar(SyntheticConfig cfg, Split split)
    : cfg_(cfg), split_(split) {}

namespace {

/// Class-keyed luminance texture at texture coordinates (u, v). The class
/// constants are computed once, not per pixel.
class Texture {
 public:
  explicit Texture(std::int64_t cls)
      : radial_(cls >= 5),
        // 2*pi*freq, grouped as the per-pixel expression would group it.
        k_(2.0 * M_PI * (1.5 + 0.7 * static_cast<double>(cls % 5))),
        ca_(std::cos(M_PI * static_cast<double>(cls) / 10.0)),
        sa_(std::sin(M_PI * static_cast<double>(cls) / 10.0)) {}

  double operator()(double u, double v, double phase) const {
    const double base =
        radial_ ? std::sin(k_ * std::hypot(u - 0.5, v - 0.5) + phase)
                : std::sin(k_ * (u * ca_ + v * sa_) + phase);
    return 0.5 + 0.5 * base;
  }

 private:
  bool radial_;
  double k_, ca_, sa_;
};

}  // namespace

Sample SyntheticDvsCifar::get(std::size_t i) const {
  const std::size_t global = cfg_.split_offset(split_) + i;
  Rng rng = Rng(cfg_.seed ^ 0xD5D5D5D5ULL).split(global);

  const std::int64_t cls = static_cast<std::int64_t>(global % 10);
  const std::int64_t h = cfg_.height, w = cfg_.width, t_steps = cfg_.timesteps;
  const Texture texture(cls);

  // Recording conditions: CIFAR-10-DVS moves the *stage*, not the image,
  // so the drift trajectory is (nearly) the same for every recording —
  // only small mechanical jitter differs. Class identity lives in the
  // texture; per-sample randomness lives in phase/speed jitter and noise.
  const double drift_angle =
      M_PI / 4.0 + rng.uniform(-0.2, 0.2);  // fixed stage direction + jitter
  const double speed = rng.uniform(0.05, 0.08);  // texture units per step
  const double phase = rng.uniform(0.0, 2.0 * M_PI);
  const double dx = speed * std::cos(drift_angle);
  const double dy = speed * std::sin(drift_angle);
  const double event_threshold = 0.04;
  const float noise_p = cfg_.noise * 0.05f;  // sparse sensor noise

  Tensor x(Shape{t_steps * 2, h, w});
  std::vector<double> prev(static_cast<std::size_t>(h * w));
  for (std::int64_t t = 0; t <= t_steps; ++t) {
    const double ox = dx * static_cast<double>(t);
    const double oy = dy * static_cast<double>(t);
    // ON/OFF planes of step t - 1 (polarity channels packed per step).
    float* on = t > 0 ? x.data() + (t - 1) * 2 * h * w : nullptr;
    float* off = t > 0 ? on + h * w : nullptr;
    for (std::int64_t row = 0; row < h; ++row) {
      const double v =
          static_cast<double>(row) / static_cast<double>(h - 1) + oy;
      for (std::int64_t col = 0; col < w; ++col) {
        const double u =
            static_cast<double>(col) / static_cast<double>(w - 1) + ox;
        const double b = texture(u, v, phase);
        const std::size_t p = static_cast<std::size_t>(row * w + col);
        if (t > 0) {
          const double diff = b - prev[p];
          if (diff > event_threshold) {
            on[p] = 1.f;
          } else if (diff < -event_threshold) {
            off[p] = 1.f;
          }
          // Sensor noise: spurious events on both polarities.
          if (rng.bernoulli(noise_p)) on[p] = 1.f;
          if (rng.bernoulli(noise_p)) off[p] = 1.f;
        }
        prev[p] = b;
      }
    }
  }
  return Sample{std::move(x), cls};
}

}  // namespace snnskip
