#include "src/training/loss_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace byterobust {

namespace {
// SplitMix64: cheap stateless hash giving high-quality 64-bit mixing.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

double LossModel::NoiseAt(std::int64_t step) const {
  const std::uint64_t h = Mix(seed_ ^ static_cast<std::uint64_t>(step) * 0x2545F4914F6CDD1DULL);
  return (static_cast<double>(h >> 11) / static_cast<double>(1ULL << 53)) * 2.0 - 1.0;
}

double LossModel::DecayAt(std::int64_t step) const {
  const double s = static_cast<double>(step);
  return std::pow(1.0 + s / config_.loss_decay_steps, -config_.loss_decay_alpha);
}

double LossModel::LossAt(std::int64_t step) const {
  const double base =
      config_.loss_floor + (config_.loss_initial - config_.loss_floor) * DecayAt(step);
  return base * (1.0 + config_.loss_noise_stddev * NoiseAt(step));
}

LossBounds LossModel::Bounds(std::int64_t first, std::int64_t count) const {
  const LossBounds unbounded{-kInf, kInf};
  const std::int64_t last = first + count - 1;
  // The pow base 1 + s / decay_steps is monotone in s (every IEEE operation
  // here is), so it is positive across the range iff it is at both ends; on
  // positive bases pow is monotone, which puts the decay's extremes at the
  // endpoints.
  const double x_first = 1.0 + static_cast<double>(first) / config_.loss_decay_steps;
  const double x_last = 1.0 + static_cast<double>(last) / config_.loss_decay_steps;
  if (!(x_first > 0.0 && x_last > 0.0)) {
    return unbounded;
  }
  const double d_first = DecayAt(first);
  const double d_last = DecayAt(last);
  // libm's pow is within an ulp but not guaranteed monotone: widen past any
  // rounding wobble between the endpoints.
  const double d_lo = std::nextafter(std::min(d_first, d_last) * (1.0 - 1e-9), -kInf);
  const double d_hi = std::nextafter(std::max(d_first, d_last) * (1.0 + 1e-9), kInf);
  // From here on LossAt's own operations are monotone in each operand, so
  // evaluating them at the corners bounds every step in the range. The noise
  // term stddev * n with n in [-1, 1] spans exactly [-|stddev|, |stddev|].
  const double scale = config_.loss_initial - config_.loss_floor;
  const double b1 = config_.loss_floor + scale * d_lo;
  const double b2 = config_.loss_floor + scale * d_hi;
  const double sd = std::abs(config_.loss_noise_stddev);
  const double g_lo = 1.0 + -sd;
  const double g_hi = 1.0 + sd;
  const double c[4] = {b1 * g_lo, b1 * g_hi, b2 * g_lo, b2 * g_hi};
  const LossBounds bounds{*std::min_element(c, c + 4), *std::max_element(c, c + 4)};
  if (!std::isfinite(bounds.lo) || !std::isfinite(bounds.hi)) {
    return unbounded;
  }
  return bounds;
}

}  // namespace byterobust
