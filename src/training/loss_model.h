// Loss-curve model: deterministic power-law decay with seeded noise.
//
// Because the curve is a pure function of (step, seed), a rollback that
// replays steps reproduces bit-identical loss values — the "curve overlap"
// the paper uses to verify engineering changes (Fig. 2, Sec. 2.1). It also
// means nothing downstream has to store a loss: the metric rules and the MFU
// series keep step indices and read losses through a LossCurve on demand.

#ifndef SRC_TRAINING_LOSS_MODEL_H_
#define SRC_TRAINING_LOSS_MODEL_H_

#include <cstdint>

#include "src/training/job_config.h"

namespace byterobust {

// Bounds on the losses of a step range. Finite bounds are a guarantee: every
// loss in the range is a number inside [lo, hi]. When a curve cannot give one
// (NaN-producing or non-monotone configs), lo = -inf and hi = +inf.
struct LossBounds {
  double lo = 0.0;
  double hi = 0.0;
};

// A loss curve as its readers see it: a pure function of the step index plus
// guaranteed bounds over a step range, so a whole run of steps can be proven
// spike-free without computing a single loss.
class LossCurve {
 public:
  virtual double LossAt(std::int64_t step) const = 0;

  // Bounds over [first, first + count); count >= 1.
  virtual LossBounds Bounds(std::int64_t first, std::int64_t count) const = 0;

 protected:
  ~LossCurve() = default;  // readers borrow a curve; nothing deletes one through this type
};

class LossModel final : public LossCurve {
 public:
  LossModel(const JobConfig& config, std::uint64_t seed) : config_(config), seed_(seed) {}

  // Loss at a given global step. Pure function: same step => same value.
  double LossAt(std::int64_t step) const override;

  // O(1): the decay term is monotone in the step, so the range's extremes
  // sit at its endpoints; the noise factor spans [1 - stddev, 1 + stddev].
  LossBounds Bounds(std::int64_t first, std::int64_t count) const override;

 private:
  // The noiseless curve's decay factor (1 + step / decay_steps)^-alpha.
  double DecayAt(std::int64_t step) const;
  // Deterministic per-step noise in [-1, 1].
  double NoiseAt(std::int64_t step) const;

  JobConfig config_;
  std::uint64_t seed_;
};

}  // namespace byterobust

#endif  // SRC_TRAINING_LOSS_MODEL_H_
