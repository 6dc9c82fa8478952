// Loss-curve model: deterministic power-law decay with seeded noise.
//
// Because the curve is a pure function of (step, seed), a rollback that
// replays steps reproduces bit-identical loss values — the "curve overlap"
// the paper uses to verify engineering changes (Fig. 2, Sec. 2.1).

#ifndef SRC_TRAINING_LOSS_MODEL_H_
#define SRC_TRAINING_LOSS_MODEL_H_

#include <cstdint>

#include "src/training/job_config.h"

namespace byterobust {

class LossModel {
 public:
  LossModel(const JobConfig& config, std::uint64_t seed) : config_(config), seed_(seed) {}

  // Loss at a given global step. Pure function: same step => same value.
  double LossAt(std::int64_t step) const;

  // Gradient norm proxy at a step (for loss/grad-norm curves; the monitor's
  // rules read only the loss).
  double GradNormAt(std::int64_t step) const;

 private:
  // Deterministic per-step noise in [-1, 1].
  double NoiseAt(std::int64_t step) const;

  JobConfig config_;
  std::uint64_t seed_;
};

}  // namespace byterobust

#endif  // SRC_TRAINING_LOSS_MODEL_H_
