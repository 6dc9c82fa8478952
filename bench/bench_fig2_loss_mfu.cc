// Fig. 2 reproduction: normalized loss and relative MFU of a 1,000-GPU job
// over a ~10-day span with frequent manual restarts and engineering updates.
// Each restart may roll training back a few steps; the loss curves of
// successive runs overlap bit-wise (the paper's correctness check).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/common/table.h"
#include "src/core/production_presets.h"

using namespace byterobust;

int main() {
  std::printf("=== Fig. 2: loss + relative MFU, 1000-GPU job over 10 days ===\n\n");

  Scenario scenario(Fig2CampaignConfig(/*seed=*/29));
  scenario.Run();
  ByteRobustSystem& sys = scenario.system();
  const std::vector<MfuSample> samples = sys.mfu_series().Samples();
  if (samples.empty()) {
    std::printf("no samples\n");
    return 1;
  }

  const double min_mfu = samples.front().mfu;  // naive-code baseline
  const double max_step = static_cast<double>(samples.back().step);
  const double loss0 = samples.front().loss;

  std::printf("runs (restarts): %d   steps: %lld   updates: %d\n", sys.job().run_count(),
              static_cast<long long>(sys.job().max_step_reached()),
              scenario.stats().updates_submitted);
  std::printf("(paper: 28 runs over the 10-day span)\n\n");

  TablePrinter table({"Normalized Step", "Normalized Loss", "Relative MFU", "Run #"});
  const std::size_t points = 25;
  for (std::size_t i = 0; i < points; ++i) {
    const std::size_t idx = i * (samples.size() - 1) / (points - 1);
    const MfuSample& s = samples[idx];
    table.AddRow({FormatDouble(static_cast<double>(s.step) / max_step, 2),
                  FormatDouble(s.loss / loss0, 3), FormatDouble(s.mfu / min_mfu, 2),
                  FormatInt(s.run_id)});
  }
  table.Print();

  // Shape checks: loss decreases, relative MFU increases across runs.
  const double final_rel_mfu = samples.back().mfu / min_mfu;
  std::printf("\nloss dropped %.1f%%; relative MFU reached %.2fx (paper: up to ~2x)\n",
              (1.0 - samples.back().loss / loss0) * 100.0, final_rel_mfu);
  std::printf("Each MFU leap corresponds to an engineering update deployed through the\n");
  std::printf("hot-update pipeline; loss continuity across restarts comes from every-step\n");
  std::printf("checkpointing plus the deterministic loss model (bit-wise curve overlap).\n");
  return 0;
}
