// Table 3 reproduction: time to detect infrastructure failures with the
// real-time inspection mechanism vs the timeout-only baseline.
//
// Inspection intervals follow the paper: network 30 s (switch down needs two
// consecutive events), GPU 10 s, host 2 s. The baseline waits for the
// PyTorch-Distributed collective timeout (~10 min; switch failures burn two
// timeouts) or, for thermal throttling, for the MFU-decline monitor.
//
// Detection time depends on where the fault lands relative to the inspection
// grid: a fault injected exactly on a pass is seen at once. Each root cause
// is therefore injected at 60 phases, one per second over a full minute
// (a multiple of every inspection period), and the mean and the worst case
// are reported. A sampler with period T shows a mean near T/2 and a max
// near T.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>

#include "src/common/table.h"
#include "src/core/byterobust_system.h"

using namespace byterobust;

namespace {

struct DetectionCase {
  const char* category;
  const char* root_cause;
  std::function<void(Machine&)> apply;
  const char* baseline;  // w/o inspection column
};

constexpr int kPhases = 60;  // injection offsets 0..59 s past the 2 min mark

// Measures the time from fault application, `phase` past t = 2 min, to the
// first anomaly report.
std::optional<SimDuration> MeasureDetection(const std::function<void(Machine&)>& apply,
                                            SimDuration phase) {
  SystemConfig cfg;
  cfg.job.parallelism = {2, 4, 4, 2};
  cfg.job.base_step_time = Seconds(10);
  cfg.job.model_params_b = 0.7;
  cfg.seed = 5;
  ByteRobustSystem sys(cfg);
  // Monitor only: capture the first report instead of acting on it.
  std::optional<SimTime> detected;
  sys.monitor().SetAnomalyHandler([&detected](const AnomalyReport& r) {
    if (!detected.has_value()) {
      detected = r.detect_time;
    }
  });
  sys.monitor().Start();
  sys.job().Start();
  sys.sim().RunUntil(Minutes(2) + phase);
  const SimTime inject = sys.sim().Now();
  apply(sys.cluster().machine(7));
  sys.sim().RunUntil(inject + Hours(1));
  if (!detected.has_value()) {
    return std::nullopt;
  }
  return *detected - inject;
}

}  // namespace

int main() {
  const DetectionCase cases[] = {
      {"Network", "NIC crash", [](Machine& m) { m.host().nic_up = false; }, "T_timeout"},
      {"Network", "Port Flapping", [](Machine& m) { m.host().packet_loss_rate = 0.3; },
       "T_timeout"},
      {"Network", "Switch Down", [](Machine& m) { m.host().switch_reachable = false; },
       "2*T_timeout"},
      {"GPU", "Driver Hang", [](Machine& m) { m.gpu(0).dcgm_responsive = false; },
       "T_timeout"},
      {"GPU", "High Temperature", [](Machine& m) { m.gpu(0).temperature_c = 92.0; },
       "T_monitor"},
      {"GPU", "GPU Lost", [](Machine& m) { m.gpu(0).available = false; }, "T_timeout"},
      {"Host", "OS Kernel Fault", [](Machine& m) { m.host().os_kernel_ok = false; },
       "T_timeout"},
  };

  std::printf("=== Table 3: time to detect infrastructure failures ===\n");
  std::printf("(T_timeout ~ %.0f min PyTorch-Distributed collective timeout)\n", 10.0);

  std::printf("(w/ inspection: mean and max over %d injection phases, 1 s apart)\n\n",
              kPhases);

  TablePrinter table({"Category", "Root Cause", "Mean (s)", "Max (s)", "Paper (s)",
                      "w/o Inspection"});
  const char* paper[] = {"30", "30", "30*2", "10", "10", "10", "2"};
  int i = 0;
  for (const DetectionCase& c : cases) {
    double sum_s = 0.0;
    double max_s = 0.0;
    int missed = 0;
    for (int phase = 0; phase < kPhases; ++phase) {
      const auto detection = MeasureDetection(c.apply, Seconds(phase));
      if (!detection) {
        ++missed;
        continue;
      }
      sum_s += ToSeconds(*detection);
      max_s = std::max(max_s, ToSeconds(*detection));
    }
    const int detected = kPhases - missed;
    std::string mean = detected > 0 ? FormatDouble(sum_s / detected, 1) : "not detected";
    if (detected > 0 && missed > 0) {
      mean += " (" + std::to_string(missed) + " missed)";
    }
    table.AddRow({c.category, c.root_cause, mean,
                  detected > 0 ? FormatDouble(max_s, 0) : "-", paper[i++], c.baseline});
  }
  table.Print();

  std::printf("\nDetection with inspection lands within one polling interval of the\n");
  std::printf("fault; the baseline burns a collective timeout (~600 s) before anyone\n");
  std::printf("notices — a 20-300x reduction in detection time.\n");
  return 0;
}
