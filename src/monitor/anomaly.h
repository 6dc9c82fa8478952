// Anomaly reports flowing from the data-plane monitor to the robust
// controller (paper Sec. 4.1, step 1).

#ifndef SRC_MONITOR_ANOMALY_H_
#define SRC_MONITOR_ANOMALY_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/faults/incident.h"
#include "src/topology/parallelism.h"

namespace byterobust {

enum class AnomalySource {
  kInspection,   // system-inspection thread hit (network / GPU / host item)
  kCrashLog,     // error messages / exit codes in stdout+stderr
  kMetricNan,    // NaN loss
  kMetricSpike,  // loss above spike_factor (5x) x the trailing median
  kHangSuspect,  // no training progress within the hang threshold
  kMfuDecline,   // sustained MFU drop without a fail-stop
};

const char* AnomalySourceName(AnomalySource source);

struct AnomalyReport {
  AnomalySource source = AnomalySource::kInspection;
  IncidentSymptom symptom_hint = IncidentSymptom::kCudaError;
  // Machines the signal points at. Empty when nothing is localized (typical
  // for metric anomalies: NaN propagates everywhere, Sec. 2.3).
  std::vector<MachineId> machines;
  // High-confidence signals (GPU unavailable, disk fault, kernel panic) let
  // the controller evict immediately, skipping stop-time diagnostics.
  bool high_confidence = false;
  SimTime detect_time = 0;
  std::string detail;
};

using AnomalyHandler = std::function<void(const AnomalyReport&)>;

}  // namespace byterobust

#endif  // SRC_MONITOR_ANOMALY_H_
