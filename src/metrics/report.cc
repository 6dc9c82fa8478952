#include "src/metrics/report.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace byterobust {

std::string MfuSeriesCsv(const MfuSeries& series, int stride) {
  std::ostringstream out;
  out << "time_s,step,loss,mfu,relative_mfu,run_id\n";
  const std::vector<MfuSample> samples = series.Samples();
  if (samples.empty()) {
    return out.str();
  }
  const double base = samples.front().mfu;
  char line[160];
  for (std::size_t i = 0; i < samples.size(); i += static_cast<std::size_t>(stride > 0 ? stride : 1)) {
    const MfuSample& s = samples[i];
    std::snprintf(line, sizeof(line), "%.1f,%lld,%.6f,%.4f,%.4f,%d\n", ToSeconds(s.time),
                  static_cast<long long>(s.step), s.loss, s.mfu,
                  base > 0 ? s.mfu / base : 0.0, s.run_id);
    out << line;
  }
  return out.str();
}

std::string EttrCurveCsv(const EttrTracker& tracker, SimTime end, int points) {
  std::ostringstream out;
  out << "time_s,cumulative_ettr,sliding_ettr_1h\n";
  if (points <= 0 || end <= 0) {
    return out.str();
  }
  char line[96];
  for (int i = 1; i <= points; ++i) {
    const SimTime t = end / points * i;
    std::snprintf(line, sizeof(line), "%.1f,%.5f,%.5f\n", ToSeconds(t),
                  tracker.SlidingEttr(t, t), tracker.SlidingEttr(t, Hours(1)));
    out << line;
  }
  return out.str();
}

std::string ResolutionLogCsv(const ResolutionLog& log) {
  std::ostringstream out;
  out << "symptom,category,mechanism,root_cause,detection_s,localization_s,failover_s,"
         "total_s,escalations,resolved\n";
  char line[256];
  for (const IncidentResolution& r : log.entries()) {
    std::snprintf(line, sizeof(line), "%s,%s,%s,%s,%.1f,%.1f,%.1f,%.1f,%d,%d\n",
                  SymptomName(r.incident.symptom), CategoryName(r.incident.category()),
                  MechanismName(r.mechanism), RootCauseName(r.incident.root_cause),
                  ToSeconds(r.DetectionTime()), ToSeconds(r.LocalizationTime()),
                  ToSeconds(r.FailoverTime()), ToSeconds(r.TotalUnproductive()),
                  r.escalations, r.resolved ? 1 : 0);
    out << line;
  }
  return out.str();
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return false;
  }
  file << content;
  return static_cast<bool>(file);
}

}  // namespace byterobust
