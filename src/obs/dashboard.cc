#include "src/obs/dashboard.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include "src/campaign/json_writer.h"
#include "src/common/sync.h"
#include "src/common/thread_annotations.h"

namespace byterobust {
namespace obs {

namespace {

std::atomic<bool> g_dashboard_enabled{false};

// (seed, ordinal) -> job. An ordered map makes the rendered document
// independent of which worker finished first.
using JobKey = std::pair<std::uint64_t, int>;

class DashboardCollector {
 public:
  void Record(DashboardJob job) {
    const MutexLock lock(&mu_);
    jobs_[JobKey(job.seed, job.ordinal)] = std::move(job);
  }

  std::map<JobKey, DashboardJob> Take() {
    const MutexLock lock(&mu_);
    std::map<JobKey, DashboardJob> out;
    out.swap(jobs_);
    return out;
  }

 private:
  Mutex mu_;
  std::map<JobKey, DashboardJob> jobs_ BR_GUARDED_BY(mu_);
};

DashboardCollector& Collector() {
  static DashboardCollector* collector = new DashboardCollector;
  return *collector;
}

}  // namespace

bool DashboardEnabled() {
  return g_dashboard_enabled.load(std::memory_order_relaxed);
}

void EnableDashboard() {
  g_dashboard_enabled.store(true, std::memory_order_relaxed);
}

DashboardJob SampleDashboardJob(const std::string& label, std::uint64_t seed,
                                int ordinal, const EttrTracker& ettr,
                                const MfuSeries& mfu, SimTime now) {
  DashboardJob job;
  job.label = label;
  job.seed = seed;
  job.ordinal = ordinal;
  job.cumulative_ettr = ettr.CumulativeEttr(now);
  job.min_mfu = mfu.MinMfu();
  job.max_mfu = mfu.MaxMfu();
  job.productive_steps = ettr.productive_steps();

  // Sample across the retained window (whole run when retention is 0). The
  // sliding window is clamped to the retention so every checkpoint stays in
  // the range the compacted tracker answers exactly at the live edge.
  const SimDuration retention = ettr.retention();
  SimTime start = 0;
  if (retention > 0 && now > retention) {
    start = now - retention;
  }
  SimDuration window = Hours(1);
  if (retention > 0) {
    window = std::min(window, retention);
  }
  for (int k = 0; k < kDashboardPoints; ++k) {
    const SimTime t =
        kDashboardPoints <= 1
            ? now
            : start + (now - start) * k / (kDashboardPoints - 1);
    DashboardPoint point;
    point.t_s = ToSeconds(t);
    point.sliding_ettr = ettr.SlidingEttr(t, window);
    point.mfu = mfu.MfuAt(t);  // newest retained sample at/before t
    job.points.push_back(point);
  }
  return job;
}

void RecordDashboardJob(DashboardJob job) {
  Collector().Record(std::move(job));
}

bool WriteDashboard(const std::string& path, std::string* error) {
  const std::map<JobKey, DashboardJob> jobs = Collector().Take();
  g_dashboard_enabled.store(false, std::memory_order_relaxed);

  JsonWriter writer;
  writer.BeginObject();
  writer.Field("tool", "byterobust");
  writer.Field("kind", "dashboard");
  writer.Field("points_per_job", kDashboardPoints);
  writer.Field("jobs_total", static_cast<std::int64_t>(jobs.size()));
  writer.Key("jobs");
  writer.BeginArray();
  for (const auto& [key, job] : jobs) {
    writer.BeginObject();
    writer.Field("label", job.label);
    writer.Field("seed", job.seed);
    writer.Field("ordinal", job.ordinal);
    writer.Field("cumulative_ettr", job.cumulative_ettr);
    writer.Field("min_mfu", job.min_mfu);
    writer.Field("max_mfu", job.max_mfu);
    writer.Field("productive_steps", job.productive_steps);
    writer.Key("points");
    writer.BeginArray();
    for (const DashboardPoint& point : job.points) {
      writer.BeginObject();
      writer.Field("t_s", point.t_s);
      writer.Field("sliding_ettr", point.sliding_ettr);
      writer.Field("mfu", point.mfu);
      writer.EndObject();
    }
    writer.EndArray();
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();

  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    if (error != nullptr) {
      *error = "cannot open dashboard file '" + path + "': " +
               std::strerror(errno);
    }
    return false;
  }
  const std::string doc = writer.Take() + "\n";
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), file) == doc.size();
  if (std::fclose(file) != 0 || !ok) {
    if (error != nullptr) {
      *error = "cannot write dashboard file '" + path + "'";
    }
    return false;
  }
  return true;
}

}  // namespace obs
}  // namespace byterobust
