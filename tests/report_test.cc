// Unit tests for the CSV report export.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/metrics/report.h"
#include "tests/step_run_util.h"

namespace byterobust {
namespace {

int CountLines(const std::string& s) {
  int n = 0;
  for (char c : s) {
    if (c == '\n') {
      ++n;
    }
  }
  return n;
}

TEST(ReportTest, MfuSeriesCsvHasHeaderAndRows) {
  TableLossCurve loss;
  loss.Set(0, 5.0);
  loss.Set(1, 4.8);
  MfuSeries series(&loss);
  series.OnRun(OneStep(0, 0, Seconds(10), 0.30, 1));
  series.OnRun(OneStep(1, Seconds(10), Seconds(20), 0.36, 1));
  const std::string csv = MfuSeriesCsv(series);
  EXPECT_EQ(CountLines(csv), 3);
  EXPECT_NE(csv.find("time_s,step,loss,mfu,relative_mfu,run_id"), std::string::npos);
  // Losses are read from the curve; relative MFU is baselined on the first
  // sample.
  EXPECT_NE(csv.find("10.0,0,5.000000,0.3000,1.0000,1\n"), std::string::npos);
  EXPECT_NE(csv.find("20.0,1,4.800000,0.3600,1.2000,1\n"), std::string::npos);
}

TEST(ReportTest, MfuSeriesCsvStrideDownsamples) {
  MfuSeries series;
  for (int i = 0; i < 10; ++i) {
    series.OnRun(OneStep(i, Seconds(i * 10), Seconds((i + 1) * 10), 0.3, 1));
  }
  EXPECT_EQ(CountLines(MfuSeriesCsv(series, 5)), 1 + 2);
  EXPECT_EQ(CountLines(MfuSeriesCsv(series, 0)), 1 + 10);  // stride clamped to 1
}

TEST(ReportTest, EttrCurveCsvSamplesRequestedPoints) {
  EttrTracker tracker(0);
  for (int i = 0; i < 100; ++i) {
    tracker.OnRun(OneStep(i, Seconds(i * 10), Seconds((i + 1) * 10), 0.3, 1));
  }
  const std::string csv = EttrCurveCsv(tracker, Seconds(1000), 10);
  EXPECT_EQ(CountLines(csv), 11);
  // A fully productive run shows cumulative ETTR 1 at the end.
  EXPECT_NE(csv.find("1000.0,1.00000"), std::string::npos);
}

TEST(ReportTest, EttrCurveCsvHandlesDegenerateInputs) {
  EttrTracker tracker(0);
  EXPECT_EQ(CountLines(EttrCurveCsv(tracker, 0, 10)), 1);
  EXPECT_EQ(CountLines(EttrCurveCsv(tracker, Seconds(100), 0)), 1);
}

TEST(ReportTest, ResolutionLogCsvSerializesEntries) {
  ResolutionLog log;
  IncidentResolution r;
  r.incident.symptom = IncidentSymptom::kJobHang;
  r.incident.root_cause = RootCause::kInfrastructure;
  r.mechanism = ResolutionMechanism::kAnalyzerEvictRestart;
  r.inject_time = 0;
  r.detect_time = Minutes(10);
  r.localize_done_time = Minutes(12);
  r.restart_done_time = Minutes(14);
  r.escalations = 1;
  r.resolved = true;
  log.Add(r);
  const std::string csv = ResolutionLogCsv(log);
  EXPECT_EQ(CountLines(csv), 2);
  EXPECT_NE(csv.find("Job Hang,Implicit,Analyzer-ER,Infrastructure,600.0,120.0,120.0,840.0,1,1"),
            std::string::npos);
}

TEST(ReportTest, WriteFileRoundTrips) {
  const std::string path = "/tmp/byterobust_report_test.csv";
  ASSERT_TRUE(WriteFile(path, "a,b\n1,2\n"));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "a,b\n1,2\n");
  std::remove(path.c_str());
}

TEST(ReportTest, WriteFileFailsOnBadPath) {
  EXPECT_FALSE(WriteFile("/nonexistent-dir-xyz/file.csv", "x"));
}

}  // namespace
}  // namespace byterobust
