// perfbench_probe: the benchmark's in-process half. It links libbyterobust
// and calls each module's public API from outside, so the per-layer numbers
// need no instrumentation inside src/.
//
//   perfbench_probe layers  --workload W --base-seed S --seeds K --days D
//                           --element-bytes N --dir DIR
//       Replays seeds S..S+K-1 of workload W in-process. Prints one JSON
//       object: per-seed layer counts (deterministic for a given S), the
//       per-run fields the CLI document also carries (so the caller can
//       check the replay matches the CLI byte for byte in what it models),
//       and host time per call of each layer probe at W's sizes. A seed
//       whose run throws is listed under "quarantined" with its error and
//       left out of the counts, the way the CLI quarantines it.
//   perfbench_probe ctor    --workload W --base-seed S --days D
//       Times the first (cold) and later (warm) Scenario / Fleet
//       construction of this process.
//   perfbench_probe loadgen ...
//       The open-loop serve load generator (loadgen.cc).
//   perfbench_probe spawn PROGRAM ARGS...
//       Runs PROGRAM (stdout passed through, stderr discarded) and prints
//       "<wall seconds> <peak RSS KiB> <exit code>" to stderr. A child's
//       ru_maxrss starts from its parent's resident size at fork, so the
//       benchmark spawns through this small process rather than from
//       Python, whose size grows with what it has collected.
//
// Workloads: dense-month (Scenario over DenseCampaignConfig), fleet-mixed
// (Fleet over the "fleet-mixed" preset) and serve-mixed (Scenario over the
// quickstart campaign config the CLI's "quickstart" scenario uses).

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/analyzer/aggregation.h"
#include "src/campaign/json_writer.h"
#include "src/campaign/scenarios.h"
#include "src/common/rng.h"
#include "src/core/byterobust_system.h"
#include "src/core/production_presets.h"
#include "src/core/scenario.h"
#include "src/fleet/fleet.h"
#include "src/harness/journal.h"
#include "src/replay/dual_phase_replay.h"
#include "src/sim/simulator.h"
#include "src/topology/parallelism.h"
#include "src/tracer/stack_synth.h"

int LoadgenMain(int argc, char** argv);  // loadgen.cc

namespace byterobust {
namespace {

using Clock = std::chrono::steady_clock;

// A probe whose call did no work (isolated nothing, located nothing, wrote
// nothing) measures nothing; it clears this and the command exits 1.
bool g_probe_ok = true;

void CheckProbe(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_probe: %s probe did no work\n", what);
    g_probe_ok = false;
  }
}

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double Median(std::vector<double> xs) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// Calls `fn` until it has run `min_reps` times and for at least `min_ms`, and
// returns the median per-call host time in milliseconds.
double TimePerCallMs(const std::function<void()>& fn, int min_reps, double min_ms) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(samples.size()) < min_reps || MsSince(start) < min_ms) {
    const Clock::time_point t0 = Clock::now();
    fn();
    samples.push_back(MsSince(t0));
  }
  return Median(samples);
}

struct Args {
  std::string workload;
  std::uint64_t base_seed = 1;
  int seeds = 1;
  double days = 0.0;
  int element_bytes = 1024;
  std::string dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 0; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--base-seed") {
      args->base_seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seeds") {
      args->seeds = std::atoi(value);
    } else if (flag == "--days") {
      args->days = std::atof(value);
    } else if (flag == "--element-bytes") {
      args->element_bytes = std::atoi(value);
    } else if (flag == "--dir") {
      args->dir = value;
    } else {
      std::fprintf(stderr, "perfbench_probe: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 != 0) {
    std::fprintf(stderr, "perfbench_probe: flags take one value each\n");
    return false;
  }
  const bool known = args->workload == "dense-month" || args->workload == "fleet-mixed" ||
                     args->workload == "quickstart-journal" || args->workload == "serve-mixed";
  if (!known || args->seeds < 1 || args->days <= 0.0) {
    std::fprintf(stderr, "perfbench_probe: need --workload dense-month|fleet-mixed|"
                         "quickstart-journal|serve-mixed, --seeds >= 1 and --days > 0\n");
    return false;
  }
  return true;
}

// The knobs the CLI applies to every seed it runs (batched stepping on, two
// hours of metric retention): the replay must model the same system.
void ApplyCliDefaults(SystemConfig* system) {
  system->job.batched_stepping = true;
  system->metrics_retention = Hours(2);
}

// The CLI's "quickstart" campaign: a 16-machine 7B job with an accelerated
// Table 1 fault clock (src/campaign/scenarios.cc, MixedConfig). The
// benchmark checks the replay against the CLI's own document, so a drift
// here fails the run instead of skewing counts.
ScenarioConfig QuickstartCampaignConfig(double days, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.system.job.name = "quickstart-7B";
  cfg.system.job.model_params_b = 7.0;
  cfg.system.job.parallelism.tp = 2;
  cfg.system.job.parallelism.pp = 4;
  cfg.system.job.parallelism.dp = 4;
  cfg.system.job.parallelism.gpus_per_machine = 2;
  cfg.system.job.base_step_time = Seconds(10);
  cfg.system.seed = seed;
  cfg.system.spare_machines = 4;
  cfg.duration = Days(days);
  cfg.injector.reference_mtbf = Hours(1.0);
  cfg.injector.reference_machines = 64;
  cfg.planned_updates = 2;
  return cfg;
}

ScenarioConfig SingleJobConfig(const Args& args, std::uint64_t seed) {
  ScenarioConfig cfg = args.workload == "dense-month" ? DenseCampaignConfig(args.days, seed)
                                                      : QuickstartCampaignConfig(args.days, seed);
  ApplyCliDefaults(&cfg.system);
  return cfg;
}

FleetConfig FleetWorkloadConfig(const Args& args, std::uint64_t seed) {
  FleetConfig cfg = FindFleetSpec("fleet-mixed")->make(args.days, seed);
  for (FleetJobSpec& job : cfg.jobs) {
    ApplyCliDefaults(&job.scenario.system);
  }
  return cfg;
}

// Per-seed layer counts, summed over a seed's jobs (hang episodes and
// replays also per job, to weight the per-job probe times).
struct Counts {
  double events = 0;
  double steps = 0;
  double hang_episodes = 0;
  double reports = 0;
  double resolutions = 0;
  double evictions = 0;
  double incidents = 0;
  double ckpt_saves = 0;
  double analyzer_er = 0;
  double replays = 0;
  double preemptions = 0;
  double queued_claims = 0;
  double runs_rendered = 0;
  std::vector<double> job_hang_episodes;
  std::vector<double> job_replays;
};

// One job's fields as the CLI document prints them, for the fidelity check.
struct RunCheck {
  std::uint64_t seed = 0;
  std::int64_t steps = 0;
  int evictions = 0;
  double ettr = 0.0;
};

void CountJob(int job, ByteRobustSystem& sys, const Scenario& scenario, Counts* c,
              std::vector<RunCheck>* checks) {
  c->steps += static_cast<double>(sys.job().steps_completed());
  const auto& by_symptom = scenario.stats().injected_by_symptom;
  const auto hang = by_symptom.find(static_cast<int>(IncidentSymptom::kJobHang));
  const double episodes = hang == by_symptom.end() ? 0 : hang->second;
  c->hang_episodes += episodes;
  const std::size_t jobs = std::max<std::size_t>(c->job_replays.size(), job + 1);
  c->job_hang_episodes.resize(jobs);
  c->job_replays.resize(jobs);
  c->job_hang_episodes[job] += episodes;
  c->reports += static_cast<double>(sys.monitor().reports_emitted());
  c->resolutions += static_cast<double>(sys.controller().log().size());
  c->evictions += sys.controller().evictions_total();
  c->incidents += scenario.stats().incidents_injected;
  c->ckpt_saves += static_cast<double>(sys.ckpt().saves_started());
  for (const IncidentResolution& res : sys.controller().log().entries()) {
    c->analyzer_er += res.mechanism == ResolutionMechanism::kAnalyzerEvictRestart;
    const bool replay = res.mechanism == ResolutionMechanism::kDualPhaseReplay;
    c->replays += replay;
    c->job_replays[job] += replay;
  }
  c->runs_rendered += 1;
  RunCheck check;
  check.seed = sys.config().seed;
  check.steps = sys.job().max_step_reached();
  check.evictions = sys.controller().evictions_total();
  // The fleet document reports 0 for a job that never launched.
  check.ettr = sys.job().run_count() == 0 ? 0.0 : sys.ettr().CumulativeEttr(sys.sim().Now());
  checks->push_back(check);
}

// Runs one seed of the workload; returns its host time in ms.
double RunSeed(const Args& args, std::uint64_t seed, Counts* c, std::vector<RunCheck>* checks) {
  const Clock::time_point t0 = Clock::now();
  if (args.workload == "fleet-mixed") {
    Fleet fleet(FleetWorkloadConfig(args, seed));
    fleet.Run();
    const double ms = MsSince(t0);
    c->events += static_cast<double>(fleet.sim().events_dispatched());
    for (int j = 0; j < fleet.num_jobs(); ++j) {
      CountJob(j, fleet.system(j), fleet.scenario(j), c, checks);
    }
    c->preemptions += fleet.arbiter().preemptions_total();
    c->queued_claims += fleet.arbiter().queued_claims_total();
    return ms;
  }
  Scenario scenario(SingleJobConfig(args, seed));
  scenario.Run();
  const double ms = MsSince(t0);
  c->events += static_cast<double>(scenario.system().sim().events_dispatched());
  CountJob(0, scenario.system(), scenario, c, checks);
  return ms;
}

// The SystemConfigs of one seed's jobs (one, or one per fleet job).
std::vector<SystemConfig> JobSystems(const Args& args) {
  std::vector<SystemConfig> systems;
  if (args.workload == "fleet-mixed") {
    for (const FleetJobSpec& job : FleetWorkloadConfig(args, args.base_seed).jobs) {
      systems.push_back(job.scenario.system);
    }
  } else {
    systems.push_back(SingleJobConfig(args, args.base_seed).system);
  }
  return systems;
}

// Alg. 1's group size as the controller picks it: the largest divisor of z
// not above sqrt(z), preferring multiples of the pipeline depth.
int ReplayGroupSize(int z, int preferred) {
  int best = 1;
  for (int m = 1; m * m <= z; ++m) {
    if (z % m != 0) {
      continue;
    }
    const bool best_pref = best % preferred == 0;
    const bool m_pref = m % preferred == 0;
    if ((m_pref && !best_pref) || (m_pref == best_pref && m > best)) {
      best = m;
    }
  }
  return best;
}

// Hang analysis as the controller runs it: whole-pod stack synthesis plus
// aggregation over the job's topology.
double HangAnalyzeMs(const Topology& topology) {
  const AggregationAnalyzer analyzer;
  const Rank culprit = topology.world_size() / 3;
  std::size_t sink = 0;
  const double ms = TimePerCallMs(
      [&] {
        const auto stacks = SynthesizeFullPodStacks(topology, culprit, HangSite::kTensorCollective);
        sink += analyzer.Analyze(stacks, topology).machines_to_evict.size();
      },
      5, 150.0);
  CheckProbe(sink > 0, "hang analysis");
  return ms;
}

double ReplayLocateMs(const ParallelismConfig& par) {
  const int z = par.num_machines();
  const DualPhaseReplay replay(z, ReplayGroupSize(z, std::max(1, par.pp)));
  Rng rng(7);
  const auto oracle = DualPhaseReplay::FaultOracle({static_cast<MachineId>(z / 3)}, 1.0, &rng);
  bool found = true;
  const double ms = TimePerCallMs([&] { found = found && replay.Locate(oracle).found; }, 20,
                                  50.0);
  CheckProbe(found, "replay");
  return ms;
}

// Fault-free step loop: the job's step model, step observers and the
// quiescent monitor, with no injector attached.
double HealthyStepNs(const SystemConfig& system) {
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    ByteRobustSystem sys(system);
    const Clock::time_point t0 = Clock::now();
    sys.Start();
    sys.sim().RunUntil(Days(1));
    const double ms = MsSince(t0);
    const double steps = static_cast<double>(std::max<std::int64_t>(1, sys.job().steps_completed()));
    samples.push_back(ms * 1e6 / steps);
  }
  return Median(samples);
}

// Bare event core: a self-rescheduling no-op event chain.
double BareEventNs() {
  constexpr int kEvents = 200000;
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    Simulator sim;
    int left = kEvents;
    std::function<void()> tick = [&] {
      if (--left > 0) {
        sim.Schedule(1, tick);
      }
    };
    const Clock::time_point t0 = Clock::now();
    sim.Schedule(1, tick);
    sim.Run();
    samples.push_back(MsSince(t0) * 1e6 / static_cast<double>(sim.events_dispatched()));
  }
  return Median(samples);
}

// WriteRun over a RunResult with this workload's shape (1 per seed, or 1 per
// fleet job).
double RenderUs(const Args& args) {
  RunResult r;
  if (args.workload == "fleet-mixed") {
    // The fleet seed renderer is internal to the campaign module; its per-job
    // blocks are WriteRun-shaped, so a quickstart-sized RunResult stands in.
    r = RunOne(*FindSpec("quickstart"), 0.5, args.base_seed);
  } else {
    r = RunOne(*FindSpec(args.workload == "dense-month" ? "dense-month" : "quickstart"),
               args.days, args.base_seed);
  }
  std::size_t bytes = 0;
  const double ms = TimePerCallMs(
      [&] {
        JsonWriter w(/*depth=*/2, /*need_comma=*/false);
        WriteRun(&w, r);
        bytes += w.Take().size();
      },
      200, 50.0);
  CheckProbe(bytes > 0, "render");
  return ms * 1e3;
}

// One journal record of this workload's element size, appended and flushed.
double JournalCommitUs(const Args& args) {
  CampaignJournal journal;
  const std::string path = args.dir + "/probe.journal";
  CampaignIdentity identity{"campaign", args.workload, 1 << 20, args.base_seed, args.days,
                            "unknown"};
  std::string error;
  if (!journal.Create(path, identity, &error)) {
    std::fprintf(stderr, "perfbench_probe: %s\n", error.c_str());
    CheckProbe(false, "journal");
    return 0.0;
  }
  JournalEntry entry;
  entry.summary.assign(8, 0.5);
  entry.element.assign(static_cast<std::size_t>(std::max(1, args.element_bytes)), 'x');
  int index = 0;
  bool ok = true;
  const double ms = TimePerCallMs(
      [&] {
        entry.index = index++;
        ok = journal.Append(entry) && ok;
      },
      200, 50.0);
  journal.Close();
  std::remove(path.c_str());
  CheckProbe(ok, "journal");
  return ms * 1e3;
}

// Mean of per-job probe times weighted by how often each job makes the call;
// the plain mean when no job does.
double WeightedMean(const std::vector<double>& per_call, const std::vector<double>& calls) {
  double sum = 0.0;
  double weight = 0.0;
  for (std::size_t j = 0; j < per_call.size(); ++j) {
    const double w = j < calls.size() ? calls[j] : 0.0;
    sum += w * per_call[j];
    weight += w;
  }
  if (weight > 0.0) {
    return sum / weight;
  }
  for (const double x : per_call) {
    sum += x;
  }
  return per_call.empty() ? 0.0 : sum / static_cast<double>(per_call.size());
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

int CmdLayers(const Args& args) {
  Counts total;
  std::vector<RunCheck> checks;
  std::vector<double> seed_ms;
  std::vector<std::pair<std::uint64_t, std::string>> quarantined;
  for (int i = 0; i < args.seeds; ++i) {
    const std::uint64_t seed = args.base_seed + static_cast<std::uint64_t>(i);
    const Counts before = total;
    const std::size_t checked = checks.size();
    try {
      seed_ms.push_back(RunSeed(args, seed, &total, &checks));
    } catch (const std::exception& e) {
      total = before;
      checks.resize(checked);
      quarantined.emplace_back(seed, e.what());
    }
  }
  const double k = static_cast<double>(std::max<std::size_t>(1, seed_ms.size()));

  // Hang analysis and replay at each job's topology, weighted by where the
  // episodes and replays happen (fleet jobs differ in size).
  const std::vector<SystemConfig> systems = JobSystems(args);
  std::vector<double> analyze_ms;
  std::vector<double> locate_ms;
  double step_ns = 0.0;
  for (const SystemConfig& system : systems) {
    const Topology topology(system.job.parallelism);
    analyze_ms.push_back(HangAnalyzeMs(topology));
    locate_ms.push_back(ReplayLocateMs(system.job.parallelism));
    step_ns += HealthyStepNs(system);
  }
  const double jobs = static_cast<double>(systems.size());

  std::printf("{\"seeds\":%d,\"quarantined\":[", args.seeds);
  for (std::size_t i = 0; i < quarantined.size(); ++i) {
    std::printf("%s{\"seed\":%llu,\"error\":\"%s\"}", i == 0 ? "" : ",",
                static_cast<unsigned long long>(quarantined[i].first),
                JsonEscape(quarantined[i].second).c_str());
  }
  std::printf("],\"counts\":{");
  std::printf("\"sim.events\":%.17g,\"training.steps\":%.17g,\"hang.episodes\":%.17g,",
              total.events / k, total.steps / k, total.hang_episodes / k);
  std::printf("\"monitor.reports\":%.17g,\"controller.resolutions\":%.17g,", total.reports / k,
              total.resolutions / k);
  std::printf("\"controller.evictions\":%.17g,\"faults.incidents\":%.17g,", total.evictions / k,
              total.incidents / k);
  std::printf("\"ckpt.saves\":%.17g,\"analyzer_er\":%.17g,\"replays\":%.17g,", total.ckpt_saves / k,
              total.analyzer_er / k, total.replays / k);
  std::printf("\"fleet.preemptions\":%.17g,\"fleet.queued_claims\":%.17g,\"runs_rendered\":%.17g},",
              total.preemptions / k, total.queued_claims / k, total.runs_rendered / k);
  std::printf("\"times\":{\"seed.inproc_ms\":%.6f,\"hang.analyze_ms\":%.6f,", Median(seed_ms),
              WeightedMean(analyze_ms, total.job_hang_episodes));
  std::printf("\"replay.locate_ms\":%.6f,\"training.ns_per_healthy_step\":%.6f,",
              WeightedMean(locate_ms, total.job_replays), step_ns / jobs);
  std::printf("\"sim.bare_event_ns\":%.6f,\"campaign.render_us\":%.6f,", BareEventNs(),
              RenderUs(args));
  std::printf("\"harness.journal_commit_us\":%.6f},\"runs\":[", JournalCommitUs(args));
  for (std::size_t i = 0; i < checks.size(); ++i) {
    std::printf("%s{\"seed\":%llu,\"steps\":%lld,\"evictions\":%d,\"ettr\":%.9f}",
                i == 0 ? "" : ",", static_cast<unsigned long long>(checks[i].seed),
                static_cast<long long>(checks[i].steps), checks[i].evictions, checks[i].ettr);
  }
  std::printf("]}\n");
  return g_probe_ok ? 0 : 1;
}

int CmdCtor(const Args& args) {
  std::vector<double> samples;
  for (int rep = 0; rep < 10; ++rep) {
    const std::uint64_t seed = args.base_seed + static_cast<std::uint64_t>(rep);
    const Clock::time_point t0 = Clock::now();
    if (args.workload == "fleet-mixed") {
      const Fleet fleet(FleetWorkloadConfig(args, seed));
    } else {
      const Scenario scenario(SingleJobConfig(args, seed));
    }
    samples.push_back(MsSince(t0));
  }
  const double cold = samples.front();
  samples.erase(samples.begin());
  std::printf("{\"cold_ms\":%.6f,\"warm_ms\":%.6f}\n", cold, Median(samples));
  return 0;
}

int Spawn(char** argv) {
  const Clock::time_point t0 = Clock::now();
  const pid_t pid = fork();
  if (pid == 0) {
    const int devnull = open("/dev/null", O_WRONLY);
    dup2(devnull, STDERR_FILENO);
    execv(argv[0], argv);
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (pid < 0 || wait4(pid, &status, 0, &usage) != pid) {
    std::fprintf(stderr, "perfbench_probe: could not run %s\n", argv[0]);
    return 1;
  }
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  std::fprintf(stderr, "%.9f %ld %d\n",
               std::chrono::duration<double>(Clock::now() - t0).count(), usage.ru_maxrss, code);
  return 0;
}

}  // namespace
}  // namespace byterobust

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_probe <layers|ctor|loadgen|spawn> [flags]\n");
    return 2;
  }
  const std::string command = argv[1];
  if (command == "loadgen") {
    return LoadgenMain(argc - 2, argv + 2);
  }
  if (command == "spawn" && argc > 2) {
    return byterobust::Spawn(argv + 2);
  }
  byterobust::Args args;
  if (!byterobust::ParseArgs(argc - 2, argv + 2, &args)) {
    return 2;
  }
  if (command == "layers") {
    return byterobust::CmdLayers(args);
  }
  if (command == "ctor") {
    return byterobust::CmdCtor(args);
  }
  std::fprintf(stderr, "perfbench_probe: unknown command %s\n", command.c_str());
  return 2;
}
