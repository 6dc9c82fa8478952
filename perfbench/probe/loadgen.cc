// Open-loop load generator for `byterobust serve` (perfbench_probe loadgen).
//
//   perfbench_probe loadgen --socket PATH --rate R --seconds T --seed S
//                           --pool K --days D [--threads N]
//                           [--op campaign|fleet] [--scenario NAME]
//                           [--status-pct P]
//
// Request i is due at t0 + i/R whatever happened to earlier requests (an
// open loop: independent users, so a slow daemon builds a queue instead of
// receiving less load). --rate 0 is a closed loop instead: each thread sends
// its next request as soon as the previous one completes, for --seconds,
// which measures the daemon's capacity at N connections. Requests go round-robin to N <= 4 threads; each
// opens one unix connection per request, the way `byterobust request` does,
// so at most N connections are open at once. Latency is timed from the
// request's due time, which charges a stall to every request it delays.
//
// The mix comes from --seed: P% (default 10) {"op":"status"}, the rest
// one-seed campaigns (default: quickstart) whose base_seed is one of K pool
// seeds. Prints one JSON summary over the requests due after the warm-up,
// plus every distinct campaign's body digests so the caller can check each
// against the CLI document.
//
// Latency quantiles are medians over consecutive kSliceS-second slices of
// the per-slice quantile (p99 excepted, which needs every request): a host
// that loses the CPU for tens of milliseconds now and then (a shared VM)
// spoils a few slices, not the figure. The per-slice values are printed too,
// so a caller can pool slices over several runs.

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/harness/journal.h"
#include "src/serve/protocol.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kSliceS = 0.25;
// Requests due in the first kWarmupS seconds prime the daemon and are not
// timed.
constexpr double kWarmupS = 0.2;

struct Request {
  bool status = false;
  std::uint64_t base_seed = 0;
};

struct Record {
  double due_s = 0.0;   // all times relative to t0
  double send_s = 0.0;
  double done_s = 0.0;
  double prev_done_s = 0.0;  // this thread's previous completion
  bool status = false;
  bool ok = false;
  bool shed = false;
  std::uint64_t base_seed = 0;
  std::uint64_t digest = 0;
};

struct Options {
  std::string socket;
  double rate = 1000.0;
  double seconds = 1.0;
  std::uint64_t seed = 1;
  int pool = 32;
  double days = 0.02;
  int threads = 4;
  std::string op = "campaign";
  std::string scenario = "quickstart";
  int status_pct = 10;
};

std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<Request> MakeMix(const Options& o, std::size_t n) {
  std::uint64_t state = o.seed;
  std::vector<Request> mix(n);
  for (Request& r : mix) {
    r.status = SplitMix64(&state) % 100 < static_cast<std::uint64_t>(o.status_pct);
    r.base_seed = 1000 + (o.seed % 1000000) * static_cast<std::uint64_t>(o.pool) +
                  SplitMix64(&state) % static_cast<std::uint64_t>(o.pool);
  }
  return mix;
}

// One request on a fresh connection; false on any transport failure.
bool Roundtrip(const std::string& socket_path, const std::string& line, std::string* response) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  bool ok = connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
  std::size_t sent = 0;
  while (ok && sent < line.size()) {
    const ssize_t n = send(fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    ok = n > 0;
    sent += ok ? static_cast<std::size_t>(n) : 0;
  }
  response->clear();
  while (ok && response->find('\n') == std::string::npos) {
    pollfd pfd{fd, POLLIN, 0};
    ok = poll(&pfd, 1, 10000) == 1;
    char chunk[8192];
    const ssize_t n = ok ? recv(fd, chunk, sizeof(chunk), 0) : -1;
    ok = n > 0;
    if (ok) {
      response->append(chunk, static_cast<std::size_t>(n));
    }
  }
  close(fd);
  return ok;
}

void RunThread(const Options& o, const std::vector<Request>& mix, int thread,
               Clock::time_point t0, std::vector<Record>* records) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // wake on time, not 50us late
  double prev_done = 0.0;
  std::string response;
  for (std::size_t i = static_cast<std::size_t>(thread); i < mix.size();
       i += static_cast<std::size_t>(o.threads)) {
    const Request& req = mix[i];
    Record rec;
    const double now_s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (o.rate <= 0.0 && now_s >= o.seconds) {
      break;
    }
    rec.due_s = o.rate > 0.0 ? static_cast<double>(i) / o.rate : std::max(0.0, now_s);
    rec.status = req.status;
    rec.base_seed = req.base_seed;
    rec.prev_done_s = prev_done;
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(rec.due_s));
    std::this_thread::sleep_until(due);
    const std::string line =
        req.status ? std::string("{\"op\":\"status\"}\n")
                   : "{\"op\":\"" + o.op + "\",\"scenario\":\"" + o.scenario +
                         "\",\"seeds\":1,\"days\":" +
                         std::to_string(o.days) + ",\"base_seed\":" +
                         std::to_string(req.base_seed) + "}\n";
    rec.send_s = std::chrono::duration<double>(Clock::now() - t0).count();
    const bool transport_ok = Roundtrip(o.socket, line, &response);
    rec.done_s = std::chrono::duration<double>(Clock::now() - t0).count();
    prev_done = rec.done_s;
    long exit_code = -1;
    std::string status;
    if (transport_ok && byterobust::ExtractJsonIntField(response, "exit_code", &exit_code) &&
        byterobust::ExtractJsonStringField(response, "status", &status)) {
      rec.shed = status == "shed";
      rec.ok = exit_code == 0 && status == "ok";
      if (rec.ok && !req.status) {
        std::string body;
        rec.ok = byterobust::ExtractJsonStringField(response, "body", &body) && !body.empty();
        rec.digest = rec.ok ? byterobust::Fnv1a64(body) : 0;
      }
    }
    records->push_back(rec);
  }
}

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

bool ParseOptions(int argc, char** argv, Options* o) {
  if (argc % 2 != 0) {
    return false;
  }
  for (int i = 0; i < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--socket") {
      o->socket = v;
    } else if (flag == "--rate") {
      o->rate = std::atof(v);
    } else if (flag == "--seconds") {
      o->seconds = std::atof(v);
    } else if (flag == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--pool") {
      o->pool = std::atoi(v);
    } else if (flag == "--days") {
      o->days = std::atof(v);
    } else if (flag == "--threads") {
      o->threads = std::atoi(v);
    } else if (flag == "--op") {
      o->op = v;
    } else if (flag == "--scenario") {
      o->scenario = v;
    } else if (flag == "--status-pct") {
      o->status_pct = std::atoi(v);
    } else {
      return false;
    }
  }
  return !o->socket.empty() && o->rate >= 0.0 && o->seconds > kWarmupS &&
         o->pool >= 1 && o->threads >= 1 && o->threads <= 4 &&
         (o->op == "campaign" || o->op == "fleet") && o->status_pct >= 0 &&
         o->status_pct <= 100;
}

}  // namespace

int LoadgenMain(int argc, char** argv) {
  Options o;
  if (!ParseOptions(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench_probe loadgen --socket PATH --rate R --seconds T "
                 "--seed S --pool K --days D [--threads 1..4] "
                 "[--op campaign|fleet] [--scenario NAME] [--status-pct P]\n");
    return 2;
  }
  // A closed loop cannot outrun ~20k requests/s per thread on this path.
  const double per_s = o.rate > 0.0 ? o.rate : 20000.0 * o.threads;
  const std::vector<Request> mix = MakeMix(o, static_cast<std::size_t>(per_s * o.seconds));
  std::vector<std::vector<Record>> per_thread(static_cast<std::size_t>(o.threads));
  for (auto& records : per_thread) {
    records.reserve(mix.size() / static_cast<std::size_t>(o.threads) + 1);
  }
  // Start slightly in the future so every thread is parked before request 0.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> threads;
  for (int t = 0; t < o.threads; ++t) {
    threads.emplace_back(RunThread, std::cref(o), std::cref(mix), t, t0,
                         &per_thread[static_cast<std::size_t>(t)]);
  }
  for (std::thread& t : threads) {
    t.join();
  }

  std::vector<Record> all;
  for (const auto& records : per_thread) {
    all.insert(all.end(), records.begin(), records.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Record& a, const Record& b) { return a.due_s < b.due_s; });
  std::vector<double> latency;
  std::vector<double> rtt;
  std::vector<double> gen_late;
  // Per-window latency and send-lag samples, keyed by due-time slice.
  std::map<long, std::vector<double>> window_latency;
  std::map<long, std::vector<double>> window_lag;
  std::map<long, int> window_campaigns;
  const long full_windows = static_cast<long>((o.seconds - kWarmupS) / kSliceS);
  int failed = 0;
  int failed_total = 0;
  int campaigns_total = 0;
  int shed = 0;
  std::map<std::uint64_t, std::set<std::uint64_t>> digests;
  for (const Record& r : all) {
    failed_total += r.ok ? 0 : 1;
    campaigns_total += (!r.status && r.ok) ? 1 : 0;
    if (!r.status && r.ok) {
      digests[r.base_seed].insert(r.digest);
    }
    if (!r.status) {
      rtt.push_back((r.done_s - r.send_s) * 1e3);  // every campaign, warm-up included
    }
    if (r.due_s < kWarmupS) {
      continue;
    }
    const long slice = static_cast<long>((r.due_s - kWarmupS) / kSliceS);
    latency.push_back((r.done_s - r.due_s) * 1e3);
    window_latency[slice].push_back(latency.back());
    window_lag[slice].push_back((r.send_s - r.due_s) * 1e3);
    // Late by the generator's own doing: the connection slot was free (the
    // previous request on this thread had completed) and still the send
    // came after the due time.
    gen_late.push_back((r.send_s - std::max(r.due_s, r.prev_done_s)) * 1e3);
    failed += r.ok ? 0 : 1;
    shed += r.shed ? 1 : 0;
    window_campaigns[slice] += (!r.status && r.ok) ? 1 : 0;
  }
  // A growing backlog shows as send lag in most slices, not in one stall.
  std::vector<double> p50s;
  std::vector<double> p90s;
  std::vector<double> lags;
  for (const auto& [slice, xs] : window_latency) {
    p50s.push_back(Quantile(xs, 0.5));
    p90s.push_back(Quantile(xs, 0.9));
    lags.push_back(Quantile(window_lag[slice], 0.5));
  }
  // Throughput per complete slice (completions counted by due time).
  std::vector<double> rates;
  for (long slice = 0; slice < full_windows; ++slice) {
    rates.push_back(static_cast<double>(window_campaigns[slice]) / kSliceS);
  }
  double rtt_mean = 0.0;
  for (double x : rtt) {
    rtt_mean += x / static_cast<double>(rtt.size());
  }
  std::printf(
      "{\"rate\":%.3f,\"sent\":%zu,\"sent_total\":%zu,\"failed\":%d,\"failed_total\":%d,"
      "\"campaigns_total\":%d,"
      "\"shed\":%d,\"campaigns_per_s\":%.6f,\"windows\":%zu,\"p50_ms\":%.6f,"
      "\"p90_ms\":%.6f,\"lag_ms\":%.6f,\"p99_ms\":%.6f,\"campaign_rtt_mean_ms\":%.6f,\"gen_late_p50_ms\":%.6f,"
      "\"gen_late_p90_ms\":%.6f,",
      o.rate, latency.size(), all.size(), failed, failed_total, campaigns_total, shed,
      Quantile(rates, 0.5), p50s.size(), Quantile(p50s, 0.5),
      Quantile(p90s, 0.5), Quantile(lags, 0.5), Quantile(latency, 0.99), rtt_mean, Quantile(gen_late, 0.5), Quantile(gen_late, 0.9));
  // Per-slice figures, so a caller can pool slices across several runs.
  const auto print_array = [](const char* key, const std::vector<double>& xs) {
    std::printf("\"%s\":[", key);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      std::printf("%s%.6f", i == 0 ? "" : ",", xs[i]);
    }
    std::printf("],");
  };
  print_array("slice_p50_ms", p50s);
  print_array("slice_p90_ms", p90s);
  std::printf("\"keys\":[");
  bool first = true;
  for (const auto& [base_seed, set] : digests) {
    std::printf("%s{\"base_seed\":%llu,\"digests\":[", first ? "" : ",",
                static_cast<unsigned long long>(base_seed));
    first = false;
    bool first_digest = true;
    for (std::uint64_t d : set) {
      std::printf("%s\"%016llx\"", first_digest ? "" : ",", static_cast<unsigned long long>(d));
      first_digest = false;
    }
    std::printf("]}");
  }
  std::printf("]}\n");
  return 0;
}
