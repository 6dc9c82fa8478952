// The `byterobust serve` daemon: campaigns as a service on a local (unix
// domain) socket, layered on the same fault-bounded campaign engine the CLI
// uses. Robustness layers:
//
//  - every request runs as a supervised campaign (src/harness supervisor:
//    watchdog, deterministic retry/backoff, quarantine into "failed_runs"),
//    so a crashing or hanging seed stays contained inside its request;
//  - admission control: a bounded request queue and a per-request seed cap,
//    with structured load-shed responses when either is exceeded — an
//    overloaded daemon degrades by rejecting crisply, never by dying;
//  - per-request deadlines and cooperative cancel: a request's `deadline_s`
//    or its client hanging up flips that request's stop flag, in-flight
//    seeds drain, and the client gets a valid partial document;
//  - graceful whole-daemon drain (SIGTERM/SIGINT or {"op":"shutdown"}):
//    stop admitting, cancel-and-finish in-flight requests (journaled
//    requests stay resumable), exit kExitInterrupted.
//
// Determinism: a response body is a pure function of the request parameters
// — byte-identical across the daemon's --jobs, concurrent client count,
// injected harness faults, and a drain + restart + resume cycle.

#ifndef SRC_SERVE_SERVER_H_
#define SRC_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/campaign/knobs.h"
#include "src/common/sync.h"
#include "src/common/thread_annotations.h"
#include "src/obs/metrics.h"
#include "src/serve/protocol.h"

namespace byterobust {

struct ServeOptions {
  std::string socket_path;
  int workers = 2;          // concurrent requests executing
  int jobs = 8;             // per-request seed-worker cap (request jobs is clamped)
  int max_queue = 16;       // waiting slots beyond the workers' before shedding
  int max_seeds = 4096;     // per-request seed cap
  int max_connections = 64; // concurrent client connections before shedding
  RuntimeKnobs knobs;       // read once at daemon start, stamped on every request
};

class ServeDaemon {
 public:
  explicit ServeDaemon(const ServeOptions& opts) : opts_(opts) {}
  ~ServeDaemon();
  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  // Binds the socket and spawns the accept + executor threads. False +
  // *error if the socket cannot be bound.
  bool Start(std::string* error);

  // Flips draining: admission stops (new campaign requests get a draining
  // shed response) and every queued or executing request's stop flag is set,
  // so in-flight seeds drain and clients get valid partial responses.
  // Idempotent, safe from any thread (including a signal-watching loop).
  void RequestDrain();

  // RequestDrain + join everything + close the socket. Returns
  // kExitInterrupted (the daemon only exits by being asked to stop).
  int Drain();

  // CLI driver: 200ms supervision loop until *signal_stop flips (SIGTERM /
  // SIGINT handler) or a shutdown request arrives, then Drain().
  int RunUntilStopped(const std::atomic<bool>* signal_stop);

  // /healthz snapshot (also served to {"op":"status"} requests).
  ServeStatus Snapshot() const;

 private:
  // One admitted campaign/fleet request, owned by its connection thread's
  // stack; the queue and executors only borrow the pointer, and the
  // connection thread cannot return before `done` flips.
  struct PendingRequest {
    explicit PendingRequest(const ServeRequest& r) : request(r) {}
    const ServeRequest request;
    std::atomic<bool> stop{false};     // engine external_stop for this request
    std::atomic<int> seeds_done{0};
    // Observability only (never in the response): admission wall time feeds
    // the queue_wait trace span and the request-latency histogram, and the
    // admission ordinal labels this request's trace events.
    double admitted_wall_s = 0.0;
    std::uint64_t admit_ordinal = 0;
    Mutex mu;
    CondVar cv;
    bool done BR_GUARDED_BY(mu) = false;
    std::string response BR_GUARDED_BY(mu);
  };

  void AcceptLoop();
  void ExecutorLoop();
  void HandleConnection(int fd);
  // Runs one admitted request on this executor thread and returns its
  // response line (result, partial result, or error envelope).
  std::string Execute(PendingRequest* request);
  // Admission decision + enqueue; returns the response to send immediately
  // (shed/draining), or empty when admitted (caller then waits on *request).
  std::string Admit(PendingRequest* request);
  void CompleteRequest(PendingRequest* request, std::string response);
  void ReapConnections(bool join_all);
  // Journal/resume path reservation: two in-flight requests writing (or one
  // writing while another resumes) the same server-side file would truncate
  // and interleave each other's records, silently corrupting the crash-safe
  // journal. Admission reserves a request's paths; completion releases them.
  // Returns the first already-reserved path, or empty when all are free.
  std::string FindBusyRequestPathLocked(const ServeRequest& req) const
      BR_REQUIRES(mu_);
  void ReserveRequestPathsLocked(const ServeRequest& req) BR_REQUIRES(mu_);
  void ReleaseRequestPathsLocked(const ServeRequest& req) BR_REQUIRES(mu_);

  const ServeOptions opts_;
  int listen_fd_ = -1;
  std::atomic<bool> running_flag_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> shutdown_requested_{false};  // {"op":"shutdown"} arrived
  std::atomic<std::uint64_t> uptime_ticks_{0};

  mutable Mutex mu_;
  CondVar work_cv_;   // executors: queue non-empty or closed
  CondVar idle_cv_;   // drain: queue and running both empty
  std::deque<PendingRequest*> queue_ BR_GUARDED_BY(mu_);
  std::vector<PendingRequest*> running_ BR_GUARDED_BY(mu_);
  bool closed_ BR_GUARDED_BY(mu_) = false;  // executors may exit
  std::uint64_t admitted_ BR_GUARDED_BY(mu_) = 0;
  std::uint64_t completed_ BR_GUARDED_BY(mu_) = 0;
  std::uint64_t shed_ BR_GUARDED_BY(mu_) = 0;
  // Completed with the stop flag already set (deadline/disconnect/drain).
  std::uint64_t cancelled_ BR_GUARDED_BY(mu_) = 0;
  // Admission-to-completion latency. Internally sharded atomics (its own
  // concurrency story, src/obs/metrics.h), so no BR_GUARDED_BY needed.
  obs::LatencyHistogram request_latency_;
  // Journal/resume paths of queued + running requests (see Find/Reserve/
  // ReleaseRequestPathsLocked above).
  std::set<std::string> busy_paths_ BR_GUARDED_BY(mu_);

  // Connection threads: reaped opportunistically on accept, joined on Drain.
  struct ConnSlot {
    std::thread thread;
    std::atomic<bool> finished{false};
  };
  mutable Mutex conn_mu_;
  std::list<ConnSlot> conns_ BR_GUARDED_BY(conn_mu_);

  std::thread accept_thread_;
  std::vector<std::thread> executors_;
};

}  // namespace byterobust

#endif  // SRC_SERVE_SERVER_H_
