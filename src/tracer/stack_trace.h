// Stack-trace representation: what the on-demand tracer (py-spy +
// flight-recorder in production, Sec. 7) captures from training processes.

#ifndef SRC_TRACER_STACK_TRACE_H_
#define SRC_TRACER_STACK_TRACE_H_

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "src/topology/parallelism.h"

namespace byterobust {

struct StackFrame {
  std::string function;
  std::string file;
  int line = 0;

  bool operator==(const StackFrame&) const = default;
};

// An immutable stack shared by value. Copies share the frame storage; the
// canned patterns of stack_synth.h are interned once per process. The storage
// is reference-counted, so every copy writes one process-wide counter: pod
// snapshots therefore hold one copy per stack *group*, never one per process
// (see PodStackSnapshot below).
class StackTrace {
 public:
  StackTrace() = default;
  StackTrace(std::initializer_list<StackFrame> frames)
      : frames_(std::make_shared<const std::vector<StackFrame>>(frames)) {}
  explicit StackTrace(std::vector<StackFrame> frames)
      : frames_(std::make_shared<const std::vector<StackFrame>>(std::move(frames))) {}

  const std::vector<StackFrame>& frames() const {
    static const std::vector<StackFrame> kEmpty;
    return frames_ ? *frames_ : kEmpty;
  }

  // Canonical string form; aggregation groups stacks by exact key match
  // (paper Sec. 5.1 "aggregated into multiple groups via string matching").
  std::string Key() const;
  std::string ToString() const;

  bool operator==(const StackTrace& other) const {
    return frames_ == other.frames_ || frames() == other.frames();
  }

 private:
  std::shared_ptr<const std::vector<StackFrame>> frames_;
};

// Which process in the pod's tree the stack came from. Root causes may live
// in subprocesses (data fetching, checkpointing), so the tracer captures all
// training-related processes, not just the trainer (Sec. 5.1).
enum class ProcessKind {
  kTrainer,
  kDataLoader,
  kCheckpointWriter,
};

const char* ProcessKindName(ProcessKind kind);

// One group of a pod stack snapshot: the `kind` processes of `ranks` all show
// `stack`. A complement group lists no ranks: it stands for every rank of the
// topology that no other group of the same kind lists.
struct StackSnapshotGroup {
  ProcessKind kind = ProcessKind::kTrainer;
  StackTrace stack;
  bool complement = false;
  std::vector<Rank> ranks;  // ascending; empty for a complement group
};

// A whole-pod stack snapshot, stored by group instead of by process. Each
// kind's dominant stack is one complement group; only the processes that
// deviate from it are listed one by one. A 9,600-rank hang snapshot is thus a
// handful of groups plus the culprit's DP column, and building or
// aggregating it never touches the healthy ranks.
class PodStackSnapshot {
 public:
  // Every `kind` process not listed by Add() shows `stack`. Call at most once
  // per kind, before any Add() of that kind.
  void SetDominant(ProcessKind kind, const StackTrace& stack);

  // The `kind` process of `rank` shows `stack`. Add each (rank, kind) at most
  // once, in ascending rank order per stack. A stack equal to the kind's
  // dominant one is already covered by the complement and is not listed.
  void Add(ProcessKind kind, Rank rank, const StackTrace& stack);

  const std::vector<StackSnapshotGroup>& groups() const { return groups_; }

 private:
  std::vector<StackSnapshotGroup> groups_;
};

}  // namespace byterobust

#endif  // SRC_TRACER_STACK_TRACE_H_
