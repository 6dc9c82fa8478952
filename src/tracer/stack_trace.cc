#include "src/tracer/stack_trace.h"

#include <sstream>
#include <stdexcept>

namespace byterobust {

std::string StackTrace::Key() const {
  std::ostringstream out;
  for (const StackFrame& f : frames()) {
    out << f.function << "@" << f.file << ":" << f.line << ";";
  }
  return out.str();
}

std::string StackTrace::ToString() const {
  std::ostringstream out;
  for (const StackFrame& f : frames()) {
    out << "  " << f.function << " (" << f.file << ":" << f.line << ")\n";
  }
  return out.str();
}

const char* ProcessKindName(ProcessKind kind) {
  switch (kind) {
    case ProcessKind::kTrainer:
      return "trainer";
    case ProcessKind::kDataLoader:
      return "dataloader";
    case ProcessKind::kCheckpointWriter:
      return "ckpt-writer";
  }
  return "unknown";
}

void PodStackSnapshot::SetDominant(ProcessKind kind, const StackTrace& stack) {
  for (const StackSnapshotGroup& g : groups_) {
    if (g.kind == kind) {
      throw std::logic_error("SetDominant must come first and once per process kind");
    }
  }
  groups_.push_back({kind, stack, true, {}});
}

void PodStackSnapshot::Add(ProcessKind kind, Rank rank, const StackTrace& stack) {
  for (StackSnapshotGroup& g : groups_) {
    if (g.kind == kind && g.stack == stack) {
      if (!g.complement) {
        g.ranks.push_back(rank);
      }
      return;
    }
  }
  groups_.push_back({kind, stack, false, {rank}});
}

}  // namespace byterobust
