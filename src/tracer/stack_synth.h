// Stack synthesis: produces the pod stack snapshot the on-demand tracer would
// capture for a given runtime condition, implementing the hang-propagation
// pattern of Fig. 7.
//
// When one rank stalls, its TP peers block in the same tensor-parallel
// collective; the adjacent upstream pipeline stage blocks in isend, earlier
// stages in irecv; every other rank finishes its backward pass and parks in
// the data-parallel gradient sync (reduce-scatter) — the dominant "healthy"
// stack group. Snapshots store that group as a complement (PodStackSnapshot),
// so synthesis only visits the ranks that deviate from it: the culprit's DP
// column for a hang, the laggard machines for fail-slow.

#ifndef SRC_TRACER_STACK_SYNTH_H_
#define SRC_TRACER_STACK_SYNTH_H_

#include <cstdint>
#include <vector>

#include "src/topology/parallelism.h"
#include "src/tracer/stack_trace.h"

namespace byterobust {

// Where the hang originates.
enum class HangSite {
  kTensorCollective,  // stuck in all_gather_into_tensor (Fig. 7: machine 15)
  kPipelineP2p,       // stuck in pipeline send/recv (evaluation hang, Sec. 5.2)
  kDataLoader,        // culprit's dataloader subprocess wedged (e.g. HDFS read)
  kCheckpointWriter,  // culprit's checkpoint I/O subprocess wedged
};

// Canonical stacks (shared with tests so expectations stay in one place).
// Each is a single interned instance: copies share the frame storage.
const StackTrace& HealthyGradSyncStack();
const StackTrace& TensorCollectiveStack();
const StackTrace& PipelineIsendStack();
const StackTrace& PipelineIrecvStack();
const StackTrace& DataLoaderWaitStack();   // trainer waiting on the data queue
const StackTrace& DataLoaderStuckStack();  // dataloader wedged in storage read
const StackTrace& DataLoaderIdleStack();   // healthy dataloader stack
const StackTrace& CkptWriterIdleStack();
const StackTrace& CkptWriterStuckStack();
const StackTrace& CkptFlushWaitStack();    // trainer waiting on its wedged save
const StackTrace& ComputeKernelStack();    // mid-backward compute (fail-slow laggard)

// Trainer-process stacks for a hang seeded at `culprit` with the given site.
// Lists at most tp x pp ranks (the culprit's DP column) whatever the world
// size; every other trainer is in the gradient-sync complement.
PodStackSnapshot SynthesizeHangStacks(const Topology& topology, Rank culprit, HangSite site);

// Trainer + subprocess stacks (3 processes per rank), used when the root
// cause may sit in a subprocess.
PodStackSnapshot SynthesizeFullPodStacks(const Topology& topology, Rank culprit, HangSite site);

// Fail-slow snapshot: the ranks on `slow_machine` appear mid-compute while
// the rest wait at the synchronization barrier. `round_seed` adds one noisy
// false outlier every few rounds, modelling sampling jitter; the analyzer's
// multi-round voting (Sec. 5.1) must see through it.
PodStackSnapshot SynthesizeFailSlowStacks(const Topology& topology, MachineId slow_machine,
                                          std::uint64_t round_seed);

// The sampling-jitter machine a fail-slow round with this seed would also
// catch mid-compute, or -1 for a clean round.
MachineId FailSlowNoiseMachine(std::uint64_t round_seed, int num_machines);

}  // namespace byterobust

#endif  // SRC_TRACER_STACK_SYNTH_H_
