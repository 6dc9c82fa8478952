#include "src/tracer/stack_synth.h"

#include <algorithm>

namespace byterobust {

namespace {

// SplitMix64 hash for round jitter.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

const StackTrace& HealthyGradSyncStack() {
  static const StackTrace trace{{
      {"train_step", "my_megatron/training.py", 412},
      {"start_grad_sync", "my_megatron/distributed/param_grad_buffer.py", 597},
      {"_reduce_scatter_tensor", "torch/distributed/distributed_c10d.py", 3379},
  }};
  return trace;
}

const StackTrace& TensorCollectiveStack() {
  static const StackTrace trace{{
      {"backward", "my_megatron/large_centralized_op_v8.py", 6770},
      {"all_gather_into_tensor", "torch/distributed/distributed_c10d.py", 2898},
  }};
  return trace;
}

const StackTrace& PipelineIsendStack() {
  static const StackTrace trace{{
      {"send_backward_recv_backward", "my_megatron/communicate.py", 474},
      {"isend", "torch/distributed/distributed_c10d.py", 1529},
  }};
  return trace;
}

const StackTrace& PipelineIrecvStack() {
  static const StackTrace trace{{
      {"send_backward_recv_backward", "my_megatron/communicate.py", 474},
      {"irecv", "torch/distributed/distributed_c10d.py", 1569},
  }};
  return trace;
}

const StackTrace& DataLoaderWaitStack() {
  static const StackTrace trace{{
      {"train_step", "my_megatron/training.py", 398},
      {"get_batch", "my_megatron/data/loader.py", 122},
      {"queue_get", "multiprocessing/queues.py", 103},
  }};
  return trace;
}

const StackTrace& DataLoaderStuckStack() {
  static const StackTrace trace{{
      {"fetch_shard", "my_megatron/data/hdfs_reader.py", 233},
      {"read", "hdfs/client.py", 410},
  }};
  return trace;
}

const StackTrace& DataLoaderIdleStack() {
  static const StackTrace trace{{
      {"worker_loop", "my_megatron/data/loader.py", 58},
      {"poll", "multiprocessing/connection.py", 257},
  }};
  return trace;
}

const StackTrace& CkptWriterIdleStack() {
  static const StackTrace trace{{
      {"ckpt_io_loop", "my_megatron/ckpt/writer.py", 71},
      {"wait", "threading.py", 331},
  }};
  return trace;
}

const StackTrace& CkptWriterStuckStack() {
  static const StackTrace trace{{
      {"serialize_shard", "my_megatron/ckpt/writer.py", 144},
      {"write", "hdfs/client.py", 502},
  }};
  return trace;
}

const StackTrace& CkptFlushWaitStack() {
  // Optimizer step gated on the wedged checkpoint save (Sec. 6.3: the step
  // waits for each rank's own save to complete).
  static const StackTrace trace{{
      {"optimizer_step", "my_megatron/training.py", 455},
      {"wait_ckpt_flush", "my_megatron/ckpt/manager.py", 203},
  }};
  return trace;
}

const StackTrace& ComputeKernelStack() {
  static const StackTrace trace{{
      {"backward", "my_megatron/fused_kernels/attention.py", 512},
      {"_flash_attn_backward", "flash_attn/flash_attn_interface.py", 181},
  }};
  return trace;
}

namespace {

// Trainer-process stack for one rank during a hang seeded at `culprit`.
// Every branch returns an interned instance.
const StackTrace& TrainerStackDuringHang(const Topology& topo, Rank rank, Rank culprit,
                                         HangSite site) {
  const RankCoord rc = topo.CoordOf(rank);
  const RankCoord cc = topo.CoordOf(culprit);

  if (site == HangSite::kDataLoader && rank == culprit) {
    return DataLoaderWaitStack();  // trainer starves waiting for the batch
  }
  if (site == HangSite::kCheckpointWriter && rank == culprit) {
    return CkptFlushWaitStack();
  }

  const bool same_tp_group = rc.pp == cc.pp && rc.dp == cc.dp;
  // Pipeline starvation hits the whole stage: both TP ranks of each earlier
  // stage in the culprit's DP column block together (Fig. 7, machines 12-14).
  const bool upstream_stage = rc.dp == cc.dp && rc.pp < cc.pp;

  if (site == HangSite::kTensorCollective || site == HangSite::kDataLoader ||
      site == HangSite::kCheckpointWriter) {
    if (same_tp_group) {
      // The culprit's TP peers wait in the same tensor-parallel collective.
      return TensorCollectiveStack();
    }
  } else if (site == HangSite::kPipelineP2p && rank == culprit) {
    return PipelineIrecvStack();
  } else if (site == HangSite::kPipelineP2p && same_tp_group) {
    return TensorCollectiveStack();
  }

  if (upstream_stage) {
    // Backward gradients flow from later stages toward stage 0; stages below
    // the stalled one starve. The adjacent stage is caught mid fused
    // send/recv in isend, earlier stages in irecv (Fig. 7).
    return rc.pp == cc.pp - 1 ? PipelineIsendStack() : PipelineIrecvStack();
  }

  // Everyone else completed backward kernels and parks in DP gradient sync.
  return HealthyGradSyncStack();
}

}  // namespace

PodStackSnapshot SynthesizeHangStacks(const Topology& topology, Rank culprit, HangSite site) {
  PodStackSnapshot snapshot;
  snapshot.SetDominant(ProcessKind::kTrainer, HealthyGradSyncStack());
  // Only the culprit's DP column can deviate: its own TP group and the
  // pipeline stages upstream of it. Visited in ascending rank order (TP
  // innermost), as PodStackSnapshot::Add expects.
  const RankCoord cc = topology.CoordOf(culprit);
  for (int pp = 0; pp <= cc.pp; ++pp) {
    for (int tp = 0; tp < topology.config().tp; ++tp) {
      const Rank rank = topology.RankOf({tp, pp, cc.dp});
      snapshot.Add(ProcessKind::kTrainer, rank,
                   TrainerStackDuringHang(topology, rank, culprit, site));
    }
  }
  return snapshot;
}

PodStackSnapshot SynthesizeFullPodStacks(const Topology& topology, Rank culprit,
                                         HangSite site) {
  PodStackSnapshot snapshot = SynthesizeHangStacks(topology, culprit, site);
  snapshot.SetDominant(ProcessKind::kDataLoader, DataLoaderIdleStack());
  snapshot.SetDominant(ProcessKind::kCheckpointWriter, CkptWriterIdleStack());
  if (site == HangSite::kDataLoader) {
    snapshot.Add(ProcessKind::kDataLoader, culprit, DataLoaderStuckStack());
  } else if (site == HangSite::kCheckpointWriter) {
    snapshot.Add(ProcessKind::kCheckpointWriter, culprit, CkptWriterStuckStack());
  }
  return snapshot;
}

MachineId FailSlowNoiseMachine(std::uint64_t round_seed, int num_machines) {
  // Roughly every third round, one random healthy machine is also caught
  // mid-compute (sampling jitter): single-round aggregation would misfire.
  const std::uint64_t h = Mix(round_seed);
  if ((h % 3) != 0) {
    return -1;
  }
  return static_cast<MachineId>(Mix(h) % static_cast<std::uint64_t>(num_machines));
}

PodStackSnapshot SynthesizeFailSlowStacks(const Topology& topology, MachineId slow_machine,
                                          std::uint64_t round_seed) {
  std::vector<MachineId> laggards{slow_machine};
  const MachineId noisy = FailSlowNoiseMachine(round_seed, topology.num_machines());
  if (noisy >= 0 && noisy != slow_machine) {
    laggards.push_back(noisy);
  }
  std::sort(laggards.begin(), laggards.end());  // ascending ranks

  PodStackSnapshot snapshot;
  snapshot.SetDominant(ProcessKind::kTrainer, HealthyGradSyncStack());
  for (MachineId m : laggards) {
    for (Rank r : topology.RanksOnMachine(m)) {
      snapshot.Add(ProcessKind::kTrainer, r, ComputeKernelStack());
    }
  }
  return snapshot;
}

}  // namespace byterobust
