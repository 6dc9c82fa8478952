// Runtime knobs: the switches that pin a reference path for the byte-identity
// gates or inject harness faults. The byterobust CLI fills one RuntimeKnobs
// from the environment at startup and passes it explicitly (on every
// CampaignRequest, serve requests included); nothing in the library reads the
// environment. Default-constructed, it is the documented configuration.

#ifndef SRC_CAMPAIGN_KNOBS_H_
#define SRC_CAMPAIGN_KNOBS_H_

#include "src/harness/supervisor.h"

namespace byterobust {

struct RuntimeKnobs {
  bool step_batching = true;      // BYTEROBUST_STEP_BATCHING=0: per-step reference path
  bool quiescent_monitor = true;  // BYTEROBUST_QUIESCENT_MONITOR=0: periodic monitor
  bool fault_domains = true;      // BYTEROBUST_FAULT_DOMAINS=0: flat topology, no graph
  bool spill_store = true;        // BYTEROBUST_STREAM_CAMPAIGN=0: memory run store
  double seed_timeout_s = 0.0;    // BYTEROBUST_SEED_TIMEOUT_S: > 0 pins the seed watchdog
  HarnessFaultSpec harness_faults;  // BYTEROBUST_HARNESS_FAULTS
};

}  // namespace byterobust

#endif  // SRC_CAMPAIGN_KNOBS_H_
