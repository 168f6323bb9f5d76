// Workload input synthesis: which recordings, presets and chunk size
// each workload replays.
#include "workloads.h"

#include <stdexcept>

namespace perfbench {

WorkloadInputs make_inputs(const std::string& workload, std::uint64_t seed) {
  WorkloadInputs in;
  in.workload = workload;
  in.seed = seed;
  if (workload == "fleet_replay") {
    in.recordings = make_recordings({"clean", "mild", "moderate"}, 8, 128.0, seed);
    in.chunk = 64;
  } else if (workload == "server_realtime") {
    in.recordings = make_recordings({"mild", "moderate"}, 32, 40.0, seed);
    in.chunk = 25;
  } else if (workload == "device_q31") {
    in.recordings.push_back(concat(make_recordings({"severe"}, 48, 64.0, seed)));
    in.chunk = 10;
    in.backend = Backend::Q31;
  } else {
    throw std::invalid_argument("unknown workload '" + workload +
                                "' (fleet_replay, server_realtime, device_q31)");
  }
  in.digest = input_digest(in.recordings);
  return in;
}

} // namespace perfbench
