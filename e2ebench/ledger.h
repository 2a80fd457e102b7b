// The benchmark's report: named metrics with units, the per-layer ledger of
// a traced phase, and the final JSON result line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "probes.h"
#include "replay.h"

namespace s3::e2e {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Per-layer metrics of a traced phase, per replay of the plan. Prints the
// layer table and says how much of the measured wall the driver-thread
// layers leave unattributed (flagged above 5 %).
[[nodiscard]] std::vector<Metric> layer_metrics(const Phase& traced,
                                                const LayerTimes& times,
                                                const Probes& probes,
                                                double untraced_replay_wall_s);

// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

[[nodiscard]] std::string json_string(const std::string& s);

}  // namespace s3::e2e
