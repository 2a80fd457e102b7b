// Set-up and measurement shared by the benchmark's run, its checks and its
// self-test: sizing the engine from the host, building a workload's inputs,
// engine and replay loop, and replaying a plan for a measured interval.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dfs/block_source.h"
#include "engine/local_engine.h"
#include "plan.h"
#include "reference.h"
#include "replay.h"

namespace s3::e2e {

[[nodiscard]] std::size_t host_cpus();

// Engine pools are sized from the host; the busy threads never exceed it
// (the driver blocks in run_batch, whose map and reduce waves alternate).
// Pinning is off.
[[nodiscard]] engine::LocalEngineOptions engine_options();

// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);

struct Setup {
  Plan plan;
  std::unique_ptr<World> world;
  std::unique_ptr<dfs::StoredBlocks> source;
  std::unique_ptr<engine::LocalEngine> engine;
  std::unique_ptr<Replayer> replayer;
};

// Specs built from the repository's workload library, unchanged.
[[nodiscard]] SpecFactory plain_specs(const Setup& setup);

// Generates the inputs, builds the engine and the replay loop, and warms
// them up with one untimed replay of the whole plan (pools, arenas,
// allocator and input pages all reach their steady state).
[[nodiscard]] std::unique_ptr<Setup> set_up(const std::string& workload,
                                            std::uint64_t seed, bool reduced);

// End-to-end figures are medians over replays of the plan, so that a short
// burst of load from elsewhere on the host moves one replay, not the result.
// Latency quantiles are taken over windows of kLatencyWindow consecutive
// replays and the median over windows is reported: jobs that share waves
// finish together, so one replay's p95 sits near its slowest few waves,
// while a window's p95 has several times more waves beyond it.
inline constexpr int kLatencyWindow = 3;

struct Phase {
  int rounds = 0;
  double wall_s = 0.0;
  std::size_t latency_samples = 0;
  std::vector<double> jobs_per_s;
  std::vector<double> latency_p50_s;  // per window
  std::vector<double> latency_p95_s;  // per window
  std::vector<double> cpu_s_per_job;
  std::uint64_t offered = 0;
  std::uint64_t verified = 0;
  RoundCounts counts;         // of the first replay
  bool counts_repeat = true;  // every replay reproduced them exactly
  std::string error;
};

// Replays until `seconds` of replay wall time and `min_rounds` replays are
// reached; checks every output and the counts of every replay in between.
[[nodiscard]] Phase measure(Replayer& replayer, const Plan& plan,
                            Reference& reference, double seconds,
                            int min_rounds, LayerTimes* times);

void print_counts(const std::string& label, const RoundCounts& counts);

}  // namespace s3::e2e
