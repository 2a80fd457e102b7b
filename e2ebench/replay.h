// The benchmark's single driver thread. One Replayer replays a Plan through
// the real layers, calling them in the order RealDriver::run_service does:
//
//   service.submit ... poll_admitted → engine.register_job →
//   scheduler.on_job_arrival → scheduler.next_batch → engine.run_batch →
//   (deliver: submit + poll) → scheduler.on_batch_complete →
//   engine.finalize_job → service.on_job_finished
//
// Unlike RealDriver, the decision clock advances by the paper-calibrated
// sim::CostModel cost of each batch instead of its wall time, so which jobs
// share which scan, and every admission decision, are functions of the plan
// alone; only the program's speed varies between runs. Throttled and shed
// submissions are re-offered at the modeled retry hint. Wall time is read
// around every job for its latency: from the driver step at which its first
// offer fell due (just before submit) to the return of its finalize_job.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/local_engine.h"
#include "plan.h"

namespace s3::e2e {

enum class SchedulerKind { kS3, kFifo };

// Wall time the driver thread spends inside each layer's calls, plus
// per-call samples for the quantiles. Only filled in traced runs.
struct LayerTimes {
  // service
  double submit_s = 0, poll_s = 0, finished_s = 0, quota_s = 0;
  // sched
  double arrival_s = 0, next_batch_s = 0, batch_complete_s = 0, flush_s = 0;
  // engine
  double register_s = 0, run_batch_s = 0, finalize_s = 0, counters_s = 0;
  // the benchmark's own decision clock (sim::CostModel::batch_cost)
  double clock_s = 0;
  std::vector<double> submit_us;
  std::vector<double> run_batch_ms;
  std::vector<double> finalize_ms;
  std::vector<double> align_wait_s;  // release → start of first batch
};

// Deterministic outcome of one replay: must repeat exactly for one plan.
struct RoundCounts {
  std::uint64_t offered = 0;      // distinct jobs the plan offered
  std::uint64_t completed = 0;    // finalized jobs (outputs not yet checked)
  std::uint64_t submit_calls = 0, admitted = 0, retry_after = 0, shed = 0,
                rejected = 0;
  std::uint64_t refused_first = 0;  // jobs not admitted at their first offer
  std::uint64_t next_batch_calls = 0;
  std::uint64_t batches = 0, member_slots = 0;
  std::uint64_t blocks_physical = 0, blocks_logical = 0, bytes_logical = 0;
  std::uint64_t map_output_records = 0, reduce_input_groups = 0;
  double modeled_tet_s = 0, modeled_art_s = 0;
  std::uint64_t batch_fp = 0, admission_fp = 0;

  friend bool operator==(const RoundCounts&, const RoundCounts&) = default;
};

struct RoundResult {
  RoundCounts counts;
  double wall_s = 0;  // first offer → last finalize
  double cpu_s = 0;   // process user+sys over the same interval
  std::vector<double> latency_s;  // per finalized job
  std::vector<std::pair<JobId, std::uint64_t>> digests;  // output_digest()
  // The outputs themselves, only when the replayer keeps them.
  std::vector<std::pair<JobId, engine::JobResult>> outputs;
  std::string error;  // set when the replay could not finish
};

using SpecFactory = std::function<engine::JobSpec(const PlannedJob&)>;

class Replayer {
 public:
  Replayer(const Plan& plan, const World& world, engine::LocalEngine& engine,
           SchedulerKind scheduler, const SpecFactory& make_spec,
           bool keep_outputs = false);

  // One full replay of the plan with a fresh service and scheduler over the
  // given engine. `times` is null in untraced runs.
  [[nodiscard]] RoundResult run(LayerTimes* times);

 private:
  const Plan* plan_;
  const World* world_;
  engine::LocalEngine* engine_;
  SchedulerKind scheduler_kind_;
  bool keep_outputs_;
  std::vector<engine::JobSpec> specs_;  // indexed by job id
  std::vector<const PlannedJob*> by_id_;
  std::unordered_map<JobId, sim::WorkloadCost> costs_;
};

// Helpers shared by the report.
[[nodiscard]] double process_cpu_seconds();
[[nodiscard]] double peak_rss_mib();

}  // namespace s3::e2e
