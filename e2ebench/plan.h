// Seeded workload plans for the end-to-end benchmark. A Plan is everything a
// replay needs and nothing the program computes: the input files to
// generate, the job list with its decision-clock arrival times, tenants and
// their quotas, and the quota flaps. Every field is a pure function of
// (workload, seed, size), so two replays of one plan offer the program
// exactly the same work.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chaos/arrival_storm.h"
#include "cluster/topology.h"
#include "common/types.h"
#include "dfs/block_store.h"
#include "dfs/dfs_namespace.h"
#include "engine/job.h"
#include "sched/file_catalog.h"
#include "service/submission_service.h"
#include "sim/cost_model.h"

namespace s3::e2e {

enum class InputKind { kCorpus, kLineitem };

struct InputPlan {
  std::string name;
  InputKind kind = InputKind::kCorpus;
  std::uint64_t blocks = 0;
  std::size_t block_bytes = 0;
  std::uint64_t seed = 0;
  // A corpus interleaves blocks from this many Zipf vocabularies (together
  // the default vocabulary size), so that no single vocabulary draw, such as
  // the lengths of its most frequent words, sets the work in a run.
  std::size_t vocabularies = 1;
};

enum class JobKind {
  kPattern,    // paper §V-B wordcount of words starting with `prefix`
  kCountAll,   // heavy wordcount: every word plus one tagged duplicate
  kSelection,  // paper §V-G selection: l_quantity <= max_quantity
};

struct PlannedJob {
  JobId id;
  TenantId tenant;
  std::size_t input = 0;  // index into Plan::inputs
  JobKind kind = JobKind::kPattern;
  std::string prefix;
  int max_quantity = 5;
  SimTime arrival = 0.0;  // decision-clock time of the first offer
  int priority = 0;
  SimTime deadline = kTimeNever;
};

// One replay of a plan runs its episodes back to back, each with a fresh
// service and scheduler and its decision clock starting at zero. A storm run
// pools several seeded StormPlans this way, so that its figures do not hinge
// on one draw of tenant quotas.
struct Episode {
  std::size_t begin = 0;  // range [begin, end) of Plan::jobs
  std::size_t end = 0;
  std::vector<chaos::StormTenant> tenants;
  std::vector<chaos::QuotaFlap> flaps;  // sorted by time
};

struct Plan {
  std::vector<InputPlan> inputs;
  // Grouped by episode, each group sorted by (arrival, id); ids are dense
  // over the whole plan.
  std::vector<PlannedJob> jobs;
  std::vector<Episode> episodes;
  service::ServiceOptions service;
  std::uint64_t segment_blocks = 8;
  std::uint32_t reduce_tasks = 4;
};

// Map slots of the modeled cluster the scheduler and the cost model see:
// fixed, never derived from the host, so the schedule is host-free.
inline constexpr int kMapSlots = 8;

// A submission is offered at most this many times (throttles and sheds are
// re-offered at a modeled backoff); past it the job counts as failed.
inline constexpr int kMaxOffers = 1000;

// Workload names: wc_shared, tpch_stream, s3d_storm. `reduced` shrinks the
// plan for the self-test, the driver-parity check and the FIFO comparison.
[[nodiscard]] bool known_workload(const std::string& workload);
[[nodiscard]] Plan make_plan(const std::string& workload, std::uint64_t seed,
                             bool reduced);

// The first `jobs` jobs of `plan`'s first episode, all arriving at time 0
// from one tenant without limits: the burst on which RealDriver::run is
// deterministic too.
[[nodiscard]] Plan zero_burst(Plan plan, std::size_t jobs);

// The generated inputs of a plan, materialized in an in-memory DFS.
struct World {
  dfs::DfsNamespace ns;
  dfs::BlockStore store;
  sched::FileCatalog catalog;
  cluster::Topology topology;
  std::vector<FileId> files;  // parallel to Plan::inputs
};

[[nodiscard]] std::unique_ptr<World> build_world(const Plan& plan);

// Engine job spec for a planned job, built from the repository's workload
// library exactly as a user of it would.
[[nodiscard]] engine::JobSpec make_spec(const PlannedJob& job,
                                        const World& world,
                                        std::uint32_t reduce_tasks);

// Paper-calibrated cost class of a planned job (drives the decision clock).
[[nodiscard]] sim::WorkloadCost job_cost(const PlannedJob& job);

}  // namespace s3::e2e
