#include "plan.h"

#include <algorithm>
#include <functional>
#include <set>

#include "common/rng.h"
#include "common/status.h"
#include "dfs/placement.h"
#include "workloads/text_corpus.h"
#include "workloads/tpch.h"
#include "workloads/wordcount.h"

namespace s3::e2e {
namespace {

// Seeds of the independent plan streams (corpus, arrivals, job mix) are
// derived from the run seed so that no two streams share a generator.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t sm = seed * 0x9e3779b97f4a7c15ULL + stream;
  return splitmix64(sm);
}

std::vector<workloads::TextCorpusGenerator> corpus_generators(
    const InputPlan& input) {
  std::vector<workloads::TextCorpusGenerator> generators;
  for (std::size_t v = 0; v < input.vocabularies; ++v) {
    workloads::TextCorpusOptions options;
    options.seed = derive(input.seed, v);
    // The union keeps the default vocabulary size.
    options.vocabulary_size /= input.vocabularies;
    generators.emplace_back(options);
  }
  return generators;
}

// `n` values that take each of `choices` equally often (up to rounding),
// in seeded order: every seed offers the same mix, only the order differs.
template <typename T>
std::vector<T> balanced(const std::vector<T>& choices, std::size_t n,
                        Rng& rng) {
  std::vector<T> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(choices[i % choices.size()]);
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

// One tenant with no effective limits: the service still decides every
// submission, but never throttles, queues long or sheds.
chaos::StormTenant open_tenant() {
  chaos::StormTenant tenant;
  tenant.id = TenantId(0);
  tenant.name = "client";
  tenant.quota.rate_jobs_per_sec = 1e9;
  tenant.quota.burst = 1e9;
  tenant.quota.max_queued = 1u << 20;
  tenant.quota.max_inflight = 1u << 20;
  tenant.quota.weight = 1.0;
  return tenant;
}

// wc_shared: pattern-wordcount jobs with distinct two-letter prefixes plus
// one heavy count-all job per burst, over one Zipf corpus. Each burst of
// 8-16 jobs arrives at one instant and the next comes after its scan
// circle ends, so every wave carries exactly one burst.
Plan wc_shared(std::uint64_t seed, bool reduced) {
  Plan plan;
  plan.segment_blocks = reduced ? 4 : 8;
  const std::uint64_t blocks = reduced ? 16 : 32;
  plan.inputs.push_back({"corpus.txt", InputKind::kCorpus, blocks,
                         reduced ? 16u << 10 : 32u << 10, derive(seed, 1),
                         /*vocabularies=*/8});
  plan.service.global_queue_bound = 1u << 20;

  // Distinct prefixes, drawn from the corpus vocabulary so every job matches
  // something.
  std::set<std::string> prefix_set;
  for (const auto& corpus : corpus_generators(plan.inputs[0])) {
    for (const auto& word : corpus.vocabulary()) {
      prefix_set.insert(word.substr(0, 2));
    }
  }
  std::vector<std::string> prefixes(prefix_set.begin(), prefix_set.end());
  Rng rng(derive(seed, 2));
  std::shuffle(prefixes.begin(), prefixes.end(), rng);
  S3_CHECK(prefixes.size() >= 360);

  // Decision-clock seconds of one scan circle (blocks / segment batches of
  // roughly ten modeled seconds each). Burst sizes and gaps are a fixed mix
  // in seeded order, so every seed shares about as much.
  const double circle =
      10.0 * static_cast<double>(blocks / plan.segment_blocks);
  // 30 bursts of 8-16 jobs (each size three times, plus three of 12) in
  // seeded order: 360 jobs, one heavy count-all job per burst.
  std::vector<std::size_t> sizes = {12, 12, 12};
  for (std::size_t size = 8; size <= 16; ++size) {
    sizes.insert(sizes.end(), 3, size);
  }
  if (reduced) sizes = {8, 8, 12, 12};
  std::shuffle(sizes.begin(), sizes.end(), rng);
  const std::vector<double> gaps =
      balanced<double>({1.6, 1.8, 2.0, 2.2, 2.4}, sizes.size(), rng);
  SimTime t = 0.0;
  std::size_t next = 0;
  for (std::size_t b = 0; b < sizes.size(); ++b) {
    const std::size_t burst = sizes[b];
    for (std::size_t k = 0; k < burst; ++k, ++next) {
      PlannedJob job;
      job.id = JobId(next);
      job.tenant = TenantId(0);
      job.input = 0;
      job.arrival = t;
      if (k == 0) {
        job.kind = JobKind::kCountAll;
      } else {
        job.kind = JobKind::kPattern;
        job.prefix = prefixes[next];
      }
      plan.jobs.push_back(std::move(job));
    }
    t += circle * gaps[b];
  }
  plan.episodes.push_back({0, plan.jobs.size(), {open_tenant()}, {}});
  return plan;
}

// tpch_stream: selection jobs (~10 % selectivity) over three lineitem files,
// spread out in decision time so that most join a scan mid-way.
Plan tpch_stream(std::uint64_t seed, bool reduced) {
  Plan plan;
  plan.segment_blocks = reduced ? 4 : 8;
  const std::size_t files = reduced ? 2 : 3;
  const std::size_t jobs = reduced ? 24 : 400;
  for (std::size_t f = 0; f < files; ++f) {
    plan.inputs.push_back({"lineitem-" + std::to_string(f) + ".tbl",
                           InputKind::kLineitem, reduced ? 8u : 24u,
                           reduced ? 16u << 10 : 64u << 10,
                           derive(seed, 10 + f)});
  }
  plan.service.global_queue_bound = 1u << 20;

  // Gaps of 4-20 s (12 s mean, about one modeled batch), files and
  // predicates are each a balanced mix in seeded order: every seed offers
  // the same work at the same rate.
  Rng rng(derive(seed, 2));
  const std::vector<double> gaps =
      balanced<double>({4, 6, 8, 10, 12, 14, 16, 18, 20}, jobs, rng);
  std::vector<std::size_t> inputs_of;
  for (std::size_t f = 0; f < files; ++f) inputs_of.push_back(f);
  const std::vector<std::size_t> input = balanced(inputs_of, jobs, rng);
  const std::vector<int> quantity = balanced<int>({4, 5, 6}, jobs, rng);
  SimTime t = 0.0;
  for (std::size_t j = 0; j < jobs; ++j) {
    PlannedJob job;
    job.id = JobId(j);
    job.tenant = TenantId(0);
    job.input = input[j];
    job.kind = JobKind::kSelection;
    job.max_quantity = quantity[j];
    job.arrival = t;
    plan.jobs.push_back(std::move(job));
    t += gaps[j];
  }
  plan.episodes.push_back({0, plan.jobs.size(), {open_tenant()}, {}});
  return plan;
}

// s3d_storm: 24 seeded chaos::StormPlans, replayed back to back, each of
// 200 tiny wordcount jobs from six tenants over four small files at a
// moderate overload. Pooling the plans keeps the run's figures from hinging
// on one draw of tenant quotas.
Plan s3d_storm(std::uint64_t seed, bool reduced) {
  Plan plan;
  plan.segment_blocks = 4;
  plan.reduce_tasks = 2;
  const std::size_t files = 4;
  for (std::size_t f = 0; f < files; ++f) {
    plan.inputs.push_back({"tiny-" + std::to_string(f) + ".txt",
                           InputKind::kCorpus, 8, 4u << 10,
                           derive(seed, 20 + f)});
  }
  plan.service.global_queue_bound = 24;
  // Backoff on the decision clock's scale (a batch models ~10-15 s), so
  // that re-offers of one tenant's backlog spread out instead of all
  // landing on the next token.
  plan.service.backoff.base = 32.0;
  plan.service.backoff.cap_exp = 6;

  Rng rng(derive(seed, 2));
  const char* letters = "abcdefghijklmnopqrstuvwxyz";
  const std::size_t episodes = reduced ? 2 : 24;
  for (std::size_t e = 0; e < episodes; ++e) {
    chaos::StormOptions options;
    options.seed = derive(seed, 100 + e);
    options.tenants = 6;
    options.jobs = reduced ? 60 : 200;
    // About 20 decision-clock seconds per job at a moderate overload.
    options.duration = 20.0 * static_cast<double>(options.jobs);
    options.overload_factor = 1.1;
    options.quota_flaps = 4;
    options.flood_every = 8;
    options.flood_size = 3;
    const chaos::StormPlan storm(options);
    Episode episode;
    episode.begin = plan.jobs.size();
    episode.tenants = storm.tenants();
    episode.flaps = storm.flaps();
    // Token rates at 1.5 times the plan's draw, which on its own sits right
    // at the offered load (every bucket near empty, most first offers
    // refused). Floods, lane bounds and quota flaps still throttle a stable
    // minority, about two in five first offers.
    for (auto& tenant : episode.tenants) {
      tenant.quota.rate_jobs_per_sec *= 1.5;
    }
    for (auto& flap : episode.flaps) flap.quota.rate_jobs_per_sec *= 1.5;
    for (const auto& arrival : storm.arrivals()) {
      PlannedJob job;
      job.id = JobId(episode.begin + arrival.job.value());
      job.tenant = arrival.tenant;
      job.input = rng.uniform_u64(files);
      job.kind = JobKind::kPattern;
      job.prefix = std::string(1, letters[rng.uniform_u64(26)]);
      job.arrival = arrival.arrival;
      job.priority = arrival.priority;
      job.deadline = arrival.deadline;
      plan.jobs.push_back(std::move(job));
    }
    episode.end = plan.jobs.size();
    plan.episodes.push_back(std::move(episode));
  }
  return plan;
}

}  // namespace

bool known_workload(const std::string& workload) {
  return workload == "wc_shared" || workload == "tpch_stream" ||
         workload == "s3d_storm";
}

Plan make_plan(const std::string& workload, std::uint64_t seed,
               bool reduced) {
  Plan plan;
  if (workload == "wc_shared") {
    plan = wc_shared(seed, reduced);
  } else if (workload == "tpch_stream") {
    plan = tpch_stream(seed, reduced);
  } else {
    S3_CHECK_MSG(workload == "s3d_storm", "unknown workload " << workload);
    plan = s3d_storm(seed, reduced);
  }
  for (const Episode& episode : plan.episodes) {
    std::sort(plan.jobs.begin() + static_cast<std::ptrdiff_t>(episode.begin),
              plan.jobs.begin() + static_cast<std::ptrdiff_t>(episode.end),
              [](const PlannedJob& a, const PlannedJob& b) {
                if (a.arrival != b.arrival) return a.arrival < b.arrival;
                return a.id < b.id;
              });
  }
  return plan;
}

Plan zero_burst(Plan plan, std::size_t jobs) {
  plan.jobs.resize(std::min(jobs, plan.episodes.front().end));
  std::sort(plan.jobs.begin(), plan.jobs.end(),
            [](const PlannedJob& a, const PlannedJob& b) {
              return a.id < b.id;
            });
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    PlannedJob& job = plan.jobs[i];
    job.id = JobId(i);
    job.tenant = TenantId(0);
    job.arrival = 0.0;
    job.priority = 0;
    job.deadline = kTimeNever;
  }
  plan.episodes = {{0, plan.jobs.size(), {open_tenant()}, {}}};
  plan.service = service::ServiceOptions{};
  plan.service.global_queue_bound = 1u << 20;
  return plan;
}

std::unique_ptr<World> build_world(const Plan& plan) {
  auto world = std::make_unique<World>();
  world->topology = cluster::Topology::uniform(
      static_cast<std::size_t>(kMapSlots), 2);
  dfs::PlacementTopology ptopo;
  for (const auto& node : world->topology.nodes()) {
    ptopo.nodes.push_back({node.id, node.rack});
  }
  dfs::RoundRobinPlacement placement(ptopo);
  for (const InputPlan& input : plan.inputs) {
    std::function<std::string(std::uint64_t)> payload;
    if (input.kind == InputKind::kCorpus) {
      payload = [generators = corpus_generators(input),
                 size = ByteSize(input.block_bytes)](std::uint64_t b) {
        return generators[b % generators.size()].generate_block(b, size);
      };
    } else {
      payload = [lineitem = workloads::tpch::LineitemGenerator(input.seed),
                 size = ByteSize(input.block_bytes)](std::uint64_t b) {
        return lineitem.generate_block(b, size);
      };
    }
    // Laid out the way the workload generators' generate_file() does it.
    const auto file = world->ns.create_file(input.name,
                                            ByteSize(input.block_bytes));
    S3_CHECK_MSG(file.is_ok(), "create_file: " << file.status());
    for (std::uint64_t b = 0; b < input.blocks; ++b) {
      std::string bytes = payload(b);
      const auto block = world->ns.append_block(file.value(),
                                                ByteSize(bytes.size()));
      S3_CHECK_MSG(block.is_ok(), "append_block: " << block.status());
      S3_CHECK(world->ns.set_replicas(block.value(), placement.place(b, 1))
                   .is_ok());
      S3_CHECK(world->store.put(block.value(), std::move(bytes)).is_ok());
    }
    world->catalog.add(file.value(), input.blocks);
    world->files.push_back(file.value());
  }
  return world;
}

engine::JobSpec make_spec(const PlannedJob& job, const World& world,
                          std::uint32_t reduce_tasks) {
  const FileId file = world.files.at(job.input);
  switch (job.kind) {
    case JobKind::kPattern:
      return workloads::make_wordcount_job(job.id, file, job.prefix,
                                           reduce_tasks);
    case JobKind::kCountAll:
      return workloads::make_heavy_wordcount_job(job.id, file,
                                                 /*amplify=*/2, reduce_tasks);
    case JobKind::kSelection:
      return workloads::tpch::make_selection_job(job.id, file,
                                                 job.max_quantity,
                                                 reduce_tasks);
  }
  S3_CHECK_MSG(false, "unhandled job kind");
  return {};
}

sim::WorkloadCost job_cost(const PlannedJob& job) {
  switch (job.kind) {
    case JobKind::kPattern:
      return sim::WorkloadCost::wordcount_normal();
    case JobKind::kCountAll:
      return sim::WorkloadCost::wordcount_heavy();
    case JobKind::kSelection:
      return sim::WorkloadCost::tpch_selection();
  }
  return sim::WorkloadCost::wordcount_normal();
}

}  // namespace s3::e2e
