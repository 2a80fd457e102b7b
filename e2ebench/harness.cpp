#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace s3::e2e {

std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

engine::LocalEngineOptions engine_options() {
  engine::LocalEngineOptions options;
  options.map_workers = host_cpus();
  options.reduce_workers = host_cpus();
  options.pin_cores = false;
  return options;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

SpecFactory plain_specs(const Setup& setup) {
  return [&setup](const PlannedJob& job) {
    return make_spec(job, *setup.world, setup.plan.reduce_tasks);
  };
}

std::unique_ptr<Setup> set_up(const std::string& workload, std::uint64_t seed,
                              bool reduced) {
  auto setup = std::make_unique<Setup>();
  setup->plan = make_plan(workload, seed, reduced);
  setup->world = build_world(setup->plan);
  setup->source = std::make_unique<dfs::StoredBlocks>(setup->world->store);
  setup->engine = std::make_unique<engine::LocalEngine>(
      setup->world->ns, *setup->source, engine_options());
  setup->replayer = std::make_unique<Replayer>(
      setup->plan, *setup->world, *setup->engine, SchedulerKind::kS3,
      plain_specs(*setup));
  const RoundResult warm = setup->replayer->run(nullptr);
  S3_CHECK_MSG(warm.error.empty(), "warm-up replay failed: " << warm.error);
  return setup;
}

Phase measure(Replayer& replayer, const Plan& plan, Reference& reference,
              double seconds, int min_rounds, LayerTimes* times) {
  Phase phase;
  std::vector<std::vector<double>> latencies;  // per replay
  while (true) {
    const RoundResult round = replayer.run(times);
    ++phase.rounds;
    phase.wall_s += round.wall_s;
    phase.offered += round.counts.offered;
    const double completed = static_cast<double>(round.latency_s.size());
    phase.latency_samples += round.latency_s.size();
    phase.jobs_per_s.push_back(completed / round.wall_s);
    latencies.push_back(round.latency_s);
    phase.cpu_s_per_job.push_back(round.cpu_s / std::max(1.0, completed));
    if (!round.error.empty()) {
      phase.error = round.error;
      break;
    }
    if (phase.rounds == 1) {
      phase.counts = round.counts;
    } else if (!(round.counts == phase.counts)) {
      phase.counts_repeat = false;
    }
    phase.verified += reference.count_matching(plan, round.digests);
    if (phase.wall_s >= seconds && phase.rounds >= min_rounds) break;
  }
  // Windows of kLatencyWindow replays; a short last window joins the one
  // before it.
  const std::size_t n = latencies.size();
  const std::size_t step = kLatencyWindow;
  const std::size_t windows = std::max<std::size_t>(1, n / step);
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> pooled;
    const std::size_t end = w + 1 == windows ? n : (w + 1) * step;
    for (std::size_t r = w * step; r < end; ++r) {
      pooled.insert(pooled.end(), latencies[r].begin(), latencies[r].end());
    }
    phase.latency_p50_s.push_back(quantile(pooled, 0.50));
    phase.latency_p95_s.push_back(quantile(pooled, 0.95));
  }
  return phase;
}

void print_counts(const std::string& label, const RoundCounts& c) {
  const auto u = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  std::printf(
      "%s: batch_fp=%016llx admission_fp=%016llx offered=%llu "
      "completed=%llu submits=%llu refused_first=%llu admitted=%llu "
      "retry_after=%llu shed=%llu rejected=%llu batches=%llu "
      "member_slots=%llu blocks_physical=%llu blocks_logical=%llu "
      "bytes_logical=%llu map_output_records=%llu reduce_input_groups=%llu "
      "modeled_tet_s=%.17g modeled_art_s=%.17g\n",
      label.c_str(), u(c.batch_fp), u(c.admission_fp), u(c.offered),
      u(c.completed), u(c.submit_calls), u(c.refused_first), u(c.admitted),
      u(c.retry_after), u(c.shed), u(c.rejected), u(c.batches),
      u(c.member_slots), u(c.blocks_physical), u(c.blocks_logical),
      u(c.bytes_logical), u(c.map_output_records), u(c.reduce_input_groups),
      c.modeled_tet_s, c.modeled_art_s);
}

}  // namespace s3::e2e
