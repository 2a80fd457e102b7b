#include "checks.h"

#include <cstdio>
#include <vector>

#include "core/real_driver.h"
#include "harness.h"
#include "sched/s3_scheduler.h"

namespace s3::e2e {

bool parity_check(const std::string& workload, std::uint64_t seed) {
  const Plan plan = zero_burst(make_plan(workload, seed, /*reduced=*/true), 16);
  const auto world = build_world(plan);
  const dfs::StoredBlocks source(world->store);
  const auto spec = [&](const PlannedJob& job) {
    return make_spec(job, *world, plan.reduce_tasks);
  };

  engine::LocalEngine ours_engine(world->ns, source, engine_options());
  Replayer replayer(plan, *world, ours_engine, SchedulerKind::kS3, spec,
                    /*keep_outputs=*/true);
  const RoundResult ours = replayer.run(nullptr);

  engine::LocalEngine theirs_engine(world->ns, source, engine_options());
  sched::S3Options options;
  options.wave_sizing = sched::WaveSizing::kFixedSegments;
  options.blocks_per_segment = plan.segment_blocks;
  sched::S3Scheduler scheduler(world->catalog, options, &world->topology);
  core::RealDriverOptions driver_options;
  driver_options.map_slots = kMapSlots;
  core::RealDriver driver(world->ns, theirs_engine, world->catalog,
                          driver_options);
  std::vector<core::RealJob> jobs;
  for (const PlannedJob& job : plan.jobs) jobs.push_back({spec(job), 0.0, 0});
  const auto theirs = driver.run(scheduler, std::move(jobs));

  if (!ours.error.empty() || !theirs.is_ok()) {
    std::printf("parity %s: FAILED (%s)\n", workload.c_str(),
                !ours.error.empty() ? ours.error.c_str()
                                    : theirs.status().to_string().c_str());
    return false;
  }
  const core::RealRunResult& r = theirs.value();
  std::size_t identical = 0;
  for (const auto& [job, result] : ours.outputs) {
    const auto it = r.outputs.find(job);
    if (it != r.outputs.end() && it->second.output == result.output) {
      ++identical;
    }
  }
  const bool ok = ours.counts.batches == r.batches_run &&
                  ours.counts.blocks_physical == r.scan.blocks_physical &&
                  ours.counts.blocks_logical == r.scan.blocks_logical &&
                  ours.outputs.size() == r.outputs.size() &&
                  identical == ours.outputs.size();
  const auto u = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  std::printf(
      "parity %s: loop batches=%llu physical=%llu logical=%llu | "
      "RealDriver::run batches=%llu physical=%llu logical=%llu | "
      "identical outputs %zu/%zu -> %s\n",
      workload.c_str(), u(ours.counts.batches), u(ours.counts.blocks_physical),
      u(ours.counts.blocks_logical), u(r.batches_run),
      u(r.scan.blocks_physical), u(r.scan.blocks_logical), identical,
      ours.outputs.size(), ok ? "ok" : "FAILED");
  return ok;
}

bool fifo_comparison(std::uint64_t seed) {
  const auto setup = set_up("wc_shared", seed, /*reduced=*/true);
  Reference reference(*setup->world);
  Replayer fifo(setup->plan, *setup->world, *setup->engine,
                SchedulerKind::kFifo, plain_specs(*setup));
  // Interleaved S3/FIFO replays; medians of three each.
  std::vector<double> tet[2];
  std::vector<double> art[2];
  RoundCounts modeled[2];
  bool ok = true;
  for (int rep = 0; rep < 6; ++rep) {
    const int which = rep % 2;
    const RoundResult r = (which == 0 ? *setup->replayer : fifo).run(nullptr);
    ok = ok && r.error.empty() &&
         reference.count_matching(setup->plan, r.digests) ==
             setup->plan.jobs.size();
    double sum = 0.0;
    for (const double latency : r.latency_s) sum += latency;
    tet[which].push_back(r.wall_s);
    art[which].push_back(sum / static_cast<double>(r.latency_s.size()));
    modeled[which] = r.counts;
  }
  std::printf(
      "fig4 ordering (reduced wc_shared, %zu jobs, real engine): "
      "S3/FIFO wall TET = %.3f, wall ART = %.3f; modeled TET = %.3f, "
      "modeled ART = %.3f; outputs %s\n",
      setup->plan.jobs.size(), median(tet[0]) / median(tet[1]),
      median(art[0]) / median(art[1]),
      modeled[0].modeled_tet_s / modeled[1].modeled_tet_s,
      modeled[0].modeled_art_s / modeled[1].modeled_art_s,
      ok ? "verified" : "WRONG");
  return ok;
}

int selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  for (const std::string workload : {"wc_shared", "tpch_stream", "s3d_storm"}) {
    RoundCounts counts[3];
    for (int run = 0; run < 3; ++run) {
      const std::uint64_t seed = run < 2 ? 1 : 2;
      const auto setup = set_up(workload, seed, /*reduced=*/true);
      Reference reference(*setup->world);
      const RoundResult r = setup->replayer->run(nullptr);
      counts[run] = r.counts;
      expect(r.error.empty() &&
                 reference.count_matching(setup->plan, r.digests) ==
                     setup->plan.jobs.size(),
             workload + " seed " + std::to_string(seed) +
                 ": every job completed with the reference output");
      print_counts("  " + workload, r.counts);
    }
    expect(counts[0] == counts[1],
           workload + ": same seed, identical fingerprints and counts");
    expect(counts[0].batch_fp != counts[2].batch_fp &&
               counts[0].admission_fp != counts[2].admission_fp,
           workload + ": another seed, another fingerprint");
    expect(parity_check(workload, 1),
           workload + ": loop matches RealDriver::run on a zero-time burst");
  }
  std::printf("selftest: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace s3::e2e
