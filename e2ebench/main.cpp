// s3_e2ebench — end-to-end benchmark of the shared-scan stack (service →
// scheduler → engine) on a seed-fixed schedule.
//
//   s3_e2ebench --workload wc_shared|tpch_stream|s3d_storm --seed N
//               --seconds S --trace 0|1 [--git-sha SHA]
//   s3_e2ebench --selftest
//
// A run checks the replay loop against RealDriver::run on a zero-time burst,
// sets up three times (inputs, engine, warm-up replay) keeping the last,
// then replays the workload's plan until S seconds of replay wall time have
// passed, checking every output against a sequential reference after each
// replay. With --trace 1 it splits S between an untraced and a traced phase
// and reports the per-layer ledger instead. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; the exit code is
// non-zero when any check fails.
#include <malloc.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "checks.h"
#include "harness.h"
#include "ledger.h"
#include "obs/clock.h"
#include "probes.h"

namespace {

using namespace s3;
using namespace s3::e2e;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string git_sha = "unknown";
  bool selftest = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      return false;
    }
  }
  return args.selftest ||
         (known_workload(args.workload) && args.seconds > 0 &&
          (args.trace == 0 || args.trace == 1));
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002 + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    const char* text = reinterpret_cast<const char*>(regs);
    const std::string brand(text, strnlen(text, sizeof(regs)));
    const auto first = brand.find_first_not_of(' ');
    if (first != std::string::npos) return brand.substr(first);
  }
#endif
  return "unknown";
}

void print_host(const Args& args) {
  const engine::LocalEngineOptions pools = engine_options();
  std::printf(
      "host {\"nproc\": %zu, \"cpu_model\": %s, \"compiler\": %s, "
      "\"build_type\": %s, \"git_sha\": %s, \"map_workers\": %zu, "
      "\"reduce_workers\": %zu, \"pin_cores\": false}\n",
      host_cpus(), json_string(cpu_model()).c_str(),
      json_string(S3_E2E_COMPILER).c_str(),
      json_string(S3_E2E_BUILD_TYPE).c_str(),
      json_string(args.git_sha).c_str(), pools.map_workers,
      pools.reduce_workers);
}

// The traced phase: the same plan on an engine whose block source and job
// functions are wrapped in timers, with every driver-thread call timed.
Phase traced_phase(const Setup& setup, Reference& reference, double seconds,
                   Probes& probes, LayerTimes& times) {
  const TimedSource timed_source(*setup.source, probes.fetch);
  engine::LocalEngine engine(setup.world->ns, timed_source, engine_options());
  Replayer replayer(setup.plan, *setup.world, engine, SchedulerKind::kS3,
                    [&](const PlannedJob& job) {
                      return traced_spec(plain_specs(setup)(job), probes);
                    });
  const RoundResult warm = replayer.run(nullptr);
  S3_CHECK_MSG(warm.error.empty(), "warm-up replay failed: " << warm.error);
  probes.reset();
  return measure(replayer, setup.plan, reference, seconds, 3, &times);
}

int run(const Args& args) {
  print_host(args);
  bool correct = parity_check(args.workload, args.seed);

  // Set up three times, keep the last, report the median. Memory the
  // discarded set-ups freed is handed back first, so that peak RSS measures
  // one set-up and its replays rather than allocator leftovers.
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < 3; ++i) {
    setup.reset();
    malloc_trim(0);
    const std::uint64_t start = obs::now_ns();
    setup = set_up(args.workload, args.seed, /*reduced=*/false);
    setup_s.push_back(obs::seconds_since(start));
  }
  Reference reference(*setup->world);

  const bool traced = args.trace == 1;
  const Phase phase =
      measure(*setup->replayer, setup->plan, reference,
              traced ? args.seconds / 2 : args.seconds, 3, nullptr);
  std::vector<Phase> phases = {phase};
  Probes probes;
  LayerTimes times;
  if (traced) {
    phases.push_back(
        traced_phase(*setup, reference, args.seconds / 2, probes, times));
  }

  std::uint64_t attempted = 0;
  std::uint64_t verified = 0;
  for (const Phase& p : phases) {
    attempted += p.offered;
    verified += p.verified;
    if (!p.error.empty()) {
      std::printf("ERROR: replay failed: %s\n", p.error.c_str());
      correct = false;
    }
    if (!p.counts_repeat || !(p.counts == phase.counts)) {
      std::printf("ERROR: a replay of the same plan formed another schedule\n");
      correct = false;
    }
  }
  correct = correct && verified == attempted;
  print_counts("schedule", phase.counts);
  std::printf(
      "replays=%d measured_wall_s=%.6f latency_samples=%zu (%llu per "
      "replay, %zu windows, at least %llu beyond each window's p95) "
      "verified=%llu/%llu\n",
      phase.rounds, phase.wall_s, phase.latency_samples,
      static_cast<unsigned long long>(phase.counts.completed),
      phase.latency_p95_s.size(),
      static_cast<unsigned long long>(phase.counts.completed *
                                      kLatencyWindow / 20),
      static_cast<unsigned long long>(verified),
      static_cast<unsigned long long>(attempted));
  std::printf("setup_s samples:");
  for (const double s : setup_s) std::printf(" %.6f", s);
  std::printf("\n");

  std::vector<Metric> metrics;
  if (traced) {
    metrics = layer_metrics(phases.back(), times, probes,
                            phase.wall_s / phase.rounds);
    if (args.workload == "wc_shared") {
      correct = fifo_comparison(args.seed) && correct;
    }
  } else {
    metrics = {
        {"jobs_per_s", median(phase.jobs_per_s), "jobs/s"},
        {"latency_p50_s", median(phase.latency_p50_s), "s"},
        {"latency_p95_s", median(phase.latency_p95_s), "s"},
        {"cpu_s_per_job", median(phase.cpu_s_per_job), "s"},
        {"completed_frac",
         static_cast<double>(phase.verified) /
             static_cast<double>(std::max<std::uint64_t>(1, phase.offered)),
         "ratio"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
    };
  }
  print_result(correct, attempted, attempted - verified, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool parsed = false;
  try {
    parsed = parse_args(argc, argv, args);
  } catch (const std::exception&) {
    parsed = false;
  }
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: s3_e2ebench --workload "
                 "wc_shared|tpch_stream|s3d_storm --seed N --seconds S "
                 "--trace 0|1 [--git-sha SHA]\n"
                 "       s3_e2ebench --selftest\n");
    return 2;
  }
  if (args.selftest) return selftest();
  return run(args);
}
