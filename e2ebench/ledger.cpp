#include "ledger.h"

#include <cstdio>

namespace s3::e2e {
namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double count(std::uint64_t v) { return static_cast<double>(v); }

}  // namespace

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) >= 0x20) out.push_back(ch);
  }
  return out + "\"";
}

std::vector<Metric> layer_metrics(const Phase& traced, const LayerTimes& t,
                                  const Probes& probes,
                                  double untraced_replay_wall_s) {
  const double r = traced.rounds;
  const RoundCounts& c = traced.counts;
  const double wall = traced.wall_s / r;
  const double service_s =
      (t.submit_s + t.poll_s + t.finished_s + t.quota_s) / r;
  const double sched_s =
      (t.arrival_s + t.next_batch_s + t.batch_complete_s + t.flush_s) / r;
  const double engine_s =
      (t.register_s + t.run_batch_s + t.finalize_s + t.counters_s) / r;
  const double clock_s = t.clock_s / r;
  const double unattributed =
      1.0 - (service_s + sched_s + engine_s + clock_s) / wall;

  std::printf("\nlayer ledger (traced, per replay of the plan; %d replays)\n",
              traced.rounds);
  std::printf("  %-36s %12s %8s\n", "driver-thread layer", "seconds", "share");
  const auto row = [&](const char* name, double s) {
    std::printf("  %-36s %12.6f %7.2f%%\n", name, s, 100.0 * s / wall);
  };
  row("service (submit/poll/finished/quota)", service_s);
  row("sched (arrival/next_batch/complete)", sched_s);
  row("engine (register/run_batch/finalize)", engine_s);
  row("sim (decision-clock cost model)", clock_s);
  row("unattributed (benchmark loop)", wall * unattributed);
  row("measured wall", wall);
  std::printf("  %-36s %12s\n", "inside run_batch, on pool threads",
              "thread-s");
  const auto pool_row = [&](const char* name, const WorkerClock& clock) {
    std::printf("  %-36s %12.6f\n", name, clock.seconds() / r);
  };
  pool_row("dfs.fetch", probes.fetch);
  pool_row("workloads.map_fn", probes.map_fn);
  pool_row("workloads.combine_fn", probes.combine_fn);
  pool_row("workloads.reduce_fn", probes.reduce_fn);
  if (unattributed > 0.05) {
    std::printf(
        "ledger: %.2f%% of measured wall is unattributed, more than 5%%: "
        "it is the benchmark loop's own work between layer calls\n",
        100.0 * unattributed);
  } else {
    std::printf("ledger: driver-thread layers reconcile with measured wall "
                "(%.2f%% unattributed)\n",
                100.0 * unattributed);
  }

  const double calls = count(c.submit_calls);
  return {
      {"service.submit_calls", calls, "count"},
      {"service.submit_s", t.submit_s / r, "s"},
      {"service.submit_us_p50", quantile(t.submit_us, 0.50), "us"},
      {"service.submit_us_p99", quantile(t.submit_us, 0.99), "us"},
      {"service.poll_s", t.poll_s / r, "s"},
      {"service.admitted", count(c.admitted), "count"},
      {"service.retry_after", count(c.retry_after), "count"},
      {"service.shed", count(c.shed), "count"},
      {"service.rejected", count(c.rejected), "count"},
      {"service.admit_ratio", ratio(count(c.admitted), calls), "ratio"},
      {"sched.arrival_s", t.arrival_s / r, "s"},
      {"sched.next_batch_s", t.next_batch_s / r, "s"},
      {"sched.next_batch_calls", count(c.next_batch_calls), "count"},
      {"sched.batch_complete_s", t.batch_complete_s / r, "s"},
      {"sched.align_wait_s_p50", quantile(t.align_wait_s, 0.50), "s"},
      {"sched.align_wait_s_p95", quantile(t.align_wait_s, 0.95), "s"},
      {"sched.batches", count(c.batches), "count"},
      {"sched.members_per_batch",
       ratio(count(c.member_slots), count(c.batches)), "ratio"},
      {"sched.sharing_efficiency",
       ratio(count(c.blocks_logical), count(c.blocks_physical)), "ratio"},
      {"sched.modeled_tet_s", c.modeled_tet_s, "s"},
      {"sched.modeled_art_s", c.modeled_art_s, "s"},
      {"engine.register_s", t.register_s / r, "s"},
      {"engine.run_batch_s", t.run_batch_s / r, "s"},
      {"engine.run_batch_ms_p50", quantile(t.run_batch_ms, 0.50), "ms"},
      {"engine.run_batch_ms_p95", quantile(t.run_batch_ms, 0.95), "ms"},
      {"engine.finalize_s", t.finalize_s / r, "s"},
      {"engine.finalize_ms_p95", quantile(t.finalize_ms, 0.95), "ms"},
      {"engine.blocks_physical", count(c.blocks_physical), "count"},
      {"engine.bytes_logical", count(c.bytes_logical), "B"},
      {"engine.map_output_records", count(c.map_output_records), "count"},
      {"engine.reduce_input_groups", count(c.reduce_input_groups), "count"},
      {"engine.logical_gb_per_s",
       ratio(count(c.bytes_logical) * r, t.run_batch_s) / 1e9, "GB/s"},
      {"dfs.fetch_calls", count(probes.fetch.calls.load()) / r, "count"},
      {"dfs.fetch_thread_s", probes.fetch.seconds() / r, "s"},
      {"workloads.map_fn_thread_s", probes.map_fn.seconds() / r, "s"},
      {"workloads.combine_fn_thread_s", probes.combine_fn.seconds() / r, "s"},
      {"workloads.reduce_fn_thread_s", probes.reduce_fn.seconds() / r, "s"},
      {"ledger.unattributed_share", unattributed, "ratio"},
      {"ledger.trace_overhead", wall / untraced_replay_wall_s - 1.0, "ratio"},
  };
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " + value +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace s3::e2e
