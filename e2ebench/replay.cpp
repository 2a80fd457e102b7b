#include "replay.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <queue>

#include "obs/clock.h"
#include "reference.h"
#include "sched/fifo.h"
#include "sched/s3_scheduler.h"
#include "sched/segment_planner.h"
#include "service/submission_service.h"
#include "sim/cost_model.h"

namespace s3::e2e {
namespace {

// FNV-1a over 64-bit words: the schedule and admission fingerprints.
struct Fingerprint {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void add_time(double t) { add(std::bit_cast<std::uint64_t>(t)); }
};

// Scoped wall timer around one layer call. A null total makes it free of
// clock reads, which is how untraced runs use it.
class Lap {
 public:
  explicit Lap(double* total, std::vector<double>* samples = nullptr,
               double scale = 1.0)
      : total_(total),
        samples_(samples),
        scale_(scale),
        start_ns_(total != nullptr ? obs::now_ns() : 0) {}
  Lap(const Lap&) = delete;
  Lap& operator=(const Lap&) = delete;
  ~Lap() {
    if (total_ == nullptr) return;
    const double s = static_cast<double>(obs::now_ns() - start_ns_) * 1e-9;
    *total_ += s;
    if (samples_ != nullptr) samples_->push_back(s * scale_);
  }

 private:
  double* total_;
  std::vector<double>* samples_;
  double scale_;
  std::uint64_t start_ns_;
};

struct Offer {
  SimTime due = 0.0;
  std::uint64_t seq = 0;
  std::size_t job = 0;
};
struct OfferLater {
  bool operator()(const Offer& a, const Offer& b) const {
    if (a.due != b.due) return a.due > b.due;
    return a.seq > b.seq;
  }
};

std::vector<BlockId> resolve_blocks(const dfs::FileInfo& file,
                                    const sched::Batch& batch) {
  std::vector<BlockId> blocks;
  blocks.reserve(batch.num_blocks);
  const std::uint64_t n = file.blocks.size();
  for (std::uint64_t i = 0; i < batch.num_blocks; ++i) {
    blocks.push_back(
        file.blocks[sched::advance_cursor(batch.start_block, i, n)]);
  }
  return blocks;
}

}  // namespace

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Replayer::Replayer(const Plan& plan, const World& world,
                   engine::LocalEngine& engine, SchedulerKind scheduler,
                   const SpecFactory& make_spec, bool keep_outputs)
    : plan_(&plan),
      world_(&world),
      engine_(&engine),
      scheduler_kind_(scheduler),
      keep_outputs_(keep_outputs) {
  const std::size_t n = plan.jobs.size();
  specs_.resize(n);
  by_id_.assign(n, nullptr);
  for (const PlannedJob& job : plan.jobs) {
    const std::size_t id = job.id.value();
    S3_CHECK_MSG(id < n && by_id_[id] == nullptr, "job ids must be dense");
    by_id_[id] = &job;
    specs_[id] = make_spec(job);
    costs_.emplace(job.id, job_cost(job));
  }
}

RoundResult Replayer::run(LayerTimes* times) {
  const Plan& plan = *plan_;
  const std::size_t n = specs_.size();
  RoundResult result;
  RoundCounts& c = result.counts;
  c.offered = n;
  const auto timer = [times](double LayerTimes::*field) {
    return times != nullptr ? &(times->*field) : nullptr;
  };

  const sim::CostModel cost_model(sim::CostModelParams::paper(),
                                  world_->topology);
  const sched::ClusterStatus status{kMapSlots, kMapSlots};
  std::vector<std::uint64_t> first_due_ns(n, 0);
  std::vector<std::uint64_t> release_ns(n, 0);
  std::vector<char> started(n, 0);
  std::vector<int> offers(n, 0);
  Fingerprint batch_fp;
  Fingerprint admission_fp;
  double completion_sum = 0.0;
  std::string error;
  const engine::ScanCounters scan_before = engine_->scan_counters();

  for (const Episode& episode : plan.episodes) {
    if (!error.empty()) break;
    service::SubmissionService service(plan.service);
    for (const auto& tenant : episode.tenants) {
      const Status s =
          service.register_tenant(tenant.id, tenant.name, tenant.quota);
      S3_CHECK_MSG(s.is_ok(), "tenant registration failed: " << s);
    }
    std::unique_ptr<sched::Scheduler> scheduler;
    if (scheduler_kind_ == SchedulerKind::kS3) {
      sched::S3Options options;
      options.wave_sizing = sched::WaveSizing::kFixedSegments;
      options.blocks_per_segment = plan.segment_blocks;
      scheduler = std::make_unique<sched::S3Scheduler>(
          world_->catalog, options, &world_->topology);
    } else {
      scheduler = std::make_unique<sched::FifoScheduler>(world_->catalog);
    }
    const std::vector<chaos::QuotaFlap>& flaps = episode.flaps;
    std::priority_queue<Offer, std::vector<Offer>, OfferLater> pending;
    std::uint64_t seq = 0;
    for (std::size_t i = episode.begin; i < episode.end; ++i) {
      const PlannedJob& job = plan.jobs[i];
      pending.push(Offer{job.arrival, seq++, job.id.value()});
    }
    const SimTime first_arrival =
        episode.begin < episode.end ? plan.jobs[episode.begin].arrival : 0.0;
    SimTime last_completion = first_arrival;
    std::size_t next_flap = 0;

    const auto next_offer_time = [&] {
      return pending.empty() ? kTimeNever : pending.top().due;
    };
    const auto next_flap_time = [&] {
      return next_flap < flaps.size() ? flaps[next_flap].at : kTimeNever;
    };
    const auto next_event_time = [&] {
      return std::min(next_offer_time(), next_flap_time());
    };
    const auto reoffer = [&](std::size_t job, SimTime at) {
      if (offers[job] < kMaxOffers) pending.push(Offer{at, seq++, job});
    };

    // Applies quota flaps and submits every offer that fell due by `t`, in
    // decision-clock order (a flap lands before any offer at a later time).
    const auto offer_due = [&](SimTime t) {
      while (next_event_time() <= t) {
        if (next_flap_time() <= next_offer_time()) {
          const chaos::QuotaFlap& flap = flaps[next_flap++];
          Lap lap(timer(&LayerTimes::quota_s));
          const Status s = service.set_quota(flap.tenant, flap.quota, flap.at);
          S3_CHECK_MSG(s.is_ok(), "quota flap failed: " << s);
          admission_fp.add(0xf1a9);
          continue;
        }
        const Offer offer = pending.top();
        pending.pop();
        if (first_due_ns[offer.job] == 0) {
          first_due_ns[offer.job] = obs::now_ns();
        }
        ++offers[offer.job];
        const PlannedJob& job = *by_id_[offer.job];
        service::Submission submission;
        submission.tenant = job.tenant;
        submission.spec = specs_[offer.job];
        submission.arrival = offer.due;
        submission.priority = job.priority;
        submission.deadline = job.deadline;
        service::AdmissionDecision decision;
        {
          Lap lap(timer(&LayerTimes::submit_s),
                  times != nullptr ? &times->submit_us : nullptr, 1e6);
          decision = service.submit(submission);
        }
        ++c.submit_calls;
        if (offers[offer.job] == 1 && !decision.admitted()) ++c.refused_first;
        admission_fp.add(offer.job);
        admission_fp.add_time(offer.due);
        admission_fp.add(static_cast<std::uint64_t>(decision.code));
        admission_fp.add_time(decision.retry_after);
        switch (decision.code) {
          case service::AdmitCode::kAdmitted:
            ++c.admitted;
            break;
          case service::AdmitCode::kRetryAfter:
            ++c.retry_after;
            reoffer(offer.job, offer.due + decision.retry_after);
            break;
          case service::AdmitCode::kShed:
            ++c.shed;
            reoffer(offer.job, offer.due + decision.retry_after);
            break;
          case service::AdmitCode::kRejected:
            ++c.rejected;
            break;
        }
        // An admission past the global bound may have displaced a queued
        // submission; its client re-offers it after one backoff step.
        if (decision.admitted() && service.counts().shed > c.shed) {
          const service::ShedRecord victim = service.shed_log().back();
          ++c.shed;
          const std::size_t v = victim.job.value();
          admission_fp.add(0x5bed);
          admission_fp.add(v);
          const auto& backoff = plan.service.backoff;
          const int step =
              std::min(offers[v], static_cast<int>(backoff.cap_exp));
          reoffer(v,
                  victim.at + backoff.base * static_cast<double>(1u << step));
        }
      }
    };

    // Releases admitted work into the engine and the scheduler (Partial Job
    // Initialization when a wave is in flight).
    const auto pump = [&](SimTime t) {
      std::vector<service::AdmittedJob> admitted;
      {
        Lap lap(timer(&LayerTimes::poll_s));
        admitted = service.poll_admitted(t);
      }
      for (auto& released : admitted) {
        const JobId id = released.submission.spec.id;
        const FileId file = released.submission.spec.input;
        admission_fp.add(0x7e1ea5e);
        admission_fp.add(id.value());
        admission_fp.add_time(t);
        Status s = Status::ok();
        {
          Lap lap(timer(&LayerTimes::register_s));
          s = engine_->register_job(std::move(released.submission.spec));
        }
        if (!s.is_ok()) {
          error = "register_job: " + s.to_string();
          return false;
        }
        if (times != nullptr) release_ns[id.value()] = obs::now_ns();
        Lap lap(timer(&LayerTimes::arrival_s));
        scheduler->on_job_arrival(
            sched::JobArrival{id, file, released.submission.priority},
            std::max(released.submission.arrival, t));
      }
      return true;
    };

    const double cpu_start = process_cpu_seconds();
    const std::uint64_t wall_start_ns = obs::now_ns();
    SimTime now = 0.0;
    bool flushed = false;
    while (error.empty()) {
      offer_due(now);
      if (!pump(now)) break;
      std::optional<sched::Batch> batch;
      {
        Lap lap(timer(&LayerTimes::next_batch_s));
        batch = scheduler->next_batch(now, status);
      }
      ++c.next_batch_calls;
      if (!batch.has_value()) {
        if (const auto ready = service.next_ready_time(now);
            ready.has_value() && *ready > now) {
          now = *ready;
          flushed = false;
          continue;
        }
        const SimTime next_offer = next_event_time();
        if (scheduler->pending_jobs() > 0) {
          SimTime wake = kTimeNever;
          if (const auto w = scheduler->next_decision_time();
              w.has_value() && *w > now) {
            wake = *w;
          }
          if (std::min(wake, next_offer) < kTimeNever) {
            now = std::max(now, std::min(wake, next_offer));
            continue;
          }
          if (!flushed) {
            Lap lap(timer(&LayerTimes::flush_s));
            scheduler->flush(now);
            flushed = true;
            continue;
          }
          error = "scheduler deadlock";
          break;
        }
        if (next_offer < kTimeNever) {
          now = std::max(now, next_offer);
          flushed = false;
          continue;
        }
        if (service.queued() > 0) error = "queued work is never released";
        break;
      }
      flushed = false;

      engine::BatchExec exec;
      exec.id = batch->id;
      exec.blocks = resolve_blocks(world_->ns.file(batch->file), *batch);
      exec.jobs = batch->member_jobs();
      if (times != nullptr) {
        const std::uint64_t start_ns = obs::now_ns();
        for (const JobId job : exec.jobs) {
          if (started[job.value()] != 0) continue;
          started[job.value()] = 1;
          times->align_wait_s.push_back(
              static_cast<double>(start_ns - release_ns[job.value()]) * 1e-9);
        }
      }
      StatusOr<engine::BatchOutcome> outcome = Status::internal("not run");
      {
        Lap lap(timer(&LayerTimes::run_batch_s),
                times != nullptr ? &times->run_batch_ms : nullptr, 1e3);
        outcome = engine_->run_batch(exec);
      }
      if (!outcome.is_ok()) {
        error = "run_batch: " + outcome.status().to_string();
        break;
      }
      if (!outcome.value().quarantined.empty() ||
          !outcome.value().nodes_died.empty()) {
        error = "fault recovery in a fault-free run";
        break;
      }
      {
        Lap lap(timer(&LayerTimes::clock_s));
        now += cost_model
                   .batch_cost(*batch, costs_, batch->excluded_nodes, nullptr)
                   .total;
      }
      ++c.batches;
      c.member_slots += batch->members.size();
      batch_fp.add(batch->file.value());
      batch_fp.add(batch->start_block);
      batch_fp.add(batch->num_blocks);
      for (const auto& member : batch->members) {
        batch_fp.add(member.job.value());
        batch_fp.add(member.blocks);
        batch_fp.add(member.completes ? 1 : 0);
      }
      batch_fp.add_time(now);

      // Arrivals that fell due during the batch join before it completes.
      offer_due(now);
      if (!pump(now)) break;
      {
        Lap lap(timer(&LayerTimes::batch_complete_s));
        scheduler->on_batch_complete(batch->id, now);
      }
      for (const JobId job : batch->completed_jobs()) {
        {
          Lap lap(timer(&LayerTimes::counters_s));
          const engine::JobCounters& counters = engine_->counters(job);
          c.map_output_records += counters.map_output_records;
          c.reduce_input_groups += counters.reduce_input_groups;
        }
        StatusOr<engine::JobResult> output = Status::internal("not run");
        {
          Lap lap(timer(&LayerTimes::finalize_s),
                  times != nullptr ? &times->finalize_ms : nullptr, 1e3);
          output = engine_->finalize_job(job);
        }
        if (!output.is_ok()) {
          error = "finalize_job: " + output.status().to_string();
          break;
        }
        const std::uint64_t done_ns = obs::now_ns();
        result.latency_s.push_back(
            static_cast<double>(done_ns - first_due_ns[job.value()]) * 1e-9);
        ++c.completed;
        completion_sum += now - by_id_[job.value()]->arrival;
        last_completion = now;
        result.digests.emplace_back(job, output_digest(output.value().output));
        if (keep_outputs_) {
          result.outputs.emplace_back(job, std::move(output).value());
        }
        Lap lap(timer(&LayerTimes::finished_s));
        service.on_job_finished(job);
      }
    }
    result.wall_s += obs::seconds_since(wall_start_ns);
    result.cpu_s += process_cpu_seconds() - cpu_start;
    c.modeled_tet_s += last_completion - first_arrival;
  }

  const engine::ScanCounters scan = engine_->scan_counters();
  c.blocks_physical = scan.blocks_physical - scan_before.blocks_physical;
  c.blocks_logical = scan.blocks_logical - scan_before.blocks_logical;
  c.bytes_logical = scan.bytes_logical - scan_before.bytes_logical;
  c.modeled_art_s =
      c.completed > 0 ? completion_sum / static_cast<double>(c.completed) : 0.0;
  c.batch_fp = batch_fp.h;
  c.admission_fp = admission_fp.h;
  result.error = std::move(error);
  return result;
}

}  // namespace s3::e2e
