// Decorators for the traced run: the engine calls back into a BlockSource,
// into each job's Mapper, combiner and Reducer from its pool workers. These
// wrappers time those callbacks (thread-seconds summed over workers) without
// changing what they compute. Each wrapper instance is driven by one worker
// thread, so it sums locally and publishes once, when the task drops it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "dfs/block_source.h"
#include "engine/job.h"
#include "engine/mapper.h"
#include "obs/clock.h"

namespace s3::e2e {

struct WorkerClock {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};

  void add(std::uint64_t nanos, std::uint64_t n) {
    ns.fetch_add(nanos, std::memory_order_relaxed);
    calls.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] double seconds() const {
    return static_cast<double>(ns.load(std::memory_order_relaxed)) * 1e-9;
  }
};

struct Probes {
  WorkerClock fetch;       // dfs: BlockSource::fetch
  WorkerClock map_fn;      // workloads: Mapper::map + finish
  WorkerClock combine_fn;  // workloads: combiner Reducer::reduce
  WorkerClock reduce_fn;   // workloads: Reducer::reduce

  void reset() {
    for (WorkerClock* clock : {&fetch, &map_fn, &combine_fn, &reduce_fn}) {
      clock->ns = 0;
      clock->calls = 0;
    }
  }
};

class TimedSource final : public dfs::BlockSource {
 public:
  TimedSource(const dfs::BlockSource& inner, WorkerClock& clock)
      : inner_(&inner), clock_(&clock) {}
  [[nodiscard]] StatusOr<dfs::Payload> fetch(BlockId block) const override {
    const std::uint64_t start = obs::now_ns();
    StatusOr<dfs::Payload> payload = inner_->fetch(block);
    clock_->add(obs::now_ns() - start, 1);
    return payload;
  }

 private:
  const dfs::BlockSource* inner_;
  WorkerClock* clock_;
};

class TimedMapper final : public engine::Mapper {
 public:
  TimedMapper(std::unique_ptr<engine::Mapper> inner, WorkerClock& clock)
      : inner_(std::move(inner)), clock_(&clock) {}
  ~TimedMapper() override { clock_->add(ns_, calls_); }
  void map(const dfs::Record& record, engine::Emitter& out) override {
    const std::uint64_t start = obs::now_ns();
    inner_->map(record, out);
    ns_ += obs::now_ns() - start;
    ++calls_;
  }
  void finish(engine::Emitter& out) override {
    const std::uint64_t start = obs::now_ns();
    inner_->finish(out);
    ns_ += obs::now_ns() - start;
  }

 private:
  std::unique_ptr<engine::Mapper> inner_;
  WorkerClock* clock_;
  std::uint64_t ns_ = 0;
  std::uint64_t calls_ = 0;
};

class TimedReducer final : public engine::Reducer {
 public:
  TimedReducer(std::unique_ptr<engine::Reducer> inner, WorkerClock& clock)
      : inner_(std::move(inner)), clock_(&clock) {}
  ~TimedReducer() override { clock_->add(ns_, calls_); }
  void reduce(std::string_view key,
              const std::vector<std::string_view>& values,
              engine::Emitter& out) override {
    const std::uint64_t start = obs::now_ns();
    inner_->reduce(key, values, out);
    ns_ += obs::now_ns() - start;
    ++calls_;
  }

 private:
  std::unique_ptr<engine::Reducer> inner_;
  WorkerClock* clock_;
  std::uint64_t ns_ = 0;
  std::uint64_t calls_ = 0;
};

// The same job with its user functions wrapped in the timers above.
[[nodiscard]] inline engine::JobSpec traced_spec(engine::JobSpec spec,
                                                 Probes& probes) {
  spec.mapper_factory = [inner = std::move(spec.mapper_factory), &probes] {
    return std::make_unique<TimedMapper>(inner(), probes.map_fn);
  };
  spec.reducer_factory = [inner = std::move(spec.reducer_factory), &probes] {
    return std::make_unique<TimedReducer>(inner(), probes.reduce_fn);
  };
  if (spec.combiner_factory != nullptr) {
    spec.combiner_factory = [inner = std::move(spec.combiner_factory),
                             &probes] {
      return std::make_unique<TimedReducer>(inner(), probes.combine_fn);
    };
  }
  return spec;
}

}  // namespace s3::e2e
