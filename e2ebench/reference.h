// Sequential reference outputs, computed straight from the generated input
// bytes without the engine: one counting pass per corpus for wordcount, a
// direct row filter per lineitem file for selection. A job's output is
// correct when it equals the reference byte for byte.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/kv.h"
#include "plan.h"

namespace s3::e2e {

// Digest of a job's output: every key and value, in order. A replay keeps
// digests rather than outputs, so that holding a replay's outputs for the
// check does not inflate the memory the benchmark measures.
[[nodiscard]] std::uint64_t output_digest(
    const std::vector<engine::KeyValue>& output);

class Reference {
 public:
  explicit Reference(const World& world);

  // Jobs of `plan` among `digests` whose output digest matches the
  // reference's; prints each mismatch.
  [[nodiscard]] std::size_t count_matching(
      const Plan& plan,
      const std::vector<std::pair<JobId, std::uint64_t>>& digests);

 private:
  using Counts = std::vector<std::pair<std::string, std::uint64_t>>;

  [[nodiscard]] std::uint64_t digest(const PlannedJob& job);
  const Counts& word_counts(std::size_t input);
  std::vector<engine::KeyValue> count_all(std::size_t input);
  std::vector<engine::KeyValue> selection(std::size_t input,
                                          int max_quantity) const;
  [[nodiscard]] std::vector<std::string> payloads(std::size_t input) const;

  const World* world_;
  std::map<std::size_t, Counts> counts_;
  // Reference digest per (kind, prefix, max_quantity, input).
  using DigestKey = std::tuple<JobKind, std::string, int, std::size_t>;
  std::map<DigestKey, std::uint64_t> digests_;
};

}  // namespace s3::e2e
