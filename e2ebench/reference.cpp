#include "reference.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <unordered_map>

#include "common/status.h"

namespace s3::e2e {
namespace {

// Calls fn for every '\n'-terminated (or final) line of a payload.
template <typename Fn>
void for_each_line(const std::string& payload, Fn&& fn) {
  std::size_t begin = 0;
  while (begin < payload.size()) {
    std::size_t end = payload.find('\n', begin);
    if (end == std::string::npos) end = payload.size();
    fn(std::string_view(payload).substr(begin, end - begin));
    begin = end + 1;
  }
}

std::vector<std::string_view> split(std::string_view row, char sep) {
  std::vector<std::string_view> fields;
  std::size_t begin = 0;
  while (true) {
    const std::size_t end = row.find(sep, begin);
    fields.push_back(row.substr(begin, end == std::string_view::npos
                                           ? std::string_view::npos
                                           : end - begin));
    if (end == std::string_view::npos) break;
    begin = end + 1;
  }
  return fields;
}

}  // namespace

Reference::Reference(const World& world) : world_(&world) {}

std::uint64_t output_digest(const std::vector<engine::KeyValue>& output) {
  std::uint64_t h = 1469598103934665603ULL ^ output.size();
  for (const engine::KeyValue& kv : output) {
    h = (h ^ engine::fast_hash(kv.key)) * 1099511628211ULL;
    h = (h ^ engine::fast_hash(kv.value)) * 1099511628211ULL;
  }
  return h;
}

std::size_t Reference::count_matching(
    const Plan& plan,
    const std::vector<std::pair<JobId, std::uint64_t>>& digests) {
  std::vector<const PlannedJob*> by_id(plan.jobs.size(), nullptr);
  for (const PlannedJob& job : plan.jobs) by_id.at(job.id.value()) = &job;
  std::size_t matching = 0;
  for (const auto& [id, got] : digests) {
    const std::size_t i = id.value();
    if (i < by_id.size() && digest(*by_id[i]) == got) {
      ++matching;
    } else {
      std::printf("MISMATCH: job %llu output differs from the reference\n",
                  static_cast<unsigned long long>(id.value()));
    }
  }
  return matching;
}

std::vector<std::string> Reference::payloads(std::size_t input) const {
  std::vector<std::string> out;
  const dfs::FileInfo& file = world_->ns.file(world_->files.at(input));
  for (const BlockId block : file.blocks) {
    auto payload = world_->store.get(block);
    S3_CHECK_MSG(payload.is_ok(),
                 "reference read failed: " << payload.status());
    out.push_back(*payload.value());
  }
  return out;
}

const Reference::Counts& Reference::word_counts(std::size_t input) {
  auto it = counts_.find(input);
  if (it != counts_.end()) return it->second;
  std::unordered_map<std::string, std::uint64_t> tally;
  for (const std::string& payload : payloads(input)) {
    for_each_line(payload, [&](std::string_view line) {
      for (const std::string_view word : split(line, ' ')) {
        if (!word.empty()) ++tally[std::string(word)];
      }
    });
  }
  Counts counts(tally.begin(), tally.end());
  std::sort(counts.begin(), counts.end());
  return counts_.emplace(input, std::move(counts)).first->second;
}

std::vector<engine::KeyValue> Reference::count_all(std::size_t input) {
  // The heavy mapper emits every word once as itself and once tagged "#1".
  std::vector<engine::KeyValue> out;
  for (const auto& [word, count] : word_counts(input)) {
    out.push_back({word, std::to_string(count)});
    out.push_back({word + "#1", std::to_string(count)});
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<engine::KeyValue> Reference::selection(std::size_t input,
                                                   int max_quantity) const {
  // SELECT l_orderkey:l_linenumber, l_quantity|l_extendedprice
  // WHERE l_quantity <= max_quantity.
  std::vector<engine::KeyValue> out;
  for (const std::string& payload : payloads(input)) {
    for_each_line(payload, [&](std::string_view line) {
      const auto fields = split(line, '|');
      if (fields.size() < 16) return;
      int quantity = 0;
      std::from_chars(fields[4].data(), fields[4].data() + fields[4].size(),
                      quantity);
      if (quantity > max_quantity) return;
      out.push_back({std::string(fields[0]) + ":" + std::string(fields[3]),
                     std::string(fields[4]) + "|" + std::string(fields[5])});
    });
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t Reference::digest(const PlannedJob& job) {
  const DigestKey key{job.kind, job.prefix, job.max_quantity, job.input};
  const auto it = digests_.find(key);
  if (it != digests_.end()) return it->second;
  std::vector<engine::KeyValue> expected;
  switch (job.kind) {
    case JobKind::kCountAll:
      expected = count_all(job.input);
      break;
    case JobKind::kSelection:
      expected = selection(job.input, job.max_quantity);
      break;
    case JobKind::kPattern: {
      const Counts& counts = word_counts(job.input);
      for (auto w = std::lower_bound(
               counts.begin(), counts.end(),
               std::make_pair(job.prefix, std::uint64_t{0}));
           w != counts.end() && w->first.starts_with(job.prefix); ++w) {
        expected.push_back({w->first, std::to_string(w->second)});
      }
      break;
    }
  }
  return digests_.emplace(key, output_digest(expected)).first->second;
}

}  // namespace s3::e2e
