// Correctness checks of the benchmark itself, beyond per-job output
// verification: the replay loop against RealDriver::run, the paper's S3/FIFO
// ordering on the real engine, and the reduced-size self-test.
#pragma once

#include <cstdint>
#include <string>

namespace s3::e2e {

// On an all-arrive-at-zero burst RealDriver::run is deterministic: the
// benchmark's loop must form as many batches over the same physical and
// logical blocks and produce byte-identical outputs. Prints one line.
[[nodiscard]] bool parity_check(const std::string& workload,
                                std::uint64_t seed);

// Replays the reduced wc_shared schedule under S3 and FIFO on the real
// engine and prints the S3/FIFO wall TET and ART ratios (paper Fig. 4
// ordering) next to the modeled ones. False if any output is wrong.
[[nodiscard]] bool fifo_comparison(std::uint64_t seed);

// Reduced sizes, every workload: same seed gives identical fingerprints and
// counts, another seed another fingerprint, every output matches the
// reference, and the loop matches RealDriver::run. Returns the exit code.
[[nodiscard]] int selftest();

}  // namespace s3::e2e
