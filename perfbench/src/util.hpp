// Small helpers shared by the benchmark's workloads: clocks, CRC-32,
// quantiles, peak RSS, the seeded generator and JSON text escaping.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// CRC-32 (the zlib polynomial), so a digest can be cross-checked with
// Python's zlib.crc32. Kept here rather than borrowed from the RSGB code so
// a change to the program cannot move the oracle along with the output.
std::uint32_t crc32(const std::string& bytes);

std::string hex32(std::uint32_t value);

// Linear-interpolated quantile of `values` (q in [0, 1]); 0 for no values.
double quantile(std::vector<double> values, double q);

inline double median(const std::vector<double>& values) { return quantile(values, 0.5); }

// The tail: the highest percentile with at least ten samples beyond
// it. `percentile` receives the level used (0 when there are too few
// samples, in which case the maximum is returned).
double tail_with_ten_beyond(const std::vector<double>& values, int& percentile);

// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

// splitmix64: a fully specified generator, so a seed means the same inputs
// on every standard library (std distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  // Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  std::uint64_t state_;
};

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[rng.below(i)]);
}

std::string json_escape(const std::string& text);

// A metric as the report prints it: value, unit and an optional note (the
// tail's percentile and sample count, for instance).
struct Metric {
  double value = 0.0;
  std::string unit;
  std::string note;
};
using Metrics = std::map<std::string, Metric>;

}  // namespace perfbench
