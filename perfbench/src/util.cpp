#include "util.hpp"

#include <sys/resource.h>

#include <array>
#include <cstdio>

namespace perfbench {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(const std::string& bytes) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::string hex32(std::uint32_t value) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", value);
  return buf;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double tail_with_ten_beyond(const std::vector<double>& values, int& percentile) {
  percentile = 0;
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  // Highest whole percentile p such that at least ten samples lie above
  // the p-th percentile's rank.
  for (int p = 99; p >= 1; --p) {
    const std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank >= 1 && n - rank >= 10) {
      percentile = p;
      return sorted[rank - 1];
    }
  }
  return sorted.back();  // fewer than 11 samples: the maximum
}

double peak_rss_mb() {
  // VmHWM is this process image's own high-water mark. getrusage's
  // ru_maxrss is not: Linux carries the pre-exec peak across execve, so a
  // small workload started from a large parent would report the parent's
  // resident set.
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(status);
    if (kb >= 0) return static_cast<double>(kb) / 1024.0;
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB on Linux
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

}  // namespace perfbench
