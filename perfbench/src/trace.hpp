// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code around each call into a
// layer of the program (the program itself carries no tracing). A span's
// name is "<layer>.<what>", e.g. "lang.interp"; its duration is summed into
// the current pass under "<name>_ms", and counters recorded at the same
// boundaries are summed under their own names. Everything stays in memory
// and is written once, at exit, as Chrome trace-event JSON plus a self-time
// table. With tracing disabled every call returns at its first branch.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "util.hpp"

namespace perfbench {

// Per-pass sums: one map per pass of the workload's input list.
using PassSums = std::map<std::string, double>;

// Median over passes of every key any pass recorded (missing keys count 0).
std::map<std::string, double> pass_medians(const std::vector<PassSums>& passes);

class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  // Sums of closed spans and counters go into `sums` (nullptr: nowhere).
  void accumulate_into(PassSums* sums) { sums_ = sums; }

  // Opens a span under the innermost open span; returns its id (-1 when
  // tracing is off). Spans must close in LIFO order.
  int open(const char* name, long request);
  void close(int id);

  // A span timed elsewhere (the serve loop's submit-to-ready interval); it
  // has no parent and is drawn on lane `lane`.
  void record(const char* name, long request, Clock::time_point start, Clock::time_point end,
              int lane);

  void count(const std::string& name, double value);

  std::size_t span_count() const { return spans_.size(); }

  // Chrome trace-event JSON (chrome://tracing, Perfetto). Returns false if
  // the file could not be written.
  bool write_chrome(const std::string& path) const;

  // Per span name and per layer: spans, total ms, self ms (duration minus
  // the part of it covered by child spans).
  std::string self_time_table() const;

  class Scope {
   public:
    Scope(Trace& trace, const char* name, long request)
        : trace_(trace), id_(trace.open(name, request)) {}
    ~Scope() { trace_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& trace_;
    int id_;
  };

 private:
  struct Span {
    std::string name;
    long request = -1;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    int lane = 0;
  };

  double now_us() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  PassSums* sums_ = nullptr;
};

}  // namespace perfbench
