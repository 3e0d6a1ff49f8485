// Deterministic fault injection for exercising failure paths.
//
// Robustness claims should be exercised, not asserted: every "degrades
// gracefully" statement in this codebase is backed by a test that ARMS a
// named fault point and drives the real code through the failure. A fault
// point is one line at the failure site:
//
//   if (rsg::fault::fired("snapshot.write_payload")) { /* fail like ENOSPC */ }
//
// Unarmed points cost one relaxed atomic load — safe to leave in production
// builds, which is the point: the tested binary IS the shipped binary.
//
// Arming (tests):   fault::arm("name", {.skip = 2, .count = 1});
//                   fault::ScopedFault guard("name", {...});  // RAII disarm
// Arming (env):     RSG_FAULT_INJECT="name=skip:count,other"  — parsed on
//                   first use, so CLI runs can exercise the same paths.
//
// Registered fault points (the authoritative list: scripts/check_docs.py
// checks that each is used in src/ and armed by a test under tests/, and
// that every name passed to fault::fired is listed here):
//   stream_writer.flush_fail    BoundedTextSink flush fails like a full disk
//   snapshot.write_payload      RSGB payload write fails mid-stream
//   checkpoint.write_payload    RSGC payload write fails mid-stream
//   atomic_file.rename_fail     temp→final rename fails after a good write
//   serve_socket.short_read     socket reads return one byte at a time
//   serve_socket.short_write    socket writes accept one byte at a time
//   serve_socket.eintr_read     socket reads see a synthetic EINTR storm
//   serve_socket.eintr_write    socket writes see a synthetic EINTR storm
//   serve_core.worker_stall     worker sleeps before starting a job
//   serve_core.alloc_fail       request handling throws std::bad_alloc
//   xy_schedule.round_stall     compaction sleeps at each round boundary
#pragma once

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>

namespace rsg::fault {

struct FaultSpec {
  int skip = 0;    // let this many evaluations pass before firing
  int count = 1;   // then fire this many times (< 0 = every time, forever)
  int param = 0;   // site-specific knob (e.g. stall milliseconds)
};

namespace detail {

class Registry {
 public:
  static Registry& instance() {
    static Registry registry;
    return registry;
  }

  void arm(const std::string& name, FaultSpec spec) {
    std::lock_guard<std::mutex> lock(mutex_);
    State& state = points_[name];
    state.spec = spec;
    state.seen = 0;
    state.fired = 0;  // fire_count() reports THIS arming, not history
    state.armed = true;
    recount_locked();
  }

  void disarm(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = points_.find(name);
    if (it != points_.end()) it->second.armed = false;
    recount_locked();
  }

  void disarm_all() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, state] : points_) state.armed = false;
    recount_locked();
  }

  // The hot-path poll. `param_out` (if non-null) receives the armed spec's
  // site-specific knob when the point fires.
  bool fired(const char* name, int* param_out) {
    if (armed_count_.load(std::memory_order_relaxed) == 0) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = points_.find(name);
    if (it == points_.end() || !it->second.armed) return false;
    State& state = it->second;
    const int seen = state.seen++;
    if (seen < state.spec.skip) return false;
    if (state.spec.count >= 0 && seen >= state.spec.skip + state.spec.count) return false;
    ++state.fired;
    if (param_out != nullptr) *param_out = state.spec.param;
    return true;
  }

  // How many times the named point actually fired since it was last armed.
  int fire_count(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = points_.find(name);
    return it == points_.end() ? 0 : it->second.fired;
  }

  // RSG_FAULT_INJECT="name[=skip[:count[:param]]],..." — the env hook that
  // lets a shell drive rsg_cli/rsg_serve through the same failure paths the
  // tests use. Returns the number of points armed (exposed for testing).
  int arm_from_spec(const std::string& text) {
    int armed = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
      std::size_t end = text.find(',', pos);
      if (end == std::string::npos) end = text.size();
      const std::string entry = text.substr(pos, end - pos);
      pos = end + 1;
      if (entry.empty()) continue;
      FaultSpec spec;
      std::string name = entry;
      const std::size_t eq = entry.find('=');
      if (eq != std::string::npos) {
        name = entry.substr(0, eq);
        const std::string numbers = entry.substr(eq + 1);
        int* const fields[] = {&spec.skip, &spec.count, &spec.param};
        std::size_t npos = 0;
        for (int* field : fields) {
          if (npos >= numbers.size()) break;
          std::size_t nend = numbers.find(':', npos);
          if (nend == std::string::npos) nend = numbers.size();
          *field = std::atoi(numbers.substr(npos, nend - npos).c_str());
          npos = nend + 1;
        }
      }
      if (!name.empty()) {
        arm(name, spec);
        ++armed;
      }
    }
    return armed;
  }

 private:
  Registry() {
    if (const char* env = std::getenv("RSG_FAULT_INJECT")) arm_from_spec(env);
  }

  struct State {
    FaultSpec spec;
    bool armed = false;
    int seen = 0;   // evaluations since arming
    int fired = 0;  // times the point actually fired since arming
  };

  void recount_locked() {
    int count = 0;
    for (const auto& [name, state] : points_) count += state.armed ? 1 : 0;
    armed_count_.store(count, std::memory_order_relaxed);
  }

  mutable std::mutex mutex_;
  std::map<std::string, State> points_;
  std::atomic<int> armed_count_{0};
};

}  // namespace detail

// The fault-point poll — place at the failure site. Unarmed: one relaxed
// atomic load, no lock.
inline bool fired(const char* name, int* param_out = nullptr) {
  return detail::Registry::instance().fired(name, param_out);
}

inline void arm(const std::string& name, FaultSpec spec = {}) {
  detail::Registry::instance().arm(name, spec);
}
inline void disarm(const std::string& name) { detail::Registry::instance().disarm(name); }
inline void disarm_all() { detail::Registry::instance().disarm_all(); }
inline int fire_count(const std::string& name) {
  return detail::Registry::instance().fire_count(name);
}
inline int arm_from_spec(const std::string& text) {
  return detail::Registry::instance().arm_from_spec(text);
}

// RAII arming for tests: the fault disarms when the guard leaves scope even
// if the test fails mid-body.
class ScopedFault {
 public:
  explicit ScopedFault(std::string name, FaultSpec spec = {}) : name_(std::move(name)) {
    arm(name_, spec);
  }
  ~ScopedFault() { disarm(name_); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

  int fire_count() const { return fault::fire_count(name_); }

 private:
  std::string name_;
};

}  // namespace rsg::fault
