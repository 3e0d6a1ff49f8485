// The serve workload: a closed loop over an in-process ServeCore.
//
// Three workers serve; one client thread keeps kOutstanding requests in
// flight, so the queue stays occupied while the process uses at most four
// threads. Callers of rsg_serve block on each reply, which is why the loop
// is closed: a slower server receives less load. The request stream is a
// seeded sweep over serve_pool(): about a quarter are exact repeats of a
// recent request (cache hits), about a fifth compact, and the PLA requests
// carry truth tables through the pla encoding parser. Every fresh request
// adds a `bench_request = <n>` line, a distinct cache key with the pool
// member's output.
#include <array>
#include <future>
#include <memory>
#include <thread>

#include "pipeline.hpp"
#include "pla/pla_builder.hpp"
#include "pla/truth_table.hpp"
#include "rsg/serve_core.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kOutstanding = 6;
constexpr std::size_t kPassRequests = 200;  // one pass: 200 consecutive requests
constexpr std::size_t kStreamLength = 100000;
constexpr std::size_t kReplayRequests = 48;  // traced replay list: the first fresh requests
constexpr double kRepeatShare = 0.25;
constexpr double kCompactShare = 0.20;

struct StreamEntry {
  std::size_t member = 0;
  std::size_t nonce = 0;
  bool repeat = false;
};

std::vector<StreamEntry> make_stream(const std::vector<Input>& pool, std::uint64_t seed) {
  std::vector<std::size_t> compacting;
  std::map<std::string, std::vector<std::size_t>> by_design;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (pool[i].compact) {
      compacting.push_back(i);
    } else {
      by_design[pool[i].design].push_back(i);
    }
  }
  std::vector<const std::vector<std::size_t>*> designs;
  for (const auto& [name, members] : by_design) designs.push_back(&members);

  Rng rng(seed ^ 0x5E12Eull);
  std::vector<StreamEntry> stream;
  stream.reserve(kStreamLength);
  for (std::size_t i = 0; i < kStreamLength; ++i) {
    // Repeats reach 8..31 requests back: usually finished, still cached.
    if (i >= 32 && rng.unit() < kRepeatShare) {
      StreamEntry entry = stream[i - 8 - rng.below(24)];
      entry.repeat = true;
      stream.push_back(entry);
    } else if (rng.unit() < kCompactShare / (1.0 - kRepeatShare)) {
      stream.push_back({compacting[rng.below(compacting.size())], i, false});
    } else {
      const std::vector<std::size_t>& members = *designs[rng.below(designs.size())];
      stream.push_back({members[rng.below(members.size())], i, false});
    }
  }
  return stream;
}

rsg::GenerateRequest make_request(const DesignSet& files, const Input& member, std::size_t nonce) {
  const DesignFiles& design = files.at(member.design);
  rsg::GenerateRequest request;
  request.design = member.design;
  request.params = parameter_text(design, member, false) + "bench_request = " +
                   std::to_string(nonce) + "\n";
  request.top_cell = design.top_cell;
  request.truth_table = member.truth_table;
  request.compact = member.compact;
  return request;
}

struct LoopResult {
  std::vector<double> pass_ms;
  std::vector<double> latencies_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> generate_ms;  // responses that were not cache hits
  double busy_ms = 0.0;             // summed generate_ms
  double wall_ms = 0.0;
  std::size_t completed = 0;
};

class ClosedLoop {
 public:
  ClosedLoop(rsg::ServeCore& core, const DesignSet& files, const std::vector<Input>& pool,
             const std::vector<StreamEntry>& stream, Report& report)
      : core_(core), files_(files), pool_(pool), stream_(stream), report_(report) {}

  // Serves the stream on from where the previous run() stopped; spans go
  // to `trace`. `between_passes` runs before every pass but the first.
  template <typename BetweenPasses>
  LoopResult run(double budget_s, Trace& trace, BetweenPasses&& between_passes) {
    LoopResult result;
    run_passes(budget_s, [&] {
      if (!result.pass_ms.empty()) between_passes();
      run_pass(result, trace);
    });
    return result;
  }

  // First CIF served per pool member, and how many responses it had.
  std::map<std::size_t, std::string> first_cif;
  std::map<std::size_t, std::size_t> served;

 private:
  struct Slot {
    std::future<rsg::GenerateResponse> future;
    Clock::time_point submitted;
    std::size_t index = 0;
    bool active = false;
  };

  void submit(Slot& slot) {
    const StreamEntry& entry = stream_[next_ % stream_.size()];
    slot.index = next_++;
    slot.submitted = Clock::now();
    slot.future = core_.submit(make_request(files_, pool_[entry.member], entry.nonce));
    slot.active = true;
  }

  void complete(Slot& slot, int lane, LoopResult& result, Trace& trace) {
    const Clock::time_point ready = Clock::now();
    rsg::GenerateResponse response = slot.future.get();
    slot.active = false;
    const double latency = ms_between(slot.submitted, ready);
    trace.record("rsg.request", static_cast<long>(slot.index), slot.submitted, ready, lane);
    result.latencies_ms.push_back(latency);
    result.queue_wait_ms.push_back(latency - response.generate_ms);
    result.busy_ms += response.generate_ms;
    if (!response.cache_hit) result.generate_ms.push_back(response.generate_ms);
    ++result.completed;
    ++report_.attempted;
    const std::size_t member = stream_[slot.index % stream_.size()].member;
    if (!response.ok) {
      report_.fail(pool_[member].key + ": " + response.error);
      return;
    }
    ++served[member];
    const auto [it, inserted] = first_cif.try_emplace(member, std::move(response.cif));
    if (!inserted && it->second != response.cif) {
      report_.fail(pool_[member].key + ": response differs from an earlier one");
    }
  }

  void run_pass(LoopResult& result, Trace& trace) {
    std::array<Slot, kOutstanding> slots;
    std::size_t submitted = 0;
    std::size_t completed = 0;
    const Clock::time_point start = Clock::now();
    while (completed < kPassRequests) {
      bool progress = false;
      for (std::size_t s = 0; s < slots.size(); ++s) {
        Slot& slot = slots[s];
        if (slot.active &&
            slot.future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
          complete(slot, static_cast<int>(s), result, trace);
          ++completed;
          progress = true;
        }
        if (!slot.active && submitted < kPassRequests) {
          submit(slot);
          ++submitted;
        }
      }
      if (!progress) std::this_thread::yield();
    }
    const double ms = ms_between(start, Clock::now());
    result.pass_ms.push_back(ms);
    result.wall_ms += ms;
  }

  rsg::ServeCore& core_;
  const DesignSet& files_;
  const std::vector<Input>& pool_;
  const std::vector<StreamEntry>& stream_;
  Report& report_;
  std::size_t next_ = 0;
};

double requests_per_s(const LoopResult& loop) {
  return loop.wall_ms > 0.0 ? 1000.0 * static_cast<double>(loop.completed) / loop.wall_ms : 0.0;
}

}  // namespace

Report run_serve_workload(const RunConfig& config) {
  Report report;
  Trace trace(config.trace);
  rsg::ServeOptions options;
  options.num_threads = kWorkers;
  // Serial constraint generation: three workers already fill three cores.
  options.compaction.flat.generation_threads = 1;
  options.encoding_parser = [](const std::string& text) {
    return rsg::pla::to_encoding_table(rsg::pla::TruthTable::parse(text));
  };

  struct State {
    std::unique_ptr<rsg::ServeCore> core;
    DesignSet files;
    CompiledSet compiled;
    std::vector<Input> pool;
    std::vector<StreamEntry> stream;
  };
  SetupLog setup;
  const auto set_up = [&] {
    State state;
    state.core = std::make_unique<rsg::ServeCore>(options);
    state.files = load_designs(config.designs_dir);
    state.compiled = compile_designs(state.files, trace);
    for (const auto& [name, design] : state.compiled) state.core->add_design(name, design);
    state.pool = serve_pool();
    state.stream = make_stream(state.pool, config.seed);
    for (const Input& input : warmup_inputs()) {
      rsg::GenerateRequest request = make_request(state.files, input, 0);
      request.bypass_cache = true;
      const rsg::GenerateResponse response = state.core->handle(request);
      if (!response.ok) report.fail("warm-up " + input.key + ": " + response.error);
    }
    return state;
  };
  State state = setup.run(trace, set_up);
  rsg::ServeCore& core = *state.core;
  const DesignSet& files = state.files;
  const CompiledSet& compiled = state.compiled;
  const std::vector<Input>& pool = state.pool;
  const std::vector<StreamEntry>& stream = state.stream;
  // Later set-ups build a second core between passes, while the serving
  // one is drained, and discard it.
  const auto set_up_again = [&] { setup.run(trace, set_up); };

  Trace untraced(false);
  ClosedLoop loop(core, files, pool, stream, report);
  const LoopResult plain =
      loop.run(config.trace ? config.seconds * 0.35 : config.seconds, untraced, set_up_again);
  const double rss_mb = peak_rss_mb();

  LoopResult traced;
  const rsg::ServeCore::Stats before = core.stats();
  if (config.trace) traced = loop.run(config.seconds * 0.35, trace, set_up_again);
  const rsg::ServeCore::Stats after = core.stats();
  core.stop();

  // Checks, outside the timed loop: every member's CIF reads back, and its
  // digest goes to the pins.
  double area_before = 0.0;
  double area_after = 0.0;
  for (const auto& [member, cif] : loop.first_cif) {
    const Input& input = pool[member];
    double area = 0.0;
    Report::Output& output = report.outputs[input.key];
    output.digest = check_cif(report, input.key, cif, &area);
    output.count = loop.served[member];
    if (!input.compact) continue;
    Input plain_input = input;
    plain_input.compact = false;
    const ItemResult original = run_session(compiled, files, plain_input, options.compaction, false);
    const rsg::Box box = original.result.top->bounding_box();
    const double weight = static_cast<double>(output.count);
    area_before += weight * static_cast<double>(box.hi.x - box.lo.x) *
                   static_cast<double>(box.hi.y - box.lo.y);
    area_after += weight * area;
  }

  Metrics& m = report.metrics;
  if (!config.trace) {
    m["setup_s"] = {median(setup.seconds), "s", std::to_string(setup.seconds.size()) + " set-ups"};
    add_pass_metrics(m, plain.pass_ms, kPassRequests);
    // Measured on its own here: requests completed per second of the loop.
    m["requests_per_s"] = {requests_per_s(plain), "1/s",
                           std::to_string(plain.completed) + " requests completed"};
    add_latency_metrics(m, plain.latencies_ms);
    m["peak_rss_mb"] = {rss_mb, "MB", ""};
    m["area_ratio"] = {area_before > 0.0 ? area_after / area_before : 1.0, "ratio", ""};
    return report;
  }

  // Replay: the first fresh requests of the stream, one at a time through
  // the staged pipeline, attribute a request's time to the layers.
  std::vector<std::size_t> replay;
  for (const StreamEntry& entry : stream) {
    if (replay.size() == kReplayRequests) break;
    if (!entry.repeat) replay.push_back(entry.member);
  }
  std::vector<PassSums> run_sums;
  long request = 0;
  run_passes(config.seconds * 0.3, [&] {
    trace.accumulate_into(&run_sums.emplace_back());
    for (const std::size_t member : replay) {
      const Input& input = pool[member];
      ++report.attempted;
      try {
        const ItemResult item =
            run_staged(compiled, files, input, options.compaction, false, trace, request);
        count_item(trace, item);
        if (!item.flat.empty()) probe_x_pass(trace, item.flat, request);
        const auto served = loop.first_cif.find(member);
        if (served != loop.first_cif.end() && served->second != item.result.output) {
          report.fail(input.key + ": staged pipeline CIF differs from the served one");
        }
      } catch (const std::exception& e) {
        report.fail(input.key + ": " + e.what());
      }
      ++request;
    }
    trace.accumulate_into(nullptr);
  });

  std::map<std::string, double> values = layer_medians(run_sums);
  const std::map<std::string, double> setup_values = layer_medians(setup.sums);
  values.insert(setup_values.begin(), setup_values.end());  // set-up-only keys
  int percentile = 0;
  values["rsg.generate_ms"] = median(traced.generate_ms);
  values["rsg.queue_wait_ms_p50"] = median(traced.queue_wait_ms);
  values["rsg.queue_wait_ms_tail"] = tail_with_ten_beyond(traced.queue_wait_ms, percentile);
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double lookups = hits + static_cast<double>(after.cache.misses - before.cache.misses);
  values["rsg.cache_hit_ratio"] = lookups > 0.0 ? hits / lookups : 0.0;
  values["rsg.worker_busy_ratio"] =
      traced.wall_ms > 0.0 ? traced.busy_ms / (static_cast<double>(kWorkers) * traced.wall_ms) : 0.0;
  values["rsg.shed"] = static_cast<double>(after.shed - before.shed);
  values["trace.overhead_ratio"] = requests_per_s(plain) / requests_per_s(traced) - 1.0;
  values["trace.spans"] = static_cast<double>(trace.span_count());
  add_layer_metrics(m, values);
  m["rsg.queue_wait_ms_tail"].note = tail_note(percentile, traced.queue_wait_ms.size());
  if (!config.trace_path.empty() && !trace.write_chrome(config.trace_path)) {
    report.fail("could not write " + config.trace_path);
  }
  report.self_time_table = trace.self_time_table();
  return report;
}

}  // namespace perfbench
