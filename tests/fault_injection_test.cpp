// The hardening stack: fault-injection registry semantics, crash-safe
// (temp → fsync → rename) persistence under injected failures, deadline
// propagation and cooperative cancellation through the pipeline, ServeCore
// admission control and drain/abort shutdown, the retrying socket client,
// and the SIGTERM drain path. Every registered fault point in
// support/fault_injection.hpp is armed by some test here.
#include "support/fault_injection.hpp"

#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "compact/synth_design.hpp"
#include "compact/xy_schedule.hpp"
#include "io/atomic_file.hpp"
#include "io/checkpoint.hpp"
#include "io/cif_writer.hpp"
#include "io/param_file.hpp"
#include "io/snapshot.hpp"
#include "lang/interp.hpp"
#include "rsg/pipeline.hpp"
#include "rsg/serve_core.hpp"
#include "rsg/serve_socket.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/status.hpp"

namespace rsg {
namespace {

using compact::CompactionRules;
using compact::SynthField;
using compact::XyCheckpoint;
using compact::XyScheduleOptions;
using compact::XyScheduleResult;
using compact::compact_flat_schedule;
using compact::make_random_field;

bool file_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> list_dir(const std::string& dir) {
  std::vector<std::string> names;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") names.push_back(name);
    }
    ::closedir(d);
  }
  return names;
}

// Every test leaves the global registry clean even on failure.
class FaultInjectionTest : public testing::Test {
 protected:
  void TearDown() override { fault::disarm_all(); }
};

// ---------------------------------------------------------------------------
// Registry semantics

TEST_F(FaultInjectionTest, SkipCountWindowAndParam) {
  fault::arm("test.window", {/*skip=*/2, /*count=*/2, /*param=*/7});
  int param = 0;
  EXPECT_FALSE(fault::fired("test.window", &param));  // skip 1
  EXPECT_FALSE(fault::fired("test.window", &param));  // skip 2
  EXPECT_TRUE(fault::fired("test.window", &param));   // fire 1
  EXPECT_EQ(param, 7);
  EXPECT_TRUE(fault::fired("test.window"));   // fire 2
  EXPECT_FALSE(fault::fired("test.window"));  // window exhausted
  EXPECT_EQ(fault::fire_count("test.window"), 2);

  // count < 0 fires forever; re-arming resets the seen counter.
  fault::arm("test.window", {/*skip=*/0, /*count=*/-1});
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(fault::fired("test.window"));
  fault::disarm("test.window");
  EXPECT_FALSE(fault::fired("test.window"));
}

TEST_F(FaultInjectionTest, UnarmedPointsNeverFire) {
  EXPECT_FALSE(fault::fired("test.never_armed"));
  EXPECT_EQ(fault::fire_count("test.never_armed"), 0);
}

TEST_F(FaultInjectionTest, ScopedFaultDisarmsOnScopeExit) {
  {
    fault::ScopedFault guard("test.scoped", {/*skip=*/0, /*count=*/-1});
    EXPECT_TRUE(fault::fired("test.scoped"));
    EXPECT_EQ(guard.fire_count(), 1);
  }
  EXPECT_FALSE(fault::fired("test.scoped"));
}

TEST_F(FaultInjectionTest, EnvSpecGrammar) {
  // The RSG_FAULT_INJECT grammar: name[=skip[:count[:param]]], comma-joined.
  EXPECT_EQ(fault::arm_from_spec("test.a=1:2:9,test.b,test.c=3"), 3);
  EXPECT_FALSE(fault::fired("test.a"));  // skip 1
  int param = 0;
  EXPECT_TRUE(fault::fired("test.a", &param));
  EXPECT_EQ(param, 9);
  EXPECT_TRUE(fault::fired("test.b"));   // bare name = default spec, fires once
  EXPECT_FALSE(fault::fired("test.b"));
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(fault::fired("test.c")) << i;  // skip=3, count=1
  EXPECT_TRUE(fault::fired("test.c"));
  EXPECT_EQ(fault::arm_from_spec(""), 0);
}

// ---------------------------------------------------------------------------
// Crash-safe persistence: temp → fsync → rename

TEST_F(FaultInjectionTest, AtomicWriteCommitsOrLeavesNoTrace) {
  const std::string path = testing::TempDir() + "rsg_atomic_basic.bin";
  const std::string temp = atomic_write_temp_path(path);
  std::remove(path.c_str());

  atomic_write_file(path, [](std::ostream& out) { out << "generation 1"; });
  EXPECT_EQ(read_file_bytes(path), "generation 1");
  EXPECT_FALSE(file_exists(temp));

  // A writer that throws must not disturb the committed generation.
  EXPECT_THROW(atomic_write_file(path,
                                 [](std::ostream& out) {
                                   out << "torn";
                                   throw Error("disk on fire");
                                 }),
               Error);
  EXPECT_EQ(read_file_bytes(path), "generation 1");
  EXPECT_FALSE(file_exists(temp));
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, AtomicWriteRenameFailureKeepsPriorFile) {
  const std::string path = testing::TempDir() + "rsg_atomic_rename.bin";
  const std::string temp = atomic_write_temp_path(path);
  atomic_write_file(path, [](std::ostream& out) { out << "good"; });

  fault::ScopedFault guard("atomic_file.rename_fail");
  EXPECT_THROW(atomic_write_file(path, [](std::ostream& out) { out << "replacement"; }),
               Error);
  EXPECT_EQ(guard.fire_count(), 1);
  // The failed attempt is invisible: prior content intact, temp removed.
  EXPECT_EQ(read_file_bytes(path), "good");
  EXPECT_FALSE(file_exists(temp));
  std::remove(path.c_str());
}

CellTable two_cell_table() {
  CellTable cells;
  Cell& unit = cells.create("unit");
  unit.add_box(Layer::kMetal1, Box(0, 0, 4, 2));
  Cell& top = cells.create("top");
  top.add_instance(&unit, Placement{{10, 0}, Orientation::kNorth}, "u0");
  return cells;
}

TEST_F(FaultInjectionTest, SnapshotWriteFailureNeverLeavesPartialFile) {
  const std::string path = testing::TempDir() + "rsg_fault_snapshot.rsgb";
  const CellTable cells = two_cell_table();
  write_snapshot_file(path, cells, "top");
  const std::string good = read_file_bytes(path);
  ASSERT_FALSE(good.empty());

  fault::ScopedFault guard("snapshot.write_payload", {/*skip=*/0, /*count=*/-1});
  EXPECT_THROW(write_snapshot_file(path, cells, "top"), Error);
  EXPECT_GE(guard.fire_count(), 1);
  // The destination still holds the intact previous snapshot and no temp
  // residue exists — a reader can never observe a half-written file.
  EXPECT_EQ(read_file_bytes(path), good);
  EXPECT_FALSE(file_exists(atomic_write_temp_path(path)));
  std::remove(path.c_str());
}

XyCheckpoint completed_checkpoint() {
  const SynthField field = make_random_field(23, 25);
  XyScheduleOptions schedule;
  schedule.max_rounds = 3;
  schedule.stop_when_converged = false;
  XyCheckpoint last;
  schedule.checkpoint_sink = [&](const XyCheckpoint& ck) { last = ck; };
  compact_flat_schedule(field.boxes, CompactionRules::mosis(), {}, schedule,
                        field.stretchable);
  return last;
}

TEST_F(FaultInjectionTest, CheckpointWriteFailureNeverLeavesPartialFile) {
  const std::string path = testing::TempDir() + "rsg_fault_checkpoint.rsgc";
  const XyCheckpoint checkpoint = completed_checkpoint();
  write_compaction_checkpoint_file(path, checkpoint);
  const std::string good = read_file_bytes(path);
  ASSERT_FALSE(good.empty());

  {
    fault::ScopedFault guard("checkpoint.write_payload", {/*skip=*/0, /*count=*/-1});
    EXPECT_THROW(write_compaction_checkpoint_file(path, checkpoint), Error);
    EXPECT_GE(guard.fire_count(), 1);
    EXPECT_EQ(read_file_bytes(path), good);
    EXPECT_FALSE(file_exists(atomic_write_temp_path(path)));
  }

  // Disarmed, the same call succeeds and the file still reads back whole.
  write_compaction_checkpoint_file(path, checkpoint);
  const XyCheckpoint restored = read_compaction_checkpoint_file(path);
  EXPECT_EQ(restored.rounds_done, checkpoint.rounds_done);
  EXPECT_EQ(restored.boxes, checkpoint.boxes);
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, StreamWriterFlushFailureSurfacesAsError) {
  const std::string path = testing::TempDir() + "rsg_fault_flush.cif";
  CellTable cells;
  Cell& cell = cells.create("leaf");
  cell.add_box(Layer::kMetal1, Box(0, 0, 8, 8));

  fault::ScopedFault guard("stream_writer.flush_fail", {/*skip=*/0, /*count=*/-1});
  EXPECT_THROW(write_cif_file(path, cell), Error);
  EXPECT_GE(guard.fire_count(), 1);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Deadlines and cooperative cancellation

// A tiny design whose top compacts: a row of bricks with a connection chain
// (borrowed from the checkpoint tests — known to run multiple x/y rounds).
constexpr const char* kRowSample = R"(
cell brick
  box metal1 0 0 20 8
end
assembly
  inst a brick 0 0 N
  inst b brick 40 0 N
  label 1 from a to b
end
)";
constexpr const char* kRowDesign = R"(
(macro mrow (n)
  (locals foo)
  (do (i 1 (+ i 1) (> i n))
      (mk_instance b.i brick)
      (cond ((> i 1) (connect b.(- i 1) b.i 1)))))
(assign r (mrow n))
(mk_cell "row" (subcell r b.1))
)";

TEST_F(FaultInjectionTest, CancelTokenSemantics) {
  const CancelToken never;  // default token never fires
  EXPECT_FALSE(never.stop_requested());
  never.check("anywhere");

  const CancelToken expired = CancelToken::after(std::chrono::milliseconds(0));
  EXPECT_TRUE(expired.deadline_expired());
  try {
    expired.check("unit test");
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), StatusCode::kDeadlineExceeded);
    EXPECT_NE(std::string(e.what()).find("unit test"), std::string::npos);
  }

  // An explicit cancel beats an expired deadline: CANCELLED is the verdict.
  CancelSource source;
  const CancelToken both = source.token_with_deadline(CancelToken::Clock::now());
  source.cancel();
  try {
    both.check("tie");
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), StatusCode::kCancelled);
  }
}

TEST_F(FaultInjectionTest, ScheduleDeadlineAbandonsBetweenRoundsLeavingResumableState) {
  const SynthField field = make_random_field(17, 30);

  // Reference: the uninterrupted schedule.
  XyScheduleOptions full_options;
  full_options.max_rounds = 4;
  full_options.stop_when_converged = false;
  const XyScheduleResult full = compact_flat_schedule(
      field.boxes, CompactionRules::mosis(), {}, full_options, field.stretchable);
  ASSERT_GT(full.rounds, 1);

  // Interrupted run: the round stall pushes past the deadline after round 1,
  // so the boundary poll throws — AFTER the checkpoint sink saw round 1.
  fault::arm("xy_schedule.round_stall", {/*skip=*/0, /*count=*/-1, /*param=*/300});
  XyScheduleOptions interrupted;
  interrupted.max_rounds = 4;
  interrupted.stop_when_converged = false;
  std::vector<XyCheckpoint> checkpoints;
  interrupted.checkpoint_sink = [&](const XyCheckpoint& ck) { checkpoints.push_back(ck); };
  const CancelToken deadline = CancelToken::after(std::chrono::milliseconds(150));
  interrupted.cancel = &deadline;
  try {
    compact_flat_schedule(field.boxes, CompactionRules::mosis(), {}, interrupted,
                          field.stretchable);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), StatusCode::kDeadlineExceeded);
  }
  fault::disarm("xy_schedule.round_stall");
  ASSERT_EQ(checkpoints.size(), 1u);
  EXPECT_EQ(checkpoints.back().rounds_done, 1);

  // Resuming from the abandoned run's last checkpoint reproduces the
  // uninterrupted run bit-for-bit.
  XyScheduleOptions resume_options;
  resume_options.max_rounds = 4;
  resume_options.stop_when_converged = false;
  resume_options.resume = &checkpoints.back();
  const XyScheduleResult resumed = compact_flat_schedule(
      field.boxes, CompactionRules::mosis(), {}, resume_options, field.stretchable);
  EXPECT_EQ(resumed.boxes, full.boxes);
  EXPECT_EQ(resumed.rounds, full.rounds);
  EXPECT_EQ(resumed.width_after, full.width_after);
  EXPECT_EQ(resumed.height_after, full.height_after);
}

TEST_F(FaultInjectionTest, ExpiredTokenRejectsGenerationBeforeAnyWork) {
  GenerationSession session(CompiledDesign::compile(kRowSample, kRowDesign));
  session.set_cancel_token(CancelToken::after(std::chrono::milliseconds(0)));
  try {
    session.generate("n = 2");
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), StatusCode::kDeadlineExceeded);
    EXPECT_NE(std::string(e.what()).find("generation start"), std::string::npos);
  }
}

TEST_F(FaultInjectionTest, CancelledTokenStopsTheInterpreterInsideItsLoops) {
  // The interpreter polls its token every Interpreter::kPollInterval ticks
  // (do iterations, procedure calls, mk_instance), so a fired token stops
  // the design's loops, not the next phase boundary, and it surfaces as the
  // token's own StatusError — not as a design error at the call site.
  const auto design = CompiledDesign::compile(read_text_file(designs_path("pla.sample")),
                                              read_text_file(designs_path("decoder.rsg")));
  GenerationSession session(design);
  lang::Interpreter interp(session.cells(), session.interfaces(), session.graph());
  CancelSource source;
  source.cancel();
  const CancelToken token = source.token();
  interp.set_cancel_token(&token);
  ParameterFile::parse(read_text_file(designs_path("pla.par")) + "decbits = 8\n").apply(interp);
  try {
    interp.run(design->program());
    FAIL() << "expected StatusError";
  } catch (const LangError& e) {
    FAIL() << "the poll surfaced as a design error: " << e.what();
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), StatusCode::kCancelled);
    EXPECT_NE(std::string(e.what()).find("interpreter"), std::string::npos);
  }
  // Stopped inside the loops: a poll interval of ticks ran, mk_cell did not.
  EXPECT_EQ(interp.stats().cells_made, 0u);
  EXPECT_GE(interp.stats().variable_lookups,
            static_cast<std::size_t>(lang::Interpreter::kPollInterval));
}

// ---------------------------------------------------------------------------
// ServeCore: deadlines, admission control, shutdown

ServeOptions row_core_options(std::size_t threads) {
  ServeOptions options;
  options.num_threads = threads;
  options.cache_capacity = 0;  // every request generates
  return options;
}

GenerateRequest row_request() {
  GenerateRequest request;
  request.design = "row";
  request.params = "n = 6";
  request.compact = true;
  return request;
}

void add_row(ServeCore& core) { core.add_design("row", kRowSample, kRowDesign); }

TEST_F(FaultInjectionTest, DeadlineExpiredInQueueRejectsWithoutRunningPipeline) {
  ServeCore core(row_core_options(1));
  add_row(core);
  // The worker stalls past the request's deadline before looking at it.
  fault::arm("serve_core.worker_stall", {/*skip=*/0, /*count=*/1, /*param=*/150});
  GenerateRequest request = row_request();
  request.deadline_ms = 30;
  const GenerateResponse response = core.submit(request).get();
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response.cif.empty());  // the pipeline never ran
  EXPECT_NE(response.error.find("queued"), std::string::npos);
  const ServeCore::Stats stats = core.stats();
  EXPECT_EQ(stats.deadline_expired, 1u);
  EXPECT_EQ(stats.errors, 1u);
}

TEST_F(FaultInjectionTest, DeadlineMidCompactionLeavesCheckpointAndResumesBitForBit) {
  const std::string dir = testing::TempDir() + "rsg_fault_ckpt_dir";
  ::mkdir(dir.c_str(), 0755);
  for (const std::string& name : list_dir(dir)) std::remove((dir + "/" + name).c_str());

  // Reference: the same request on a core with no checkpointing at all.
  std::string expected_cif;
  {
    ServeCore reference(row_core_options(1));
    add_row(reference);
    const GenerateResponse response = reference.handle(row_request());
    ASSERT_TRUE(response.ok) << response.error;
    expected_cif = response.cif;
  }

  ServeOptions options = row_core_options(1);
  options.checkpoint_dir = dir;
  ServeCore core(options);
  add_row(core);

  // Run 1: the round stall pushes past the deadline after compaction round
  // 1 — the request fails DEADLINE_EXCEEDED but its checkpoint survives.
  fault::arm("xy_schedule.round_stall", {/*skip=*/0, /*count=*/-1, /*param=*/500});
  GenerateRequest request = row_request();
  request.deadline_ms = 300;
  const GenerateResponse aborted = core.handle(request);
  fault::disarm("xy_schedule.round_stall");
  ASSERT_FALSE(aborted.ok);
  EXPECT_EQ(aborted.code, StatusCode::kDeadlineExceeded);

  const std::vector<std::string> left_behind = list_dir(dir);
  ASSERT_EQ(left_behind.size(), 1u) << "expected exactly the interrupted run's checkpoint";
  const std::string checkpoint_path = dir + "/" + left_behind.front();
  const XyCheckpoint checkpoint = read_compaction_checkpoint_file(checkpoint_path);
  EXPECT_GE(checkpoint.rounds_done, 1);

  // Run 2 (same request personality, fresh deadline): resumes from the
  // checkpoint, matches the never-interrupted output, and cleans up.
  request.deadline_ms = 0;
  const GenerateResponse resumed = core.handle(request);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_EQ(resumed.cif, expected_cif);
  EXPECT_TRUE(list_dir(dir).empty()) << "completed run must remove its checkpoint";
  ::rmdir(dir.c_str());
}

TEST_F(FaultInjectionTest, FullQueueShedsWithResourceExhausted) {
  ServeOptions options = row_core_options(1);
  options.max_queue_depth = 1;
  ServeCore core(options);
  add_row(core);

  // Hold the single worker so the queue backs up deterministically: wait
  // until the stall has FIRED (the worker has dequeued the first request).
  fault::arm("serve_core.worker_stall", {/*skip=*/0, /*count=*/1, /*param=*/400});
  std::future<GenerateResponse> first = core.submit(row_request());
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fault::fire_count("serve_core.worker_stall") < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up) << "worker never dequeued";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::future<GenerateResponse> queued = core.submit(row_request());   // fills the queue
  std::future<GenerateResponse> shed = core.submit(row_request());     // over capacity
  const GenerateResponse shed_response = shed.get();  // resolves immediately
  EXPECT_FALSE(shed_response.ok);
  EXPECT_EQ(shed_response.code, StatusCode::kResourceExhausted);
  EXPECT_TRUE(status_code_retryable(shed_response.code));

  const GenerateResponse first_response = first.get();
  const GenerateResponse queued_response = queued.get();
  EXPECT_TRUE(first_response.ok) << first_response.error;
  EXPECT_TRUE(queued_response.ok) << queued_response.error;
  EXPECT_EQ(core.stats().shed, 1u);
}

TEST_F(FaultInjectionTest, AllocFailureMapsToResourceExhausted) {
  ServeCore core(row_core_options(1));
  add_row(core);
  fault::ScopedFault guard("serve_core.alloc_fail", {/*skip=*/0, /*count=*/1});
  const GenerateResponse response = core.handle(row_request());
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, StatusCode::kResourceExhausted);
  // Retryable by contract — and the retry succeeds once the pressure clears.
  EXPECT_TRUE(status_code_retryable(response.code));
  const GenerateResponse retried = core.handle(row_request());
  EXPECT_TRUE(retried.ok) << retried.error;
}

TEST_F(FaultInjectionTest, StopDrainCompletesEverythingAccepted) {
  ServeCore core(row_core_options(1));
  add_row(core);
  fault::arm("serve_core.worker_stall", {/*skip=*/0, /*count=*/1, /*param=*/100});
  std::vector<std::future<GenerateResponse>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(core.submit(row_request()));
  core.stop(DrainMode::kDrain);
  for (auto& future : futures) {
    const GenerateResponse response = future.get();
    EXPECT_TRUE(response.ok) << response.error;
  }
  // After stop, new submissions fail fast with UNAVAILABLE.
  const GenerateResponse late = core.submit(row_request()).get();
  EXPECT_FALSE(late.ok);
  EXPECT_EQ(late.code, StatusCode::kUnavailable);
}

TEST_F(FaultInjectionTest, StopAbortFailsQueuedCleanlyAndCancelsInFlight) {
  ServeCore core(row_core_options(1));
  add_row(core);

  fault::arm("serve_core.worker_stall", {/*skip=*/0, /*count=*/1, /*param=*/300});
  std::future<GenerateResponse> in_flight = core.submit(row_request());
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fault::fire_count("serve_core.worker_stall") < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up) << "worker never dequeued";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::future<GenerateResponse> queued_a = core.submit(row_request());
  std::future<GenerateResponse> queued_b = core.submit(row_request());

  core.stop(DrainMode::kAbort);  // returns only once the workers exited

  // Queued-but-unstarted: clean UNAVAILABLE, never a hang.
  for (std::future<GenerateResponse>* future : {&queued_a, &queued_b}) {
    ASSERT_EQ(future->wait_for(std::chrono::seconds(0)), std::future_status::ready);
    const GenerateResponse response = future->get();
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.code, StatusCode::kUnavailable);
  }
  // In-flight: cancelled at its next boundary (the stall outlives stop()'s
  // cancel signal, so the generation-start poll sees it).
  ASSERT_EQ(in_flight.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const GenerateResponse cancelled = in_flight.get();
  EXPECT_FALSE(cancelled.ok);
  EXPECT_EQ(cancelled.code, StatusCode::kCancelled);
  EXPECT_GE(core.stats().cancelled, 3u);
}

// ---------------------------------------------------------------------------
// Socket client retry and SIGTERM drain

TEST_F(FaultInjectionTest, ShedClientsBackOffAndEventuallySucceed) {
  ServeOptions options = row_core_options(1);
  options.max_queue_depth = 1;
  ServeCore core(options);
  add_row(core);
  const std::string socket_path = testing::TempDir() + "rsg_fault_retry.sock";
  std::remove(socket_path.c_str());
  SocketServer server(core, socket_path);
  server.start();

  // One slow dequeue at the start funnels the other clients into sheds;
  // their backoff retries land once the queue drains.
  fault::arm("serve_core.worker_stall", {/*skip=*/0, /*count=*/1, /*param=*/150});
  RetryPolicy policy;
  policy.max_attempts = 20;
  policy.initial_backoff_ms = 5.0;
  std::vector<std::thread> clients;
  std::vector<GenerateResponse> responses(3);
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&, i] {
      responses[static_cast<std::size_t>(i)] =
          send_generate_request_with_retry(socket_path, row_request(), policy);
    });
  }
  for (std::thread& client : clients) client.join();
  for (const GenerateResponse& response : responses) {
    EXPECT_TRUE(response.ok) << status_code_name(response.code) << ": " << response.error;
  }
  server.stop();
}

TEST_F(FaultInjectionTest, SigtermDrainsAcceptedWorkThenStops) {
  // The drain watcher must outrank every serving thread: a process-directed
  // SIGTERM lands on whichever thread has it unblocked, so the SignalDrain
  // (which blocks it process-wide) is constructed BEFORE the core's workers.
  std::atomic<SocketServer*> server_ptr{nullptr};
  SignalDrain drain([&server_ptr] {
    if (SocketServer* server = server_ptr.load()) server->request_shutdown();
  });

  ServeCore core(row_core_options(1));
  add_row(core);
  const std::string socket_path = testing::TempDir() + "rsg_fault_sigterm.sock";
  std::remove(socket_path.c_str());
  SocketServer server(core, socket_path);
  server_ptr.store(&server);
  server.start();

  // Work accepted before the signal...
  fault::arm("serve_core.worker_stall", {/*skip=*/0, /*count=*/1, /*param=*/100});
  std::future<GenerateResponse> accepted = core.submit(row_request());

  // ...then a process-directed SIGTERM (what systemd/docker send). The
  // sigwait thread consumes it and begins the drain.
  ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);
  server.wait();  // returns because the drain shut the accept loop down
  EXPECT_TRUE(drain.fired());
  server.stop();
  core.stop(DrainMode::kDrain);

  // Drain semantics: the accepted request still completed.
  const GenerateResponse response = accepted.get();
  EXPECT_TRUE(response.ok) << response.error;
}

// ---------------------------------------------------------------------------
// Status plumbing

TEST_F(FaultInjectionTest, StatusCodeNamesAndRetryability) {
  EXPECT_STREQ(status_code_name(StatusCode::kOk), "OK");
  EXPECT_STREQ(status_code_name(StatusCode::kDeadlineExceeded), "DEADLINE_EXCEEDED");
  EXPECT_STREQ(status_code_name(StatusCode::kResourceExhausted), "RESOURCE_EXHAUSTED");
  EXPECT_FALSE(status_code_retryable(StatusCode::kInvalidArgument));
  EXPECT_FALSE(status_code_retryable(StatusCode::kInternal));
  EXPECT_TRUE(status_code_retryable(StatusCode::kUnavailable));

  const Status status(StatusCode::kDeadlineExceeded, "round 3");
  EXPECT_EQ(status.to_string(), "DEADLINE_EXCEEDED: round 3");
  const StatusError error(status);
  EXPECT_EQ(error.code(), StatusCode::kDeadlineExceeded);

  StatusOr<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  StatusOr<int> bad(Status(StatusCode::kNotFound, "no such design"));
  ASSERT_FALSE(bad.ok());
  EXPECT_THROW(bad.value(), StatusError);
}

}  // namespace
}  // namespace rsg
