// rsg_serve — the RSG generator as a local design server.
//
// Compiles each registered design ONCE at startup (sample layout parsed,
// design program to AST) and then serves parameterized generate requests
// over an AF_UNIX socket, each in a fresh GenerationSession overlaid on the
// shared CompiledDesign. Responses are cached by full request personality,
// so re-running a sweep is free after the first pass.
//
// Server:   rsg_serve --socket /tmp/rsg.sock [--threads N] [--cache N]
//               [--queue-depth N] [--checkpoint-dir DIR]
// Client:   rsg_serve --socket /tmp/rsg.sock --request mult
//               [--params-file mult.par] [--top cell] [--compact]
//               [--deadline-ms N] [--retries N] [-o out.cif]
//           rsg_serve --socket /tmp/rsg.sock --shutdown
//
// The five seed designs (designs/README.md) register by default: mult, pla,
// pla_folded, decoder, ram. --design name=sample:design.rsg adds more; the
// sample may be the text format or CIF.
//
// Shutdown contract: SIGTERM (or a --shutdown frame) DRAINS — the server
// stops accepting connections, finishes every request already accepted,
// flushes in-flight compaction checkpoints, and exits 0. Failures carry
// machine-readable status codes (README "Serving"); the client retries
// RESOURCE_EXHAUSTED / UNAVAILABLE with jittered exponential backoff.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "io/param_file.hpp"
#include "pla/pla_builder.hpp"
#include "pla/truth_table.hpp"
#include "rsg/compiled_design.hpp"
#include "rsg/pipeline.hpp"
#include "rsg/serve_core.hpp"
#include "rsg/serve_socket.hpp"
#include "support/error.hpp"
#include "support/status.hpp"

namespace {

constexpr const char* kUsage = R"(rsg_serve — RSG generation server over a local socket

Server mode (default):
  rsg_serve --socket PATH [options]
    --threads N          worker threads (default: hardware concurrency)
    --cache N            LRU response-cache capacity, 0 disables (default 64)
    --queue-depth N      max queued requests before shedding with
                         RESOURCE_EXHAUSTED, 0 = unbounded (default 256)
    --checkpoint-dir DIR checkpoint in-flight compactions here (RSGC, one
                         file per request); interrupted runs resume on retry
    --design NAME=SAMPLE:DESIGN
                         register an extra design from two files; the
                         sample may be text or CIF (repeatable; seed
                         designs register automatically)
  SIGTERM drains: stop accepting, finish accepted work, flush checkpoints,
  exit 0.

Client mode:
  rsg_serve --socket PATH --request DESIGN [options]
    --params-file FILE   parameter file to send (default: empty)
    --truth-table FILE   PLA truth-table file to send
    --top CELL           explicit top cell
    --compact            request x/y compaction
    --no-cache           bypass the server's response cache
    --deadline-ms N      per-request deadline; the server rejects or
                         abandons the request once it expires (default: none)
    --retries N          attempts for shed/unavailable responses, with
                         jittered exponential backoff (default 5, 1 = none)
    -o FILE              write the returned CIF (default: stdout)
  rsg_serve --socket PATH --shutdown
                         ask the server to drain and exit

The server compiles every design once and runs each request in its own
session over the shared compiled base; concurrent requests never re-parse.
)";

struct DesignSpec {
  std::string name;
  std::string sample_path;
  std::string design_path;
};

void register_seed_designs(rsg::ServeCore& core) {
  const struct {
    const char* name;
    const char* sample;
    const char* design;
  } seeds[] = {
      {"mult", "mult.sample", "mult.rsg"},
      {"pla", "pla.sample", "pla.rsg"},
      {"pla_folded", "pla.sample", "pla_folded.rsg"},
      {"decoder", "pla.sample", "decoder.rsg"},
      {"ram", "ram.sample", "ram.rsg"},
  };
  for (const auto& seed : seeds) {
    core.add_design(seed.name, rsg::read_text_file(rsg::designs_path(seed.sample)),
                    rsg::read_text_file(rsg::designs_path(seed.design)));
  }
}

int run_server(const std::string& socket_path, const rsg::ServeOptions& serve_options,
               const std::vector<DesignSpec>& extra_designs) {
  // SIGTERM → drain. The drain watcher MUST exist before any serving thread
  // does: a process-directed SIGTERM is delivered to whichever thread has it
  // unblocked, so every worker/accept/connection thread must inherit the
  // blocked mask the SignalDrain constructor installs — otherwise the signal
  // kills the process instead of draining it.
  std::atomic<rsg::SocketServer*> server_ptr{nullptr};
  rsg::SignalDrain drain([&server_ptr] {
    if (rsg::SocketServer* server = server_ptr.load()) server->request_shutdown();
  });

  rsg::ServeCore core(serve_options);
  register_seed_designs(core);
  for (const DesignSpec& spec : extra_designs) {
    core.add_design(spec.name, rsg::read_text_file(spec.sample_path),
                    rsg::read_text_file(spec.design_path));
  }

  rsg::SocketServer server(core, socket_path);
  server_ptr.store(&server);
  if (drain.fired()) server.request_shutdown();  // TERM during startup
  server.start();
  std::cout << "rsg_serve: listening on " << socket_path << " (" << core.num_threads()
            << " workers";
  for (const std::string& name : core.design_names()) std::cout << ", " << name;
  std::cout << ")" << std::endl;
  server.wait();
  server.stop();
  core.stop(rsg::DrainMode::kDrain);

  const rsg::ServeCore::Stats stats = core.stats();
  std::cout << "rsg_serve: served " << stats.requests << " requests (" << stats.errors
            << " errors, " << stats.shed << " shed, " << stats.deadline_expired
            << " past deadline, " << stats.cache.hits << " cache hits)"
            << (drain.fired() ? " — drained on SIGTERM" : "") << std::endl;
  return 0;
}

int run_client(const std::string& socket_path, const rsg::GenerateRequest& request,
               const std::string& output_path, const rsg::RetryPolicy& retry) {
  const rsg::GenerateResponse response =
      rsg::send_generate_request_with_retry(socket_path, request, retry);
  if (!response.ok) {
    std::cerr << "rsg_serve: server error [" << rsg::status_code_name(response.code)
              << "]: " << response.error << "\n";
    return 1;
  }
  std::cerr << "rsg_serve: top cell '" << response.top_cell << "'"
            << (response.cache_hit ? " (cache hit)" : "") << "\n";
  if (output_path.empty()) {
    std::cout << response.cif;
  } else {
    std::ofstream out(output_path, std::ios::binary);
    out << response.cif;
    out.flush();
    if (!out) {
      std::cerr << "rsg_serve: cannot write '" << output_path << "'\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  rsg::ServeOptions serve_options;
  std::vector<DesignSpec> extra_designs;
  bool client_mode = false;
  bool shutdown_mode = false;
  rsg::GenerateRequest request;
  rsg::RetryPolicy retry;
  std::string params_file;
  std::string truth_table_file;
  std::string output_path;
  serve_options.encoding_parser = [](const std::string& text) {
    return rsg::pla::to_encoding_table(rsg::pla::TruthTable::parse(text));
  };

  const std::vector<std::string> args(argv + 1, argv + argc);
  auto value = [&](std::size_t& i, const char* flag) -> const std::string& {
    if (i + 1 >= args.size()) {
      std::cerr << "rsg_serve: " << flag << " needs a value\n";
      std::exit(2);
    }
    return args[++i];
  };

  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& arg = args[i];
      if (arg == "--help" || arg == "-h") {
        std::cout << kUsage;
        return 0;
      } else if (arg == "--socket") {
        socket_path = value(i, "--socket");
      } else if (arg == "--threads") {
        serve_options.num_threads = static_cast<std::size_t>(std::stoul(value(i, "--threads")));
      } else if (arg == "--cache") {
        serve_options.cache_capacity = static_cast<std::size_t>(std::stoul(value(i, "--cache")));
      } else if (arg == "--queue-depth") {
        serve_options.max_queue_depth =
            static_cast<std::size_t>(std::stoul(value(i, "--queue-depth")));
      } else if (arg == "--checkpoint-dir") {
        serve_options.checkpoint_dir = value(i, "--checkpoint-dir");
      } else if (arg == "--design") {
        const std::string& spec = value(i, "--design");
        const std::size_t eq = spec.find('=');
        const std::size_t colon = spec.find(':', eq == std::string::npos ? 0 : eq);
        if (eq == std::string::npos || colon == std::string::npos) {
          std::cerr << "rsg_serve: --design wants NAME=SAMPLE:DESIGN\n";
          return 2;
        }
        extra_designs.push_back({spec.substr(0, eq), spec.substr(eq + 1, colon - eq - 1),
                                 spec.substr(colon + 1)});
      } else if (arg == "--request") {
        client_mode = true;
        request.design = value(i, "--request");
      } else if (arg == "--params-file") {
        params_file = value(i, "--params-file");
      } else if (arg == "--truth-table") {
        truth_table_file = value(i, "--truth-table");
      } else if (arg == "--top") {
        request.top_cell = value(i, "--top");
      } else if (arg == "--compact") {
        request.compact = true;
      } else if (arg == "--no-cache") {
        request.bypass_cache = true;
      } else if (arg == "--deadline-ms") {
        request.deadline_ms =
            static_cast<std::uint32_t>(std::stoul(value(i, "--deadline-ms")));
      } else if (arg == "--retries") {
        retry.max_attempts = static_cast<int>(std::stoul(value(i, "--retries")));
      } else if (arg == "-o") {
        output_path = value(i, "-o");
      } else if (arg == "--shutdown") {
        shutdown_mode = true;
      } else {
        std::cerr << "rsg_serve: unknown argument '" << arg << "' (try --help)\n";
        return 2;
      }
    }

    if (socket_path.empty()) {
      std::cerr << "rsg_serve: --socket PATH is required (try --help)\n";
      return 2;
    }

    if (shutdown_mode) {
      return rsg::send_shutdown_request(socket_path) ? 0 : 1;
    }
    if (client_mode) {
      if (!params_file.empty()) request.params = rsg::read_text_file(params_file);
      if (!truth_table_file.empty()) request.truth_table = rsg::read_text_file(truth_table_file);
      return run_client(socket_path, request, output_path, retry);
    }
    return run_server(socket_path, serve_options, extra_designs);
  } catch (const std::exception& e) {
    std::cerr << "rsg_serve: " << e.what() << "\n";
    return 1;
  }
}
