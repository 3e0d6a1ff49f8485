// The serving layer: LruCache, ServeCore, and the socket transport.

#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "io/param_file.hpp"
#include "pla/pla_builder.hpp"
#include "pla/truth_table.hpp"
#include "rsg/compiled_design.hpp"
#include "rsg/lru_cache.hpp"
#include "rsg/serve_core.hpp"
#include "rsg/serve_socket.hpp"
#include "rsg/session.hpp"
#include "support/error.hpp"
#include "support/fault_injection.hpp"
#include "support/status.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace rsg {
namespace {

// ---------------------------------------------------------------------------
// LruCache

TEST(LruCache, HitMissAndRecency) {
  LruCache<int, std::string> cache(2);
  EXPECT_FALSE(cache.get(1).has_value());
  cache.put(1, "one");
  cache.put(2, "two");
  EXPECT_EQ(cache.get(1), "one");  // 1 is now most recent
  cache.put(3, "three");           // evicts 2, the least recent
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_EQ(cache.get(1), "one");
  EXPECT_EQ(cache.get(3), "three");

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
}

TEST(LruCache, PutExistingUpdatesWithoutEviction) {
  LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  cache.put(1, 11);  // update, not insert
  EXPECT_EQ(cache.get(1), 11);
  EXPECT_EQ(cache.get(2), 20);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(LruCache, CapacityZeroDisables) {
  LruCache<int, int> cache(0);
  cache.put(1, 10);
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(LruCache, ConcurrentMixedAccessIsSafe) {
  LruCache<int, int> cache(16);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 500; ++i) {
        cache.put((t * 31 + i) % 64, i);
        const auto hit = cache.get(i % 64);
        if (hit) {
          EXPECT_GE(*hit, 0);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(cache.stats().size, 16u);
}

// ---------------------------------------------------------------------------
// Framing

TEST(ServeProtocol, RequestRoundTrip) {
  GenerateRequest request;
  request.design = "mult";
  request.params = "asize = 4\nbeta = 2\n";
  request.top_cell = "thewholething";
  request.truth_table = "10 01\n";
  request.compact = true;
  request.bypass_cache = true;
  request.deadline_ms = 2500;

  const GenerateRequest decoded = decode_generate_request(encode_generate_request(request));
  EXPECT_EQ(decoded.design, request.design);
  EXPECT_EQ(decoded.params, request.params);
  EXPECT_EQ(decoded.top_cell, request.top_cell);
  EXPECT_EQ(decoded.truth_table, request.truth_table);
  EXPECT_EQ(decoded.compact, request.compact);
  EXPECT_EQ(decoded.bypass_cache, request.bypass_cache);
  EXPECT_EQ(decoded.deadline_ms, request.deadline_ms);
}

TEST(ServeProtocol, ResponseRoundTrip) {
  GenerateResponse response;
  response.ok = true;
  response.cache_hit = true;
  response.cif = "DS 1;\nDF;\nE\n";
  response.top_cell = "pla";

  const GenerateResponse decoded = decode_generate_response(encode_generate_response(response));
  EXPECT_TRUE(decoded.ok);
  EXPECT_TRUE(decoded.cache_hit);
  EXPECT_EQ(decoded.code, StatusCode::kOk);
  EXPECT_EQ(decoded.cif, response.cif);
  EXPECT_EQ(decoded.top_cell, response.top_cell);

  // Error responses carry the machine-readable code across the wire.
  GenerateResponse error;
  error.ok = false;
  error.code = StatusCode::kResourceExhausted;
  error.error = "queue full";
  const GenerateResponse decoded_error =
      decode_generate_response(encode_generate_response(error));
  EXPECT_FALSE(decoded_error.ok);
  EXPECT_EQ(decoded_error.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded_error.error, "queue full");
}

TEST(ServeProtocol, TruncatedFrameThrows) {
  const std::string payload = encode_generate_request(GenerateRequest{"mult", "", "", "", false,
                                                                      false});
  EXPECT_THROW(decode_generate_request(payload.substr(0, payload.size() / 2)), Error);
  EXPECT_THROW(decode_generate_request(std::string(1, '\x07')), Error);  // bad opcode
}

// ---------------------------------------------------------------------------
// ServeCore

ServeOptions test_options(std::size_t threads, std::size_t cache) {
  ServeOptions options;
  options.num_threads = threads;
  options.cache_capacity = cache;
  options.encoding_parser = [](const std::string& text) {
    return pla::to_encoding_table(pla::TruthTable::parse(text));
  };
  return options;
}

void add_mult(ServeCore& core) {
  core.add_design("mult", read_text_file(designs_path("mult.sample")),
                  read_text_file(designs_path("mult.rsg")));
}

const char kSmallMultParams[] = "asize = 3\nbeta = 1\n";

TEST(ServeCore, UnknownDesignFails) {
  ServeCore core(test_options(1, 8));
  const GenerateResponse response = core.handle({"nonesuch", "", "", "", false, false});
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, StatusCode::kNotFound);
  EXPECT_NE(response.error.find("nonesuch"), std::string::npos);
  EXPECT_EQ(core.stats().errors, 1u);
}

TEST(ServeCore, BadParameterTextIsInvalidArgument) {
  ServeCore core(test_options(1, 0));
  add_mult(core);
  GenerateRequest request;
  request.design = "mult";
  request.params = "this is not = a = parameter file ===\n.compact:sideways\n";
  const GenerateResponse response = core.handle(request);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, StatusCode::kInvalidArgument);
}

TEST(ServeCore, GenerateMatchesLegacyAndCaches) {
  // Reference: a fresh compile and one session of the same design + params.
  GenerationSession session(CompiledDesign::compile(read_text_file(designs_path("mult.sample")),
                                                    read_text_file(designs_path("mult.rsg"))));
  const std::string expected =
      session.generate(read_text_file(designs_path("mult.par")) + kSmallMultParams).output;

  ServeCore core(test_options(2, 8));
  add_mult(core);
  GenerateRequest request;
  request.design = "mult";
  request.params = read_text_file(designs_path("mult.par")) + kSmallMultParams;

  const GenerateResponse first = core.handle(request);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.cif, expected);
  EXPECT_EQ(first.top_cell, "thewholething");

  const GenerateResponse second = core.handle(request);
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.cif, expected);

  request.bypass_cache = true;
  const GenerateResponse third = core.handle(request);
  ASSERT_TRUE(third.ok);
  EXPECT_FALSE(third.cache_hit);
  EXPECT_EQ(third.cif, expected);

  const ServeCore::Stats stats = core.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.cache.hits, 1u);
}

TEST(ServeCore, CacheKeysCanonicalizedParams) {
  // The same sweep point sent in two formattings — reordered lines, extra
  // whitespace, comments, a shadowed duplicate assignment — must hit the
  // same cache entry: the key is the canonical parameter text, not the
  // bytes on the wire.
  ServeCore core(test_options(1, 8));
  add_mult(core);

  GenerateRequest request;
  request.design = "mult";
  request.params = read_text_file(designs_path("mult.par")) + "asize = 3\nbeta = 1\n";
  const GenerateResponse first = core.handle(request);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cache_hit);

  GenerateRequest reformatted;
  reformatted.design = "mult";
  reformatted.params = read_text_file(designs_path("mult.par")) +
                       "; sweep point 3/1\n\nbeta=0\n  beta   =  1\nasize =3\n";
  const GenerateResponse second = core.handle(reformatted);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.cif, first.cif);
  EXPECT_EQ(core.stats().cache.hits, 1u);

  // A request that actually differs (beta = 2) must still miss.
  GenerateRequest different;
  different.design = "mult";
  different.params = read_text_file(designs_path("mult.par")) + "asize = 3\nbeta = 2\n";
  const GenerateResponse third = core.handle(different);
  ASSERT_TRUE(third.ok) << third.error;
  EXPECT_FALSE(third.cache_hit);
}

TEST(ServeCore, TruthTableRequestsNeedParser) {
  const std::string tt = "10 10\n01 01\n";
  GenerateRequest request;
  request.design = "pla";
  request.params = read_text_file(designs_path("pla.par"));
  request.top_cell = "pla";
  request.truth_table = tt;

  // Without a parser the request is rejected...
  {
    ServeOptions options;
    options.num_threads = 1;
    ServeCore core(options);
    core.add_design("pla", read_text_file(designs_path("pla.sample")),
                    read_text_file(designs_path("pla.rsg")));
    const GenerateResponse response = core.handle(request);
    EXPECT_FALSE(response.ok);
    EXPECT_NE(response.error.find("encoding parser"), std::string::npos);
  }

  // ...with one it matches the pla builder's output.
  {
    ServeCore core(test_options(1, 8));
    core.add_design("pla", read_text_file(designs_path("pla.sample")),
                    read_text_file(designs_path("pla.rsg")));
    const GenerateResponse response = core.handle(request);
    ASSERT_TRUE(response.ok) << response.error;

    const GeneratorResult expected = pla::generate_pla(pla::TruthTable::parse(tt));
    EXPECT_EQ(response.cif, expected.output);
  }
}

TEST(ServeCore, ConcurrentSubmissionsAreByteIdentical) {
  ServeCore core(test_options(4, 0));  // cache OFF: every request generates
  add_mult(core);

  GenerateRequest request;
  request.design = "mult";
  request.params = read_text_file(designs_path("mult.par")) + kSmallMultParams;
  const GenerateResponse reference = core.handle(request);
  ASSERT_TRUE(reference.ok) << reference.error;

  std::vector<std::future<GenerateResponse>> futures;
  for (int i = 0; i < 16; ++i) futures.push_back(core.submit(request));
  for (auto& future : futures) {
    const GenerateResponse response = future.get();
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_FALSE(response.cache_hit);
    EXPECT_EQ(response.cif, reference.cif);
  }
}

TEST(ServeCore, CompactRequestProducesCompactedTop) {
  ServeCore core(test_options(1, 0));
  add_mult(core);
  GenerateRequest request;
  request.design = "mult";
  request.params = read_text_file(designs_path("mult.par")) + kSmallMultParams;
  request.compact = true;
  const GenerateResponse response = core.handle(request);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.top_cell, "thewholething_compacted");
}

// ---------------------------------------------------------------------------
// Socket transport

TEST(SocketServer, EndToEndGenerateAndShutdown) {
  ServeCore core(test_options(2, 8));
  add_mult(core);

  const std::string socket_path = testing::TempDir() + "rsg_serve_test.sock";
  SocketServer server(core, socket_path);
  server.start();

  GenerateRequest request;
  request.design = "mult";
  request.params = read_text_file(designs_path("mult.par")) + kSmallMultParams;

  const GenerateResponse first = send_generate_request(socket_path, request);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.top_cell, "thewholething");

  // Concurrent clients against the live server.
  std::vector<std::thread> clients;
  std::vector<GenerateResponse> responses(4);
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] { responses[static_cast<std::size_t>(i)] =
                                      send_generate_request(socket_path, request); });
  }
  for (std::thread& client : clients) client.join();
  for (const GenerateResponse& response : responses) {
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.cif, first.cif);
  }

  EXPECT_TRUE(send_shutdown_request(socket_path));
  server.wait();
  server.stop();
  std::remove(socket_path.c_str());
}

TEST(SocketServer, FramesSurviveShortTransfersAndEintrStorms) {
  // Injected partial reads/writes and synthetic EINTR storms on both sides
  // of the connection: the length-prefixed framing must still deliver every
  // frame intact — same response as an unmolested request.
  ServeCore core(test_options(1, 8));
  add_mult(core);
  const std::string socket_path = testing::TempDir() + "rsg_serve_eintr.sock";
  std::remove(socket_path.c_str());
  SocketServer server(core, socket_path);
  server.start();

  GenerateRequest request;
  request.design = "mult";
  request.params = read_text_file(designs_path("mult.par")) + kSmallMultParams;
  const GenerateResponse reference = send_generate_request(socket_path, request);
  ASSERT_TRUE(reference.ok) << reference.error;

  fault::arm("serve_socket.short_read", {/*skip=*/0, /*count=*/256});
  fault::arm("serve_socket.short_write", {/*skip=*/0, /*count=*/256});
  fault::arm("serve_socket.eintr_read", {/*skip=*/0, /*count=*/64});
  fault::arm("serve_socket.eintr_write", {/*skip=*/0, /*count=*/64});
  const GenerateResponse tortured = send_generate_request(socket_path, request);
  fault::disarm_all();
  // The faults really did hit the loops.
  EXPECT_GE(fault::fire_count("serve_socket.short_read"), 1);
  EXPECT_GE(fault::fire_count("serve_socket.short_write"), 1);
  EXPECT_GE(fault::fire_count("serve_socket.eintr_read"), 1);
  EXPECT_GE(fault::fire_count("serve_socket.eintr_write"), 1);
  ASSERT_TRUE(tortured.ok) << tortured.error;
  EXPECT_EQ(tortured.cif, reference.cif);
  EXPECT_EQ(tortured.top_cell, reference.top_cell);

  server.stop();
  std::remove(socket_path.c_str());
}

TEST(SocketServer, ReclaimsStaleSocketButRefusesLiveOne) {
  ServeCore core(test_options(1, 0));
  const std::string socket_path = testing::TempDir() + "rsg_serve_stale.sock";
  std::remove(socket_path.c_str());

  // A "crashed server": a socket file whose owner is gone. bind() then
  // close() without unlink leaves exactly that on disk.
  {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", socket_path.c_str());
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
    ::close(fd);
  }

  // The stale file is reclaimed and the server comes up and answers.
  SocketServer server(core, socket_path);
  server.start();

  // A second server on the SAME path must refuse: the first one is alive.
  EXPECT_THROW(SocketServer(core, socket_path), Error);

  // And the refusal did not break the running server's socket.
  add_mult(core);
  GenerateRequest request;
  request.design = "mult";
  request.params = read_text_file(designs_path("mult.par")) + kSmallMultParams;
  const GenerateResponse response = send_generate_request(socket_path, request);
  EXPECT_TRUE(response.ok) << response.error;

  server.stop();
  std::remove(socket_path.c_str());
}

}  // namespace
}  // namespace rsg
