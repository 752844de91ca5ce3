// Tests for the `fibersim serve` daemon: request codec, server lifecycle,
// concurrency, admission control and the untrusted-input contract (malformed
// bytes yield typed errors, never an uncaught exception).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "core/runner.hpp"
#include "core/serve.hpp"
#include "core/serve_codec.hpp"
#include "fault/fault.hpp"
#include "machine/descriptor.hpp"
#include "machine/registry.hpp"
#include "trace/serialize.hpp"

namespace fibersim::core {
namespace {

// ----- codec -----

TEST(ServeCodec, ParsesEveryVerb) {
  ServeRequest req;
  EXPECT_EQ(parse_serve_request(R"({"verb":"ping"})", req), "");
  EXPECT_EQ(req.verb, ServeRequest::Verb::kPing);
  EXPECT_EQ(parse_serve_request(R"({"verb":"stats","id":"s1"})", req), "");
  EXPECT_EQ(req.verb, ServeRequest::Verb::kStats);
  EXPECT_EQ(req.id, "s1");

  req = ServeRequest{};
  EXPECT_EQ(parse_serve_request(
                R"({"verb":"predict","app":"ffvc","dataset":"small",)"
                R"("ranks":4,"threads":2,"iterations":1,"seed":7})",
                req),
            "");
  EXPECT_EQ(req.verb, ServeRequest::Verb::kPredict);
  EXPECT_EQ(req.config.app, "ffvc");
  EXPECT_EQ(req.config.ranks, 4);
  EXPECT_EQ(req.config.threads, 2);
  EXPECT_EQ(req.config.seed, 7u);

  req = ServeRequest{};
  EXPECT_EQ(parse_serve_request(
                R"({"verb":"report","report":"T1","apps":"ffvc,ffb",)"
                R"("iterations":2,"jobs":3,"format":"json"})",
                req),
            "");
  EXPECT_EQ(req.verb, ServeRequest::Verb::kReport);
  EXPECT_EQ(req.report_id, "T1");
  ASSERT_EQ(req.report.ctx.app_names.size(), 2u);
  EXPECT_EQ(req.report.ctx.app_names[1], "ffb");
  EXPECT_EQ(req.report.ctx.iterations, 2);
  EXPECT_EQ(req.report.ctx.jobs, 3);
  EXPECT_EQ(req.report.format, ReportFormat::kJson);
}

TEST(ServeCodec, NumericFieldsAcceptStringsAndKeepU64Exact) {
  // A numeric string is as good as a JSON number (shell-friendly clients).
  ServeRequest req;
  EXPECT_EQ(parse_serve_request(R"({"verb":"predict","ranks":"4"})", req),
            "");
  EXPECT_EQ(req.config.ranks, 4);
  // 2^64-1 survives because the raw number token is re-parsed, never routed
  // through a double.
  req = ServeRequest{};
  EXPECT_EQ(parse_serve_request(
                R"({"verb":"predict","seed":18446744073709551615})", req),
            "");
  EXPECT_EQ(req.config.seed, 18446744073709551615ull);
}

TEST(ServeCodec, RejectsMalformedRequests) {
  const std::pair<const char*, const char*> cases[] = {
      {"", "invalid JSON"},
      {"{", "invalid JSON"},
      {"[1,2]", "must be a JSON object"},
      {R"({"id":"x"})", "missing required field 'verb'"},
      {R"({"verb":7})", "'verb' must be a string"},
      {R"({"verb":"launch"})", "unknown verb"},
      {R"({"verb":"predict","rnaks":2})", "unknown predict field"},
      {R"({"verb":"report","report":"T1","retries":1})",
       "unknown report field"},
      {R"({"verb":"ping","app":"ffvc"})", "unknown field for verb 'ping'"},
      {R"({"verb":"predict","ranks":0})", "must be >= 1"},
      {R"({"verb":"predict","ranks":"3x"})", "expected an integer"},
      {R"({"verb":"predict","ranks":true})", "must be a string or number"},
      {R"({"verb":"predict","seed":-1})", "non-negative"},
      {R"({"verb":"predict","dataset":"tiny"})", "dataset"},
      {R"({"verb":"predict","processor":"epyc"})", "processor"},
      {R"({"verb":"report"})", "need a 'report' experiment id"},
      {R"({"verb":"report","report":"T1","format":"yaml"})", "format"},
      {R"({"verb":"ping","id":42})", "'id' must be a string"},
      {R"({"verb":"ping","verb":"ping"})", "duplicate"},
      {R"({"verb":"predict","collapse":"maybe"})", "expected on|off"},
      {R"({"verb":"predict","collapse":true})", "must be a string or number"},
      {R"({"verb":"report","report":"T1","collapse":"2"})",
       "expected on|off"},
      {R"({"verb":"predict","ranks":-4})", "must be >= 1"},
      {R"({"verb":"predict","threads":"9999999999999999999"})",
       "expected an integer"},
  };
  for (const auto& [line, expect] : cases) {
    ServeRequest req;
    const std::string problem = parse_serve_request(line, req);
    EXPECT_FALSE(problem.empty()) << line;
    EXPECT_NE(problem.find(expect), std::string::npos)
        << line << " -> " << problem;
  }
  // The id cap keeps hostile correlation tokens from ballooning responses.
  ServeRequest req;
  const std::string long_id(257, 'x');
  EXPECT_NE(parse_serve_request(R"({"verb":"ping","id":")" + long_id +
                                    R"("})",
                                req)
                .find("exceeds"),
            std::string::npos);
}

TEST(ServeCodec, CollapseFieldMirrorsTheCliFlag) {
  ServeRequest req;
  EXPECT_EQ(parse_serve_request(
                R"({"verb":"predict","app":"ffvc","ranks":4,"collapse":"on"})",
                req),
            "");
  EXPECT_TRUE(req.config.collapse);
  req = ServeRequest{};
  EXPECT_EQ(parse_serve_request(
                R"({"verb":"predict","collapse":"off"})", req),
            "");
  EXPECT_FALSE(req.config.collapse);
  // Report collapse toggles the sweep, not the payload (byte-identity).
  req = ServeRequest{};
  EXPECT_EQ(parse_serve_request(
                R"({"verb":"report","report":"T1","collapse":"1"})", req),
            "");
  EXPECT_TRUE(req.report.ctx.collapse);
}

// A client typo is a bad request, not an execution failure: an unknown app
// or report id is refused while the line is parsed, so it takes no worker
// and says nothing to the circuit breaker about the config class.
TEST(ServeCodec, UnknownAppAndReportIdAreBadRequests) {
  ServeRequest req;
  EXPECT_NE(parse_serve_request(R"({"verb":"predict","app":"nope"})", req)
                .find("unknown miniapp: nope"),
            std::string::npos);
  req = ServeRequest{};
  EXPECT_NE(parse_serve_request(R"({"verb":"report","report":"ZZ"})", req)
                .find("unknown report id: 'ZZ'"),
            std::string::npos);
}

TEST(ServeCodec, ResponseShapes) {
  EXPECT_EQ(serve_error_response(kCodeBusy, "", "full"),
            R"({"ok":false,"code":"BUSY","error":"full"})");
  EXPECT_EQ(serve_error_response(kCodeBadRequest, "a\"b", "x\ny"),
            R"({"ok":false,"id":"a\"b","code":"BAD_REQUEST","error":"x\ny"})");
  json::Emitter ok = serve_ok_envelope("ping", "7");
  ok.str("payload", "pong");
  EXPECT_EQ(std::move(ok).finish(),
            R"({"ok":true,"id":"7","verb":"ping","payload":"pong"})");
}

// ----- server -----

std::string test_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/fibersim_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

std::string test_cache_dir() {
  static std::atomic<int> counter{0};
  return "/tmp/fibersim_test_cache_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1));
}

constexpr const char* kPredictLine =
    R"({"verb":"predict","app":"ffvc","dataset":"small","ranks":2,)"
    R"("threads":1,"iterations":1})";

// Payload is always the last key: everything after the first `"payload":`
// up to the envelope's closing brace.
std::string payload_of(const std::string& response) {
  const std::size_t pos = response.find("\"payload\":");
  if (pos == std::string::npos) {
    ADD_FAILURE() << "no payload in: " << response;
    return "";
  }
  const std::size_t begin = pos + std::strlen("\"payload\":");
  return response.substr(begin, response.size() - begin - 1);
}

std::string field_of(const std::string& response, const std::string& key) {
  std::string error;
  const std::optional<json::Value> v = json::parse(response, &error);
  if (!v || !v->is_object()) {
    ADD_FAILURE() << "unparseable response (" << error << "): " << response;
    return "";
  }
  const json::Value* f = v->find(key);
  if (f == nullptr) return "";
  if (f->is_bool()) return f->as_bool() ? "true" : "false";
  return f->is_string() ? f->as_string() : f->raw_number();
}

TEST(Serve, PingPredictAndStats) {
  ServeOptions opts;
  opts.socket_path = test_socket_path();
  opts.workers = 2;
  Server server(std::move(opts));
  server.start();

  ServeClient client(server.socket_path());
  const std::string pong = client.request(R"({"verb":"ping","id":"p1"})");
  EXPECT_EQ(pong, R"({"ok":true,"id":"p1","verb":"ping","payload":"pong"})");

  // The predict payload must be byte-identical to what `fibersim run --json`
  // prints for the same config: the daemon is the CLI by other means.
  const std::string response = client.request(kPredictLine);
  EXPECT_EQ(field_of(response, "ok"), "true") << response;
  EXPECT_EQ(field_of(response, "tier"), "native");
  EXPECT_FALSE(field_of(response, "latency_us").empty());
  ExperimentConfig cfg;
  cfg.app = "ffvc";
  cfg.dataset = apps::Dataset::kSmall;
  cfg.ranks = 2;
  cfg.threads = 1;
  cfg.iterations = 1;
  Runner reference;
  EXPECT_EQ(payload_of(response), trace::to_json(reference.run(cfg).prediction));

  // Identical request again: served from the in-memory memo tier.
  EXPECT_EQ(field_of(client.request(kPredictLine), "tier"), "memo");

  // The stats payload is itself valid JSON and reflects the traffic so far.
  const std::string stats = client.request(R"({"verb":"stats"})");
  std::string error;
  const std::optional<json::Value> v = json::parse(stats, &error);
  ASSERT_TRUE(v) << error << ": " << stats;
  const json::Value* payload = v->find("payload");
  ASSERT_NE(payload, nullptr);
  EXPECT_NE(payload->find("verbs"), nullptr);
  EXPECT_NE(payload->find("latency_us"), nullptr);

  const ServeStats snap = server.stats_snapshot();
  EXPECT_EQ(snap.ping, 1u);
  EXPECT_EQ(snap.predict, 2u);
  EXPECT_EQ(snap.stats, 1u);
  EXPECT_EQ(snap.tier_native, 1u);
  EXPECT_EQ(snap.tier_memo, 1u);
  EXPECT_GE(snap.latency_samples, 2u);

  server.stop();
  server.wait();
  EXPECT_EQ(::access(server.socket_path().c_str(), F_OK), -1)
      << "socket file must be unlinked on shutdown";
}

// Socket input may only name registered processors: a descriptor path would
// read a file and, being registered process-wide, change what every other
// client's "a64fx" means.
TEST(Serve, ProcessorPathIsRejectedAndTheRegistryIsUntouched) {
  machine::ProcessorConfig slow = machine::a64fx();  // still named A64FX
  slow.freq_hz = 1e9;
  const std::string path = ::testing::TempDir() + "/serve_slow_a64fx.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << machine::to_descriptor(slow);
  }
  const std::vector<machine::ProcessorRegistry::Entry> before =
      machine::ProcessorRegistry::instance().entries();

  ServeOptions opts;
  opts.socket_path = test_socket_path();
  opts.workers = 1;
  Server server(std::move(opts));
  server.start();
  ServeClient client(server.socket_path());
  for (const std::string& token : {path, std::string("/etc/hostname")}) {
    const std::string response = client.request(
        R"({"verb":"predict","app":"ffvc","processor":")" + token + "\"}");
    EXPECT_EQ(field_of(response, "code"), kCodeBadRequest) << response;
    EXPECT_NE(field_of(response, "error").find("unknown processor"),
              std::string::npos)
        << response;
  }
  server.stop();
  server.wait();

  const std::vector<machine::ProcessorRegistry::Entry> after =
      machine::ProcessorRegistry::instance().entries();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].key, before[i].key);
    EXPECT_EQ(after[i].source, before[i].source);
    EXPECT_TRUE(after[i].config == before[i].config) << before[i].key;
  }
  // Names, including the power-mode variants, still resolve.
  ServeRequest req;
  EXPECT_EQ(parse_serve_request(
                R"({"verb":"predict","processor":"a64fx-boost"})", req),
            "");
  EXPECT_EQ(req.config.processor.name, "A64FX-boost");
  std::remove(path.c_str());
}

TEST(Serve, MalformedBytesGetTypedErrorsAndServiceContinues) {
  ServeOptions opts;
  opts.socket_path = test_socket_path();
  opts.workers = 1;
  opts.max_line_bytes = 512;
  Server server(std::move(opts));
  server.start();

  {
    ServeClient client(server.socket_path());
    EXPECT_EQ(field_of(client.request("this is not json"), "code"),
              kCodeBadRequest);
    EXPECT_EQ(field_of(client.request(R"({"verb":"predict","ranks":"2x"})"),
                       "code"),
              kCodeBadRequest);
    // Blank lines are keepalive noise, not errors.
    client.send_line("");
    EXPECT_EQ(field_of(client.request(R"({"verb":"ping"})"), "verb"), "ping");
    // An oversized line poisons the framing: BAD_REQUEST, then the server
    // hangs up on that connection.
    client.send_line(std::string(2048, 'x'));
    const auto bad = client.read_line();
    ASSERT_TRUE(bad.has_value());
    EXPECT_EQ(field_of(*bad, "code"), kCodeBadRequest);
    EXPECT_FALSE(client.read_line().has_value()) << "expected EOF";
  }
  // The daemon survives the hostile connection and keeps serving.
  ServeClient next(server.socket_path());
  EXPECT_EQ(field_of(next.request(R"({"verb":"ping"})"), "ok"), "true");
  EXPECT_GE(server.stats_snapshot().bad_request, 3u);
}

TEST(Serve, ConcurrentClientsAllGetTheirOwnResponses) {
  ServeOptions opts;
  opts.socket_path = test_socket_path();
  opts.workers = 4;
  Server server(std::move(opts));
  server.start();

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ServeClient client(server.socket_path());
      // Distinct seeds force distinct cache keys: no accidental coalescing.
      const std::string line =
          R"({"verb":"predict","app":"ffvc","dataset":"small","ranks":2,)"
          R"("threads":1,"iterations":1,"seed":)" +
          std::to_string(1000 + c) + R"(,"id":"c)" + std::to_string(c) +
          "\"}";
      const std::string response = client.request(line);
      if (field_of(response, "ok") == "true" &&
          field_of(response, "id") == "c" + std::to_string(c)) {
        ok.fetch_add(1);
      } else {
        ADD_FAILURE() << response;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients);
  EXPECT_EQ(server.stats_snapshot().connections,
            static_cast<std::uint64_t>(kClients));
}

TEST(Serve, IdenticalConcurrentPredictsCoalesceOntoOneNativeRun) {
  ServeOptions opts;
  opts.socket_path = test_socket_path();
  opts.workers = 2;
  Server server(std::move(opts));
  server.start();

  // Two identical requests in flight at once: the Runner's per-key claim
  // runs natively once; the second request memo-waits on the first.
  std::vector<std::string> tiers(2);
  std::vector<std::thread> threads;
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      ServeClient client(server.socket_path());
      tiers[c] = field_of(client.request(kPredictLine), "tier");
    });
  }
  for (auto& t : threads) t.join();
  std::sort(tiers.begin(), tiers.end());
  EXPECT_EQ(tiers[0], "memo");
  EXPECT_EQ(tiers[1], "native");
  const ServeStats snap = server.stats_snapshot();
  EXPECT_EQ(snap.tier_native, 1u);
  EXPECT_EQ(snap.tier_memo, 1u);
}

TEST(Serve, MidRequestDisconnectDoesNotKillTheServer) {
  ServeOptions opts;
  opts.socket_path = test_socket_path();
  opts.workers = 1;
  Server server(std::move(opts));
  server.start();

  {
    ServeClient rude(server.socket_path());
    rude.send_line(kPredictLine);
    rude.abort();  // gone before the response is written
  }
  // The worker finishes the abandoned request (possibly dropping the write)
  // and the daemon keeps serving fresh connections.
  ServeClient polite(server.socket_path());
  const std::string response = polite.request(kPredictLine);
  EXPECT_EQ(field_of(response, "ok"), "true") << response;
  server.stop();
  server.wait();
  EXPECT_GE(server.stats_snapshot().predict, 1u);
}

TEST(Serve, WarmStoreSurvivesRestart) {
  const std::string cache_dir = test_cache_dir();
  std::string first_payload;
  {
    ServeOptions opts;
    opts.socket_path = test_socket_path();
    opts.workers = 1;
    opts.trace_cache_dir = cache_dir;
    Server server(std::move(opts));
    server.start();
    ServeClient client(server.socket_path());
    const std::string response = client.request(kPredictLine);
    EXPECT_EQ(field_of(response, "tier"), "native");
    first_payload = payload_of(response);
    server.stop();
    server.wait();
  }
  // A new daemon over the same store answers from disk, byte-identically:
  // kill/restart costs one store load, not a native re-run.
  {
    ServeOptions opts;
    opts.socket_path = test_socket_path();
    opts.workers = 1;
    opts.trace_cache_dir = cache_dir;
    Server server(std::move(opts));
    server.start();
    ServeClient client(server.socket_path());
    const std::string response = client.request(kPredictLine);
    EXPECT_EQ(field_of(response, "tier"), "disk") << response;
    EXPECT_EQ(payload_of(response), first_payload);
    EXPECT_EQ(server.stats_snapshot().tier_native, 0u);
  }
}

TEST(Serve, FullQueueShedsWithTypedBusy) {
  ServeOptions opts;
  opts.socket_path = test_socket_path();
  opts.workers = 1;
  opts.queue_capacity = 1;
  Server server(std::move(opts));
  server.start();

  // Pipeline a burst on one connection, then half-close: the admitted
  // request is served, the overflow is shed immediately with BUSY — the
  // client always gets an answer per line, never a hang.
  ServeClient client(server.socket_path());
  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    client.send_line(
        R"({"verb":"predict","app":"ffvc","dataset":"small","ranks":2,)"
        R"("threads":1,"iterations":1,"seed":)" +
        std::to_string(5000 + i) + "}");
  }
  client.shutdown_write();
  int ok = 0;
  int busy = 0;
  for (int i = 0; i < kBurst; ++i) {
    const auto response = client.read_line();
    ASSERT_TRUE(response.has_value()) << "response " << i << " missing";
    if (field_of(*response, "ok") == "true") {
      ++ok;
    } else {
      EXPECT_EQ(field_of(*response, "code"), kCodeBusy) << *response;
      ++busy;
    }
  }
  EXPECT_FALSE(client.read_line().has_value());
  EXPECT_GE(ok, 1);
  EXPECT_GE(busy, 1);
  EXPECT_EQ(server.stats_snapshot().busy, static_cast<std::uint64_t>(busy));
}

TEST(Serve, StaleSocketFileIsReplacedButLiveServersAreNot) {
  const std::string path = test_socket_path();
  // Simulate a daemon that died without cleanup: bind, close, never unlink.
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ::close(fd);
  }
  ASSERT_EQ(::access(path.c_str(), F_OK), 0);

  ServeOptions opts;
  opts.socket_path = path;
  opts.workers = 1;
  Server server(std::move(opts));
  server.start();  // recovers the stale path
  ServeClient client(path);
  EXPECT_EQ(field_of(client.request(R"({"verb":"ping"})"), "ok"), "true");

  // A second server must refuse to steal a live socket.
  ServeOptions rival_opts;
  rival_opts.socket_path = path;
  Server rival(std::move(rival_opts));
  EXPECT_THROW(rival.start(), Error);

  server.stop();
  server.wait();
  EXPECT_EQ(::access(path.c_str(), F_OK), -1);
}

TEST(Serve, StopDrainsAdmittedWorkBeforeExit) {
  ServeOptions opts;
  opts.socket_path = test_socket_path();
  opts.workers = 1;
  Server server(std::move(opts));
  server.start();

  ServeClient client(server.socket_path());
  client.send_line(
      R"({"verb":"predict","app":"ffb","dataset":"small","ranks":2,)"
      R"("threads":1,"iterations":1,"id":"drain-me"})");
  // Wait until a worker owns the request so stop() provably has in-flight
  // work to drain (not a request still sitting in the reader's buffer).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.stats_snapshot().predict == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();  // drain starts with one admitted request in flight
  // The in-flight response still arrives...
  const auto first = client.read_line();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(field_of(*first, "id"), "drain-me");
  EXPECT_EQ(field_of(*first, "ok"), "true") << *first;
  // ...and until wait() tears the connection down, new work is refused with
  // a typed SHUTDOWN while the ping control plane still answers.
  EXPECT_EQ(field_of(client.request(kPredictLine), "code"), kCodeShutdown);
  EXPECT_EQ(field_of(client.request(R"({"verb":"ping"})"), "ok"), "true");
  server.wait();
  EXPECT_FALSE(client.read_line().has_value()) << "expected EOF after wait";
  EXPECT_EQ(::access(server.socket_path().c_str(), F_OK), -1);
}

// ----- resilience: deadlines, breaker, journal, drain edge cases -----

TEST(ServeCodec, DeadlineFieldParsesAndRejectsNonsense) {
  ServeRequest req;
  EXPECT_EQ(parse_serve_request(
                R"({"verb":"predict","app":"ffvc","deadline_ms":250})", req),
            "");
  EXPECT_EQ(req.deadline_ms, 250);
  req = ServeRequest{};
  EXPECT_NE(parse_serve_request(
                R"({"verb":"predict","deadline_ms":0})", req)
                .find("must be >= 1"),
            std::string::npos);
  EXPECT_NE(parse_serve_request(R"({"verb":"ping","deadline_ms":5})", req)
                .find("unknown field"),
            std::string::npos);
}

TEST(Serve, ExpiredQueuedWorkIsShedWithTypedDeadline) {
  ServeOptions opts;
  opts.socket_path = test_socket_path();
  opts.workers = 1;
  Server server(std::move(opts));
  server.start();

  // Pipeline: a cold run occupies the single worker, so the 1 ms deadline
  // on the second request expires while it queues — it must be shed with a
  // typed DEADLINE, never executed, never hung. Every message send of the
  // native runs is delayed 100 ms while the plan is installed, so the
  // occupier holds the worker far past the deadline however fast or loaded
  // the host is.
  ServeClient client(server.socket_path());
  {
    fault::ScopedPlan stall(
        fault::Plan::parse("mp.delay=1;mp.delay_ms=100"));
    client.send_line(
        R"({"verb":"predict","app":"ffvc","dataset":"small","ranks":2,)"
        R"("threads":1,"iterations":1,"seed":9001,"id":"occupier"})");
    client.send_line(
        R"({"verb":"predict","app":"ffvc","dataset":"small","ranks":2,)"
        R"("threads":1,"iterations":1,"seed":9002,"deadline_ms":1,)"
        R"("id":"doomed"})");
    const auto first = client.read_line();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(field_of(*first, "ok"), "true") << *first;
    const auto second = client.read_line();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(field_of(*second, "code"), kCodeDeadline) << *second;
    // Shed in-queue ("deadline expired before execution") or unwound at a
    // checkpoint ("cancelled: deadline exceeded"), depending on scheduling —
    // either way the error names the deadline.
    EXPECT_NE(field_of(*second, "error").find("deadline"), std::string::npos)
        << *second;
  }

  // A generous deadline on an idle server sails through.
  const std::string ok_response = client.request(
      R"({"verb":"predict","app":"ffvc","dataset":"small","ranks":2,)"
      R"("threads":1,"iterations":1,"seed":9003,"deadline_ms":30000})");
  EXPECT_EQ(field_of(ok_response, "ok"), "true") << ok_response;
  EXPECT_EQ(server.stats_snapshot().deadline, 1u);
}

TEST(Serve, CancelledRequestDoesNotPoisonCoalescingWaiters) {
  ServeOptions opts;
  opts.socket_path = test_socket_path();
  opts.workers = 2;
  Server server(std::move(opts));
  server.start();

  // Two clients race on the SAME config: one with a 1 ms deadline, one
  // without. Whatever the cancelled one ends up as (DEADLINE if it lost the
  // race, ok if it finished first), the undeadlined waiter must always get
  // the real answer — a cancelled coalescing leader releases its claim.
  std::string plain_response;
  std::string doomed_response;
  std::thread plain([&] {
    ServeClient c(server.socket_path());
    plain_response = c.request(
        R"({"verb":"predict","app":"ffb","dataset":"small","ranks":2,)"
        R"("threads":1,"iterations":1,"seed":777})");
  });
  std::thread doomed([&] {
    ServeClient c(server.socket_path());
    doomed_response = c.request(
        R"({"verb":"predict","app":"ffb","dataset":"small","ranks":2,)"
        R"("threads":1,"iterations":1,"seed":777,"deadline_ms":1})");
  });
  plain.join();
  doomed.join();
  EXPECT_EQ(field_of(plain_response, "ok"), "true") << plain_response;
  const bool doomed_ok = field_of(doomed_response, "ok") == "true";
  if (!doomed_ok) {
    EXPECT_EQ(field_of(doomed_response, "code"), kCodeDeadline)
        << doomed_response;
  }
  // And the config is not poisoned for later requests either.
  ServeClient after(server.socket_path());
  const std::string retry = after.request(
      R"({"verb":"predict","app":"ffb","dataset":"small","ranks":2,)"
      R"("threads":1,"iterations":1,"seed":777})");
  EXPECT_EQ(field_of(retry, "ok"), "true") << retry;
  EXPECT_EQ(payload_of(retry), payload_of(plain_response));
}

TEST(Serve, BreakerTripsOverTheWireAndProbesClosed) {
  ServeOptions opts;
  opts.socket_path = test_socket_path();
  opts.workers = 1;
  opts.circuit.failure_threshold = 2;
  opts.circuit.window = 4;
  opts.circuit.open_ms = 200;
  Server server(std::move(opts));
  server.start();

  const auto line_with_seed = [](int seed) {
    return R"({"verb":"predict","app":"ffvc","dataset":"small","ranks":2,)"
           R"("threads":1,"iterations":1,"seed":)" +
           std::to_string(seed) + "}";
  };
  ServeClient client(server.socket_path());
  {
    // Every native run fails: distinct seeds dodge the memo but share the
    // breaker key (the config class), so failure #2 trips the circuit and
    // #3 is rejected fast with a typed CIRCUIT_OPEN + retry hint.
    fault::ScopedPlan scoped(fault::Plan::parse("run.fail=1000000"));
    EXPECT_EQ(field_of(client.request(line_with_seed(1)), "code"),
              kCodeFailed);
    EXPECT_EQ(field_of(client.request(line_with_seed(2)), "code"),
              kCodeFailed);
    const std::string rejected = client.request(line_with_seed(3));
    EXPECT_EQ(field_of(rejected, "code"), kCodeCircuitOpen) << rejected;
    const std::string hint = field_of(rejected, "retry_after_ms");
    EXPECT_FALSE(hint.empty()) << rejected;
  }
  // Plan lifted + open_ms elapsed: the half-open probe runs, succeeds and
  // closes the circuit for everyone.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_EQ(field_of(client.request(line_with_seed(4)), "ok"), "true");
  EXPECT_EQ(field_of(client.request(line_with_seed(5)), "ok"), "true");
  const ServeStats snap = server.stats_snapshot();
  EXPECT_EQ(snap.circuit_open, 1u);
  EXPECT_GE(snap.breaker_trips, 1u);
  EXPECT_GE(snap.breaker_half_opens, 1u);
  EXPECT_EQ(snap.breaker_open_now, 0u);
  EXPECT_NE(server.stats_json().find("\"breaker\""), std::string::npos);
}

TEST(Serve, TyposAnswerBadRequestAndNeverReachTheBreaker) {
  ServeOptions opts;
  opts.socket_path = test_socket_path();
  opts.workers = 1;
  opts.circuit.failure_threshold = 1;  // one counted failure would trip
  opts.circuit.window = 1;
  Server server(std::move(opts));
  server.start();
  ServeClient client(server.socket_path());
  for (const char* line : {R"({"verb":"predict","app":"nope"})",
                           R"({"verb":"report","report":"ZZ"})"}) {
    const std::string response = client.request(line);
    EXPECT_EQ(field_of(response, "code"), kCodeBadRequest) << response;
  }
  const ServeStats snap = server.stats_snapshot();
  EXPECT_EQ(snap.bad_request, 2u);
  EXPECT_EQ(snap.failed, 0u);
  EXPECT_EQ(snap.predict, 0u);
  EXPECT_EQ(snap.report, 0u);
  EXPECT_EQ(snap.breaker_trips, 0u);
  EXPECT_EQ(snap.breaker_open_now, 0u);
  server.stop();
  server.wait();
}

std::string test_journal_path() {
  static std::atomic<int> counter{0};
  return "/tmp/fibersim_test_journal_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".jsonl";
}

TEST(Serve, JournaledResultSurvivesRestartByteIdentically) {
  const std::string journal = test_journal_path();
  std::remove(journal.c_str());
  std::string first_payload;
  {
    ServeOptions opts;
    opts.socket_path = test_socket_path();
    opts.workers = 1;
    opts.journal_path = journal;
    Server server(std::move(opts));
    server.start();
    ServeClient client(server.socket_path());
    const std::string response = client.request(kPredictLine);
    ASSERT_EQ(field_of(response, "ok"), "true") << response;
    EXPECT_EQ(field_of(response, "tier"), "native");
    first_payload = payload_of(response);
  }  // ~Server: the acknowledged result is already fsync()ed in the journal
  {
    // No trace cache: the journal alone must answer, byte-identically.
    ServeOptions opts;
    opts.socket_path = test_socket_path();
    opts.workers = 1;
    opts.journal_path = journal;
    Server server(std::move(opts));
    server.start();
    ServeClient client(server.socket_path());
    const std::string response = client.request(kPredictLine);
    EXPECT_EQ(field_of(response, "tier"), "journal") << response;
    EXPECT_EQ(payload_of(response), first_payload);
    const ServeStats snap = server.stats_snapshot();
    EXPECT_EQ(snap.tier_journal, 1u);
    EXPECT_EQ(snap.tier_native, 0u);
    EXPECT_NE(server.stats_json().find("\"journal\""), std::string::npos);
  }
  std::remove(journal.c_str());
}

TEST(Serve, DisconnectAfterJournalWriteDoesNotPoisonReplay) {
  const std::string journal = test_journal_path();
  std::remove(journal.c_str());
  ServeOptions opts;
  opts.socket_path = test_socket_path();
  opts.workers = 1;
  opts.journal_path = journal;
  Server server(std::move(opts));
  server.start();

  // The rude client is gone before the response write: the result is still
  // journaled (journal write precedes the response) and the config class
  // must stay perfectly serviceable for everyone else.
  {
    ServeClient rude(server.socket_path());
    rude.send_line(kPredictLine);
    rude.abort();
  }
  ServeClient polite(server.socket_path());
  std::string response = polite.request(kPredictLine);
  EXPECT_EQ(field_of(response, "ok"), "true") << response;
  // Whether the abandoned run finished before or after our request, replay
  // (memo or journal) and a fresh run agree; ask once more to hit a replay
  // tier deterministically.
  response = polite.request(kPredictLine);
  EXPECT_EQ(field_of(response, "ok"), "true") << response;
  server.stop();
  server.wait();
  std::remove(journal.c_str());
}

TEST(Serve, SigtermMidRunStillAnswersAndStatsServeDuringDrain) {
  ServeOptions opts;
  opts.socket_path = test_socket_path();
  opts.workers = 1;
  Server server(std::move(opts));
  server.start();
  server.install_signal_handlers();

  ServeClient client(server.socket_path());
  client.send_line(
      R"({"verb":"predict","app":"ffb","dataset":"small","ranks":4,)"
      R"("threads":1,"iterations":1,"seed":31337,"id":"mid-run"})");
  // Wait until the worker owns the cold native run, then deliver a real
  // SIGTERM through the installed handler (self-pipe -> stop()).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.stats_snapshot().predict == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);
  // The in-flight cold run must complete and answer ok — SIGTERM drains, it
  // never abandons acknowledged-admitted work.
  const auto response = client.read_line();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(field_of(*response, "id"), "mid-run");
  EXPECT_EQ(field_of(*response, "ok"), "true") << *response;
  // The observability plane stays up during the drain: stats still answers
  // (and reports the drained predict), while new work is refused typed.
  const std::string stats = client.request(R"({"verb":"stats"})");
  EXPECT_EQ(field_of(stats, "ok"), "true") << stats;
  EXPECT_NE(stats.find("\"predict\":1"), std::string::npos) << stats;
  EXPECT_EQ(field_of(client.request(kPredictLine), "code"), kCodeShutdown);
  server.wait();
  EXPECT_EQ(::access(server.socket_path().c_str(), F_OK), -1);
}

}  // namespace
}  // namespace fibersim::core
