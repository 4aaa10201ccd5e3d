// Tests for the serving daemon layer: ModelRegistry load/get/atomic
// hot-reload, the RequestServer JSON line protocol, SIGHUP-driven reload,
// stats reporting, and bit-identical agreement between a served top-M
// request and the offline RecommendForAllUsers batch artifact — including
// the PR 5 concurrent core: simultaneous TCP clients on the worker pool,
// SIGHUP reload under load (no torn models), accept-queue load shedding,
// exact merged latency percentiles, and the loopback load generator.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/fold_in.h"
#include "core/incremental.h"
#include "core/model_store.h"
#include "core/ocular_recommender.h"
#include "serving/batch.h"
#include "sparse/coo.h"
#include "serving/daemon.h"
#include "serving/journal.h"
#include "serving/loadgen.h"
#include "serving/net_util.h"
#include "serving/registry.h"
#include "test_util.h"

namespace ocular {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Trains a small OCuLaR model on a deterministic matrix and writes it as
/// a binary v2 file. Returns the in-memory fit for oracle comparisons.
struct DaemonFixture {
  CsrMatrix train;
  OcularConfig config;
  OcularModel model;
  std::string model_path;

  static DaemonFixture Make(const std::string& file, uint64_t seed = 11,
                            uint32_t sweeps = 6) {
    DaemonFixture f;
    f.train = test::RandomCsr(50, 30, 400, 11);
    f.config.k = 5;
    f.config.lambda = 0.5;
    f.config.max_sweeps = sweeps;
    f.config.seed = seed;
    OcularTrainer trainer(f.config);
    f.model = trainer.Fit(f.train).value().model;
    f.model_path = TempPath(file);
    EXPECT_TRUE(SaveModelBinary(f.model, f.config, f.model_path).ok());
    return f;
  }

  std::shared_ptr<const CsrMatrix> shared_train() const {
    return std::make_shared<const CsrMatrix>(train);
  }
};

TEST(ModelRegistryTest, LoadGetAndNames) {
  DaemonFixture f = DaemonFixture::Make("registry_a.oclr");
  ModelRegistry registry;
  EXPECT_EQ(registry.Get("default"), nullptr);
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  ASSERT_TRUE(registry.Load("alt", f.model_path).ok());
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"alt", "default"}));

  auto model = registry.Get("default");
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->store.num_users(), 50u);
  EXPECT_EQ(model->recommender->name(), "OCuLaR");
  // Exclusions come from the bound matrix; "alt" has none.
  EXPECT_EQ(model->ExcludeRow(0).size(), f.train.Row(0).size());
  EXPECT_TRUE(registry.Get("alt")->ExcludeRow(0).empty());

  // Loading a missing path fails and leaves the registry untouched.
  EXPECT_FALSE(registry.Load("default", "/nonexistent.oclr").ok());
  EXPECT_NE(registry.Get("default"), nullptr);
  std::remove(f.model_path.c_str());
}

TEST(ModelRegistryTest, ReloadSwapsAtomicallyAndRetiresOldMapping) {
  DaemonFixture f = DaemonFixture::Make("registry_reload.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("m", f.model_path, f.shared_train()).ok());

  // A request in flight pins the old generation.
  auto old_model = registry.Get("m");
  const double old_score = old_model->recommender->Score(0, 0);

  // Retrain with another seed and overwrite the file in place.
  DaemonFixture f2 = DaemonFixture::Make("registry_reload.oclr", /*seed=*/99);
  ASSERT_TRUE(registry.ReloadAll().ok());

  auto new_model = registry.Get("m");
  ASSERT_NE(new_model, nullptr);
  EXPECT_NE(new_model.get(), old_model.get());
  // New generation serves the new factors...
  EXPECT_EQ(new_model->recommender->Score(0, 0),
            OcularModelRecommender(f2.model).Score(0, 0));
  // ...while the drained-but-held old generation still serves the old ones
  // (its mapping is retired only when this shared_ptr drops).
  EXPECT_EQ(old_model->recommender->Score(0, 0), old_score);
  // Exclusion matrix is shared across generations, not re-read.
  EXPECT_EQ(new_model->train.get(), old_model->train.get());

  // A reload with the file gone keeps the previous generation serving.
  std::remove(f.model_path.c_str());
  EXPECT_FALSE(registry.ReloadAll().ok());
  EXPECT_EQ(registry.Get("m").get(), new_model.get());
}

TEST(RequestServerTest, ServedTopMIsBitIdenticalToBatchEngine) {
  DaemonFixture f = DaemonFixture::Make("daemon_parity.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer::Options options;
  options.serve.m = 8;
  RequestServer server(&registry, options);

  // The offline bulk artifact on the same model: in-memory recommender,
  // same exclusions, same m.
  OcularModelRecommender memory_rec(f.model);
  BatchOptions batch;
  batch.m = 8;
  batch.skip_cold_users = false;
  auto bulk = RecommendForAllUsers(memory_rec, f.train, batch);
  ASSERT_TRUE(bulk.ok());

  for (uint32_t u = 0; u < f.train.num_rows(); ++u) {
    auto served = server.Recommend("default", u, options.serve);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    const auto& oracle = bulk->recommendations[u];
    ASSERT_EQ(served->size(), oracle.size()) << "u=" << u;
    for (size_t r = 0; r < oracle.size(); ++r) {
      ASSERT_EQ((*served)[r].item, oracle[r].item) << "u=" << u;
      ASSERT_EQ((*served)[r].score, oracle[r].score) << "u=" << u;
    }
  }
  std::remove(f.model_path.c_str());
}

TEST(RequestServerTest, LineProtocol) {
  DaemonFixture f = DaemonFixture::Make("daemon_proto.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer server(&registry);

  // A recommend round trip, parsed back with the JSON parser.
  auto reply =
      JsonValue::Parse(server.HandleLine(R"({"cmd":"recommend","user":3,"m":4})"));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->Find("ok")->boolean());
  EXPECT_EQ(reply->Find("user")->number(), 3.0);
  const auto& items = reply->Find("items")->array();
  ASSERT_EQ(items.size(), 4u);
  for (size_t r = 1; r < items.size(); ++r) {
    EXPECT_GE(items[r - 1].Find("score")->number(),
              items[r].Find("score")->number());
  }

  // cmd defaults to recommend.
  auto bare = JsonValue::Parse(server.HandleLine(R"({"user":0})"));
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare->Find("ok")->boolean());

  // An explicit exclude overrides the training row.
  auto excl = JsonValue::Parse(server.HandleLine(
      R"({"user":3,"m":1,"exclude":[)" +
      std::to_string(items[0].Find("item")->number()) + "]}"));
  ASSERT_TRUE(excl.ok());
  EXPECT_NE(excl->Find("items")->array()[0].Find("item")->number(),
            items[0].Find("item")->number());

  // Errors answer ok:false and never kill the loop.
  for (const std::string bad : {
           std::string("this is not json"),
           std::string(R"([1,2,3])"),
           std::string(R"({"cmd":"recommend"})"),          // missing user
           std::string(R"({"user":1e9})"),                 // out of range
           std::string(R"({"user":2,"model":"absent"})"),  // unknown model
           std::string(R"({"cmd":"frobnicate"})"),         // unknown verb
       }) {
    auto err = JsonValue::Parse(server.HandleLine(bad));
    ASSERT_TRUE(err.ok()) << bad;
    EXPECT_FALSE(err->Find("ok")->boolean()) << bad;
    EXPECT_NE(err->Find("error"), nullptr) << bad;
  }

  // models verb reports the registry contents.
  auto models = JsonValue::Parse(server.HandleLine(R"({"cmd":"models"})"));
  ASSERT_TRUE(models.ok());
  ASSERT_EQ(models->Find("models")->array().size(), 1u);
  EXPECT_EQ(models->Find("models")->array()[0].Find("algorithm")->string(),
            "OCuLaR");

  // stats counts every request including the failed ones.
  auto stats = JsonValue::Parse(server.HandleLine(R"({"cmd":"stats"})"));
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->Find("ok")->boolean());
  EXPECT_GE(stats->Find("requests_served")->number(), 10.0);
  EXPECT_GE(stats->Find("errors")->number(), 6.0);
  EXPECT_GE(stats->Find("p99_latency_us")->number(),
            stats->Find("p50_latency_us")->number());
  std::remove(f.model_path.c_str());
}

TEST(RequestServerTest, PingAnswersLivenessWithoutTouchingAModel) {
  DaemonFixture f = DaemonFixture::Make("daemon_ping.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer server(&registry);

  auto ping = JsonValue::Parse(server.HandleLine(R"({"cmd":"ping"})"));
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_TRUE(ping->Find("ok")->boolean());
  ASSERT_NE(ping->Find("uptime_ms"), nullptr);
  EXPECT_GE(ping->Find("uptime_ms")->number(), 0.0);
  ASSERT_NE(ping->Find("generation"), nullptr);
  EXPECT_EQ(ping->Find("generation")->number(),
            static_cast<double>(registry.generation()));

  // ping is a liveness probe, not a request: it never resolves a model
  // lease, so it answers identically on an empty registry — the health
  // prober must get a truthful "alive" from a daemon whose model failed
  // to load or was never configured.
  ModelRegistry empty;
  RequestServer bare(&empty);
  auto bare_ping = JsonValue::Parse(bare.HandleLine(R"({"cmd":"ping"})"));
  ASSERT_TRUE(bare_ping.ok());
  EXPECT_TRUE(bare_ping->Find("ok")->boolean());

  // A reload bumps the generation and the next ping reports it — the
  // front tier can watch model rollouts through probe replies alone.
  const double before = ping->Find("generation")->number();
  ASSERT_TRUE(JsonValue::Parse(server.HandleLine(R"({"cmd":"reload"})"))
                  ->Find("ok")
                  ->boolean());
  auto after = JsonValue::Parse(server.HandleLine(R"({"cmd":"ping"})"));
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->Find("generation")->number(), before);
  std::remove(f.model_path.c_str());
}

TEST(RequestServerTest, ReloadVerbAndSighupBothHotReload) {
  DaemonFixture f = DaemonFixture::Make("daemon_reload.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer server(&registry);

  const std::string before =
      server.HandleLine(R"({"user":1,"m":5})");

  // Overwrite the file with a differently-seeded model; verb-driven reload.
  DaemonFixture f2 = DaemonFixture::Make("daemon_reload.oclr", /*seed=*/123);
  auto reload = JsonValue::Parse(server.HandleLine(R"({"cmd":"reload"})"));
  ASSERT_TRUE(reload.ok());
  EXPECT_TRUE(reload->Find("ok")->boolean());
  const std::string after = server.HandleLine(R"({"user":1,"m":5})");
  EXPECT_NE(before, after) << "reload must pick up the new factors";

  // SIGHUP latches a pending reload; ConsumePendingReload applies it once.
  RequestServer::InstallReloadSignalHandler();
  EXPECT_FALSE(server.ConsumePendingReload());
  ASSERT_EQ(::raise(SIGHUP), 0);
  EXPECT_TRUE(server.ConsumePendingReload());
  EXPECT_FALSE(server.ConsumePendingReload());
  EXPECT_EQ(server.Stats().reloads, 2u);
  // Identical file contents -> identical answers after the SIGHUP swap.
  EXPECT_EQ(server.HandleLine(R"({"user":1,"m":5})"), after);
  std::remove(f.model_path.c_str());
}

TEST(RequestServerTest, StdioLoopServesUntilQuit) {
  DaemonFixture f = DaemonFixture::Make("daemon_stdio.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer server(&registry);

  std::istringstream in(
      "{\"user\":0,\"m\":3}\n"
      "\n"  // blank lines are skipped
      "{\"cmd\":\"stats\"}\n"
      "{\"cmd\":\"quit\"}\n"
      "{\"user\":1}\n");  // never reached
  std::ostringstream out;
  server.RunStdioLoop(in, out);
  EXPECT_TRUE(server.quit_requested());

  std::istringstream lines(out.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    auto parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_TRUE(parsed->Find("ok")->boolean());
  }
  EXPECT_EQ(count, 3) << "quit must end the loop before the 4th request";
  std::remove(f.model_path.c_str());
}

// ------------------------------------------------ latency percentiles

TEST(LatencyStatsTest, MergedPercentileIsExactOnKnownSequence) {
  // 1..100 in scrambled order: p50 must be the 50th smallest (index
  // floor(0.5 * 99) = 49 -> value 50), p99 the 99th (index 98 -> 99).
  std::vector<double> window;
  for (int v = 100; v >= 1; --v) window.push_back(v);
  EXPECT_EQ(MergedPercentile(&window, 0.50), 50.0);
  EXPECT_EQ(MergedPercentile(&window, 0.99), 99.0);
  EXPECT_EQ(MergedPercentile(&window, 0.0), 1.0);
  EXPECT_EQ(MergedPercentile(&window, 1.0), 100.0);
  std::vector<double> empty;
  EXPECT_EQ(MergedPercentile(&empty, 0.5), 0.0);
  std::vector<double> one{7.5};
  EXPECT_EQ(MergedPercentile(&one, 0.99), 7.5);
}

TEST(LatencyStatsTest, PerWorkerRingsMergeToTheExactGlobalPercentile) {
  // The same 1..100 sequence striped across 4 worker rings must report
  // the same exact percentiles as a single ring would — merging the
  // windows BEFORE selecting is what makes the concurrent report exact
  // (averaging per-ring percentiles would give 50.5 here, not 50).
  std::deque<LatencyRing> rings;  // deque: LatencyRing holds atomics
  for (int w = 0; w < 4; ++w) rings.emplace_back(64);
  for (int v = 1; v <= 100; ++v) rings[v % 4].Record(v);
  std::vector<double> merged;
  for (const LatencyRing& ring : rings) ring.AppendWindowTo(&merged);
  ASSERT_EQ(merged.size(), 100u);
  EXPECT_EQ(MergedPercentile(&merged, 0.50), 50.0);
  EXPECT_EQ(MergedPercentile(&merged, 0.99), 99.0);
}

TEST(LatencyStatsTest, RingKeepsOnlyTheMostRecentWindow) {
  LatencyRing ring(4);
  for (int v = 1; v <= 6; ++v) ring.Record(v);
  std::vector<double> window;
  ring.AppendWindowTo(&window);
  std::sort(window.begin(), window.end());
  EXPECT_EQ(window, (std::vector<double>{3.0, 4.0, 5.0, 6.0}));
}

// ---------------------------------------------- concurrent TCP serving

/// Waits (bounded) for RunTcpLoop on `serve_thread` to publish its
/// listening port. Returns 0 — after reaping the thread — when the loop
/// failed socket setup instead of listening, so callers can ASSERT and
/// fail the test rather than spin forever.
uint16_t WaitForPort(const RequestServer& server, std::thread* serve_thread) {
  for (int ms = 0; ms < 10000; ++ms) {
    const uint16_t port = server.bound_port();
    if (port != 0) return port;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (serve_thread->joinable()) serve_thread->join();
  return 0;
}

/// The shared wire-exactness check (serving/loadgen.h) under the name
/// the assertions below read naturally with.
bool ReplyMatches(const std::string& line,
                  const std::vector<ScoredItem>& expect) {
  return ReplyMatchesRanked(line, expect);
}

/// The offline oracle for `model` under `train` exclusions at top-`m`.
std::vector<std::vector<ScoredItem>> Oracle(const OcularModel& model,
                                            const CsrMatrix& train,
                                            uint32_t m) {
  OcularModelRecommender rec(model);
  BatchOptions batch;
  batch.m = m;
  batch.skip_cold_users = false;
  return RecommendForAllUsers(rec, train, batch).value().recommendations;
}

TEST(ConcurrentDaemonTest, SimultaneousClientsAreBitIdenticalToBatchEngine) {
  DaemonFixture f = DaemonFixture::Make("daemon_concurrent.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());

  RequestServer::Options options;
  options.serve.m = 8;
  options.num_workers = 4;
  RequestServer server(&registry, options);
  EXPECT_EQ(server.num_workers(), 4u);

  const auto oracle = Oracle(f.model, f.train, 8);

  // 4 simultaneous pipelined clients; every client covers every user
  // (50 requests round-robin over 50 users), so every worker slot serves
  // rows that another worker serves too — identical answers required.
  constexpr uint32_t kClients = 4;
  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, kClients).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0) << "RunTcpLoop never started listening";

  std::atomic<uint64_t> mismatches{0};
  LoadGenOptions load;
  load.port = port;
  load.clients = kClients;
  load.requests_per_client = 50;
  load.pipeline = 8;
  load.m = 8;
  load.num_users = f.train.num_rows();
  load.on_reply = [&](uint32_t user, const std::string& line) {
    if (!ReplyMatches(line, oracle[user])) {
      mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  };
  auto result = RunLoadGen(load);
  serve_thread.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->requests, kClients * 50u);
  EXPECT_EQ(result->error_replies, 0u);
  EXPECT_EQ(mismatches.load(), 0u)
      << "a concurrently served reply differed from RecommendForAllUsers";

  const DaemonStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.requests_served, kClients * 50u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.workers, 4u);
  EXPECT_GE(stats.p99_latency_us, stats.p50_latency_us);
  std::remove(f.model_path.c_str());
}

TEST(ConcurrentDaemonTest, SighupReloadUnderLoadNeverServesATornModel) {
  DaemonFixture f = DaemonFixture::Make("daemon_reload_load.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer::InstallReloadSignalHandler();

  RequestServer::Options options;
  options.serve.m = 6;
  options.num_workers = 3;
  RequestServer server(&registry, options);

  const auto oracle_old = Oracle(f.model, f.train, 6);

  constexpr uint32_t kClients = 4;
  // Three waves of connections: all-old, reload-lands-mid-wave, all-new.
  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 3 * kClients).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0) << "RunTcpLoop never started listening";

  LoadGenOptions load;
  load.port = port;
  load.clients = kClients;
  load.requests_per_client = 40;
  load.pipeline = 4;
  load.m = 6;
  load.num_users = f.train.num_rows();

  // Wave 1: old generation only.
  std::atomic<uint64_t> torn{0};
  load.on_reply = [&](uint32_t user, const std::string& line) {
    if (!ReplyMatches(line, oracle_old[user])) {
      torn.fetch_add(1, std::memory_order_relaxed);
    }
  };
  ASSERT_TRUE(RunLoadGen(load).ok());
  EXPECT_EQ(torn.load(), 0u);

  // Overwrite the artifact with a differently-seeded model and latch the
  // reload; wave 2 runs while the swap lands. Every reply must be
  // entirely old-generation or entirely new-generation.
  DaemonFixture f2 =
      DaemonFixture::Make("daemon_reload_load.oclr", /*seed=*/97);
  const auto oracle_new = Oracle(f2.model, f.train, 6);
  ASSERT_EQ(::raise(SIGHUP), 0);

  std::atomic<uint64_t> old_seen{0};
  std::atomic<uint64_t> new_seen{0};
  load.on_reply = [&](uint32_t user, const std::string& line) {
    if (ReplyMatches(line, oracle_old[user])) {
      old_seen.fetch_add(1, std::memory_order_relaxed);
    } else if (ReplyMatches(line, oracle_new[user])) {
      new_seen.fetch_add(1, std::memory_order_relaxed);
    } else {
      torn.fetch_add(1, std::memory_order_relaxed);
    }
  };
  ASSERT_TRUE(RunLoadGen(load).ok());
  EXPECT_EQ(torn.load(), 0u)
      << "a reply matched neither the old nor the new generation";
  EXPECT_EQ(old_seen.load() + new_seen.load(),
            kClients * load.requests_per_client);

  // The latch is consumed by the first accept/read poll of wave 2, so by
  // wave 3 every worker serves the new generation exclusively.
  EXPECT_EQ(server.Stats().reloads, 1u);
  std::atomic<uint64_t> stale{0};
  load.on_reply = [&](uint32_t user, const std::string& line) {
    if (!ReplyMatches(line, oracle_new[user])) {
      stale.fetch_add(1, std::memory_order_relaxed);
    }
  };
  ASSERT_TRUE(RunLoadGen(load).ok());
  EXPECT_EQ(stale.load(), 0u)
      << "a worker kept serving the old generation after the reload";

  serve_thread.join();
  std::remove(f.model_path.c_str());
}

// ---------------------------------------------------- load shedding

/// Minimal raw TCP client for the shedding and disconnect tests: these
/// need precise control over when a connection reads and closes, which
/// the load generator (deliberately) does not expose — it always drains
/// its replies. The I/O itself delegates to the shared net:: loops.
struct RawClient {
  int fd = -1;
  std::string buffer;

  /// `rcvbuf` > 0 pins SO_RCVBUF before connect (so it caps the
  /// negotiated receive window): the slow-consumer tests need the
  /// kernel's autotuned buffers NOT to absorb a whole reply flood.
  bool Connect(uint16_t port, int rcvbuf = 0) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    if (rcvbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }
  bool Send(const std::string& line) {
    const std::string framed = line + "\n";
    return net::SendAll(fd, framed.data(), framed.size());
  }
  bool ReadLine(std::string* line) { return net::ReadLine(fd, &buffer, line); }
  void Close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

TEST(ConcurrentDaemonTest, MaxConnectionsCapShedsWith503StyleReply) {
  DaemonFixture f = DaemonFixture::Make("daemon_shed.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());

  RequestServer::Options options;
  options.num_workers = 1;
  options.max_connections = 2;  // A and B are admitted, C is shed
  RequestServer server(&registry, options);

  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 3).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0) << "RunTcpLoop never started listening";

  // A and B are live admitted connections (completed round trips prove
  // it) — under the epoll core an idle keep-alive connection costs no
  // worker, so both stay open while the single worker serves either.
  RawClient a;
  ASSERT_TRUE(a.Connect(port));
  ASSERT_TRUE(a.Send(R"({"user":0,"m":3})"));
  std::string line;
  ASSERT_TRUE(a.ReadLine(&line));
  RawClient b;
  ASSERT_TRUE(b.Connect(port));
  ASSERT_TRUE(b.Send(R"({"user":1,"m":3})"));
  ASSERT_TRUE(b.ReadLine(&line));

  // C exceeds the admission cap: 503 with the retry contract, then close.
  RawClient c;
  ASSERT_TRUE(c.Connect(port));
  ASSERT_TRUE(c.ReadLine(&line)) << "shed connection must get a reply";
  auto parsed = JsonValue::Parse(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_FALSE(parsed->Find("ok")->boolean());
  ASSERT_NE(parsed->Find("code"), nullptr);
  EXPECT_EQ(parsed->Find("code")->number(), 503.0);
  ASSERT_NE(parsed->Find("retry_after_ms"), nullptr);
  EXPECT_FALSE(c.ReadLine(&line)) << "shed connection must be closed";
  c.Close();

  // A and B were never disturbed by the shed.
  ASSERT_TRUE(a.Send(R"({"user":2,"m":3})"));
  ASSERT_TRUE(a.ReadLine(&line));
  a.Close();
  b.Close();
  serve_thread.join();
  const DaemonStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.connections_shed, 1u);
  EXPECT_EQ(stats.connections_capped, 1u);
  EXPECT_EQ(stats.connections_open, 0u);
  std::remove(f.model_path.c_str());
}

TEST(ConcurrentDaemonTest, ConnectionCoreCountersAreExact) {
  DaemonFixture f = DaemonFixture::Make("daemon_conn_counters.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());

  RequestServer::Options options;
  options.num_workers = 1;
  // A tiny outbound cap so one never-reading client trips the
  // slow-consumer policy deterministically: a single burst of large
  // replies overflows it long before the socket buffer helps.
  options.max_outbound_bytes = 16 << 10;
  options.io_timeout_ms = 50;
  options.idle_timeout_ms = 0;  // no 408s in this test
  RequestServer server(&registry, options);

  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 3).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0) << "RunTcpLoop never started listening";

  // Two live connections; the stats verb must report the open gauge
  // including both (the reply travels over one of them).
  RawClient a;
  ASSERT_TRUE(a.Connect(port));
  RawClient b;
  // A tiny receive window so the kernel cannot absorb B's reply flood
  // for it — the backlog must land in the server's outbound buffer.
  ASSERT_TRUE(b.Connect(port, /*rcvbuf=*/4096));
  ASSERT_TRUE(a.Send(R"({"cmd":"ping"})"));
  std::string line;
  ASSERT_TRUE(a.ReadLine(&line));
  ASSERT_TRUE(a.Send(R"({"cmd":"stats"})"));
  ASSERT_TRUE(a.ReadLine(&line));
  auto parsed = JsonValue::Parse(line);
  ASSERT_TRUE(parsed.ok()) << line;
  ASSERT_NE(parsed->Find("connections_open"), nullptr);
  EXPECT_EQ(parsed->Find("connections_open")->number(), 2.0);
  ASSERT_NE(parsed->Find("connections_slow_closed"), nullptr);
  EXPECT_EQ(parsed->Find("connections_slow_closed")->number(), 0.0);
  ASSERT_NE(parsed->Find("accept_emfile"), nullptr);
  EXPECT_EQ(parsed->Find("accept_emfile")->number(), 0.0);

  // B floods pipelined wide requests and never reads a byte: its reply
  // backlog must hit the outbound cap (or stall past the write-progress
  // deadline) and the connection must be dropped — never a blocked
  // worker, never an unbounded buffer. The flood's replies (~6 MB) are
  // sized past tcp_wmem's autotuning ceiling (4 MB on stock kernels) so
  // the kernel cannot absorb them all on B's behalf.
  std::string burst;
  for (int i = 0; i < 8000; ++i) burst += R"({"user":1,"m":30})" "\n";
  ASSERT_TRUE(b.Send(burst));
  std::string probe_line;
  bool slow_closed_seen = false;
  for (int tries = 0; tries < 100 && !slow_closed_seen; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    slow_closed_seen = server.Stats().connections_slow_closed > 0;
  }
  EXPECT_TRUE(slow_closed_seen)
      << "a never-reading client was not dropped by the slow-consumer "
         "policy";

  // A is still healthy after B's demise, and the peak outbound gauge
  // recorded B's backlog.
  ASSERT_TRUE(a.Send(R"({"user":2,"m":3})"));
  ASSERT_TRUE(a.ReadLine(&probe_line));
  const DaemonStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.connections_slow_closed, 1u);
  EXPECT_GT(stats.peak_outbound_bytes, 0u);
  EXPECT_EQ(stats.connections_shed, 0u);

  b.Close();
  a.Close();
  // The third accept ends the bounded loop.
  RawClient last;
  ASSERT_TRUE(last.Connect(port));
  last.Close();
  serve_thread.join();
  EXPECT_EQ(server.Stats().connections_open, 0u);
  std::remove(f.model_path.c_str());
}

TEST(ConcurrentDaemonTest, ClientVanishingWithUnreadRepliesDoesNotKillServer) {
  DaemonFixture f = DaemonFixture::Make("daemon_sigpipe.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer::Options options;
  options.num_workers = 1;
  RequestServer server(&registry, options);
  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 2).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0) << "RunTcpLoop never started listening";

  // Hundreds of pipelined requests whose replies overflow the socket
  // buffer, then vanish without reading any of them: the worker's
  // batched send hits the reset connection and must surface as an error
  // on THAT connection (MSG_NOSIGNAL), not as a process-killing SIGPIPE.
  {
    RawClient rude;
    ASSERT_TRUE(rude.Connect(port));
    std::string burst;
    for (int i = 0; i < 400; ++i) burst += R"({"user":1,"m":30})" "\n";
    (void)rude.Send(burst);
    rude.Close();  // unread replies pending -> RST at the server
  }

  // The server (and its one worker) must still be alive and correct.
  RawClient polite;
  ASSERT_TRUE(polite.Connect(port));
  ASSERT_TRUE(polite.Send(R"({"user":2,"m":3})"));
  std::string line;
  ASSERT_TRUE(polite.ReadLine(&line));
  auto reply = JsonValue::Parse(line);
  ASSERT_TRUE(reply.ok()) << line;
  EXPECT_TRUE(reply->Find("ok")->boolean());
  polite.Close();
  serve_thread.join();
  std::remove(f.model_path.c_str());
}

// ------------------------------------------------------ load generator

TEST(LoadGenTest, DrivesAndMeasuresAConcurrentDaemon) {
  DaemonFixture f = DaemonFixture::Make("daemon_loadgen.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer::Options options;
  options.num_workers = 2;
  RequestServer server(&registry, options);
  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 3).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0) << "RunTcpLoop never started listening";

  LoadGenOptions load;
  load.port = port;
  load.clients = 3;
  load.requests_per_client = 20;
  load.pipeline = 4;
  load.m = 5;
  load.num_users = f.train.num_rows();
  auto result = RunLoadGen(load);
  serve_thread.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->requests, 60u);
  EXPECT_EQ(result->ok_replies, 60u);
  EXPECT_EQ(result->error_replies, 0u);
  EXPECT_GT(result->requests_per_second, 0.0);
  EXPECT_GE(result->p99_latency_us, result->p50_latency_us);
  EXPECT_GT(result->p50_latency_us, 0.0);

  // Option validation.
  LoadGenOptions bad;
  EXPECT_TRUE(RunLoadGen(bad).status().IsInvalidArgument());
  std::remove(f.model_path.c_str());
}

// ------------------------------------------------------ fold-in serving

/// The training matrix's per-item interaction counts — the popularity
/// ranking the registry binds to a dataset-backed model.
std::vector<double> TrainPopularity(const CsrMatrix& train) {
  std::vector<double> pop(train.num_cols(), 0.0);
  for (uint32_t col : train.col_idx()) pop[col] += 1.0;
  return pop;
}

/// The offline fold-in oracle over the SAME context the daemon serves
/// from: in-memory factors (bit-identical to the mmapped binary file),
/// train-degree popularity, daemon-default serve/fold-in options.
std::vector<ScoredItem> HistoryOracle(const DaemonFixture& f,
                                      std::vector<uint32_t> history,
                                      uint32_t m, bool* folded = nullptr) {
  const std::vector<double> pop = TrainPopularity(f.train);
  auto ctx = MakeFoldInContext(f.model, f.config, pop);
  EXPECT_TRUE(ctx.ok()) << ctx.status().ToString();
  SanitizeHistory(&history, f.train.num_cols());
  FoldInWorkspace ws;
  std::vector<double> tile;
  std::vector<ScoredItem> selection;
  const ServeOptions serve;
  auto rec = RecommendForHistoryInto(*ctx, history, m, serve.min_score,
                                     serve.block_items, FoldInOptions{}, &ws,
                                     &tile, &selection);
  EXPECT_TRUE(rec.ok()) << rec.status().ToString();
  if (folded != nullptr) *folded = rec->folded;
  return {rec->items.begin(), rec->items.end()};
}

TEST(FoldInServingTest, HistoryRepliesAreBitIdenticalToOfflineOracle) {
  DaemonFixture f = DaemonFixture::Make("daemon_foldin.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer server(&registry);

  // Unsorted input with a duplicate: the daemon must sanitize before the
  // solve and reply exactly as the offline path over the clean history.
  const std::string line = server.HandleLine(
      R"({"cmd":"recommend","history":[9,2,9,0,5],"m":6})");
  bool folded = false;
  const auto oracle = HistoryOracle(f, {0, 2, 5, 9}, 6, &folded);
  EXPECT_TRUE(folded);
  EXPECT_TRUE(ReplyMatchesRanked(line, oracle)) << line;
  auto parsed = JsonValue::Parse(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Find("folded")->boolean());
  EXPECT_EQ(parsed->Find("dropped")->number(), 0.0);
  // The history's own items never come back as recommendations.
  for (const JsonValue& entry : parsed->Find("items")->array()) {
    const double item = entry.Find("item")->number();
    EXPECT_TRUE(item != 0.0 && item != 2.0 && item != 5.0 && item != 9.0);
  }

  // Out-of-range ids are dropped (counted in the reply and the stats),
  // not fatal: the remaining ids still fold.
  const std::string dropped_line = server.HandleLine(
      R"({"cmd":"recommend","history":[2,9999,5,123456],"m":6})");
  EXPECT_TRUE(ReplyMatchesRanked(dropped_line, HistoryOracle(f, {2, 5}, 6)))
      << dropped_line;
  auto dropped = JsonValue::Parse(dropped_line);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped->Find("dropped")->number(), 2.0);

  const DaemonStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.fold_in_requests, 2u);
  EXPECT_EQ(stats.history_dropped_ids, 2u);
  auto stats_line =
      JsonValue::Parse(server.HandleLine(R"({"cmd":"stats"})"));
  ASSERT_TRUE(stats_line.ok());
  EXPECT_EQ(stats_line->Find("fold_in_requests")->number(), 2.0);
  EXPECT_EQ(stats_line->Find("history_dropped_ids")->number(), 2.0);
  EXPECT_EQ(stats_line->Find("updates")->number(), 0.0);
  std::remove(f.model_path.c_str());
}

TEST(FoldInServingTest, EmptyOrFullyOutOfRangeHistoryFallsBackToPopularity) {
  DaemonFixture f = DaemonFixture::Make("daemon_foldin_pop.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer server(&registry);

  // The deterministic fallback: items ranked by training interaction
  // count, engine tie-break (lower id wins).
  const std::vector<double> pop = TrainPopularity(f.train);
  const std::vector<ScoredItem> expect = TopM(pop, 5, {});

  const std::string empty_line =
      server.HandleLine(R"({"cmd":"recommend","history":[],"m":5})");
  EXPECT_TRUE(ReplyMatchesRanked(empty_line, expect)) << empty_line;
  auto parsed = JsonValue::Parse(empty_line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->Find("folded")->boolean());

  // A history whose every id is beyond the catalog sanitizes to empty and
  // must answer the identical fallback (plus the drop count).
  const std::string oor_line = server.HandleLine(
      R"({"cmd":"recommend","history":[5000,6000],"m":5})");
  EXPECT_TRUE(ReplyMatchesRanked(oor_line, expect)) << oor_line;
  auto oor = JsonValue::Parse(oor_line);
  ASSERT_TRUE(oor.ok());
  EXPECT_FALSE(oor->Find("folded")->boolean());
  EXPECT_EQ(oor->Find("dropped")->number(), 2.0);
  std::remove(f.model_path.c_str());
}

TEST(FoldInServingTest, MalformedHistoryAndUpdateRequestsAnswerErrors) {
  DaemonFixture f = DaemonFixture::Make("daemon_foldin_err.oclr");
  std::remove(UpdateJournal::PathFor(f.model_path).c_str());
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  // "nodata": same model without a bound dataset — updates must refuse.
  ASSERT_TRUE(registry.Load("nodata", f.model_path).ok());
  // "dot": a non-OCuLaR factor file — fold-in must refuse.
  const std::string dot_path = TempPath("daemon_foldin_err_dot.oclr");
  {
    DenseMatrix users(4, 3);
    DenseMatrix items(6, 3);
    ASSERT_TRUE(
        SaveDotProductFactors("wALS", 3, 0.1, users, items, dot_path).ok());
  }
  ASSERT_TRUE(registry.Load("dot", dot_path).ok());
  RequestServer server(&registry);

  for (const std::string bad : {
           // fold-in shape errors
           std::string(R"({"history":"0,1,2"})"),
           std::string(R"({"history":[1,-2]})"),
           std::string(R"({"history":[1.5]})"),
           std::string(R"({"history":["a"]})"),
           std::string(R"({"user":1,"history":[2]})"),
           std::string(R"({"history":[2],"exclude":[3]})"),
           std::string(R"({"history":[1],"model":"dot"})"),
           std::string(R"({"history":[1],"model":"absent"})"),
           // update shape errors
           std::string(R"({"cmd":"update"})"),
           std::string(R"({"cmd":"update","adds":[[1,2,3]]})"),
           std::string(R"({"cmd":"update","adds":[[1,-2]]})"),
           std::string(R"({"cmd":"update","adds":[3]})"),
           std::string(R"({"cmd":"update","adds":[[1,2]],"sweeps":0})"),
           std::string(R"({"cmd":"update","adds":[[1,2]],"model":"absent"})"),
           std::string(R"({"cmd":"update","adds":[[1,2]],"model":"nodata"})"),
           // ids whose +1 overflows the shape: refused before the journal
           std::string(R"({"cmd":"update","adds":[[3,4294967295]]})"),
           std::string(R"({"cmd":"update","adds":[[4294967295,0]]})"),
           // shapes whose factors outgrow physical memory: refused before
           // anything is allocated or journaled
           std::string(R"({"cmd":"update","adds":[[1,2]],)"
                       R"("num_items":4000000000,"sweeps":1})"),
           std::string(R"({"cmd":"update","adds":[[1,4294967294]]})"),
       }) {
    auto err = JsonValue::Parse(server.HandleLine(bad));
    ASSERT_TRUE(err.ok()) << bad;
    EXPECT_FALSE(err->Find("ok")->boolean()) << bad;
    EXPECT_NE(err->Find("error"), nullptr) << bad;
  }
  // No update may have landed: same registry generation throughout, and
  // nothing was journaled for a restart to replay.
  EXPECT_EQ(server.Stats().updates, 0u);
  auto plan = UpdateJournal::LoadPlan(UpdateJournal::PathFor(f.model_path));
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->applied.empty());
  EXPECT_FALSE(plan->has_pending);
  std::remove(f.model_path.c_str());
  std::remove(dot_path.c_str());
}

/// Replays the daemon's update pipeline offline: materialize the binary
/// artifact, merge the training matrix with `adds`, refresh the touched
/// rows for `sweeps` rounds. Returns the refreshed model and the merged
/// matrix — the oracle an in-daemon `update` must match bit-for-bit.
struct OfflineUpdate {
  OcularModel model;
  CsrMatrix train;
};
OfflineUpdate ReplayUpdate(
    const std::string& model_path,
    const CsrMatrix& train,
    const std::vector<std::pair<uint32_t, uint32_t>>& adds, uint32_t sweeps) {
  auto store = ModelStore::Open(model_path);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  auto loaded = store->MaterializeOcular();
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  uint32_t users = store->num_users();
  uint32_t items = store->num_items();
  CooBuilder coo;
  for (auto [u, i] : train.ToPairs()) coo.Add(u, i);
  for (auto [u, i] : adds) {
    users = std::max(users, u + 1);
    items = std::max(items, i + 1);
    coo.Add(u, i);
  }
  CsrMatrix merged =
      CsrMatrix::FromCoo(coo.Finalize(users, items).value());
  OcularConfig config = loaded->config;
  config.max_sweeps = sweeps;
  auto refreshed =
      RefreshModel(&loaded->model, merged, adds, config, ExpandOptions{});
  EXPECT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  return {std::move(loaded->model), std::move(merged)};
}

TEST(FoldInServingTest, UpdateVerbPublishesANewGenerationServingNewUsers) {
  DaemonFixture f = DaemonFixture::Make("daemon_update.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer::Options options;
  options.serve.m = 5;
  RequestServer server(&registry, options);

  const auto before = registry.Get("default");
  // New user 50 appears with three purchases; replicate offline FIRST
  // (the daemon's publish overwrites the artifact in place).
  const std::vector<std::pair<uint32_t, uint32_t>> adds = {
      {50, 0}, {50, 7}, {50, 12}};
  const OfflineUpdate oracle = ReplayUpdate(f.model_path, f.train, adds, 3);

  auto reply = JsonValue::Parse(server.HandleLine(
      R"({"cmd":"update","adds":[[50,0],[50,7],[50,12]],"sweeps":3})"));
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->Find("ok")->boolean()) << server.Stats().errors;
  EXPECT_EQ(reply->Find("users")->number(), 51.0);
  EXPECT_EQ(reply->Find("items")->number(), 30.0);
  EXPECT_GE(reply->Find("publish_us")->number(), 0.0);

  // A new generation is live: fresh registry pointer, grown shape, and
  // the overwritten artifact stays valid for a later SIGHUP reload.
  const auto after = registry.Get("default");
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after.get(), before.get());
  EXPECT_EQ(after->store.num_users(), 51u);
  EXPECT_EQ(server.Stats().updates, 1u);

  // The brand-new user is servable at once, bit-identical to the offline
  // replay (same factors, same merged-train exclusions).
  const auto expect = Oracle(oracle.model, oracle.train, 5);
  const std::string served =
      server.HandleLine(R"({"cmd":"recommend","user":50,"m":5})");
  EXPECT_TRUE(ReplyMatchesRanked(served, expect[50])) << served;
  // Old users keep serving the (retrained) model consistently too.
  const std::string old_user =
      server.HandleLine(R"({"cmd":"recommend","user":3,"m":5})");
  EXPECT_TRUE(ReplyMatchesRanked(old_user, expect[3])) << old_user;
  std::remove(f.model_path.c_str());
}

TEST(ConcurrentDaemonTest, UpdateUnderLoadNeverServesATornModel) {
  DaemonFixture f = DaemonFixture::Make("daemon_update_load.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());

  RequestServer::Options options;
  options.serve.m = 6;
  options.num_workers = 3;
  RequestServer server(&registry, options);

  const auto oracle_old = Oracle(f.model, f.train, 6);
  const std::vector<std::pair<uint32_t, uint32_t>> adds = {
      {50, 1}, {50, 4}, {51, 2}};
  const OfflineUpdate updated = ReplayUpdate(f.model_path, f.train, adds, 2);
  const auto oracle_new = Oracle(updated.model, updated.train, 6);

  constexpr uint32_t kClients = 4;
  // Three waves of recommend connections plus the updater's own.
  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 3 * kClients + 1).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0) << "RunTcpLoop never started listening";

  LoadGenOptions load;
  load.port = port;
  load.clients = kClients;
  load.requests_per_client = 40;
  load.pipeline = 4;
  load.m = 6;
  load.num_users = f.train.num_rows();  // only pre-update users queried

  // Wave 1: old generation only.
  std::atomic<uint64_t> torn{0};
  load.on_reply = [&](uint32_t user, const std::string& line) {
    if (!ReplyMatches(line, oracle_old[user])) {
      torn.fetch_add(1, std::memory_order_relaxed);
    }
  };
  ASSERT_TRUE(RunLoadGen(load).ok());
  EXPECT_EQ(torn.load(), 0u);

  // Wave 2: the update lands mid-wave on its own connection while the
  // fleet keeps querying. Every reply must be ENTIRELY old-generation or
  // ENTIRELY new-generation — a mixed ranking means a torn model.
  std::thread updater([port] {
    RawClient u;
    ASSERT_TRUE(u.Connect(port));
    ASSERT_TRUE(u.Send(
        R"({"cmd":"update","adds":[[50,1],[50,4],[51,2]],"sweeps":2})"));
    std::string reply;
    ASSERT_TRUE(u.ReadLine(&reply));
    auto parsed = JsonValue::Parse(reply);
    ASSERT_TRUE(parsed.ok()) << reply;
    EXPECT_TRUE(parsed->Find("ok")->boolean()) << reply;
    u.Close();
  });
  std::atomic<uint64_t> old_seen{0};
  std::atomic<uint64_t> new_seen{0};
  load.on_reply = [&](uint32_t user, const std::string& line) {
    if (ReplyMatches(line, oracle_old[user])) {
      old_seen.fetch_add(1, std::memory_order_relaxed);
    } else if (ReplyMatches(line, oracle_new[user])) {
      new_seen.fetch_add(1, std::memory_order_relaxed);
    } else {
      torn.fetch_add(1, std::memory_order_relaxed);
    }
  };
  ASSERT_TRUE(RunLoadGen(load).ok());
  updater.join();
  EXPECT_EQ(torn.load(), 0u)
      << "a reply matched neither the old nor the updated generation";
  EXPECT_EQ(old_seen.load() + new_seen.load(),
            kClients * load.requests_per_client);
  EXPECT_EQ(server.Stats().updates, 1u);

  // Wave 3: the update has published; every worker serves the new
  // generation exclusively, including the just-added users.
  std::atomic<uint64_t> stale{0};
  load.num_users = updated.train.num_rows();
  load.on_reply = [&](uint32_t user, const std::string& line) {
    if (!ReplyMatches(line, oracle_new[user])) {
      stale.fetch_add(1, std::memory_order_relaxed);
    }
  };
  ASSERT_TRUE(RunLoadGen(load).ok());
  EXPECT_EQ(stale.load(), 0u)
      << "a worker kept serving the pre-update generation";

  serve_thread.join();
  std::remove(f.model_path.c_str());
}

TEST(LoadGenTest, HistoryTrafficExercisesTheFoldInPath) {
  DaemonFixture f = DaemonFixture::Make("daemon_loadgen_hist.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer::Options options;
  options.num_workers = 2;
  RequestServer server(&registry, options);
  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 2).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0) << "RunTcpLoop never started listening";

  std::atomic<uint64_t> history_replies{0};
  std::atomic<uint64_t> user_replies{0};
  LoadGenOptions load;
  load.port = port;
  load.clients = 2;
  load.requests_per_client = 20;
  load.pipeline = 4;
  load.m = 5;
  load.num_users = f.train.num_rows();
  load.history_every = 2;  // every other request folds in
  load.history_len = 5;
  load.num_items = f.train.num_cols();
  load.on_history_reply = [&](std::span<const uint32_t> history,
                              const std::string& line) {
    EXPECT_EQ(history.size(), 5u);
    EXPECT_EQ(line.rfind("{\"ok\":true", 0), 0u) << line;
    history_replies.fetch_add(1, std::memory_order_relaxed);
  };
  load.on_reply = [&](uint32_t, const std::string&) {
    user_replies.fetch_add(1, std::memory_order_relaxed);
  };
  auto result = RunLoadGen(load);
  serve_thread.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->error_replies, 0u);
  EXPECT_EQ(history_replies.load(), 20u);  // every even slot of 2x20
  EXPECT_EQ(user_replies.load(), 20u);
  EXPECT_EQ(server.Stats().fold_in_requests, 20u);

  // The generator itself is deterministic and refuses a missing catalog.
  EXPECT_EQ(LoadGenHistory(7, 5, 30), LoadGenHistory(7, 5, 30));
  LoadGenOptions bad = load;
  bad.num_items = 0;
  EXPECT_TRUE(RunLoadGen(bad).status().IsInvalidArgument());
  std::remove(f.model_path.c_str());
}

}  // namespace
}  // namespace ocular
