// The serve daemon's end-to-end promises, driven through real loopback
// sockets: concurrent clients receive answers bit-identical to a direct
// Execute on the same index; a cache hit returns the identical answer bytes;
// approximate and budgeted queries bypass the cache; admission control
// answers overload with an explicit rejection frame; a cache hit
// merges no work into STATS; a cache hit and an ng query are answered
// by the connection's reader while the only pool worker is held; each
// server's STATS counts only its own queries; a pooled daemon's answers
// carry their
// measured pool counters; malformed bytes get an error frame and a closed
// connection, never a crash; Reload swaps the index without dropping
// the listener; a failed accept does not stop the acceptor; and a closed
// connection's reader thread is joined before shutdown.
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench/registry.h"
#include "core/method.h"
#include "core/query_spec.h"
#include "core/search_stats.h"
#include "gen/random_walk.h"
#include "gen/workload.h"
#include "io/series_file.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "storage/backend.h"

namespace hydra::serve {
namespace {

class ServeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = gen::RandomWalkDataset(600, 64, 2021);
    workload_ = gen::CtrlWorkload(data_, 12, 2022);
  }

  /// A freshly built instance of the served method (DSTree: concurrent
  /// queries, every quality mode, leaf budgets — the richest traits).
  std::shared_ptr<core::SearchMethod> BuildMethod() {
    std::shared_ptr<core::SearchMethod> method =
        bench::CreateMethod("DSTree", 64);
    method->Build(data_);
    return method;
  }

  QueryRequest RequestFor(size_t q, const core::QuerySpec& spec) const {
    const core::SeriesView view = workload_.queries[q];
    return QueryRequest{spec,
                        std::vector<core::Value>(view.begin(), view.end())};
  }

  core::Dataset data_;
  gen::Workload workload_;
};

/// Byte-level answer identity, ignoring the transport-only `cached` flag.
/// A cache hit replays the recorded ledger verbatim, so even the measured
/// cpu_seconds round-trips bit-identically.
std::string AnswerBytes(const AnswerResponse& answer) {
  return EncodeAnswerResponse(AnswerResponse{answer.result, false});
}

/// Byte-level identity across independent executions: every deterministic
/// field the wire carries (neighbors and the full counter ledger), with
/// only the measured-wall-clock cpu_seconds zeroed — two runs of the same
/// query legitimately differ there and nowhere else.
std::string ComparableBytes(const AnswerResponse& answer) {
  AnswerResponse normalized{answer.result, false};
  normalized.result.stats.cpu_seconds = 0.0;
  return EncodeAnswerResponse(normalized);
}

/// The direct-Execute reference, encoded through the same codec so the
/// comparison covers everything at once.
std::string DirectBytes(core::SearchMethod* method, core::SeriesView query,
                        const core::QuerySpec& spec) {
  return ComparableBytes(AnswerResponse{method->Execute(query, spec), false});
}

TEST_F(ServeFixture, EightConcurrentClientsAreBitIdenticalToDirectExecute) {
  auto method = BuildMethod();
  auto reference = BuildMethod();  // independent instance for direct answers

  ServerOptions options;
  options.serve_threads = 4;
  Server server(options);
  ASSERT_TRUE(server.Start(method, &data_).ok());

  const core::QuerySpec spec = core::QuerySpec::Knn(5);
  std::vector<std::string> expected;
  for (size_t q = 0; q < workload_.queries.size(); ++q) {
    expected.push_back(
        DirectBytes(reference.get(), workload_.queries[q], spec));
  }

  constexpr size_t kClients = 8;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client;
      const util::Status connected =
          client.Connect("127.0.0.1", server.port());
      if (!connected.ok()) {
        failures[c] = connected.message();
        return;
      }
      // Each client walks the workload from its own starting offset so the
      // in-flight mix differs across clients at any instant.
      for (size_t i = 0; i < workload_.queries.size(); ++i) {
        const size_t q = (c + i) % workload_.queries.size();
        AnswerResponse answer;
        const util::Status s =
            client.Query(RequestFor(q, spec), &answer, nullptr);
        if (!s.ok()) {
          failures[c] = s.message();
          return;
        }
        if (ComparableBytes(answer) != expected[q]) {
          failures[c] = "answer to query " + std::to_string(q) +
                        " differs from direct Execute";
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }
  server.Shutdown();
}

TEST_F(ServeFixture, CacheHitReturnsIdenticalBytesAndIsVisibleInStats) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start(BuildMethod(), &data_).ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  const QueryRequest request = RequestFor(0, core::QuerySpec::Knn(3));

  AnswerResponse first, second;
  ASSERT_TRUE(client.Query(request, &first, nullptr).ok());
  ASSERT_TRUE(client.Query(request, &second, nullptr).ok());
  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(AnswerBytes(first), AnswerBytes(second));

  const AnswerCache::Counters counters = server.cache_counters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.insertions, 1u);

  // The hit is visible in the STATS document a client fetches.
  std::string json;
  ASSERT_TRUE(client.Stats(&json).ok());
  EXPECT_NE(json.find("\"hits\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"hit_rate\":0.5"), std::string::npos) << json;
  server.Shutdown();
}

/// The STATS document once the server has recorded `completed` answers: a
/// worker records its answer after writing it, so a client holding the
/// answer can ask for STATS a moment before the answer is counted.
std::string StatsAfter(Client* client, uint64_t completed) {
  const std::string want = "\"completed\":" + std::to_string(completed) + ",";
  std::string json;
  for (int attempt = 0; attempt < 500; ++attempt) {
    if (!client->Stats(&json).ok()) return "";
    if (json.find(want) != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return json;
}

/// Counter `name` of the merged ledger in a STATS document (-1 if absent).
int64_t StatsLedgerValue(const std::string& json, const char* name) {
  const size_t block = json.find("\"search_stats\"");
  if (block == std::string::npos) return -1;
  const std::string key = "\"" + std::string(name) + "\":";
  const size_t at = json.find(key, block);
  if (at == std::string::npos) return -1;
  return std::stoll(json.substr(at + key.size()));
}

TEST_F(ServeFixture, CacheHitsMergeNoWorkIntoStats) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start(BuildMethod(), &data_).ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  const QueryRequest request = RequestFor(2, core::QuerySpec::Knn(3));
  AnswerResponse first, second;
  ASSERT_TRUE(client.Query(request, &first, nullptr).ok());
  ASSERT_TRUE(client.Query(request, &second, nullptr).ok());
  ASSERT_TRUE(second.cached);

  // Two answers, one execution: the server's ledger is the first answer's.
  const std::string json = StatsAfter(&client, 2);
  ASSERT_GT(first.result.stats.distance_computations, 0);
  for (const core::LedgerCounter& counter : core::kLedgerCounters) {
    EXPECT_EQ(StatsLedgerValue(json, counter.name),
              first.result.stats.*counter.member)
        << counter.name;
  }
  server.Shutdown();
}

/// Counter `name` of the registry section of a STATS document (-1 if
/// absent).
int64_t StatsMetricsCounter(const std::string& json, const std::string& name) {
  const size_t block = json.find("\"metrics\"");
  if (block == std::string::npos) return -1;
  const std::string key = "\"" + name + "\":";
  const size_t at = json.find(key, block);
  if (at == std::string::npos) return -1;
  return std::stoll(json.substr(at + key.size()));
}

TEST_F(ServeFixture, EachServerKeepsItsOwnMetrics) {
  // Two servers in one process, one after the other, one exact query each:
  // the second server's STATS counts only its own query, and its ledger
  // and its registry counters agree.
  std::string json;
  AnswerResponse answer;
  for (size_t q = 0; q < 2; ++q) {
    Server server(ServerOptions{});
    ASSERT_TRUE(server.Start(BuildMethod(), &data_).ok());
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(client
                    .Query(RequestFor(3 + q, core::QuerySpec::Knn(3)),
                           &answer, nullptr)
                    .ok());
    ASSERT_FALSE(answer.cached);
    json = StatsAfter(&client, 1);
    server.Shutdown();
  }
  EXPECT_EQ(StatsMetricsCounter(json, "serve.queries"), 1) << json;
  ASSERT_GT(answer.result.stats.distance_computations, 0);
  for (const core::LedgerCounter& counter : core::kLedgerCounters) {
    EXPECT_EQ(StatsLedgerValue(json, counter.name),
              answer.result.stats.*counter.member)
        << counter.name;
    EXPECT_EQ(StatsMetricsCounter(json, std::string("serve.") + counter.name),
              StatsLedgerValue(json, counter.name))
        << counter.name;
  }
}

TEST_F(ServeFixture, PooledAnswersCarryTheirMeasuredPoolCounters) {
  const std::string path = ::testing::TempDir() + "/hydra_serve_pooled.bin";
  ASSERT_TRUE(io::WriteSeriesFile(path, data_).ok());
  storage::StorageOptions options;
  options.backend = storage::StorageBackend::kMmap;
  options.pool.budget_bytes = 32 << 10;
  options.pool.page_bytes = 8 << 10;
  auto opened = storage::StorageHandle::Open(path, "pooled", options);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const storage::StorageHandle pooled = std::move(opened).value();
  ASSERT_EQ(pooled.backend(), storage::StorageBackend::kMmap);
  std::shared_ptr<core::SearchMethod> method =
      bench::CreateMethod("DSTree", 64);
  method->Build(pooled.dataset());

  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start(method, &pooled.dataset()).ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Each answer's ledger, pool counters included, is exactly what its
  // request added to the server's ledger.
  core::SearchStats sum;
  for (size_t q = 0; q < 3; ++q) {
    AnswerResponse answer;
    ASSERT_TRUE(
        client.Query(RequestFor(q, core::QuerySpec::Knn(3)), &answer, nullptr)
            .ok());
    ASSERT_FALSE(answer.cached);
    EXPECT_GT(answer.result.stats.pool_hits + answer.result.stats.pool_misses,
              0)
        << "query " << q;
    sum.Add(answer.result.stats);
    const std::string json = StatsAfter(&client, q + 1);
    for (const core::LedgerCounter& counter : core::kLedgerCounters) {
      EXPECT_EQ(StatsLedgerValue(json, counter.name), sum.*counter.member)
          << "query " << q << " " << counter.name;
    }
  }
  server.Shutdown();
  std::remove(path.c_str());
}

TEST_F(ServeFixture, ApproximateAndBudgetedQueriesBypassTheCache) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start(BuildMethod(), &data_).ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  core::QuerySpec budgeted = core::QuerySpec::Knn(3);
  budgeted.max_raw_series = 50;
  for (const core::QuerySpec& spec :
       {core::QuerySpec::NgApprox(3), core::QuerySpec::Epsilon(3, 0.5),
        budgeted}) {
    const QueryRequest request = RequestFor(1, spec);
    AnswerResponse repeat;
    for (int round = 0; round < 2; ++round) {
      ASSERT_TRUE(client.Query(request, &repeat, nullptr).ok());
      EXPECT_FALSE(repeat.cached);
    }
  }
  // No lookup, insertion, or hit ever happened: only exact unbudgeted
  // answers are cacheable.
  const AnswerCache::Counters counters = server.cache_counters();
  EXPECT_EQ(counters.hits, 0u);
  EXPECT_EQ(counters.misses, 0u);
  EXPECT_EQ(counters.insertions, 0u);
  server.Shutdown();
}

TEST_F(ServeFixture, OverloadAnswersWithAnExplicitRejectionFrame) {
  // One admission slot, and the execute hook holds the admitted query
  // in-flight until released — the second query's rejection is
  // deterministic, not a race.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  std::atomic<bool> first_entry{true};

  ServerOptions options;
  options.max_inflight = 1;
  options.execute_hook = [&] {
    if (first_entry.exchange(false)) entered.set_value();
    release_future.wait();
  };
  Server server(options);
  ASSERT_TRUE(server.Start(BuildMethod(), &data_).ok());

  const QueryRequest request = RequestFor(2, core::QuerySpec::Knn(1));
  util::Status blocked_status = util::Status::Ok();
  std::thread blocked([&] {
    Client client;
    const util::Status connected =
        client.Connect("127.0.0.1", server.port());
    if (!connected.ok()) {
      blocked_status = connected;
      return;
    }
    AnswerResponse answer;
    blocked_status = client.Query(request, &answer, nullptr);
  });
  entered.get_future().wait();  // the slot is now provably occupied

  Client overflow;
  ASSERT_TRUE(overflow.Connect("127.0.0.1", server.port()).ok());
  AnswerResponse answer;
  ErrorCode code = ErrorCode::kInternal;
  const util::Status rejected = overflow.Query(request, &answer, &code);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(code, ErrorCode::kResourceExhausted);
  EXPECT_NE(rejected.message().find("resource-exhausted"),
            std::string::npos);

  // The rejection is backpressure, not a dropped connection: the same
  // client is answered once the slot frees up.
  release.set_value();
  blocked.join();
  EXPECT_TRUE(blocked_status.ok()) << blocked_status.message();
  AnswerResponse retry;
  EXPECT_TRUE(overflow.Query(request, &retry, nullptr).ok());

  std::string json;
  ASSERT_TRUE(overflow.Stats(&json).ok());
  EXPECT_NE(json.find("\"rejected\":1"), std::string::npos) << json;
  server.Shutdown();
}

TEST_F(ServeFixture, InlineAnswersDoNotWaitBehindAHeldWorker) {
  // One pool worker, held in the execute hook by an uncached exact query
  // from connection A. A cache hit and an ng query from connection B need
  // no worker: B's reader answers them while the worker is still held.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  std::atomic<bool> armed{false};

  ServerOptions options;
  options.serve_threads = 1;
  options.execute_hook = [&] {
    if (!armed.exchange(false)) return;
    entered.set_value();
    release_future.wait();
  };
  std::shared_ptr<core::SearchMethod> method = BuildMethod();
  Server server(options);
  ASSERT_TRUE(server.Start(method, &data_).ok());

  const QueryRequest cached = RequestFor(7, core::QuerySpec::Knn(3));
  const QueryRequest held = RequestFor(8, core::QuerySpec::Knn(3));
  const QueryRequest ng = RequestFor(9, core::QuerySpec::NgApprox(3));
  Client b;
  ASSERT_TRUE(b.Connect("127.0.0.1", server.port()).ok());
  AnswerResponse warm;
  ASSERT_TRUE(b.Query(cached, &warm, nullptr).ok());
  ASSERT_FALSE(warm.cached);

  armed = true;
  util::Status held_status = util::Status::Ok();
  AnswerResponse held_answer;
  std::thread a([&] {
    Client client;
    held_status = client.Connect("127.0.0.1", server.port());
    if (held_status.ok()) {
      held_status = client.Query(held, &held_answer, nullptr);
    }
  });
  entered.get_future().wait();  // the only worker is now held

  AnswerResponse ng_answer, hit_answer;
  std::future<util::Status> inline_answers =
      std::async(std::launch::async, [&] {
        const util::Status s = b.Query(ng, &ng_answer, nullptr);
        return s.ok() ? b.Query(cached, &hit_answer, nullptr) : s;
      });
  // On a timeout, release the worker first, so the test fails instead of
  // hanging.
  const bool answered = inline_answers.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;
  release.set_value();
  a.join();
  ASSERT_TRUE(answered)
      << "an ng query or a cache hit waited behind the held pool worker";
  const util::Status inline_status = inline_answers.get();
  ASSERT_TRUE(inline_status.ok()) << inline_status.message();
  EXPECT_FALSE(ng_answer.cached);
  EXPECT_EQ(ComparableBytes(ng_answer),
            DirectBytes(method.get(), workload_.queries[9],
                        core::QuerySpec::NgApprox(3)));
  EXPECT_TRUE(hit_answer.cached);
  EXPECT_EQ(AnswerBytes(hit_answer), AnswerBytes(warm));

  ASSERT_TRUE(held_status.ok()) << held_status.message();
  EXPECT_FALSE(held_answer.cached);
  EXPECT_EQ(ComparableBytes(held_answer),
            DirectBytes(method.get(), workload_.queries[8],
                        core::QuerySpec::Knn(3)));

  // Three cacheable requests (warm, held, hit), one lookup each.
  const AnswerCache::Counters counters = server.cache_counters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 2u);
  EXPECT_EQ(counters.hits + counters.misses, 3u);

  // The flight records say which path each request took.
  const std::string json = StatsAfter(&b, 4);
  EXPECT_NE(json.find("\"inline\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"inline\":false"), std::string::npos) << json;
  server.Shutdown();
}

TEST_F(ServeFixture, MalformedBytesGetAnErrorFrameNeverACrash) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start(BuildMethod(), &data_).ok());

  // A raw socket speaking not-the-protocol: the server must answer with a
  // kMalformed error frame and close, and keep serving other clients.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string garbage = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(garbage.size()));

  FrameDecoder decoder;
  Frame frame;
  bool got_frame = false;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // server closed after the error frame
    decoder.Feed(buf, static_cast<size_t>(n));
    if (decoder.Pop(&frame) == FrameDecoder::Next::kFrame) {
      got_frame = true;
    }
  }
  ::close(fd);
  ASSERT_TRUE(got_frame);
  ASSERT_EQ(frame.type, FrameType::kError);
  ErrorResponse error;
  ASSERT_TRUE(DecodeErrorResponse(frame.payload, &error).ok());
  EXPECT_EQ(error.code, ErrorCode::kMalformed);

  // The daemon shrugged it off: a well-behaved client still gets answers.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(client.Ping().ok());
  AnswerResponse answer;
  EXPECT_TRUE(
      client.Query(RequestFor(3, core::QuerySpec::Knn(1)), &answer, nullptr)
          .ok());
  server.Shutdown();
}

TEST_F(ServeFixture, BadSpecsAreRefusedWithBadQueryNotServedSilently) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start(BuildMethod(), &data_).ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Wrong query length: the vector does not match the served collection.
  QueryRequest wrong_length = RequestFor(0, core::QuerySpec::Knn(1));
  wrong_length.query.resize(16);
  AnswerResponse answer;
  ErrorCode code = ErrorCode::kInternal;
  EXPECT_FALSE(client.Query(wrong_length, &answer, &code).ok());
  EXPECT_EQ(code, ErrorCode::kBadQuery);

  // k = 0 violates the k-NN contract.
  QueryRequest zero_k = RequestFor(0, core::QuerySpec::Knn(1));
  zero_k.spec.k = 0;
  EXPECT_FALSE(client.Query(zero_k, &answer, &code).ok());
  EXPECT_EQ(code, ErrorCode::kBadQuery);

  // A bad query never poisons the connection: the next good one answers.
  EXPECT_TRUE(
      client.Query(RequestFor(0, core::QuerySpec::Knn(1)), &answer, nullptr)
          .ok());
  server.Shutdown();
}

TEST_F(ServeFixture, ReloadSwapsTheIndexWithoutDroppingClients) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start(BuildMethod(), &data_).ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  const QueryRequest request = RequestFor(4, core::QuerySpec::Knn(3));
  AnswerResponse before;
  ASSERT_TRUE(client.Query(request, &before, nullptr).ok());

  // The SIGHUP path: swap in a freshly built index on the live listener.
  server.Reload(BuildMethod());

  // The connection survived, the cache stayed valid (same dataset
  // fingerprint), and the swapped index answers identically.
  AnswerResponse cached;
  ASSERT_TRUE(client.Query(request, &cached, nullptr).ok());
  EXPECT_TRUE(cached.cached);
  EXPECT_EQ(AnswerBytes(before), AnswerBytes(cached));

  AnswerResponse fresh;
  ASSERT_TRUE(
      client.Query(RequestFor(5, core::QuerySpec::Knn(3)), &fresh, nullptr)
          .ok());
  EXPECT_FALSE(fresh.cached);
  auto reference = BuildMethod();
  EXPECT_EQ(ComparableBytes(fresh),
            DirectBytes(reference.get(), workload_.queries[5],
                        core::QuerySpec::Knn(3)));
  server.Shutdown();
}

TEST_F(ServeFixture, ShutdownDrainsInFlightQueriesBeforeClosing) {
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  std::atomic<bool> first_entry{true};

  ServerOptions options;
  options.execute_hook = [&] {
    if (first_entry.exchange(false)) entered.set_value();
    release_future.wait();
  };
  Server server(options);
  ASSERT_TRUE(server.Start(BuildMethod(), &data_).ok());

  util::Status status = util::Status::Ok();
  AnswerResponse answer;
  std::thread inflight([&] {
    Client client;
    const util::Status connected =
        client.Connect("127.0.0.1", server.port());
    if (!connected.ok()) {
      status = connected;
      return;
    }
    status = client.Query(RequestFor(6, core::QuerySpec::Knn(2)), &answer,
                          nullptr);
  });
  entered.get_future().wait();

  // Shutdown from another thread while the query is held in-flight: the
  // drain must wait for it, and the client must still get its answer.
  std::thread closer([&] { server.Shutdown(); });
  release.set_value();
  closer.join();
  inflight.join();
  EXPECT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(answer.result.neighbors.size(), 2u);
}

/// A TCP socket whose reads give up after 5 s, so a server that never
/// answers fails the test instead of hanging it.
int SocketWithReadTimeout() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fd;
  const timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return fd;
}

bool ConnectLoopback(int fd, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) == 0;
}

/// Sends a PING on `fd` and waits (bounded by the socket's read timeout)
/// for the PONG.
bool PingAnswered(int fd) {
  const std::string ping = EncodeFrame(Frame{FrameType::kPing, ""});
  if (::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(ping.size())) {
    return false;
  }
  FrameDecoder decoder;
  Frame frame;
  char buf[256];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;  // timed out, or the server closed
    decoder.Feed(buf, static_cast<size_t>(n));
    switch (decoder.Pop(&frame)) {
      case FrameDecoder::Next::kNeedMore:
        continue;
      case FrameDecoder::Next::kFrame:
        return frame.type == FrameType::kPong;
      case FrameDecoder::Next::kError:
        return false;
    }
  }
}

TEST_F(ServeFixture, AFailedAcceptDoesNotStopTheAcceptor) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start(BuildMethod(), &data_).ok());
  const int fd = SocketWithReadTimeout();
  ASSERT_GE(fd, 0);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  // Every descriptor below the lowest free one is open, so a soft limit
  // there makes the acceptor's next accept fail with EMFILE.
  const int lowest_free = ::fcntl(fd, F_DUPFD, 0);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(lowest_free);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  // No assertion may return before the limit is restored. The connection
  // completes in the listener's backlog; only its accept fails.
  const bool connected = ConnectLoopback(fd, server.port());
  int64_t failures = -1;
  for (int attempt = 0; attempt < 500 && failures <= 0; ++attempt) {
    failures = StatsMetricsCounter(server.StatsJson(), "serve.accept_failures");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::setrlimit(RLIMIT_NOFILE, &saved);

  ASSERT_TRUE(connected);
  EXPECT_GT(failures, 0);
  // The acceptor retries once descriptors are available again, and the
  // waiting connection is answered.
  EXPECT_TRUE(PingAnswered(fd));
  ::close(fd);
  server.Shutdown();
}

/// Lines of /proc/self/maps and VmSize (kB) of this process.
struct AddressSpace {
  size_t mappings = 0;
  size_t vm_kb = 0;
};

AddressSpace ReadAddressSpace() {
  AddressSpace space;
  std::ifstream maps("/proc/self/maps");
  for (std::string line; std::getline(maps, line);) ++space.mappings;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmSize:", 0) == 0) {
      space.vm_kb = std::stoul(line.substr(7));
    }
  }
  return space;
}

TEST_F(ServeFixture, ClosedConnectionsReleaseTheirReaders) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start(BuildMethod(), &data_).ok());
  const auto ping_once = [&] {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(client.Ping().ok());
  };
  for (int i = 0; i < 5; ++i) ping_once();  // warm the thread stack cache
  const AddressSpace before = ReadAddressSpace();
  for (int i = 0; i < 200; ++i) ping_once();
  const AddressSpace after = ReadAddressSpace();
  // A reader left unjoined keeps its stack: 2 mappings and about 8 MB of
  // address space each, so 200 would add 400 mappings and ~1.6 GB.
  // Joined at the next accept, the readers leave at most a few stacks
  // behind.
  EXPECT_LT(after.mappings, before.mappings + 40)
      << before.mappings << " -> " << after.mappings;
  EXPECT_LT(after.vm_kb, before.vm_kb + 64 * 1024)
      << before.vm_kb << " kB -> " << after.vm_kb << " kB";
  server.Shutdown();
}

}  // namespace
}  // namespace hydra::serve
