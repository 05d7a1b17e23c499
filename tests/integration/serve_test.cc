// The serve daemon's end-to-end promises, driven through real loopback
// sockets: concurrent clients receive answers bit-identical to a direct
// Execute on the same index (for adaptive ADS+, exact answers identical to
// a serial run); a cache hit returns the identical answer bytes;
// approximate and budgeted queries bypass the cache; admission control
// answers overload with an explicit rejection frame; a cache hit
// merges no work into STATS; a pooled daemon's answers carry their
// measured pool counters; malformed bytes get an error frame and a closed
// connection, never a crash; and Reload swaps the index without dropping
// the listener.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <set>
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
#include "index/isax2plus.h"
#include "io/series_file.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "storage/backend.h"
#include "transform/isax.h"

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

TEST_F(ServeFixture, AdsDaemonSplitsUnderConcurrentClientsWithExactAnswers) {
  // ADS+ splits its shared tree as it answers, now from every serve
  // worker at once. Its exact answers must equal a serial reference's;
  // the ledger depends on which query split first, so it is not compared.
  const auto build = [&] {
    std::shared_ptr<core::SearchMethod> method =
        bench::CreateMethod("ADS+", 64);
    method->Build(data_);
    return method;
  };
  auto method = build();
  auto reference = build();
  const int64_t leaves_built = method->footprint().leaf_nodes;
  const core::QuerySpec spec = core::QuerySpec::Knn(5);
  std::vector<std::vector<core::Neighbor>> expected;
  for (size_t q = 0; q < workload_.queries.size(); ++q) {
    expected.push_back(
        reference->Execute(workload_.queries[q], spec).neighbors);
  }

  ServerOptions options;
  options.serve_threads = 4;
  options.cache_bytes = 0;  // every request executes
  Server server(options);
  ASSERT_TRUE(server.Start(method, &data_).ok());
  constexpr size_t kClients = 4;
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
      // Every client walks the workload in the same order, so concurrent
      // requests race for the same leaves' splits.
      for (size_t q = 0; q < workload_.queries.size(); ++q) {
        AnswerResponse answer;
        const util::Status s =
            client.Query(RequestFor(q, spec), &answer, nullptr);
        if (!s.ok()) {
          failures[c] = s.message();
          return;
        }
        const std::vector<core::Neighbor>& got = answer.result.neighbors;
        bool same = got.size() == expected[q].size();
        for (size_t n = 0; same && n < got.size(); ++n) {
          same = got[n].id == expected[q][n].id &&
                 got[n].dist_sq == expected[q][n].dist_sq;
        }
        if (!same) {
          failures[c] = "answer to query " + std::to_string(q) +
                        " differs from the serial reference";
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.Shutdown();
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }
  EXPECT_GT(method->footprint().leaf_nodes, leaves_built);
}

TEST_F(ServeFixture, IsaxNgFallbackIsIdenticalFromThreadsAndServer) {
  // iSAX2+'s ng fallback scans one flat first-level array shared by every
  // concurrent query. Queries whose first-level key no series has take
  // that path; from 4 query threads and through a 4-worker server their
  // answers must equal the serial ones.
  std::shared_ptr<core::SearchMethod> method =
      bench::CreateMethod("iSAX2+", 64);
  method->Build(data_);
  const size_t segments = index::Isax2PlusOptions{}.segments;
  const auto key_of = [&](core::SeriesView x) {
    std::vector<uint8_t> word(segments);
    transform::EncodeFullWord(x, segments, word.data());
    uint32_t key = 0;
    for (const uint8_t symbol : word) key = (key << 1) | (symbol >> 7);
    return key;
  };
  std::set<uint32_t> keys;
  for (size_t i = 0; i < data_.size(); ++i) keys.insert(key_of(data_[i]));
  const gen::Workload queries = gen::RandWorkload(48, data_.length(), 2023);
  size_t fallbacks = 0;
  for (size_t q = 0; q < queries.queries.size(); ++q) {
    fallbacks += keys.count(key_of(queries.queries[q])) == 0 ? 1 : 0;
  }
  ASSERT_GE(fallbacks, queries.queries.size() / 2);

  const core::QuerySpec spec = core::QuerySpec::NgApprox(3);
  std::vector<std::string> expected;
  for (size_t q = 0; q < queries.queries.size(); ++q) {
    expected.push_back(DirectBytes(method.get(), queries.queries[q], spec));
  }
  const auto request = [&](size_t q) {
    const core::SeriesView view = queries.queries[q];
    return QueryRequest{spec,
                        std::vector<core::Value>(view.begin(), view.end())};
  };

  constexpr size_t kThreads = 4;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < queries.queries.size(); ++i) {
        const size_t q = (t + i) % queries.queries.size();
        const std::string got =
            DirectBytes(method.get(), queries.queries[q], spec);
        if (got != expected[q]) {
          failures[t] = "query " + std::to_string(q) + " differs";
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "query thread " << t;
  }

  ServerOptions options;
  options.serve_threads = 4;
  Server server(options);
  ASSERT_TRUE(server.Start(method, &data_).ok());
  threads.clear();
  failures.assign(kThreads, "");
  for (size_t c = 0; c < kThreads; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      const util::Status connected =
          client.Connect("127.0.0.1", server.port());
      if (!connected.ok()) {
        failures[c] = connected.message();
        return;
      }
      for (size_t i = 0; i < queries.queries.size(); ++i) {
        const size_t q = (c + i) % queries.queries.size();
        AnswerResponse answer;
        const util::Status s = client.Query(request(q), &answer, nullptr);
        if (!s.ok()) {
          failures[c] = s.message();
          return;
        }
        if (ComparableBytes(answer) != expected[q]) {
          failures[c] = "answer to query " + std::to_string(q) +
                        " differs from the serial Execute";
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t c = 0; c < kThreads; ++c) {
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

}  // namespace
}  // namespace hydra::serve
