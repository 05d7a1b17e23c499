// Implementation of the serve daemon core. All socket I/O is plain POSIX
// on loopback; every syscall failure path degrades to closing the one
// affected connection, never to taking the daemon down.
#include "serve/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <system_error>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace hydra::serve {
namespace {

// MSG_NOSIGNAL keeps a dead peer from raising SIGPIPE in the daemon; the
// write error is handled at the call site (by dropping the connection).
bool WriteAll(int fd, const char* bytes, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd, bytes + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(w);
  }
  return true;
}

// Short human-readable request label for the slow-query log: enough to
// recognize the query shape ("knn k=10 exact", "range r=2.5") without
// echoing the vector itself.
std::string RequestLabel(const QueryRequest& request) {
  const core::QuerySpec& spec = request.spec;
  if (spec.kind == core::QueryKind::kRange) {
    return "range r=" + std::to_string(spec.radius);
  }
  std::string label = "knn k=" + std::to_string(spec.k);
  switch (spec.mode) {
    case core::QualityMode::kExact:
      label += " exact";
      break;
    case core::QualityMode::kNgApprox:
      label += " ng";
      break;
    case core::QualityMode::kEpsilon:
      label += " eps=" + std::to_string(spec.epsilon);
      break;
    case core::QualityMode::kDeltaEpsilon:
      label += " eps=" + std::to_string(spec.epsilon) +
               " delta=" + std::to_string(spec.delta);
      break;
  }
  if (spec.has_budget()) label += " budgeted";
  return label;
}

}  // namespace

Server::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

Server::Server(ServerOptions options)
    : options_(std::move(options)), cache_(options_.cache_bytes) {}

Server::~Server() { Shutdown(); }

util::Status Server::Start(std::shared_ptr<core::SearchMethod> method,
                           const core::Dataset* data) {
  HYDRA_CHECK_MSG(!started_, "Server::Start called twice");
  HYDRA_CHECK_MSG(method != nullptr && method->built(),
                  "Server::Start needs a built (or opened) method");
  HYDRA_CHECK_MSG(data != nullptr, "Server::Start needs the dataset");
  data_ = data;
  fingerprint_ = io::DatasetFingerprint::Of(*data);
  traits_ = method->traits();
  method_name_ = method->name();
  method_ = std::move(method);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return util::Status::Error(std::string("socket: ") +
                               std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const util::Status err = util::Status::Error(
        "bind 127.0.0.1:" + std::to_string(options_.port) + ": " +
        std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return err;
  }
  if (::listen(listen_fd_, 64) != 0) {
    const util::Status err =
        util::Status::Error(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return err;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  pool_ = std::make_unique<util::ThreadPool>(
      std::max<size_t>(1, options_.serve_threads));
  acceptor_ = std::thread(&Server::AcceptLoop, this);
  started_ = true;
  return util::Status::Ok();
}

void Server::Reload(std::shared_ptr<core::SearchMethod> method) {
  HYDRA_CHECK_MSG(method != nullptr && method->built(),
                  "Server::Reload needs a built (or opened) method");
  HYDRA_CHECK_MSG(method->name() == method_name_,
                  "Server::Reload must keep the served method kind");
  std::lock_guard<std::mutex> lock(method_mutex_);
  method_ = std::move(method);
}

void Server::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    if (stopping_) return;  // idempotent
    stopping_ = true;
  }
  if (!started_) return;
  // 1. Shut the listener down: the acceptor's accept() fails, it sees
  //    stopping_ and exits. The fd closes after the join, so its number
  //    cannot be reused under an accept still in flight.
  ::shutdown(listen_fd_, SHUT_RDWR);
  acceptor_.join();
  ::close(listen_fd_);
  // 2. Drain: admitted queries finish (new ones are refused because
  //    stopping_ is set), then the pool's workers are joined, which
  //    finishes the answer writes still in progress — the connection
  //    sockets are untouched so far.
  {
    std::unique_lock<std::mutex> lock(inflight_mutex_);
    inflight_cv_.wait(lock, [this] { return inflight_ == 0; });
  }
  pool_.reset();
  // 3. Wake every reader blocked in recv, then join them. The Connection
  //    destructor closes each fd once its last holder lets go.
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const auto& conn : connections_) {
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (std::thread& reader : readers_) reader.join();
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    connections_.clear();
  }
}

std::string Server::StatsJson() const {
  return metrics_.StatsJson(cache_.counters(), method_name_,
                            recorder_.Snapshot());
}

void Server::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      {
        std::lock_guard<std::mutex> lock(inflight_mutex_);
        if (stopping_) return;  // Shutdown woke the listener
      }
      // The listener is fine but this accept is not (EMFILE, ENFILE,
      // ENOBUFS, ENOMEM, or a peer that reset first, ECONNABORTED): the
      // connection waits in the backlog, so back off and retry.
      metrics_.RecordAcceptFailure();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    JoinFinishedReaders();
    std::lock_guard<std::mutex> lock(conns_mutex_);
    {
      std::lock_guard<std::mutex> inflight_lock(inflight_mutex_);
      if (stopping_) {
        ::close(fd);
        return;
      }
    }
    auto conn = std::make_shared<Connection>(fd);
    connections_.push_back(conn);
    try {
      readers_.emplace_back(&Server::ReaderLoop, this, conn);
    } catch (const std::system_error& e) {
      // No thread for this client: refuse it alone and keep serving.
      connections_.pop_back();
      SendError(conn, ErrorCode::kResourceExhausted,
                std::string("no reader thread: ") + e.what());
    }
  }
}

void Server::JoinFinishedReaders() {
  std::vector<std::thread::id> finished;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    finished.swap(finished_readers_);
  }
  for (const std::thread::id id : finished) {
    const auto reader =
        std::find_if(readers_.begin(), readers_.end(),
                     [id](const std::thread& t) { return t.get_id() == id; });
    HYDRA_DCHECK(reader != readers_.end());
    reader->join();
    readers_.erase(reader);
  }
}

void Server::ReaderLoop(std::shared_ptr<Connection> conn) {
  FrameDecoder decoder;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {  // peer closed (or Shutdown woke us)
      DropConnection(conn);
      return;
    }
    decoder.Feed(buf, static_cast<size_t>(n));
    for (;;) {
      Frame frame;
      const FrameDecoder::Next next = decoder.Pop(&frame);
      if (next == FrameDecoder::Next::kNeedMore) break;
      if (next == FrameDecoder::Next::kError) {
        // Malformed bytes (or a foreign/mismatched peer): answer with a
        // clean error frame and drop the connection — framing cannot be
        // resynchronized once broken.
        metrics_.RecordMalformed();
        SendError(conn, decoder.error_code(), decoder.error());
        DropConnection(conn);
        return;
      }
      if (!HandleFrame(conn, frame)) {
        DropConnection(conn);
        return;
      }
    }
  }
}

void Server::DropConnection(const std::shared_ptr<Connection>& conn) {
  // Signal EOF to the peer and forget the connection, so a long-lived
  // daemon does not accumulate dead sockets until shutdown. The fd itself
  // closes when the last holder (this reader, or a worker still writing
  // its answer) releases the shared_ptr.
  ::shutdown(conn->fd, SHUT_RDWR);
  std::lock_guard<std::mutex> lock(conns_mutex_);
  std::erase(connections_, conn);
  finished_readers_.push_back(std::this_thread::get_id());
}

bool Server::HandleFrame(const std::shared_ptr<Connection>& conn,
                         const Frame& frame) {
  switch (frame.type) {
    case FrameType::kPing:
      metrics_.RecordPing();
      SendFrame(conn, Frame{FrameType::kPong, ""});
      return true;
    case FrameType::kStats:
      metrics_.RecordStatsRequest();
      SendFrame(conn,
                Frame{FrameType::kStatsReply, EncodeStatsResponse(StatsJson())});
      return true;
    case FrameType::kStatsFull:
      // The server's metrics registry as plain text (`hydra stats
      // --full`), alongside — not replacing — the JSON kStats.
      metrics_.RecordStatsRequest();
      SendFrame(conn, Frame{FrameType::kStatsReply,
                            EncodeStatsResponse(
                                metrics_.registry().TextDump())});
      return true;
    case FrameType::kQuery:
      HandleQuery(conn, frame);
      return true;
    default:
      // A response frame type arriving at the server: the peer is
      // confused; tell it and drop the connection.
      metrics_.RecordMalformed();
      SendError(conn, ErrorCode::kMalformed,
                "unexpected frame type for a request");
      return false;
  }
}

void Server::HandleQuery(const std::shared_ptr<Connection>& conn,
                         const Frame& frame) {
  // Phase clock for the flight record: decode + validate + admission run
  // on the reader thread, before the worker takes over.
  util::WallTimer decode_timer;
  QueryRequest request;
  const util::Status decoded = DecodeQueryRequest(frame.payload, &request);
  if (!decoded.ok()) {
    metrics_.RecordMalformed();
    SendError(conn, ErrorCode::kMalformed, decoded.message());
    return;
  }
  const util::Status valid =
      ValidateRequest(request, traits_, data_->length());
  if (!valid.ok()) {
    metrics_.RecordBadQuery();
    SendError(conn, ErrorCode::kBadQuery, valid.message());
    return;
  }
  // Admission control: bound the admitted (queued + executing) queries.
  // Refusal is immediate and explicit — the client can back off — instead
  // of the unbounded queueing that turns overload into unbounded latency.
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    if (stopping_) {
      metrics_.RecordRejected();
      SendError(conn, ErrorCode::kResourceExhausted, "server shutting down");
      return;
    }
    if (inflight_ >= options_.max_inflight) {
      metrics_.RecordRejected();
      SendError(conn, ErrorCode::kResourceExhausted,
                "in-flight queue full (max " +
                    std::to_string(options_.max_inflight) +
                    "); retry later");
      return;
    }
    ++inflight_;
  }
  AdmittedQuery query;
  query.request = std::move(request);
  query.admitted_at = clock_.Seconds();
  query.decode_seconds = decode_timer.Seconds();
  // The request's one cache lookup; a miss carries its key to the insert.
  util::WallTimer lookup_timer;
  if (AnswerCache::Cacheable(query.request.spec)) {
    query.key = AnswerCache::Key(fingerprint_, query.request.spec,
                                 query.request.query);
    query.response.cached =
        cache_.Lookup(query.key, &query.response.result);
  }
  query.lookup_seconds = lookup_timer.Seconds();
  // A hit runs no search and an ng search visits one leaf: the hop to a
  // worker would cost about as much as the answer, so the reader answers
  // them itself. Everything else goes to the pool.
  if (query.response.cached ||
      query.request.spec.mode == core::QualityMode::kNgApprox) {
    ExecuteQuery(conn, query, /*on_reader=*/true);
    return;
  }
  pool_->Submit([this, conn, query = std::move(query)]() mutable {
    ExecuteQuery(conn, query, /*on_reader=*/false);
  });
}

void Server::ExecuteQuery(const std::shared_ptr<Connection>& conn,
                          AdmittedQuery& query, bool on_reader) {
  const QueryRequest& request = query.request;
  // Trace span + flight record for this request; the client's request id
  // ties both back to the call that issued it.
  HYDRA_OBS_SPAN_ARG("serve_request", "request_id",
                     static_cast<int64_t>(request.request_id));
  const double queue_wait =
      on_reader ? 0.0
                : clock_.Seconds() - query.admitted_at - query.lookup_seconds;
  AnswerResponse& response = query.response;
  const bool hit = response.cached;
  if (!hit && options_.execute_hook) options_.execute_hook();
  util::WallTimer phase_timer;
  if (!hit) {
    // Snapshot the shared_ptr so a concurrent Reload cannot free the
    // index under this query.
    std::shared_ptr<core::SearchMethod> method;
    {
      std::lock_guard<std::mutex> lock(method_mutex_);
      method = method_;
    }
    response.result = method->Execute(request.query, request.spec);
    if (!query.key.empty()) cache_.Insert(query.key, response.result);
  }
  const double execute = phase_timer.Seconds();
  phase_timer.Reset();
  // A worker frees the admission slot before the answer leaves, so a
  // client holding its answer finds the slot free again (Shutdown still
  // waits for the write: it joins the pool before closing connections).
  // The reader keeps its slot until the answer is written, so Shutdown's
  // drain waits for the write; the connection's next request is read
  // after it.
  if (!on_reader) ReleaseAdmission();
  SendFrame(conn,
            Frame{FrameType::kAnswer, EncodeAnswerResponse(response)});
  if (on_reader) ReleaseAdmission();
  const double encode_write = phase_timer.Seconds();
  const double latency = clock_.Seconds() - query.admitted_at;
  metrics_.RecordQuery(latency, response.result.stats, hit);
  recorder_.Record(obs::FlightRecord{
      request.request_id,
      RequestLabel(request),
      query.decode_seconds + latency,
      hit,
      on_reader,
      {{"decode", query.decode_seconds},
       {"queue_wait", queue_wait},
       {"cache_lookup", query.lookup_seconds},
       {"execute", execute},
       {"encode_write", encode_write}}});
}

void Server::ReleaseAdmission() {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  --inflight_;
  inflight_cv_.notify_all();
}

void Server::SendFrame(const std::shared_ptr<Connection>& conn,
                       const Frame& frame) {
  const std::string wire = EncodeFrame(frame);
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  // A failed write means the peer is gone; its reader will see the close
  // and clean up — nothing to do here.
  WriteAll(conn->fd, wire.data(), wire.size());
}

void Server::SendError(const std::shared_ptr<Connection>& conn,
                       ErrorCode code, const std::string& message) {
  SendFrame(conn, Frame{FrameType::kError,
                        EncodeErrorResponse(ErrorResponse{code, message})});
}

}  // namespace hydra::serve
