#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <utility>

#include "base/string_util.h"

namespace seqlog {
namespace serve {

namespace {

/// One BATCH may not exceed this many item lines (a malformed count
/// would otherwise swallow the connection).
constexpr size_t kMaxBatchItems = 65536;

double MicrosSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

bool WriteAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Interns one request's wire values as the `$1..$k` binding of the
/// statement `name` — the one conversion EXEC and BATCH share. A wrong
/// value count is malformed input: nullopt, with the SL-E100 reply in
/// *error.
std::optional<query::Binding> WireBinding(
    Engine* engine, const std::string& name, size_t param_count,
    const std::vector<std::string>& values, std::string* error) {
  if (values.size() != param_count) {
    *error = ErrorReply(kCodeBadRequest,
                        StrCat("'", name, "' takes ", param_count,
                               " parameter(s), got ", values.size()));
    return std::nullopt;
  }
  query::Binding binding;
  binding.reserve(values.size());
  for (const std::string& value : values) {
    binding.emplace_back(engine->pool()->FromChars(value, engine->symbols()));
  }
  return binding;
}

/// Writes a one-line error reply, best effort (used on refused
/// connections that never reach a session).
void RefuseConnection(int fd, std::string_view code,
                      std::string_view message) {
  WriteAll(fd, ErrorReply(code, message) + "\n");
  ::close(fd);
}

}  // namespace

/// Poll-driven line reader: blocks for input in short slices so the
/// session notices a drain within ~100ms even on an idle connection.
/// ReadLine errors: kNotFound = clean EOF, kFailedPrecondition =
/// draining, kInternal = socket error.
class Server::LineReader {
 public:
  LineReader(int fd, const std::atomic<bool>* draining)
      : fd_(fd), draining_(draining) {}

  Result<std::string> ReadLine() {
    for (;;) {
      size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return line;
      }
      if (draining_->load(std::memory_order_relaxed)) {
        return Status::FailedPrecondition("draining");
      }
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      int ready = ::poll(&pfd, 1, 100);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(StrCat("poll: ", std::strerror(errno)));
      }
      if (ready == 0) continue;  // timeout slice; re-check drain flag
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(StrCat("recv: ", std::strerror(errno)));
      }
      if (n == 0) return Status::NotFound("eof");
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  const std::atomic<bool>* draining_;
  std::string buffer_;
};

Server::Server(Engine* engine, ServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      republisher_(engine,
                   ivm::RepublisherOptions{options_.ingest_cadence_ms,
                                           options_.ingest_threshold},
                   [this](const Snapshot& snapshot) {
                     std::unique_lock<std::shared_mutex> lock(snapshot_mu_);
                     current_ = snapshot;
                   }) {
  if (options_.sessions == 0) options_.sessions = 1;
}

Server::~Server() {
  Shutdown();
  Wait();
}

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(StrCat("socket: ", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument(
        StrCat("bad host '", options_.host, "' (numeric IPv4)"));
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    Status status = Status::Internal(
        StrCat("bind ", options_.host, ":", options_.port, ": ",
               std::strerror(errno)));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 128) != 0) {
    Status status =
        Status::Internal(StrCat("listen: ", std::strerror(errno)));
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;

  {
    std::unique_lock<std::shared_mutex> lock(snapshot_mu_);
    current_ = engine_->PublishSnapshot();
  }
  // From here on the Republisher thread owns every engine mutation;
  // session threads only stage (EnqueueFact) and read snapshots.
  republisher_.Start();

  acceptor_ = std::thread([this] { AcceptLoop(); });
  sessions_.reserve(options_.sessions);
  for (size_t i = 0; i < options_.sessions; ++i) {
    sessions_.emplace_back([this] { SessionLoop(); });
  }
  return Status::Ok();
}

void Server::Shutdown() {
  draining_.store(true, std::memory_order_relaxed);
  queue_cv_.notify_all();
}

void Server::Wait() {
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& t : sessions_) {
    if (t.joinable()) t.join();
  }
  sessions_.clear();
  // Refuse connections still queued when the sessions exited.
  std::deque<PendingConn> leftover;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    leftover.swap(queue_);
  }
  for (const PendingConn& conn : leftover) {
    stats_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
    RefuseConnection(conn.fd, kCodeDraining, "server draining");
  }
  // Sessions are gone, so no more writers: the final publish covers
  // every staged fact before the server reports itself drained.
  republisher_.Stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::AcceptLoop() {
  while (!draining_.load(std::memory_order_relaxed)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;  // timeout / EINTR: re-check drain flag
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (draining_.load(std::memory_order_relaxed)) {
      RefuseConnection(fd, kCodeDraining, "server draining");
      continue;
    }
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (queue_.size() >= options_.max_pending) {
        stats_.connections_rejected.fetch_add(1,
                                              std::memory_order_relaxed);
        RefuseConnection(
            fd, kCodeOverloaded,
            StrCat("admission queue full (", options_.max_pending,
                   " pending); retry later"));
        continue;
      }
      queue_.push_back(
          PendingConn{fd, std::chrono::steady_clock::now()});
      stats_.queue_depth.fetch_add(1, std::memory_order_relaxed);
    }
    queue_cv_.notify_one();
  }
}

void Server::SessionLoop() {
  for (;;) {
    PendingConn conn;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() ||
               draining_.load(std::memory_order_relaxed);
      });
      if (queue_.empty()) return;  // draining and nothing left to serve
      conn = queue_.front();
      queue_.pop_front();
    }
    stats_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
    stats_.queue_wait.Record(MicrosSince(conn.enqueued));
    if (draining_.load(std::memory_order_relaxed)) {
      RefuseConnection(conn.fd, kCodeDraining, "server draining");
      continue;
    }
    ServeConnection(conn.fd);
    ::close(conn.fd);
  }
}

void Server::ServeConnection(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  Session session;
  LineReader reader(fd, &draining_);
  for (;;) {
    Result<std::string> line = reader.ReadLine();
    if (!line.ok()) {
      // EOF, socket error, or drain: the connection ends. In-flight
      // requests never reach here — drain is only observed between
      // requests.
      return;
    }
    if (line.value().empty()) continue;
    auto t0 = std::chrono::steady_clock::now();
    stats_.requests.fetch_add(1, std::memory_order_relaxed);
    stats_.in_flight.fetch_add(1, std::memory_order_relaxed);
    std::string reply;
    bool close_conn = false;
    Result<Request> request = ParseRequest(line.value());
    if (!request.ok()) {
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      reply = ErrorReply(kCodeBadRequest, request.status().message());
    } else {
      HandleRequest(&session, request.value(), &reader, &reply,
                    &close_conn);
    }
    reply.push_back('\n');
    bool written = WriteAll(fd, reply);
    stats_.request_latency.Record(MicrosSince(t0));
    stats_.in_flight.fetch_sub(1, std::memory_order_relaxed);
    if (!written || close_conn) return;
  }
}

void Server::HandleRequest(Session* session, const Request& request,
                           LineReader* reader, std::string* reply,
                           bool* close_conn) {
  switch (request.verb) {
    case Verb::kPrepare:
      *reply = HandlePrepare(request);
      return;
    case Verb::kBind:
      *reply = HandleBind(session, request);
      return;
    case Verb::kDeadline:
      session->deadline_ms = request.millis;
      *reply = StrCat("OK deadline=", request.millis);
      return;
    case Verb::kExec:
      *reply = HandleExec(session, request);
      return;
    case Verb::kBatch:
      *reply = HandleBatch(session, request, reader, close_conn);
      return;
    case Verb::kStats:
      *reply = HandleStats();
      return;
    case Verb::kHealth:
      *reply = HandleHealth();
      return;
    case Verb::kFact:
      *reply = HandleFact(request);
      return;
    case Verb::kIngest:
      *reply = HandleIngest(request, reader, close_conn);
      return;
    case Verb::kPublish:
      *reply = HandlePublish();
      return;
    case Verb::kQuit:
      *reply = "OK bye";
      *close_conn = true;
      return;
  }
  *reply = ErrorReply(kCodeBadRequest, "unhandled verb");
}

std::string Server::HandlePrepare(const Request& request) {
  // No lock: Prepare only reads the program — immutable while the
  // server runs — and interns goal constants through the
  // shared_mutex-guarded pool/symbols/catalog, all safe concurrently
  // with other PREPAREs, with executing readers and with the
  // Republisher's publishes.
  Result<PreparedQuery> prepared = engine_->Prepare(request.goal);
  if (!prepared.ok()) {
    stats_.exec_errors.fetch_add(1, std::memory_order_relaxed);
    return ErrorReply(prepared.status());
  }
  auto stmt =
      std::make_shared<PreparedQuery>(std::move(prepared).value());
  const std::string& adornment = stmt->goal_adornment();
  std::string reply =
      StrCat("OK prepared name=", request.name,
             " params=", stmt->param_count(),
             " adornment=", adornment.empty() ? "-" : adornment);
  if (!stmt->warnings().empty()) {
    reply += StrCat(" warn=", stmt->warnings().front().code);
  }
  {
    std::unique_lock<std::shared_mutex> lock(stmts_mu_);
    statements_[request.name] = std::move(stmt);
  }
  return reply;
}

std::string Server::HandleBind(Session* session, const Request& request) {
  std::shared_ptr<PreparedQuery> stmt = FindStatement(request.name);
  if (stmt == nullptr) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    return ErrorReply(kCodeUnknownStatement,
                      StrCat("no prepared statement '", request.name,
                             "' (PREPARE it first)"));
  }
  if (request.index > stmt->param_count()) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    return ErrorReply(
        kCodeBadRequest,
        StrCat("no parameter $", request.index, " in '", request.name,
               "' (", stmt->param_count(), " parameter(s))"));
  }
  std::vector<std::optional<SeqId>>& binds = session->binds[request.name];
  binds.resize(stmt->param_count());
  binds[request.index - 1] =
      engine_->pool()->FromChars(request.values[0], engine_->symbols());
  return StrCat("OK bound $", request.index);
}

std::string Server::HandleExec(Session* session, const Request& request) {
  std::shared_ptr<PreparedQuery> stmt = FindStatement(request.name);
  if (stmt == nullptr) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    return ErrorReply(kCodeUnknownStatement,
                      StrCat("no prepared statement '", request.name,
                             "' (PREPARE it first)"));
  }
  query::Binding params;
  if (!request.values.empty()) {
    std::string error;
    std::optional<query::Binding> binding =
        WireBinding(engine_, request.name, stmt->param_count(),
                    request.values, &error);
    if (!binding.has_value()) {
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      return error;
    }
    params = std::move(*binding);
  } else {
    auto it = session->binds.find(request.name);
    if (it != session->binds.end()) {
      params = it->second;
    } else {
      params.assign(stmt->param_count(), std::nullopt);
    }
  }
  bool deadline_set = false;
  query::SolveOptions options = OptionsFor(*session, &deadline_set);
  Snapshot snapshot = CurrentSnapshot();
  auto t0 = std::chrono::steady_clock::now();
  ResultSet rs = stmt->ExecuteWith(snapshot, params, options);
  double micros = MicrosSince(t0);
  stats_.exec_requests.fetch_add(1, std::memory_order_relaxed);
  stats_.exec_latency.Record(micros);
  if (!rs.ok()) {
    stats_.exec_errors.fetch_add(1, std::memory_order_relaxed);
    if (deadline_set &&
        rs.status().code() == StatusCode::kResourceExhausted) {
      stats_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      return ErrorReply(kCodeDeadline, rs.status().message());
    }
    return ErrorReply(rs.status());
  }
  stats_.rows_returned.fetch_add(rs.size(), std::memory_order_relaxed);
  std::string reply = StrCat("OK rows=", rs.size(), " micros=",
                             static_cast<uint64_t>(micros));
  for (size_t i = 0; i < rs.size(); ++i) {
    reply.append("\nROW");
    for (const std::string& cell : rs.row(i).Render()) {
      reply.push_back(' ');
      reply.append(EncodeValue(cell));
    }
  }
  return reply;
}

std::string Server::HandleBatch(Session* session, const Request& request,
                                LineReader* reader, bool* close_conn) {
  if (request.count > kMaxBatchItems) {
    // The item lines are NOT consumed; resynchronisation is impossible,
    // so the connection ends.
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    *close_conn = true;
    return ErrorReply(kCodeBadRequest,
                      StrCat("batch too large (max ", kMaxBatchItems,
                             " items)"));
  }
  // Consume the item lines first so a failed lookup leaves the stream
  // in sync.
  std::vector<std::vector<std::string>> lines;
  lines.reserve(request.count);
  for (size_t i = 0; i < request.count; ++i) {
    Result<std::string> line = reader->ReadLine();
    if (!line.ok()) {
      *close_conn = true;
      return ErrorReply(kCodeBadRequest,
                        "connection ended mid-batch");
    }
    lines.push_back(SplitValues(line.value()));
  }
  std::shared_ptr<PreparedQuery> stmt = FindStatement(request.name);
  if (stmt == nullptr) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    return ErrorReply(kCodeUnknownStatement,
                      StrCat("no prepared statement '", request.name,
                             "' (PREPARE it first)"));
  }
  std::vector<query::Binding> bindings;
  bindings.reserve(lines.size());
  // Per line: the index of its binding, or SIZE_MAX with its ERR reply.
  std::vector<std::string> errors(lines.size());
  std::vector<size_t> item_of(lines.size(), SIZE_MAX);
  for (size_t i = 0; i < lines.size(); ++i) {
    std::optional<query::Binding> binding = WireBinding(
        engine_, request.name, stmt->param_count(), lines[i], &errors[i]);
    if (!binding.has_value()) continue;
    item_of[i] = bindings.size();
    bindings.push_back(std::move(*binding));
  }
  bool deadline_set = false;
  query::SolveOptions options = OptionsFor(*session, &deadline_set);
  Snapshot snapshot = CurrentSnapshot();
  auto t0 = std::chrono::steady_clock::now();
  BatchResultSet result = stmt->ExecuteBatch(snapshot, bindings, options);
  double micros = MicrosSince(t0);
  stats_.batch_requests.fetch_add(1, std::memory_order_relaxed);
  stats_.batch_items.fetch_add(lines.size(), std::memory_order_relaxed);
  stats_.exec_latency.Record(micros);

  size_t total_rows = 0;
  bool any_deadline = false, any_error = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (item_of[i] == SIZE_MAX) {
      any_error = true;
      continue;
    }
    const ResultSet& rs = result.results[item_of[i]];
    if (rs.ok()) {
      total_rows += rs.size();
    } else {
      any_error = true;
      if (rs.status().code() == StatusCode::kResourceExhausted &&
          deadline_set) {
        any_deadline = true;
      }
    }
  }
  if (any_error) {
    stats_.exec_errors.fetch_add(1, std::memory_order_relaxed);
  }
  if (any_deadline) {
    stats_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
  }
  stats_.rows_returned.fetch_add(total_rows, std::memory_order_relaxed);

  std::string reply =
      StrCat("OK items=", lines.size(), " rows=", total_rows,
             " runs=", result.runs, " micros=",
             static_cast<uint64_t>(micros));
  for (size_t i = 0; i < lines.size(); ++i) {
    if (item_of[i] == SIZE_MAX) {
      reply.append(StrCat("\nITEM ", i, " ", errors[i]));
      continue;
    }
    const ResultSet& rs = result.results[item_of[i]];
    if (!rs.ok()) {
      std::string err =
          deadline_set &&
                  rs.status().code() == StatusCode::kResourceExhausted
              ? ErrorReply(kCodeDeadline, rs.status().message())
              : ErrorReply(rs.status());
      reply.append(StrCat("\nITEM ", i, " ", err));
      continue;
    }
    reply.append(StrCat("\nITEM ", i, " rows=", rs.size()));
    for (size_t r = 0; r < rs.size(); ++r) {
      reply.append("\nROW");
      for (const std::string& cell : rs.row(r).Render()) {
        reply.push_back(' ');
        reply.append(EncodeValue(cell));
      }
    }
  }
  return reply;
}

std::string Server::HandleStats() {
  std::vector<std::pair<std::string, std::string>> pairs =
      stats_.Render();
  {
    std::shared_lock<std::shared_mutex> lock(stmts_mu_);
    pairs.emplace_back("statements", std::to_string(statements_.size()));
  }
  {
    std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
    pairs.emplace_back("snapshot_version",
                       std::to_string(current_.version()));
    pairs.emplace_back("snapshot_facts",
                       std::to_string(current_.TotalFacts()));
  }
  pairs.emplace_back("sessions", std::to_string(options_.sessions));
  pairs.emplace_back("max_pending", std::to_string(options_.max_pending));
  pairs.emplace_back("draining", draining() ? "1" : "0");
  const ivm::IngestQueue* queue = engine_->ingest_queue();
  const ivm::IngestStats ingest = republisher_.stats();
  pairs.emplace_back("ingest_queue_depth", std::to_string(queue->depth()));
  pairs.emplace_back("ingest_queue_capacity",
                     std::to_string(queue->capacity()));
  pairs.emplace_back("ingest_enqueued", std::to_string(queue->enqueued()));
  pairs.emplace_back("ingest_rejected", std::to_string(queue->rejected()));
  pairs.emplace_back("ingested_facts", std::to_string(ingest.ingested_facts));
  pairs.emplace_back("publishes", std::to_string(ingest.publishes));
  pairs.emplace_back("snapshot_staleness_ms",
                     std::to_string(static_cast<uint64_t>(
                         republisher_.SnapshotStalenessMillis())));
  const double uptime = stats_.uptime_seconds();
  char dbuf[64];
  std::snprintf(
      dbuf, sizeof dbuf, "%.1f",
      uptime > 0 ? static_cast<double>(ingest.ingested_facts) / uptime
                 : 0.0);
  pairs.emplace_back("ingest_facts_per_sec", dbuf);
  std::string reply = StrCat("OK stats=", pairs.size());
  for (const auto& [key, value] : pairs) {
    reply.append(StrCat("\nSTAT ", key, " ", value));
  }
  return reply;
}

std::string Server::HandleHealth() {
  uint64_t version;
  {
    std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
    version = current_.version();
  }
  return StrCat("OK ", draining() ? "draining" : "serving",
                " snapshot=", version, " uptime_ms=",
                static_cast<uint64_t>(stats_.uptime_seconds() * 1000));
}

std::string Server::HandleFact(const Request& request) {
  // Stage, don't mutate: interning is thread-safe and the queue is
  // MPSC, so this never blocks a reader or another writer. The fact
  // becomes visible at the Republisher's next publish (cadence or
  // threshold) or at the next PUBLISH.
  Status status = engine_->EnqueueFact(request.name, request.values);
  if (!status.ok()) {
    stats_.exec_errors.fetch_add(1, std::memory_order_relaxed);
    if (status.code() == StatusCode::kResourceExhausted) {
      return ErrorReply(kCodeOverloaded,
                        "ingest queue full; retry after a publish");
    }
    return ErrorReply(status);
  }
  return StrCat("OK fact queued depth=", engine_->ingest_queue()->depth());
}

std::string Server::HandleIngest(const Request& request, LineReader* reader,
                                 bool* close_conn) {
  if (request.count > kMaxBatchItems) {
    // As with BATCH: the item lines are not consumed, resynchronisation
    // is impossible, the connection ends.
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    *close_conn = true;
    return ErrorReply(kCodeBadRequest,
                      StrCat("ingest batch too large (max ",
                             kMaxBatchItems, " facts)"));
  }
  std::vector<std::vector<std::string>> lines;
  lines.reserve(request.count);
  for (size_t i = 0; i < request.count; ++i) {
    Result<std::string> line = reader->ReadLine();
    if (!line.ok()) {
      *close_conn = true;
      return ErrorReply(kCodeBadRequest, "connection ended mid-ingest");
    }
    lines.push_back(SplitValues(line.value()));
  }
  size_t staged = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    Status status = engine_->EnqueueFact(request.name, lines[i]);
    if (!status.ok()) {
      // Facts before the failure stay staged (each is independent).
      stats_.exec_errors.fetch_add(1, std::memory_order_relaxed);
      std::string_view code =
          status.code() == StatusCode::kResourceExhausted
              ? kCodeOverloaded
              : WireCode(status);
      return ErrorReply(
          code, StrCat("fact ", i, " of ", lines.size(), ": ",
                       status.message(), " (", staged, " staged)"));
    }
    ++staged;
  }
  return StrCat("OK ingested=", staged,
                " depth=", engine_->ingest_queue()->depth());
}

std::string Server::HandlePublish() {
  // Force one publish; every fact staged before this request is visible
  // when the reply goes out.
  Status status = republisher_.ForcePublish();
  if (!status.ok()) {
    stats_.exec_errors.fetch_add(1, std::memory_order_relaxed);
    return ErrorReply(status);
  }
  Snapshot snapshot = CurrentSnapshot();
  return StrCat("OK snapshot=", snapshot.version(),
                " facts=", snapshot.TotalFacts());
}

std::shared_ptr<PreparedQuery> Server::FindStatement(
    const std::string& name) {
  std::shared_lock<std::shared_mutex> lock(stmts_mu_);
  auto it = statements_.find(name);
  return it == statements_.end() ? nullptr : it->second;
}

Snapshot Server::CurrentSnapshot() {
  std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
  return current_;
}

query::SolveOptions Server::OptionsFor(const Session& session,
                                       bool* deadline_set) const {
  query::SolveOptions options;
  options.eval = options_.eval;
  uint64_t deadline = session.deadline_ms != 0
                          ? session.deadline_ms
                          : options_.default_deadline_ms;
  *deadline_set = deadline != 0;
  if (deadline != 0) {
    int64_t millis = static_cast<int64_t>(deadline);
    if (options.eval.limits.max_millis == 0 ||
        millis < options.eval.limits.max_millis) {
      options.eval.limits.max_millis = millis;
    }
  }
  return options;
}

}  // namespace serve
}  // namespace seqlog
