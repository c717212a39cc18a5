// seqlog serving tier: the concurrent query server.
//
// Server turns one Engine into a network service speaking the protocol
// of protocol.h (newline-delimited text over loopback TCP). The
// concurrency model keeps the engine's own contracts intact:
//
//  * One ACCEPTOR thread accepts connections into a BOUNDED queue.
//    Admission control is at the door: when the queue is full the
//    connection is refused immediately with `ERR SL-E102` instead of
//    queueing unboundedly (closed-loop clients see backpressure as a
//    fast error, not a growing tail).
//  * A FIXED pool of session threads serves connections one at a time,
//    request by request. Session count bounds engine concurrency; the
//    queue bounds memory.
//  * Every EXEC/BATCH pins the LATEST PUBLISHED Snapshot at request
//    start and runs PreparedQuery::ExecuteWith / ExecuteBatch against
//    it — const, lock-free reads; both verbs turn wire values into a
//    binding the same way.
//  * WRITES take one path and no lock: FACT and INGEST intern on the
//    session thread and stage on the engine's bounded ingest queue
//    (Engine::EnqueueFact); an ivm::Republisher thread — the engine's
//    only mutator while the server runs — publishes at a
//    cadence/threshold (Engine::PublishSnapshot moves the staged facts
//    into the EDB and snapshots it) and swaps the served snapshot.
//    PUBLISH forces one such cycle. Nothing the server answers reads
//    the engine's model, so no write re-saturates it. PREPARE takes no
//    lock either: it only reads the (immutable while serving) program
//    and interns through shared_mutex-guarded tables, so a slow publish
//    never stalls session threads.
//  * Per-request deadlines (session DEADLINE verb or the configured
//    default) map onto the engine's own time budget
//    (eval::EvalLimits::max_millis), so a deadline cuts the fixpoint
//    off mid-run with partial work discarded and `ERR SL-E103`.
//  * Graceful drain: Shutdown() stops accepting, lets in-flight
//    requests complete, closes idle connections, and refuses queued
//    ones with `ERR SL-E104`. Wait() joins everything.
//
// Thread-safety: Start/Shutdown/Wait are for the owning thread;
// stats() reads are safe from anywhere, any time. The Engine must not
// be mutated externally while the server runs (its Republisher thread
// is the only mutator). The engine's model holds the fixpoint as of the
// last Evaluate or DrainIngest; after Wait, DrainIngest catches it up
// with everything the server ingested.
//
// tools/seqlog_serve.cc wraps this class in a binary; docs/SERVING.md
// documents protocol and operational semantics.
#ifndef SEQLOG_SERVE_SERVER_H_
#define SEQLOG_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "ivm/republisher.h"
#include "serve/protocol.h"
#include "serve/stats.h"

namespace seqlog {
namespace serve {

struct ServerOptions {
  /// Loopback only by design: the protocol is unauthenticated.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (read the chosen port back via port()).
  uint16_t port = 0;
  /// Fixed session-thread count (= max concurrently served connections).
  size_t sessions = 4;
  /// Admission bound: accepted connections waiting for a session beyond
  /// this are refused with ERR SL-E102.
  size_t max_pending = 64;
  /// Default per-request deadline in ms (0 = none); sessions override
  /// with the DEADLINE verb.
  uint64_t default_deadline_ms = 0;
  /// Evaluation options for EXEC/BATCH runs (strategy, budgets).
  eval::EvalOptions eval;
  /// Ignored: the server has one write path. Kept so existing callers
  /// that set it still compile.
  bool live_ingest = true;
  /// Republisher knobs: publish at least this often while facts are
  /// staged, and early once this many are.
  uint64_t ingest_cadence_ms = 25;
  size_t ingest_threshold = 256;
};

class Server {
 public:
  /// Borrows `engine` (must outlive the server). The program should be
  /// loaded and facts added before Start; further FACT/PUBLISH arrive
  /// over the wire.
  explicit Server(Engine* engine, ServerOptions options = {});
  ~Server();  ///< Shutdown() + Wait().
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, publishes the initial snapshot and spawns the
  /// acceptor, session and republisher threads. kFailedPrecondition
  /// when already started; kInternal on socket errors.
  Status Start();

  /// The bound port (after Start; useful with options.port == 0).
  uint16_t port() const { return port_; }

  /// Begins a graceful drain (idempotent, callable from any thread or
  /// a signal-triggered thread): stop accepting, finish in-flight
  /// requests, refuse queued connections.
  void Shutdown();
  /// Joins all threads (after Shutdown; idempotent).
  void Wait();

  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }
  const ServerStats& stats() const { return stats_; }

 private:
  struct PendingConn {
    int fd = -1;
    std::chrono::steady_clock::time_point enqueued;
  };
  /// Per-connection state (owned by the serving session thread).
  struct Session {
    std::map<std::string, std::vector<std::optional<SeqId>>> binds;
    uint64_t deadline_ms = 0;  ///< 0 = server default
  };
  class LineReader;

  void AcceptLoop();
  void SessionLoop();
  void ServeConnection(int fd);
  /// Appends the reply lines for one request to `reply` ('\n'-joined,
  /// no trailing newline). Sets *close_conn to end the connection.
  void HandleRequest(Session* session, const Request& request,
                     LineReader* reader, std::string* reply,
                     bool* close_conn);

  std::string HandlePrepare(const Request& request);
  std::string HandleBind(Session* session, const Request& request);
  std::string HandleExec(Session* session, const Request& request);
  std::string HandleBatch(Session* session, const Request& request,
                          LineReader* reader, bool* close_conn);
  std::string HandleStats();
  std::string HandleHealth();
  std::string HandleFact(const Request& request);
  std::string HandleIngest(const Request& request, LineReader* reader,
                           bool* close_conn);
  std::string HandlePublish();

  std::shared_ptr<PreparedQuery> FindStatement(const std::string& name);
  Snapshot CurrentSnapshot();
  /// Solve options with the session's effective deadline folded into
  /// the eval time budget; *deadline_set reports whether one applies.
  query::SolveOptions OptionsFor(const Session& session,
                                 bool* deadline_set) const;

  Engine* engine_;
  ServerOptions options_;
  ServerStats stats_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};

  std::thread acceptor_;
  std::vector<std::thread> sessions_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<PendingConn> queue_;

  std::shared_mutex stmts_mu_;
  std::map<std::string, std::shared_ptr<PreparedQuery>> statements_;
  std::shared_mutex snapshot_mu_;
  Snapshot current_;
  /// Moves staged facts into the EDB and swaps current_ (declared after
  /// what its hook touches).
  ivm::Republisher republisher_;
};

}  // namespace serve
}  // namespace seqlog

#endif  // SEQLOG_SERVE_SERVER_H_
