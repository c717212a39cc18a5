// seqlog: the single consumer of the ingest queue.
//
// Republisher owns a background thread that turns staged writes into
// visible reads: when a batch threshold or a cadence deadline is hit it
// calls Engine::PublishSnapshot, which moves the staged facts into the
// EDB and publishes a snapshot of it, and hands the snapshot to a
// caller-supplied hook. Readers never block on writes — they keep
// executing against the previous snapshot until the hook swaps in the
// next one — and writers never block on publication: they stage and
// return. The engine's model is not touched; it catches up from the
// EDB when someone calls Engine::DrainIngest.
//
// Staleness model (docs/STREAMING.md): a fact staged at time t is
// visible to readers no later than t + cadence + one publish. The
// queue's oldest-pending age is the live bound and is exported as
// snapshot staleness.
//
// Concurrency contract (docs/CONCURRENCY.md): the Republisher thread is
// the engine's only mutator while running — callers must not AddFact /
// Evaluate / DrainIngest / ClearFacts concurrently (EnqueueFact and
// snapshot reads are safe from anywhere). Start/Stop from one
// controlling thread; ForcePublish and stats() from any thread.
#ifndef SEQLOG_IVM_REPUBLISHER_H_
#define SEQLOG_IVM_REPUBLISHER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "core/engine.h"
#include "core/snapshot.h"

namespace seqlog {
namespace ivm {

struct RepublisherOptions {
  /// Publish at least this often while facts are pending: the oldest
  /// staged fact never waits longer than this before a publish starts.
  uint64_t cadence_ms = 25;
  /// Publish early once this many facts are staged (>= 1).
  size_t drain_threshold = 256;
};

/// Monotonic counters, sampled lock-free by STATS.
struct IngestStats {
  uint64_t ingested_facts = 0;  ///< staged facts moved into the EDB
  uint64_t publishes = 0;       ///< snapshots handed to the hook
  uint64_t last_version = 0;    ///< EDB version of the last publish
};

class Republisher {
 public:
  /// Called on the Republisher thread after every publish with the
  /// fresh snapshot; the serve tier swaps its current_ here. Must be
  /// cheap and must not call back into the Republisher.
  using PublishHook = std::function<void(const Snapshot&)>;

  Republisher(Engine* engine, RepublisherOptions options, PublishHook hook);
  ~Republisher();

  Republisher(const Republisher&) = delete;
  Republisher& operator=(const Republisher&) = delete;

  /// Spawns the publish loop.
  void Start();

  /// Final publish, then joins the thread. Idempotent.
  void Stop();

  /// Blocks until a publish that started after this call has completed
  /// — every fact staged before the call is visible afterwards.
  /// kFailedPrecondition when the loop is not running.
  Status ForcePublish();

  bool running() const;
  IngestStats stats() const;
  /// Age of the oldest staged-but-unpublished fact (ms); 0 when fully
  /// drained. The live staleness bound readers are exposed to.
  double SnapshotStalenessMillis() const;

 private:
  void Loop();
  /// Publishes (moving every staged fact into the EDB), calls the hook
  /// and satisfies the force requests issued before it started.
  void DrainAndPublish();

  Engine* engine_;
  const RepublisherOptions options_;
  PublishHook hook_;
  IngestQueue* queue_;

  std::thread thread_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;   ///< guarded by mu_
  bool stop_ = false;      ///< guarded by mu_
  uint64_t force_seq_ = 0; ///< force requests issued (guarded by mu_)
  uint64_t done_seq_ = 0;  ///< force requests satisfied (guarded by mu_)

  std::atomic<uint64_t> ingested_{0};
  std::atomic<uint64_t> publishes_{0};
  std::atomic<uint64_t> last_version_{0};
};

}  // namespace ivm
}  // namespace seqlog

#endif  // SEQLOG_IVM_REPUBLISHER_H_
