// seqlog: bounded MPSC staging buffer for live ingest.
//
// Writers (serve sessions handling FACT/INGEST through
// Engine::EnqueueFact) stage insertions here instead of writing the EDB
// inline, so a write never blocks a reader. A single consumer — the
// engine's PublishSnapshot, DrainIngest or Evaluate, called by
// ivm::Republisher while a server runs — drains the queue in FIFO order
// into the EDB.
//
// Concurrency contract (docs/CONCURRENCY.md): TryPush is safe from any
// number of threads; DrainTo must be called by one consumer at a time
// (the Republisher thread owns it). depth()/enqueued()/drained()/
// rejected() are lock-free reads of atomic counters and may be sampled
// from anywhere;
// OldestPendingMillis takes the queue mutex briefly. Backpressure is a
// kResourceExhausted from TryPush when the buffer is full — writers
// surface it (serve maps it to SL-E102 overloaded) rather than block.
#ifndef SEQLOG_IVM_INGEST_QUEUE_H_
#define SEQLOG_IVM_INGEST_QUEUE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "base/status.h"
#include "sequence/sequence_pool.h"
#include "storage/catalog.h"

namespace seqlog {
namespace ivm {

/// One staged insertion: an interned ground atom. Interning happens on
/// the writer's thread (SequencePool/SymbolTable/Catalog are
/// shared_mutex-guarded), so the consumer never parses text.
struct PendingFact {
  PredId pred = 0;
  std::vector<SeqId> args;
};

class IngestQueue {
 public:
  explicit IngestQueue(size_t capacity = 65536);

  /// Stages one fact. kResourceExhausted when the buffer is full (the
  /// caller decides: reject upstream, or force a drain).
  Status TryPush(PendingFact fact);

  /// Appends every staged fact to `out` in FIFO order and empties the
  /// queue; returns how many were drained. Single consumer only.
  size_t DrainTo(std::vector<PendingFact>* out);

  /// Blocks until depth() >= threshold, Wake() is called, or `timeout`
  /// elapses; returns the depth observed on return. The Republisher's
  /// cadence loop sleeps here between publishes.
  size_t WaitForWork(size_t threshold, std::chrono::milliseconds timeout);

  /// Wakes a WaitForWork sleeper without pushing (force-publish, stop).
  void Wake();

  size_t capacity() const { return capacity_; }
  size_t depth() const { return depth_.load(std::memory_order_relaxed); }
  uint64_t enqueued() const {
    return enqueued_.load(std::memory_order_relaxed);
  }
  /// Facts handed to DrainTo callers, over the queue's lifetime.
  uint64_t drained() const {
    return drained_.load(std::memory_order_relaxed);
  }
  uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

  /// Age of the oldest staged fact in milliseconds; 0 when empty. This
  /// is the snapshot-staleness bound the Republisher reports: nothing a
  /// reader cannot see has been waiting longer than this.
  double OldestPendingMillis() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PendingFact> items_;
  std::chrono::steady_clock::time_point oldest_;
  uint64_t wake_seq_ = 0;
  std::atomic<size_t> depth_{0};
  std::atomic<uint64_t> enqueued_{0};
  std::atomic<uint64_t> drained_{0};
  std::atomic<uint64_t> rejected_{0};
};

}  // namespace ivm
}  // namespace seqlog

#endif  // SEQLOG_IVM_INGEST_QUEUE_H_
