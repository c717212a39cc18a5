#include "ivm/ingest_queue.h"

#include <utility>

namespace seqlog {
namespace ivm {

IngestQueue::IngestQueue(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

Status IngestQueue::TryPush(PendingFact fact) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.size() >= capacity_) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted("ingest queue is full");
    }
    if (items_.empty()) oldest_ = std::chrono::steady_clock::now();
    items_.push_back(std::move(fact));
    depth_.store(items_.size(), std::memory_order_relaxed);
    enqueued_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_all();
  return Status::Ok();
}

size_t IngestQueue::DrainTo(std::vector<PendingFact>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t n = items_.size();
  out->reserve(out->size() + n);
  for (PendingFact& fact : items_) out->push_back(std::move(fact));
  items_.clear();
  depth_.store(0, std::memory_order_relaxed);
  drained_.fetch_add(n, std::memory_order_relaxed);
  return n;
}

size_t IngestQueue::WaitForWork(size_t threshold,
                                std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t seq = wake_seq_;
  cv_.wait_for(lock, timeout, [&] {
    return wake_seq_ != seq ||
           (threshold > 0 && items_.size() >= threshold);
  });
  return items_.size();
}

void IngestQueue::Wake() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++wake_seq_;
  }
  cv_.notify_all();
}

double IngestQueue::OldestPendingMillis() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (items_.empty()) return 0;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - oldest_)
      .count();
}

}  // namespace ivm
}  // namespace seqlog
