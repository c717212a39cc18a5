#include "ivm/republisher.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace seqlog {
namespace ivm {

Republisher::Republisher(Engine* engine, RepublisherOptions options,
                         PublishHook hook)
    : engine_(engine),
      options_(options),
      hook_(std::move(hook)),
      queue_(engine->ingest_queue()) {}

Republisher::~Republisher() { Stop(); }

void Republisher::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) return;
    running_ = true;
    stop_ = false;
  }
  thread_ = std::thread([this] { Loop(); });
}

void Republisher::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_ = true;
  }
  queue_->Wake();
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = false;
  }
  cv_.notify_all();
}

Status Republisher::ForcePublish() {
  uint64_t target;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_ || stop_) {
      return Status::FailedPrecondition("republisher is not running");
    }
    target = ++force_seq_;
  }
  queue_->Wake();
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return done_seq_ >= target || !running_; });
  if (done_seq_ < target) {
    return Status::FailedPrecondition("republisher stopped while waiting");
  }
  return Status::Ok();
}

bool Republisher::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

IngestStats Republisher::stats() const {
  IngestStats s;
  s.ingested_facts = ingested_.load(std::memory_order_relaxed);
  s.publishes = publishes_.load(std::memory_order_relaxed);
  s.last_version = last_version_.load(std::memory_order_relaxed);
  return s;
}

double Republisher::SnapshotStalenessMillis() const {
  return queue_->OldestPendingMillis();
}

void Republisher::Loop() {
  const auto cadence = std::chrono::milliseconds(
      options_.cadence_ms == 0 ? 1 : options_.cadence_ms);
  const size_t threshold = std::max<size_t>(options_.drain_threshold, 1);
  for (;;) {
    bool stopping;
    bool forced;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping = stop_;
      forced = force_seq_ > done_seq_;
    }
    if (stopping) break;
    const size_t depth = queue_->depth();
    const double age_ms = queue_->OldestPendingMillis();
    if (forced || depth >= threshold ||
        (depth > 0 && age_ms >= static_cast<double>(cadence.count()))) {
      DrainAndPublish();
      continue;
    }
    // Sleep until the oldest staged fact would turn cadence-old; a
    // push past the threshold, a force request or Stop wakes us early.
    auto timeout = cadence;
    if (depth > 0) {
      auto remaining = cadence - std::chrono::milliseconds(
                                     static_cast<int64_t>(age_ms));
      timeout = std::max(remaining, std::chrono::milliseconds(1));
    }
    queue_->WaitForWork(threshold, timeout);
  }
  // Final publish: staged facts must not be stranded by shutdown.
  DrainAndPublish();
}

void Republisher::DrainAndPublish() {
  uint64_t target;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Force requests issued before the publish starts are satisfied by
    // it (it empties the whole queue); later requests trigger another
    // cycle.
    target = force_seq_;
  }
  // This thread is the queue's only consumer while running, so the
  // drained count it sees move is exactly what this publish moved.
  const uint64_t drained_before = queue_->drained();
  Snapshot snapshot = engine_->PublishSnapshot();
  ingested_.fetch_add(queue_->drained() - drained_before,
                      std::memory_order_relaxed);
  last_version_.store(snapshot.version(), std::memory_order_relaxed);
  if (hook_) hook_(snapshot);
  publishes_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    done_seq_ = std::max(done_seq_, target);
  }
  cv_.notify_all();
}

}  // namespace ivm
}  // namespace seqlog
