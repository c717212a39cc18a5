// seqlog: immutable EDB snapshots (copy-on-publish).
//
// A Snapshot is a frozen view of the engine's extensional database at one
// publish point. Engine::PublishSnapshot() deep-copies the live EDB into
// a shared_ptr-owned Database (copy-on-publish: the copy happens once per
// publish, and republishing an unchanged EDB reuses the previous copy);
// after publication the copy is never mutated, so any number of threads
// may Execute prepared queries against it while the engine keeps
// accepting AddFact and publishing newer snapshots.
//
// Lifetimes (Engine ⊃ Snapshot ⊃ ResultSet): the snapshot shares the
// engine's catalog/pool/symbols, so it must not outlive the Engine; the
// database itself is shared_ptr-owned, so Snapshot copies are cheap and
// ResultSets pin it past the Snapshot object's own lifetime.
#ifndef SEQLOG_CORE_SNAPSHOT_H_
#define SEQLOG_CORE_SNAPSHOT_H_

#include <cstdint>
#include <memory>

#include "base/logging.h"
#include "sequence/domain.h"
#include "storage/database.h"

namespace seqlog {

/// An immutable, shared view of the EDB as of one publish point.
class Snapshot {
 public:
  /// An invalid (empty) snapshot; valid() is false.
  Snapshot() = default;

  bool valid() const { return db_ != nullptr; }

  /// The frozen database. Must not be called on an invalid snapshot.
  const Database& db() const {
    SEQLOG_CHECK(db_ != nullptr) << "invalid snapshot";
    return *db_;
  }

  /// Shared ownership of the frozen database (for keep-alive chaining).
  std::shared_ptr<const Database> shared() const { return db_; }

  /// Number of atoms frozen in this snapshot.
  size_t TotalFacts() const { return db_ == nullptr ? 0 : db_->TotalFacts(); }

  /// Monotonic publish version: a snapshot published after more AddFact
  /// calls has a strictly larger version; equal versions mean identical
  /// contents.
  uint64_t version() const { return version_; }

  /// The frozen extended active domain of db()'s sequences, built once
  /// at publish. Evaluations against this snapshot layer their private
  /// overlay on it (sequence/domain.h) instead of rooting the database
  /// per query — the snapshot fast path. Its enumeration is built on
  /// the first read that needs it, once, under a lock.
  std::shared_ptr<const ExtendedDomain> domain_base() const {
    return domain_;
  }

 private:
  friend class Engine;
  Snapshot(std::shared_ptr<const Database> db,
           std::shared_ptr<const ExtendedDomain> domain, uint64_t version)
      : db_(std::move(db)), domain_(std::move(domain)), version_(version) {}

  std::shared_ptr<const Database> db_;
  std::shared_ptr<const ExtendedDomain> domain_;
  uint64_t version_ = 0;
};

}  // namespace seqlog

#endif  // SEQLOG_CORE_SNAPSHOT_H_
