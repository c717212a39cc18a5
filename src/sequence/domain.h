// seqlog: the extended active domain (Definitions 2 and 3 of the paper).
//
// The active domain of an interpretation is the set of sequences occurring
// in it. The *extended* active domain additionally contains every
// contiguous subsequence of those sequences, plus the integers
// [0, lmax + 1] where lmax is the maximum sequence length. Substitutions
// during rule evaluation range over this extended domain; it grows
// whenever rule heads create new sequences (constructive or transducer
// terms), which is exactly the paper's source of non-finiteness.
#ifndef SEQLOG_SEQUENCE_DOMAIN_H_
#define SEQLOG_SEQUENCE_DOMAIN_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "base/status.h"
#include "sequence/sequence_pool.h"

namespace seqlog {

/// A two-segment view over SeqId vectors (frozen base first, then the
/// overlay), iterable like a vector. Returned by ExtendedDomain so a
/// layered domain enumerates base + overlay without concatenating them.
class DomainView {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = SeqId;
    using difference_type = std::ptrdiff_t;
    using pointer = const SeqId*;
    using reference = SeqId;

    SeqId operator*() const {
      return i_ < a_->size() ? (*a_)[i_] : (*b_)[i_ - a_->size()];
    }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const iterator& o) const { return i_ == o.i_; }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }

   private:
    friend class DomainView;
    iterator(const std::vector<SeqId>* a, const std::vector<SeqId>* b,
             size_t i)
        : a_(a), b_(b), i_(i) {}
    const std::vector<SeqId>* a_;
    const std::vector<SeqId>* b_;
    size_t i_;
  };

  DomainView(const std::vector<SeqId>* base, const std::vector<SeqId>* over)
      : base_(base), over_(over) {}

  size_t size() const { return base_->size() + over_->size(); }
  bool empty() const { return size() == 0; }
  SeqId operator[](size_t i) const {
    return i < base_->size() ? (*base_)[i] : (*over_)[i - base_->size()];
  }
  iterator begin() const { return iterator(base_, over_, 0); }
  iterator end() const { return iterator(base_, over_, size()); }

 private:
  // The pointed-to vectors are ExtendedDomain members whose addresses
  // survive domain growth (seqs_ is a direct member, length buckets live
  // in a deque). A bucket's *contents* may still grow if AddRoot runs
  // while a view is live — do not interleave AddRoot with iteration.
  const std::vector<SeqId>* base_;
  const std::vector<SeqId>* over_;
};

/// Incrementally maintained extended active domain.
///
/// Adding a root sequence closes it under contiguous subsequences (at most
/// k(k+1)/2 + 1 of them for length k, per Section 2.1) and extends the
/// integer range. Membership is closed: if a sequence is in the domain all
/// its subsequences are too, so re-adding a contained sequence is a no-op.
///
/// A domain may be *layered* on a frozen base domain (the snapshot
/// optimization of core/snapshot.h): the base carries the — expensive —
/// closure of the database, computed once at snapshot publish; each
/// evaluation run layers a private overlay on top and only pays for the
/// sequences the run itself derives. The base must outlive the overlay
/// and must not grow while overlays reference it (Snapshot guarantees
/// both: its domain is immutable after publish).
///
/// Concurrency (full contract in docs/CONCURRENCY.md): the domain is
/// single-writer. Its const members (`Contains`, `sequences`,
/// `WithLength`) are safe from many threads while no thread grows it,
/// which is how a published snapshot's frozen domain is shared.
class ExtendedDomain {
 public:
  explicit ExtendedDomain(SequencePool* pool);
  /// Layered: reuses `base`'s closure; AddRoot extends only the overlay.
  ExtendedDomain(SequencePool* pool,
                 std::shared_ptr<const ExtendedDomain> base);

  /// Adds `id` and its subsequence closure. Returns kResourceExhausted if
  /// the domain would exceed `max_sequences` (0 = unlimited); the domain
  /// may then be partially extended, which is fine because callers abort
  /// evaluation on that status.
  Status AddRoot(SeqId id, size_t max_sequences = 0);

  /// Adds every id of `roots` (each with its subsequence closure) under
  /// one budget, in order — the evaluator closes the argument sequences
  /// of loaded facts through this call.
  Status ExtendWith(std::span<const SeqId> roots, size_t max_sequences = 0);

  /// Deep copy of a flat (non-layered) domain. Publish-side incremental
  /// closure (core/engine.cc): clone the previous snapshot's frozen
  /// closure — cheap integer copies, no re-interning — then AddRoot only
  /// pays for roots that are actually new.
  std::unique_ptr<ExtendedDomain> CloneFlat() const;

  /// True if `id` is in the extended domain (base or overlay).
  bool Contains(SeqId id) const {
    return members_.count(id) > 0 ||
           (base_ != nullptr && base_->Contains(id));
  }

  /// All domain sequences (base first, then overlay, each in insertion
  /// order). Stable index positions: growth only appends.
  DomainView sequences() const {
    return DomainView(base_ != nullptr ? &base_->seqs_ : &kNoSeqs, &seqs_);
  }

  /// Number of sequences in the extended domain (the paper's notion of
  /// database/interpretation *size*, Definition 11).
  size_t size() const {
    return seqs_.size() + (base_ != nullptr ? base_->size() : 0);
  }

  /// Maximum length over all domain sequences (lmax in Definition 2).
  size_t lmax() const {
    size_t base_lmax = base_ != nullptr ? base_->lmax() : 0;
    return lmax_ > base_lmax ? lmax_ : base_lmax;
  }

  /// Domain sequences of exactly `len` symbols. Used by the evaluator's
  /// inverse matching of suffix-style indexed terms: candidates for B
  /// with B[c:end] = v all have length len(v)+c-1, so only this bucket
  /// needs scanning instead of the whole domain.
  DomainView WithLength(size_t len) const {
    const std::vector<SeqId>* base_bucket =
        base_ != nullptr && len < base_->by_length_.size()
            ? &base_->by_length_[len]
            : &kNoSeqs;
    const std::vector<SeqId>* over_bucket =
        len < by_length_.size() ? &by_length_[len] : &kNoSeqs;
    return DomainView(base_bucket, over_bucket);
  }

  /// Largest integer in the domain: lmax + 1. Index variables range over
  /// [0, MaxInt()].
  int64_t MaxInt() const { return static_cast<int64_t>(lmax()) + 1; }

 private:
  static const std::vector<SeqId> kNoSeqs;

  /// Inserts `s` into members/seqs/buckets unless present (or contained
  /// in the base). Single-writer.
  void InsertMember(SeqId s);

  SequencePool* pool_;
  std::shared_ptr<const ExtendedDomain> base_;  ///< frozen; may be null
  std::vector<SeqId> seqs_;      ///< overlay members, insertion order
  std::unordered_set<SeqId> members_;  ///< overlay membership
  /// length -> members. A deque so growth never moves existing buckets:
  /// DomainViews handed out keep pointing at valid vectors.
  std::deque<std::vector<SeqId>> by_length_;
  size_t lmax_ = 0;  ///< overlay lmax; effective lmax via lmax()
};

}  // namespace seqlog

#endif  // SEQLOG_SEQUENCE_DOMAIN_H_
