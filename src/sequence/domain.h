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

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <memory>
#include <mutex>
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
  // survive domain growth (the listing is a direct member, length buckets
  // live in a deque). A bucket's *contents* may still grow if AddRoot
  // runs while a view is live — do not interleave AddRoot with iteration.
  const std::vector<SeqId>* base_;
  const std::vector<SeqId>* over_;
};

/// Incrementally maintained extended active domain.
///
/// The domain is held as a generalised suffix automaton over its roots
/// (Blumer et al., "The smallest automaton recognizing the subwords of a
/// text", TCS 1985): the sequences `AddRoot` admitted, whose factors are
/// exactly the domain. The automaton answers membership (`Contains`, a
/// walk of len(v) transitions), `lmax` and the exact `size()` (at most
/// k(k+1)/2 + 1 members for a root of length k, per Section 2.1) without
/// interning a single factor. Membership is closed: if a sequence is in
/// the domain all its subsequences are too, so re-adding a contained
/// sequence is a no-op.
///
/// The canonical enumeration (`sequences()`, `WithLength()`) is built on
/// its first call, which only a clause that enumerates the domain makes:
/// the roots are replayed through the closure loop in admission order,
/// interning every factor. From then on `AddRoot` extends the lists
/// eagerly.
///
/// A domain may be *layered* on a frozen flat base domain (the snapshot
/// optimization of core/snapshot.h): the base holds the automaton of the
/// database, built once at snapshot publish; each evaluation run layers a
/// private overlay on top and only pays for the sequences the run itself
/// derives. The base must outlive the overlay and must not grow while
/// overlays reference it (Snapshot guarantees both: its domain is
/// immutable after publish).
///
/// Concurrency (full contract in docs/CONCURRENCY.md): the domain is
/// single-writer. Its const members (`Contains`, `sequences`,
/// `WithLength`) are safe from many threads while no thread grows it,
/// which is how a published snapshot's frozen domain is shared; the
/// first enumeration of such a shared base is a one-time step under a
/// lock.
class ExtendedDomain {
 public:
  explicit ExtendedDomain(SequencePool* pool);
  /// Layered on a flat `base`; AddRoot extends only the overlay.
  ExtendedDomain(SequencePool* pool,
                 std::shared_ptr<const ExtendedDomain> base);

  /// Adds `id` and its subsequence closure. A root the domain lacks is
  /// admitted whole; then, if the domain exceeds `max_sequences`
  /// (0 = unlimited), returns kResourceExhausted — callers abort
  /// evaluation on that status.
  Status AddRoot(SeqId id, size_t max_sequences = 0);

  /// Adds every id of `roots` (each with its subsequence closure) under
  /// one budget, in order — the evaluator closes the argument sequences
  /// of loaded facts through this call.
  Status ExtendWith(std::span<const SeqId> roots, size_t max_sequences = 0);

  /// Copy of a flat (non-layered) domain: the automaton and the roots,
  /// a few vector copies. Publish-side (core/engine.cc): clone the
  /// previous snapshot's frozen domain, then AddRoot only pays for roots
  /// that are actually new. The copy enumerates on its own first use.
  std::unique_ptr<ExtendedDomain> CloneFlat() const;

  /// True if `id` is in the extended domain (base or overlay).
  bool Contains(SeqId id) const {
    SeqView v = pool_->View(id);
    return Recognizes(v) || (base_ != nullptr && base_->Recognizes(v));
  }

  /// All domain sequences (base first, then overlay, each in insertion
  /// order). Stable index positions: growth only appends. The first call
  /// builds the enumeration.
  DomainView sequences() const {
    EnsureListed();
    return DomainView(base_ != nullptr ? &base_->listing_.seqs : &kNoSeqs,
                      &listing_.seqs);
  }

  /// Number of sequences in the extended domain (the paper's notion of
  /// database/interpretation *size*, Definition 11).
  size_t size() const {
    return size_ + (base_ != nullptr ? base_->size_ : 0);
  }

  /// Maximum length over all domain sequences (lmax in Definition 2).
  size_t lmax() const {
    size_t base_lmax = base_ != nullptr ? base_->lmax_ : 0;
    return lmax_ > base_lmax ? lmax_ : base_lmax;
  }

  /// Domain sequences of exactly `len` symbols. Used by the evaluator's
  /// inverse matching of suffix-style indexed terms: candidates for B
  /// with B[c:end] = v all have length len(v)+c-1, so only this bucket
  /// needs scanning instead of the whole domain. The first call builds
  /// the enumeration.
  DomainView WithLength(size_t len) const {
    EnsureListed();
    return DomainView(base_ != nullptr ? Bucket(base_->listing_, len)
                                       : &kNoSeqs,
                      Bucket(listing_, len));
  }

  /// Largest integer in the domain: lmax + 1. Index variables range over
  /// [0, MaxInt()].
  int64_t MaxInt() const { return static_cast<int64_t>(lmax()) + 1; }

 private:
  static const std::vector<SeqId> kNoSeqs;
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  /// An automaton state: the class of factors whose end positions agree.
  /// It holds the suffixes of its longest factor (length `len`) that are
  /// longer than its suffix link's longest factor.
  struct State {
    uint32_t len = 0;
    uint32_t link = kNone;
    uint32_t first_edge = kNone;  ///< head of the state's edge chain
  };
  /// A transition, chained per state through `next`.
  struct Edge {
    Symbol symbol = 0;
    uint32_t target = kNone;
    uint32_t next = kNone;
  };

  /// The canonical enumeration: every member, interned, in the order the
  /// eager closure inserted them, plus the same split by length.
  struct Listing {
    std::vector<SeqId> seqs;
    std::unordered_set<SeqId> members;
    /// length -> members. A deque so growth never moves existing
    /// buckets: DomainViews handed out keep pointing at valid vectors.
    std::deque<std::vector<SeqId>> by_length;
  };

  static const std::vector<SeqId>* Bucket(const Listing& listing,
                                          size_t len) {
    return len < listing.by_length.size() ? &listing.by_length[len]
                                          : &kNoSeqs;
  }

  /// True if `v` is a factor of this layer's roots.
  bool Recognizes(SeqView v) const;
  /// Edge of `state` on `c`, or kNone.
  uint32_t FindEdge(uint32_t state, Symbol c) const;
  uint32_t Next(uint32_t state, Symbol c) const {
    uint32_t e = FindEdge(state, c);
    return e == kNone ? kNone : edges_[e].target;
  }
  void AddEdge(uint32_t state, Symbol c, uint32_t target);
  uint32_t NewState(uint32_t len, uint32_t link);
  /// Splits `q`, the target of `p` on `c`: a clone of length len(p)+1
  /// takes over the transitions on `c` into `q` from `p` and its suffix
  /// link ancestors. Returns the clone.
  uint32_t Split(uint32_t p, Symbol c, uint32_t q);
  /// Inserts `v` into the automaton; returns the number of its factors
  /// that were in the domain neither before nor in the base.
  size_t Insert(SeqView v);
  /// One step of the matching statistics of a text against this
  /// automaton: (`state`, `len`) is the longest suffix read so far that
  /// is a factor; reading `c` updates it.
  void Match(Symbol c, uint32_t* state, size_t* len) const;

  /// Builds the enumeration on first use (thread-safe, one time).
  void EnsureListed() const;
  /// Appends `root`'s closure to the enumeration: the root, then every
  /// contiguous subsequence by length ascending, start ascending,
  /// skipping members already listed (or in the base).
  void ListClosure(SeqId root) const;

  SequencePool* pool_;
  std::shared_ptr<const ExtendedDomain> base_;  ///< frozen; may be null
  std::vector<State> states_;  ///< [0] is the initial state (epsilon)
  std::vector<Edge> edges_;
  std::vector<SeqId> roots_;  ///< admitted roots, AddRoot order
  size_t size_ = 0;           ///< this layer's members (epsilon: flat only)
  size_t lmax_ = 0;           ///< this layer's lmax; effective via lmax()

  mutable std::mutex listing_mu_;  ///< serialises the first enumeration
  mutable std::atomic<bool> listed_{false};
  mutable Listing listing_;  ///< written once under listing_mu_, then by
                             ///< AddRoot (single writer)
};

}  // namespace seqlog

#endif  // SEQLOG_SEQUENCE_DOMAIN_H_
