// seqlog: interned sequences.
//
// All sequences that exist during query evaluation — database sequences,
// their contiguous subsequences, and sequences created by concatenation or
// transducer runs — are interned in a SequencePool. A sequence value is a
// dense SeqId; two equal symbol strings always share one id, so relations
// store integer tuples and joins compare integers.
#ifndef SEQLOG_SEQUENCE_SEQUENCE_POOL_H_
#define SEQLOG_SEQUENCE_SEQUENCE_POOL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/hash.h"
#include "base/logging.h"
#include "sequence/symbol_table.h"

namespace seqlog {

/// Id of an interned sequence. Dense, starting at 0. Id 0 is always the
/// empty sequence (the paper's epsilon).
using SeqId = uint32_t;

/// The empty sequence is interned first, so its id is stable.
inline constexpr SeqId kEmptySeq = 0;

/// A read-only view of a sequence's symbols.
using SeqView = std::span<const Symbol>;

/// Interning pool for symbol strings.
///
/// Storage is a three-level chunked directory (never-moving fixed-size
/// chunks of per-sequence buffers), so views handed out stay valid for
/// the pool's lifetime and id-indexed reads need no lock.
///
/// Thread-safety splits by access path (the full contract, including the
/// memory-ordering argument, is in docs/CONCURRENCY.md):
///
///  * **Id-indexed reads are lock-free.** `View`, `Length`, `Render` and
///    `size` only gate on the atomic `size_`: an id below the acquire-
///    loaded size names a fully published entry. This is the evaluator's
///    hottest read path (term evaluation, inverse-suffix matching,
///    rendering), hit from every concurrent evaluation.
///  * **Content lookups share a lock.** `Find` and the already-interned
///    fast path of `Intern` take `mu_` shared (the id map cannot be read
///    lock-free while a writer rehashes it); interning a *new* sequence
///    takes `mu_` exclusively and publishes the entry by storing the new
///    size with release ordering.
///
/// Many threads may intern and resolve concurrently: evaluations over
/// shared snapshots intern the sequences they derive while snapshot
/// readers render results. One pool per Engine.
class SequencePool {
 public:
  SequencePool();
  ~SequencePool();
  SequencePool(const SequencePool&) = delete;
  SequencePool& operator=(const SequencePool&) = delete;

  /// Interns the symbol string `symbols`, returning its id.
  SeqId Intern(SeqView symbols);

  /// Returns the id of `symbols` if interned, or kInvalidSeq otherwise.
  static constexpr SeqId kInvalidSeq = 0xFFFFFFFFu;
  SeqId Find(SeqView symbols) const;

  /// Returns the symbols of sequence `id`. Lock-free; the view stays
  /// valid for the pool's lifetime.
  SeqView View(SeqId id) const {
    size_t published = size_.load(std::memory_order_acquire);
    SEQLOG_CHECK(id < published) << "bad sequence id " << id;
    return *Slot(id);
  }

  /// len(sigma): the number of symbols in sequence `id`. Lock-free.
  size_t Length(SeqId id) const { return View(id).size(); }

  /// Interns the concatenation sigma1 sigma2 (the paper's s1 . s2).
  SeqId Concat(SeqId a, SeqId b);

  /// Interns the contiguous subsequence of `id` from 1-based position
  /// `from` to `to` inclusive. Precondition (checked): the range is
  /// defined per Section 3.2, i.e. 1 <= from <= to+1 <= Length(id)+1.
  /// from == to+1 yields the empty sequence.
  SeqId Subsequence(SeqId id, int64_t from, int64_t to);

  /// Interns a single-symbol sequence.
  SeqId Singleton(Symbol sym);

  /// Interns the sequence whose symbols are the characters of `text`,
  /// interning each character as a one-character symbol name.
  SeqId FromChars(std::string_view text, SymbolTable* symbols);

  /// Renders sequence `id` using `symbols` names. One-character symbol
  /// names are concatenated bare; longer names are wrapped in '<...>'.
  /// The empty sequence renders as "" (callers add quoting as needed).
  std::string Render(SeqId id, const SymbolTable& symbols) const;

  /// Number of interned sequences. Lock-free; a reader may observe a
  /// size that is stale by in-flight interns, never a torn one.
  size_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  // Chunk geometry: 2^11 leaves x 2^11 chunks x 2^10 entries covers the
  // full 32-bit SeqId space; the root directory is 16 KiB inline, leaves
  // and chunks are allocated on demand by the (serialized) writers.
  static constexpr size_t kChunkBits = 10;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;
  static constexpr size_t kLeafBits = 11;
  static constexpr size_t kLeafSize = size_t{1} << kLeafBits;
  static constexpr size_t kRootSize =
      (size_t{1} << 32) / (kChunkSize * kLeafSize);

  /// One chunk of interned sequences. The vector objects never move once
  /// their chunk is allocated; the symbol buffers they own never move at
  /// all, so SeqViews handed out survive any amount of growth.
  struct Chunk {
    std::array<std::vector<Symbol>, kChunkSize> seqs;
  };
  struct Leaf {
    std::array<std::atomic<Chunk*>, kLeafSize> chunks{};
  };

  struct ViewHash {
    size_t operator()(SeqView v) const { return HashSpan(v); }
  };
  struct ViewEq {
    bool operator()(SeqView a, SeqView b) const {
      return a.size() == b.size() &&
             std::equal(a.begin(), a.end(), b.begin());
    }
  };

  /// Storage slot of `id`. Callers must have established that the entry
  /// is published (id < an acquire-load of size_, or holding mu_).
  const std::vector<Symbol>* Slot(SeqId id) const {
    Leaf* leaf = root_[id >> (kLeafBits + kChunkBits)].load(
        std::memory_order_acquire);
    Chunk* chunk =
        leaf->chunks[(id >> kChunkBits) & (kLeafSize - 1)].load(
            std::memory_order_acquire);
    return &chunk->seqs[id & (kChunkSize - 1)];
  }

  SeqId InternLocked(SeqView symbols);  ///< requires unique lock on mu_

  /// Publication gate for the chunked storage: entry `id` is fully
  /// constructed (and its directory path stored) before the writer
  /// release-stores `id + 1`; a reader that acquire-loads a size above
  /// `id` therefore sees the complete entry. Writers are serialized by
  /// mu_, so the stored values are strictly increasing.
  std::atomic<size_t> size_{0};
  std::array<std::atomic<Leaf*>, kRootSize> root_{};

  /// Guards ids_ (and serializes writers). Id-indexed reads never take it.
  mutable std::shared_mutex mu_;
  std::unordered_map<SeqView, SeqId, ViewHash, ViewEq> ids_;
};

}  // namespace seqlog

#endif  // SEQLOG_SEQUENCE_SEQUENCE_POOL_H_
