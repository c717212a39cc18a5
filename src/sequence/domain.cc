#include "sequence/domain.h"

#include <utility>

#include "base/string_util.h"

namespace seqlog {

const std::vector<SeqId> ExtendedDomain::kNoSeqs;

ExtendedDomain::ExtendedDomain(SequencePool* pool) : pool_(pool) {
  // The empty sequence is a contiguous subsequence of every sequence; it
  // is present from the start so that programs over an empty database
  // still have epsilon available.
  seqs_.push_back(kEmptySeq);
  members_.insert(kEmptySeq);
  by_length_.resize(1);
  by_length_[0].push_back(kEmptySeq);
}

ExtendedDomain::ExtendedDomain(SequencePool* pool,
                               std::shared_ptr<const ExtendedDomain> base)
    : pool_(pool), base_(std::move(base)) {
  // The base already contains epsilon (every domain does); the overlay
  // starts empty so enumeration does not repeat base members.
}

std::unique_ptr<ExtendedDomain> ExtendedDomain::CloneFlat() const {
  SEQLOG_CHECK(base_ == nullptr) << "CloneFlat requires a flat domain";
  auto copy = std::make_unique<ExtendedDomain>(pool_);
  copy->seqs_ = seqs_;
  copy->members_ = members_;
  copy->by_length_ = by_length_;
  copy->lmax_ = lmax_;
  return copy;
}

Status ExtendedDomain::ExtendWith(std::span<const SeqId> roots,
                                  size_t max_sequences) {
  for (SeqId id : roots) {
    SEQLOG_RETURN_IF_ERROR(AddRoot(id, max_sequences));
  }
  return Status::Ok();
}

void ExtendedDomain::InsertMember(SeqId s) {
  if (base_ != nullptr && base_->Contains(s)) return;
  if (!members_.insert(s).second) return;
  seqs_.push_back(s);
  size_t len = pool_->Length(s);
  if (len > lmax_) lmax_ = len;
  if (len >= by_length_.size()) by_length_.resize(len + 1);
  by_length_[len].push_back(s);
}

Status ExtendedDomain::AddRoot(SeqId id, size_t max_sequences) {
  if (Contains(id)) return Status::Ok();
  // Insert as the closure is enumerated and stop the moment the budget
  // is exceeded — a diverging run must fail after ~max_sequences
  // interns, not after materialising a potentially enormous closure.
  // Canonical order: the root, then every contiguous subsequence by
  // length ascending, start ascending.
  auto add = [&](SeqId s) {
    InsertMember(s);
    return max_sequences == 0 || size() <= max_sequences;
  };
  bool ok = add(id);
  SeqView v = pool_->View(id);
  const size_t n = v.size();
  // Uniform sequences (a^n — poly-A tails and unary counters are common)
  // have only n+1 distinct subsequences; hashing all ~n^2/2 subspans
  // would cost O(n^3) symbol work. Their n prefixes cover the same value
  // set in the same first-occurrence order.
  bool uniform = n > 0;
  for (size_t i = 1; uniform && i < n; ++i) uniform = v[i] == v[0];
  for (size_t len = 1; ok && len < n; ++len) {
    const size_t starts = uniform ? 1 : n - len + 1;
    for (size_t from = 0; ok && from < starts; ++from) {
      ok = add(pool_->Intern(v.subspan(from, len)));
    }
  }
  if (ok) return Status::Ok();
  return Status::ResourceExhausted(StrCat(
      "extended active domain exceeded ", max_sequences, " sequences"));
}

}  // namespace seqlog
