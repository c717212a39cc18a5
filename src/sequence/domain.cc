#include "sequence/domain.h"

#include <algorithm>
#include <utility>

#include "base/string_util.h"

namespace seqlog {

const std::vector<SeqId> ExtendedDomain::kNoSeqs;

ExtendedDomain::ExtendedDomain(SequencePool* pool)
    : pool_(pool), states_(1) {
  // The empty sequence is a contiguous subsequence of every sequence; it
  // is present from the start so that programs over an empty database
  // still have epsilon available.
  size_ = 1;
}

ExtendedDomain::ExtendedDomain(SequencePool* pool,
                               std::shared_ptr<const ExtendedDomain> base)
    : pool_(pool), base_(std::move(base)), states_(1) {
  // The base already contains epsilon (every domain does); the overlay
  // starts empty so enumeration does not repeat base members.
  SEQLOG_CHECK(base_->base_ == nullptr) << "a domain base must be flat";
}

std::unique_ptr<ExtendedDomain> ExtendedDomain::CloneFlat() const {
  SEQLOG_CHECK(base_ == nullptr) << "CloneFlat requires a flat domain";
  auto copy = std::make_unique<ExtendedDomain>(pool_);
  copy->states_ = states_;
  copy->edges_ = edges_;
  copy->roots_ = roots_;
  copy->size_ = size_;
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

Status ExtendedDomain::AddRoot(SeqId id, size_t max_sequences) {
  if (Contains(id)) return Status::Ok();
  SeqView v = pool_->View(id);
  size_ += Insert(v);
  lmax_ = std::max(lmax_, v.size());
  roots_.push_back(id);
  // Only the writer reads a growing domain, so a listing to extend was
  // built on this thread.
  if (listed_.load(std::memory_order_relaxed)) ListClosure(id);
  // The root is admitted whole before the budget check, so the check
  // trips on the same root as a member-by-member closure would.
  if (max_sequences == 0 || size() <= max_sequences) return Status::Ok();
  return Status::ResourceExhausted(StrCat(
      "extended active domain exceeded ", max_sequences, " sequences"));
}

bool ExtendedDomain::Recognizes(SeqView v) const {
  uint32_t state = 0;
  for (Symbol c : v) {
    state = Next(state, c);
    if (state == kNone) return false;
  }
  return true;
}

uint32_t ExtendedDomain::FindEdge(uint32_t state, Symbol c) const {
  uint32_t e = states_[state].first_edge;
  while (e != kNone && edges_[e].symbol != c) e = edges_[e].next;
  return e;
}

void ExtendedDomain::AddEdge(uint32_t state, Symbol c, uint32_t target) {
  edges_.push_back(Edge{c, target, states_[state].first_edge});
  states_[state].first_edge = static_cast<uint32_t>(edges_.size() - 1);
}

uint32_t ExtendedDomain::NewState(uint32_t len, uint32_t link) {
  SEQLOG_CHECK(states_.size() < kNone) << "domain automaton overflow";
  states_.push_back(State{len, link, kNone});
  return static_cast<uint32_t>(states_.size() - 1);
}

uint32_t ExtendedDomain::Split(uint32_t p, Symbol c, uint32_t q) {
  const uint32_t clone = NewState(states_[p].len + 1, states_[q].link);
  for (uint32_t e = states_[q].first_edge; e != kNone; e = edges_[e].next) {
    const Edge edge = edges_[e];
    AddEdge(clone, edge.symbol, edge.target);
  }
  states_[q].link = clone;
  for (; p != kNone; p = states_[p].link) {
    const uint32_t e = FindEdge(p, c);
    if (edges_[e].target != q) break;
    edges_[e].target = clone;
  }
  return clone;
}

void ExtendedDomain::Match(Symbol c, uint32_t* state, size_t* len) const {
  uint32_t s = *state;
  while (true) {
    const uint32_t t = Next(s, c);
    if (t != kNone) {
      *state = t;
      ++*len;
      return;
    }
    if (s == 0) {
      *len = 0;
      return;
    }
    s = states_[s].link;
    *len = states_[s].len;
    *state = s;
  }
}

size_t ExtendedDomain::Insert(SeqView v) {
  // Online generalised construction, one prefix P_j = v[0, j) at a time.
  // The factors new to this layer are the suffixes of P_j longer than
  // `known`, the longest suffix the automaton already held; those of
  // them the base holds are the suffixes no longer than `in_base`, its
  // matching statistic against the base. Both sets are suffix-closed, so
  // P_j contributes j - max(known, in_base) new members.
  size_t added = 0;
  uint32_t last = 0;  // the state whose longest factor is P_{j-1}
  uint32_t base_state = 0;
  size_t in_base = 0;
  for (size_t j = 1; j <= v.size(); ++j) {
    const Symbol c = v[j - 1];
    if (base_ != nullptr) base_->Match(c, &base_state, &in_base);
    size_t known = j;
    const uint32_t q = Next(last, c);
    if (q != kNone) {
      // P_j is already a factor; make it the longest of its state.
      last = states_[q].len == states_[last].len + 1 ? q : Split(last, c, q);
    } else {
      const uint32_t cur = NewState(states_[last].len + 1, 0);
      uint32_t p = last;
      uint32_t target = kNone;
      for (; p != kNone; p = states_[p].link) {
        target = Next(p, c);
        if (target != kNone) break;
        AddEdge(p, c, cur);
      }
      if (p != kNone) {
        const uint32_t link = states_[p].len + 1 == states_[target].len
                                  ? target
                                  : Split(p, c, target);
        states_[cur].link = link;
      }
      known = states_[states_[cur].link].len;
      last = cur;
    }
    added += j - std::max(known, in_base);
  }
  return added;
}

void ExtendedDomain::EnsureListed() const {
  if (listed_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(listing_mu_);
  if (listed_.load(std::memory_order_relaxed)) return;
  if (base_ != nullptr) base_->EnsureListed();
  if (base_ == nullptr) {
    listing_.seqs.push_back(kEmptySeq);
    listing_.members.insert(kEmptySeq);
    listing_.by_length.resize(1);
    listing_.by_length[0].push_back(kEmptySeq);
  }
  for (SeqId root : roots_) ListClosure(root);
  listed_.store(true, std::memory_order_release);
}

void ExtendedDomain::ListClosure(SeqId root) const {
  auto add = [&](SeqId s) {
    if (base_ != nullptr && base_->Contains(s)) return;
    if (!listing_.members.insert(s).second) return;
    listing_.seqs.push_back(s);
    const size_t len = pool_->Length(s);
    if (len >= listing_.by_length.size()) listing_.by_length.resize(len + 1);
    listing_.by_length[len].push_back(s);
  };
  add(root);
  SeqView v = pool_->View(root);
  const size_t n = v.size();
  // Uniform sequences (a^n — poly-A tails and unary counters are common)
  // have only n+1 distinct subsequences; hashing all ~n^2/2 subspans
  // would cost O(n^3) symbol work. Their n prefixes cover the same value
  // set in the same first-occurrence order.
  bool uniform = n > 0;
  for (size_t i = 1; uniform && i < n; ++i) uniform = v[i] == v[0];
  for (size_t len = 1; len < n; ++len) {
    const size_t starts = uniform ? 1 : n - len + 1;
    for (size_t from = 0; from < starts; ++from) {
      add(pool_->Intern(v.subspan(from, len)));
    }
  }
}

}  // namespace seqlog
