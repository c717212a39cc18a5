// Unit and property tests for the sequence layer: symbol table, pool and
// extended active domain (Definitions 2-3, Lemma 1, the subsequence-count
// bound of Section 2.1).
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "sequence/domain.h"
#include "sequence/sequence_pool.h"
#include "sequence/symbol_table.h"

namespace seqlog {
namespace {

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable t;
  Symbol a = t.Intern("a");
  EXPECT_EQ(t.Intern("a"), a);
  EXPECT_EQ(t.Name(a), "a");
  EXPECT_EQ(t.size(), 1u);
}

TEST(SymbolTableTest, MultiCharacterNames) {
  SymbolTable t;
  Symbol q0 = t.Intern("q0");
  Symbol q1 = t.Intern("q1");
  EXPECT_NE(q0, q1);
  EXPECT_EQ(t.Name(q0), "q0");
}

TEST(SymbolTableTest, FindMissingReturnsMarkerSentinel) {
  SymbolTable t;
  EXPECT_EQ(t.Find("nope"), kEndMarker);
  t.Intern("yes");
  EXPECT_NE(t.Find("yes"), kEndMarker);
}

TEST(SequencePoolTest, EmptySequenceIsIdZero) {
  SequencePool pool;
  EXPECT_EQ(pool.Intern({}), kEmptySeq);
  EXPECT_EQ(pool.Length(kEmptySeq), 0u);
}

TEST(SequencePoolTest, InternDeduplicates) {
  SymbolTable t;
  SequencePool pool;
  SeqId a = pool.FromChars("acgt", &t);
  SeqId b = pool.FromChars("acgt", &t);
  SeqId c = pool.FromChars("acga", &t);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(pool.Length(a), 4u);
}

TEST(SequencePoolTest, ConcatMatchesContent) {
  SymbolTable t;
  SequencePool pool;
  SeqId ab = pool.FromChars("ab", &t);
  SeqId cd = pool.FromChars("cd", &t);
  SeqId abcd = pool.Concat(ab, cd);
  EXPECT_EQ(abcd, pool.FromChars("abcd", &t));
  EXPECT_EQ(pool.Concat(kEmptySeq, ab), ab);
  EXPECT_EQ(pool.Concat(ab, kEmptySeq), ab);
}

TEST(SequencePoolTest, SubsequenceSemantics) {
  // The Section 3.2 table: uvwxy[3:5]=wxy, [3:3]=w, [3:2]=eps.
  SymbolTable t;
  SequencePool pool;
  SeqId s = pool.FromChars("uvwxy", &t);
  EXPECT_EQ(pool.Subsequence(s, 3, 5), pool.FromChars("wxy", &t));
  EXPECT_EQ(pool.Subsequence(s, 3, 4), pool.FromChars("wx", &t));
  EXPECT_EQ(pool.Subsequence(s, 3, 3), pool.FromChars("w", &t));
  EXPECT_EQ(pool.Subsequence(s, 3, 2), kEmptySeq);
  EXPECT_EQ(pool.Subsequence(s, 1, 5), s);
}

TEST(SequencePoolTest, RenderMixedSymbolWidths) {
  SymbolTable t;
  SequencePool pool;
  std::vector<Symbol> syms = {t.Intern("q0"), t.Intern("a"), t.Intern("b")};
  SeqId s = pool.Intern(syms);
  EXPECT_EQ(pool.Render(s, t), "<q0>ab");
  EXPECT_EQ(pool.Render(kEmptySeq, t), "");
}

TEST(ExtendedDomainTest, StartsWithEpsilonOnly) {
  SequencePool pool;
  ExtendedDomain d(&pool);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_TRUE(d.Contains(kEmptySeq));
  EXPECT_EQ(d.MaxInt(), 1);  // lmax = 0
}

TEST(ExtendedDomainTest, AddRootInsertsAllSubsequences) {
  SymbolTable t;
  SequencePool pool;
  ExtendedDomain d(&pool);
  SeqId abc = pool.FromChars("abc", &t);
  ASSERT_TRUE(d.AddRoot(abc).ok());
  // Section 2.1: eps, a, b, c, ab, bc, abc.
  EXPECT_EQ(d.size(), 7u);
  for (const char* sub : {"a", "b", "c", "ab", "bc", "abc"}) {
    EXPECT_TRUE(d.Contains(pool.FromChars(sub, &t))) << sub;
  }
  EXPECT_FALSE(d.Contains(pool.FromChars("ac", &t)));
  EXPECT_EQ(d.MaxInt(), 4);
}

TEST(ExtendedDomainTest, SubsequenceCountBound) {
  // At most k(k+1)/2 + 1 distinct contiguous subsequences (attained by
  // sequences with all-distinct symbols).
  SymbolTable t;
  SequencePool pool;
  for (size_t k = 1; k <= 12; ++k) {
    ExtendedDomain d(&pool);
    std::vector<Symbol> syms;
    for (size_t i = 0; i < k; ++i) {
      syms.push_back(t.Intern(std::string("s") + std::to_string(i)));
    }
    ASSERT_TRUE(d.AddRoot(pool.Intern(syms)).ok());
    EXPECT_EQ(d.size(), k * (k + 1) / 2 + 1) << "k=" << k;
  }
}

TEST(ExtendedDomainTest, RepeatedSymbolsGiveFewerSubsequences) {
  SymbolTable t;
  SequencePool pool;
  ExtendedDomain d(&pool);
  ASSERT_TRUE(d.AddRoot(pool.FromChars("aaaa", &t)).ok());
  // eps, a, aa, aaa, aaaa.
  EXPECT_EQ(d.size(), 5u);
}

TEST(ExtendedDomainTest, UniformFastPathMatchesGenericClosure) {
  // a^n takes the uniform fast path; its closure must be identical to
  // what the generic loop computes for an equivalent mixed sequence
  // restricted to the uniform members: exactly {eps, a, ..., a^n}, all
  // length buckets singleton.
  SymbolTable t;
  SequencePool pool;
  ExtendedDomain d(&pool);
  ASSERT_TRUE(d.AddRoot(pool.FromChars("aaaaaa", &t)).ok());
  EXPECT_EQ(d.size(), 7u);
  for (size_t len = 0; len <= 6; ++len) {
    EXPECT_EQ(d.WithLength(len).size(), 1u) << len;
    EXPECT_TRUE(d.Contains(pool.FromChars(std::string(len, 'a'), &t)));
  }
  EXPECT_EQ(d.MaxInt(), 7);
  // The fast path must still honour the budget.
  ExtendedDomain capped(&pool);
  Status s =
      capped.AddRoot(pool.FromChars(std::string(100, 'a'), &t), 10);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

TEST(ExtendedDomainTest, LengthBucketsPartitionTheDomain) {
  SymbolTable t;
  SequencePool pool;
  ExtendedDomain d(&pool);
  ASSERT_TRUE(d.AddRoot(pool.FromChars("abcab", &t)).ok());
  size_t total = 0;
  for (size_t len = 0; len <= d.lmax(); ++len) {
    for (SeqId id : d.WithLength(len)) {
      EXPECT_EQ(pool.Length(id), len);
      ++total;
    }
  }
  EXPECT_EQ(total, d.size());
  EXPECT_TRUE(d.WithLength(d.lmax() + 5).empty());
}

TEST(ExtendedDomainTest, ReAddingContainedSequenceIsNoop) {
  SymbolTable t;
  SequencePool pool;
  ExtendedDomain d(&pool);
  SeqId abc = pool.FromChars("abc", &t);
  ASSERT_TRUE(d.AddRoot(abc).ok());
  size_t before = d.size();
  ASSERT_TRUE(d.AddRoot(pool.FromChars("ab", &t)).ok());  // a subsequence
  ASSERT_TRUE(d.AddRoot(abc).ok());
  EXPECT_EQ(d.size(), before);
}

TEST(ExtendedDomainTest, MonotoneGrowth) {
  // Lemma 1 flavour: adding roots never removes elements and the
  // insertion order view is stable.
  SymbolTable t;
  SequencePool pool;
  ExtendedDomain d(&pool);
  ASSERT_TRUE(d.AddRoot(pool.FromChars("ab", &t)).ok());
  std::vector<SeqId> snapshot(d.sequences().begin(), d.sequences().end());
  ASSERT_TRUE(d.AddRoot(pool.FromChars("xyz", &t)).ok());
  ASSERT_GE(d.sequences().size(), snapshot.size());
  for (size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(d.sequences()[i], snapshot[i]);
  }
}

TEST(ExtendedDomainTest, LayeredOverlayReusesFrozenBase) {
  SymbolTable t;
  SequencePool pool;
  auto base = std::make_shared<ExtendedDomain>(&pool);
  ASSERT_TRUE(base->AddRoot(pool.FromChars("abc", &t)).ok());
  const size_t base_size = base->size();

  ExtendedDomain overlay(&pool, base);
  EXPECT_EQ(overlay.size(), base_size);  // starts as a view of the base
  EXPECT_TRUE(overlay.Contains(pool.FromChars("ab", &t)));
  // Re-adding a base root must not duplicate anything.
  ASSERT_TRUE(overlay.AddRoot(pool.FromChars("abc", &t)).ok());
  EXPECT_EQ(overlay.size(), base_size);

  // New roots extend only the overlay; the base is untouched.
  ASSERT_TRUE(overlay.AddRoot(pool.FromChars("xy", &t)).ok());
  EXPECT_GT(overlay.size(), base_size);
  EXPECT_EQ(base->size(), base_size);
  EXPECT_TRUE(overlay.Contains(pool.FromChars("x", &t)));
  EXPECT_FALSE(base->Contains(pool.FromChars("x", &t)));

  // Enumeration covers base + overlay exactly once, buckets included.
  std::vector<SeqId> all(overlay.sequences().begin(),
                         overlay.sequences().end());
  std::set<SeqId> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), all.size());
  EXPECT_EQ(all.size(), overlay.size());
  size_t bucketed = 0;
  for (size_t len = 0; len <= overlay.lmax(); ++len) {
    bucketed += overlay.WithLength(len).size();
  }
  EXPECT_EQ(bucketed, overlay.size());
  EXPECT_EQ(overlay.MaxInt(), 4);  // lmax still from the base ("abc")
}

TEST(ExtendedDomainTest, BudgetExceededReportsResourceExhausted) {
  SymbolTable t;
  SequencePool pool;
  ExtendedDomain d(&pool);
  std::string long_seq(64, 'a');
  for (size_t i = 0; i < long_seq.size(); ++i) {
    long_seq[i] = static_cast<char>('a' + (i % 26));
  }
  Status s = d.AddRoot(pool.FromChars(long_seq, &t), /*max_sequences=*/10);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

TEST(ExtendedDomainTest, IntegerRangeTracksLongestSequence) {
  SymbolTable t;
  SequencePool pool;
  ExtendedDomain d(&pool);
  ASSERT_TRUE(d.AddRoot(pool.FromChars("ab", &t)).ok());
  EXPECT_EQ(d.MaxInt(), 3);
  ASSERT_TRUE(d.AddRoot(pool.FromChars("abcde", &t)).ok());
  EXPECT_EQ(d.MaxInt(), 6);
  EXPECT_EQ(d.lmax(), 5u);
}

/// The extended active domain written out literally: each root's closure
/// in the canonical order (the root, then every factor by length and
/// start), each member once, as the eager closure lists them. `base`
/// (optional) is the frozen layer underneath.
struct LiteralClosure {
  explicit LiteralClosure(const LiteralClosure* under) : base(under) {
    if (base == nullptr) Insert("");
  }

  bool Has(const std::string& s) const {
    return members.count(s) > 0 || (base != nullptr && base->Has(s));
  }
  size_t Size() const {
    return members.size() + (base != nullptr ? base->Size() : 0);
  }
  /// Adds `root`'s closure member by member; false once the total
  /// exceeds `max` (0 = unlimited).
  bool Add(const std::string& root, size_t max) {
    if (Has(root)) return true;
    bool ok = true;
    auto add = [&](const std::string& s) {
      if (!Has(s)) Insert(s);
      if (max != 0 && Size() > max) ok = false;
    };
    add(root);
    for (size_t len = 1; len < root.size(); ++len) {
      for (size_t from = 0; from + len <= root.size(); ++from) {
        add(root.substr(from, len));
      }
    }
    return ok;
  }
  /// Base members first, then this layer's, as ExtendedDomain lists them.
  std::vector<std::string> Listing() const {
    std::vector<std::string> out =
        base != nullptr ? base->Listing() : std::vector<std::string>{};
    out.insert(out.end(), seqs.begin(), seqs.end());
    return out;
  }

  const LiteralClosure* base;
  std::vector<std::string> seqs;
  std::set<std::string> members;

 private:
  void Insert(const std::string& s) {
    members.insert(s);
    seqs.push_back(s);
  }
};

/// Seed-reproducible random roots over the first `alphabet` letters.
class RandomRoots {
 public:
  explicit RandomRoots(uint32_t seed) : rng_(seed) {}
  size_t Below(size_t n) { return rng_() % n; }
  std::string Next(size_t alphabet) {
    std::string s(Below(10), 'a');
    for (char& c : s) c = static_cast<char>('a' + Below(alphabet));
    return s;
  }

 private:
  std::mt19937 rng_;
};

std::vector<std::string> Rendered(DomainView view, const SequencePool& pool,
                                  const SymbolTable& symbols) {
  std::vector<std::string> out;
  for (SeqId id : view) out.push_back(pool.Render(id, symbols));
  return out;
}

void ExpectSameListing(const ExtendedDomain& d, const LiteralClosure& lit,
                       const SequencePool& pool, const SymbolTable& symbols) {
  const std::vector<std::string> expected = lit.Listing();
  EXPECT_EQ(Rendered(d.sequences(), pool, symbols), expected);
  for (size_t len = 0; len <= d.lmax() + 1; ++len) {
    std::vector<std::string> bucket;
    for (const std::string& s : expected) {
      if (s.size() == len) bucket.push_back(s);
    }
    EXPECT_EQ(Rendered(d.WithLength(len), pool, symbols), bucket)
        << "len=" << len;
  }
}

TEST(ExtendedDomainTest, MatchesLiteralClosureOnRandomRoots) {
  // Flat domains and overlays on a base, against the factor set and the
  // eager closure written out above: size and membership after every
  // root, enumeration order at the end — and, in some trials, an
  // enumeration requested midway with growth continuing after it.
  SymbolTable t;
  SequencePool pool;
  RandomRoots gen(20261018);
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    const size_t alphabet = 1 + gen.Below(3);
    const bool layered = trial % 2 == 1;
    auto base = std::make_shared<ExtendedDomain>(&pool);
    LiteralClosure base_lit(nullptr);
    if (layered) {
      for (size_t r = gen.Below(5); r > 0; --r) {
        const std::string root = gen.Next(alphabet);
        ASSERT_TRUE(base->AddRoot(pool.FromChars(root, &t)).ok());
        base_lit.Add(root, 0);
      }
    }
    std::unique_ptr<ExtendedDomain> d =
        layered ? std::make_unique<ExtendedDomain>(&pool, base)
                : std::make_unique<ExtendedDomain>(&pool);
    LiteralClosure lit(layered ? &base_lit : nullptr);
    const size_t list_after = gen.Below(8);  // >= 6: only at the end
    size_t lmax = 0;
    for (const std::string& s : base_lit.members) {
      lmax = std::max(lmax, s.size());
    }
    for (size_t r = 1; r <= 6; ++r) {
      const std::string root = gen.Next(alphabet);
      ASSERT_TRUE(d->AddRoot(pool.FromChars(root, &t)).ok()) << root;
      lit.Add(root, 0);
      lmax = std::max(lmax, root.size());
      EXPECT_EQ(d->size(), lit.Size()) << root;
      EXPECT_EQ(d->lmax(), lmax);
      for (int probe = 0; probe < 8; ++probe) {
        const std::string s = gen.Next(alphabet);
        EXPECT_EQ(d->Contains(pool.FromChars(s, &t)), lit.Has(s)) << s;
      }
      if (r == list_after) ExpectSameListing(*d, lit, pool, t);
    }
    ExpectSameListing(*d, lit, pool, t);
    EXPECT_EQ(base->size(), base_lit.Size());
  }
}

TEST(ExtendedDomainTest, BudgetTripsOnTheSameRootAsTheLiteralClosure) {
  SymbolTable t;
  SequencePool pool;
  RandomRoots gen(7);
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    const size_t alphabet = 1 + gen.Below(3);
    const size_t max = 2 + gen.Below(40);
    const bool layered = trial % 2 == 1;
    auto base = std::make_shared<ExtendedDomain>(&pool);
    LiteralClosure base_lit(nullptr);
    if (layered) {
      for (size_t r = gen.Below(3); r > 0; --r) {
        const std::string root = gen.Next(alphabet);
        ASSERT_TRUE(base->AddRoot(pool.FromChars(root, &t)).ok());
        base_lit.Add(root, 0);
      }
    }
    std::unique_ptr<ExtendedDomain> d =
        layered ? std::make_unique<ExtendedDomain>(&pool, base)
                : std::make_unique<ExtendedDomain>(&pool);
    LiteralClosure lit(layered ? &base_lit : nullptr);
    for (int r = 0; r < 8; ++r) {
      const std::string root = gen.Next(alphabet);
      const bool fits = lit.Add(root, max);
      const Status s = d->AddRoot(pool.FromChars(root, &t), max);
      ASSERT_EQ(s.ok(), fits) << "root " << r << " = " << root;
      if (!fits) {
        EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
        // The tripping root is admitted whole.
        EXPECT_EQ(d->size(), lit.Size());
        break;
      }
    }
  }
}

}  // namespace
}  // namespace seqlog
