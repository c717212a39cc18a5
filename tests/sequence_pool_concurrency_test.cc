// SequencePool under contention: the lock-free id-indexed read path
// (View/Length/Render/size gate on an atomic size over chunked storage)
// must stay consistent while many writer threads intern overlapping
// span sets. docs/CONCURRENCY.md documents the contract these tests
// exercise; with concurrency_test.cc they are a TSan CI target — any
// data race fails the tsan job.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "sequence/sequence_pool.h"
#include "sequence/symbol_table.h"

namespace seqlog {
namespace {

// ---------------------------------------------------------------------
// Torture: N writers interning overlapping subsequence span sets while
// M readers resolve every published id through the lock-free path.
// ---------------------------------------------------------------------

TEST(SequencePoolTorture, ConcurrentWritersAndLockFreeReaders) {
  constexpr size_t kWriters = 4;
  constexpr size_t kReaders = 3;
  constexpr size_t kBaseLen = 48;

  SymbolTable symbols;
  SequencePool pool;
  // One shared base string; every writer interns all of its contiguous
  // subsequences (heavily overlapping work → constant duplicate hits on
  // the shared-lock fast path) plus a private tail that forces fresh
  // interning (exclusive-lock slow path) throughout the run.
  std::vector<Symbol> base;
  for (size_t i = 0; i < kBaseLen; ++i) {
    base.push_back(symbols.Intern(std::string(1, 'a' + (i * 7) % 4)));
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> checked{0};
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Symbol tag = symbols.Intern(std::string(1, 'w'));
      Symbol digit = symbols.Intern(std::string(1, '0' + char(w)));
      std::vector<Symbol> priv;
      priv.reserve(kBaseLen + 2);
      for (size_t len = 1; len <= kBaseLen; ++len) {
        for (size_t from = 0; from + len <= kBaseLen; ++from) {
          SeqId id = pool.Intern(SeqView(base).subspan(from, len));
          ASSERT_NE(id, SequencePool::kInvalidSeq);
          // Writer-private spans start with the writer's tag, so every
          // iteration also interns a sequence no other thread creates —
          // constant pressure on the exclusive-lock slow path.
          priv.assign({tag, digit});
          priv.insert(priv.end(), base.begin() + from,
                      base.begin() + from + len);
          pool.Intern(priv);
        }
      }
    });
  }
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        size_t published = pool.size();
        ASSERT_GE(published, 1u);
        // Every id below the gate must resolve to a fully published
        // entry whose content round-trips through Find.
        for (SeqId id = 0; id < published; id += 7) {
          SeqView v = pool.View(id);
          ASSERT_LE(v.size(), kBaseLen + 2);
          EXPECT_EQ(pool.Length(id), v.size());
          EXPECT_EQ(pool.Find(v), id);
          ++checked;
        }
      }
    });
  }
  for (size_t i = 0; i < kWriters; ++i) threads[i].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  EXPECT_GT(checked.load(), 0u);
  // Post-join determinism: equal spans share one id, and every
  // subsequence of the base is present exactly once.
  for (size_t len = 1; len <= kBaseLen; ++len) {
    for (size_t from = 0; from + len <= kBaseLen; ++from) {
      SeqView span = SeqView(base).subspan(from, len);
      SeqId id = pool.Find(span);
      ASSERT_NE(id, SequencePool::kInvalidSeq);
      SeqView stored = pool.View(id);
      EXPECT_TRUE(std::equal(span.begin(), span.end(), stored.begin(),
                             stored.end()));
    }
  }
}

// ---------------------------------------------------------------------
// Chunk-boundary growth: ids spanning many storage chunks stay valid
// and lock-free readable (the directory publishes through the gate).
// ---------------------------------------------------------------------

TEST(SequencePoolTorture, ViewsSurviveGrowthAcrossChunks) {
  SymbolTable symbols;
  SequencePool pool;
  Symbol a = symbols.Intern("a");
  Symbol b = symbols.Intern("b");
  // > 2 chunks (chunk size is 1024): 3000 distinct two-symbol-alphabet
  // sequences of increasing length-pattern.
  std::vector<SeqView> views;
  std::vector<std::vector<Symbol>> inputs;
  inputs.reserve(3000);
  for (size_t i = 0; i < 3000; ++i) {
    std::vector<Symbol> s;
    for (size_t bit = 0; bit < 12; ++bit) {
      s.push_back((i >> bit) & 1 ? a : b);
    }
    inputs.push_back(std::move(s));
  }
  std::vector<SeqId> ids;
  for (const auto& s : inputs) {
    SeqId id = pool.Intern(s);
    ids.push_back(id);
    views.push_back(pool.View(id));
  }
  // Views captured before later growth still point at live storage.
  for (size_t i = 0; i < ids.size(); ++i) {
    SeqView now = pool.View(ids[i]);
    EXPECT_EQ(views[i].data(), now.data()) << "entry moved: " << i;
    EXPECT_TRUE(std::equal(now.begin(), now.end(), inputs[i].begin(),
                           inputs[i].end()));
  }
}

}  // namespace
}  // namespace seqlog
