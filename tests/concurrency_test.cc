// Concurrency: N threads executing one shared PreparedQuery against
// published snapshots while the main thread keeps adding facts and
// publishing new snapshots. Answers must match the single-threaded
// oracle exactly; run under ThreadSanitizer (the `tsan` CMake preset /
// CI job) to prove the pool/symbol-table/catalog locking and the
// copy-on-publish snapshot discipline are race-free.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/programs.h"
#include "transducer/genome.h"
#include "transducer/network.h"

namespace seqlog {
namespace {

using RowList = std::vector<RenderedRow>;

/// Deterministic pseudo-random DNA (no <random> needed).
std::string Dna(uint64_t seed, size_t len) {
  static const char kBases[] = {'a', 'c', 'g', 't'};
  std::string out;
  out.reserve(len);
  uint64_t x = seed * 6364136223846793005u + 1442695040888963407u;
  for (size_t i = 0; i < len; ++i) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdu;
    out.push_back(kBases[(x >> 24) % 4]);
  }
  return out;
}

/// A ground goal's rendered, sorted answers over the live EDB (Prepare
/// + Execute): the single-threaded oracle.
RowList Answers(Engine* engine, const std::string& goal) {
  Result<PreparedQuery> prepared = engine->Prepare(goal);
  EXPECT_TRUE(prepared.ok()) << goal << ": " << prepared.status().ToString();
  if (!prepared.ok()) return {};
  return prepared->Execute().Materialize();
}

TEST(Concurrency, SharedPreparedQueryAgainstOneSnapshotUnderWrites) {
  constexpr size_t kThreads = 8;
  constexpr size_t kExecutesPerThread = 25;
  constexpr size_t kWriterFacts = 40;

  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  std::vector<std::string> dna;
  for (size_t i = 0; i < 16; ++i) dna.push_back(Dna(i + 1, 24));
  for (const std::string& d : dna) ASSERT_TRUE(engine.AddFact("r", {d}).ok());
  const std::string probe = dna[3].substr(dna[3].size() - 6);

  Result<PreparedQuery> prepared = engine.Prepare("?- suffix($1).");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_TRUE(prepared->Bind(1, probe).ok());

  // Freeze the oracle BEFORE the writer starts: the snapshot pins these
  // answers no matter what the writer does afterwards.
  Snapshot snapshot = engine.PublishSnapshot();
  const RowList expected = Answers(&engine, "?- suffix(" + probe + ").");
  ASSERT_FALSE(expected.empty());

  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&prepared, &snapshot, &expected, &mismatches,
                          &failures] {
      for (size_t i = 0; i < kExecutesPerThread; ++i) {
        ResultSet rs = prepared->Execute(snapshot);
        if (!rs.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (rs.Materialize() != expected) mismatches.fetch_add(1);
      }
    });
  }

  // Writer: keep interning fresh sequences, mutating the live EDB and
  // publishing new snapshots while the readers hammer the old one.
  for (size_t i = 0; i < kWriterFacts; ++i) {
    ASSERT_TRUE(engine.AddFact("r", {Dna(1000 + i, 24)}).ok());
    Snapshot fresh = engine.PublishSnapshot();
    ASSERT_TRUE(fresh.valid());
    std::this_thread::yield();
  }

  for (std::thread& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(prepared->stats().executions, kThreads * kExecutesPerThread);
  // The prepared path never re-parsed or re-rewrote, from any thread.
  EXPECT_EQ(prepared->stats().goal_parses, 1u);
  EXPECT_EQ(prepared->stats().magic_rewrites, 1u);

  // A snapshot published after the writes sees the new facts.
  const std::string late_probe = Dna(1000, 24).substr(18);
  ASSERT_TRUE(prepared->Bind(1, late_probe).ok());
  EXPECT_TRUE(prepared->Execute(snapshot).empty()) << "old snapshot moved";
  EXPECT_FALSE(prepared->Execute(engine.PublishSnapshot()).empty());
}

TEST(Concurrency, ManySnapshotsManyGoalsInFlight) {
  // Readers run against *different* snapshot generations and two
  // different prepared goals at once; every reader still sees exactly
  // its snapshot's frozen answers.
  constexpr size_t kThreads = 6;
  constexpr size_t kRounds = 10;

  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgtacgt"}).ok());

  Result<PreparedQuery> hit = engine.Prepare("?- suffix(acgt).");
  ASSERT_TRUE(hit.ok());
  Result<PreparedQuery> edb_scan = engine.Prepare("?- r(X).");
  ASSERT_TRUE(edb_scan.ok());

  std::atomic<size_t> errors{0};
  std::vector<std::thread> readers;
  std::vector<Snapshot> generations;
  generations.push_back(engine.PublishSnapshot());
  std::vector<size_t> expected_facts{1};

  for (size_t round = 1; round < kRounds; ++round) {
    ASSERT_TRUE(engine.AddFact("r", {Dna(round, 12)}).ok());
    generations.push_back(engine.PublishSnapshot());
    expected_facts.push_back(1 + round);
  }

  for (size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        const Snapshot& snap = generations[(t + round) % generations.size()];
        ResultSet answers = hit->Execute(snap);
        if (!answers.ok() || answers.size() != 1) errors.fetch_add(1);
        ResultSet scan = edb_scan->Execute(snap);
        if (!scan.ok() ||
            scan.size() != expected_facts[(t + round) %
                                          generations.size()]) {
          errors.fetch_add(1);
        }
      }
    });
  }
  // Writer keeps going while readers drain the older generations.
  for (size_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine.AddFact("r", {Dna(5000 + i, 12)}).ok());
    (void)engine.PublishSnapshot();
    std::this_thread::yield();
  }
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(errors.load(), 0u);
}

TEST(Concurrency, CompiledNetworkSharedByConcurrentExecutions) {
  // One compiled, fused network (transcribe then translate) runs inside
  // many concurrent evaluations of one prepared goal; every reader must
  // see the single-threaded answers.
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 10;

  Engine engine;
  SymbolTable* syms = engine.symbols();
  auto transcribe = transducer::MakeTranscribe("t", syms);
  auto translate = transducer::MakeTranslate("tr", syms);
  ASSERT_TRUE(transcribe.ok() && translate.ok());
  auto net = std::make_shared<transducer::TransducerNetwork>("rnapipe", 1);
  auto n0 = net->AddNode(transcribe.value(),
                         {transducer::InputSource::FromNetwork(0)});
  ASSERT_TRUE(n0.ok());
  auto n1 = net->AddNode(translate.value(),
                         {transducer::InputSource::FromNode(*n0)});
  ASSERT_TRUE(n1.ok());
  ASSERT_TRUE(net->SetOutput(*n1).ok());
  const std::vector<Symbol> dna_alphabet = {
      syms->Intern("a"), syms->Intern("c"), syms->Intern("g"),
      syms->Intern("t")};
  ASSERT_TRUE(net->Compile(dna_alphabet).ok());
  ASSERT_TRUE(net->compiled());
  ASSERT_TRUE(engine.RegisterTransducer(net).ok());
  ASSERT_TRUE(
      engine.LoadProgram("protein(D, @rnapipe(D)) :- dnaseq(D).").ok());

  std::vector<std::optional<SeqId>> probes;
  for (size_t i = 0; i < 16; ++i) {
    const std::string d = Dna(i + 7, 24);
    ASSERT_TRUE(engine.AddFact("dnaseq", {d}).ok());
    probes.push_back(engine.pool()->FromChars(d, syms));
  }
  Result<PreparedQuery> prepared = engine.Prepare("?- protein($1, P).");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  Snapshot snapshot = engine.PublishSnapshot();

  std::vector<RowList> expected;
  for (const auto& probe : probes) {
    ResultSet rs = prepared->ExecuteWith(snapshot, {probe});
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    expected.push_back(rs.Materialize());
    ASSERT_EQ(expected.back().size(), 1u);
  }

  std::atomic<size_t> errors{0};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        const size_t i = (t + round) % probes.size();
        ResultSet rs = prepared->ExecuteWith(snapshot, {probes[i]});
        if (!rs.ok() || rs.Materialize() != expected[i]) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(errors.load(), 0u);
  TransducerStats stats;
  net->CollectStats(&stats);
  EXPECT_GE(stats.compiled_node_runs, kThreads * kRounds);
}

TEST(Concurrency, FirstEnumerationOfASharedBaseDomain) {
  // `p` draws candidates from a length bucket of the domain (inverse
  // suffix matching), so the first execution on a snapshot lists the
  // snapshot's shared base domain. Eight readers race to be first; each
  // must see the sequential answers.
  constexpr size_t kThreads = 8;
  constexpr size_t kExecutesPerThread = 4;

  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("p(X) :- s(X[2:end]).").ok());
  for (size_t i = 0; i < 16; ++i) {
    const std::string d = Dna(i + 31, 24);
    ASSERT_TRUE(engine.AddFact("s", {d}).ok());
    // Its suffix from position 2 too, so that `d` itself is an answer.
    ASSERT_TRUE(engine.AddFact("s", {d.substr(1)}).ok());
  }
  Result<PreparedQuery> prepared = engine.Prepare("?- p(X).");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  Snapshot snapshot = engine.PublishSnapshot();
  // The oracle runs on the live database: the snapshot's base stays
  // unlisted until the readers start.
  const RowList expected = Answers(&engine, "?- p(X).");
  ASSERT_EQ(expected.size(), 16u);

  std::atomic<size_t> not_started{kThreads};
  std::atomic<size_t> errors{0};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      not_started.fetch_sub(1);
      while (not_started.load() != 0) std::this_thread::yield();
      for (size_t i = 0; i < kExecutesPerThread; ++i) {
        ResultSet rs = prepared->Execute(snapshot);
        if (!rs.ok() || rs.Materialize() != expected) errors.fetch_add(1);
      }
    });
  }
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(errors.load(), 0u);
}

}  // namespace
}  // namespace seqlog
