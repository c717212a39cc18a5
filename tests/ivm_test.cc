// Live-ingest subsystem (src/ivm/): the bounded staging queue, the
// incrementally maintained model, Engine's staging/drain semantics and
// the Republisher publish loop.
//
// The parity tests are the soundness check for Evaluator::Resaturate:
// any randomized insertion schedule, caught up from the EDB drain by
// drain, must land on exactly the model a cold evaluation over the
// union computes — same rows for every predicate, same extended active
// domain size.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/programs.h"
#include "ivm/incremental_model.h"
#include "ivm/ingest_queue.h"
#include "ivm/republisher.h"
#include "transducer/genome.h"

namespace seqlog {
namespace {

// ---------------------------------------------------------------------
// IngestQueue units.
// ---------------------------------------------------------------------

ivm::PendingFact Fact(PredId pred, std::vector<SeqId> args) {
  ivm::PendingFact f;
  f.pred = pred;
  f.args = std::move(args);
  return f;
}

TEST(IngestQueue, FifoPushAndDrain) {
  ivm::IngestQueue queue(8);
  EXPECT_EQ(queue.depth(), 0u);
  ASSERT_TRUE(queue.TryPush(Fact(1, {10})).ok());
  ASSERT_TRUE(queue.TryPush(Fact(2, {20})).ok());
  ASSERT_TRUE(queue.TryPush(Fact(1, {30})).ok());
  EXPECT_EQ(queue.depth(), 3u);
  EXPECT_EQ(queue.enqueued(), 3u);

  std::vector<ivm::PendingFact> out;
  EXPECT_EQ(queue.DrainTo(&out), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].pred, 1u);
  EXPECT_EQ(out[0].args, std::vector<SeqId>{10});
  EXPECT_EQ(out[1].pred, 2u);
  EXPECT_EQ(out[2].args, std::vector<SeqId>{30});
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(queue.drained(), 3u);
  // A second drain finds nothing and appends nothing.
  EXPECT_EQ(queue.DrainTo(&out), 0u);
  EXPECT_EQ(out.size(), 3u);
}

TEST(IngestQueue, BackpressureWhenFull) {
  ivm::IngestQueue queue(2);
  ASSERT_TRUE(queue.TryPush(Fact(1, {1})).ok());
  ASSERT_TRUE(queue.TryPush(Fact(1, {2})).ok());
  Status full = queue.TryPush(Fact(1, {3}));
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(queue.rejected(), 1u);
  EXPECT_EQ(queue.depth(), 2u);

  // Draining frees capacity again.
  std::vector<ivm::PendingFact> out;
  queue.DrainTo(&out);
  EXPECT_TRUE(queue.TryPush(Fact(1, {3})).ok());
}

TEST(IngestQueue, WaitForWorkReturnsOnThresholdAndWake) {
  ivm::IngestQueue queue(16);
  // Threshold satisfied mid-wait by a producer thread.
  std::thread producer([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(queue.TryPush(Fact(1, {1})).ok());
    ASSERT_TRUE(queue.TryPush(Fact(1, {2})).ok());
  });
  size_t depth = queue.WaitForWork(2, std::chrono::milliseconds(5000));
  producer.join();
  EXPECT_GE(depth, 2u);

  // Wake() releases a sleeper without any push.
  std::thread waker([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    queue.Wake();
  });
  auto t0 = std::chrono::steady_clock::now();
  queue.WaitForWork(100, std::chrono::milliseconds(5000));
  waker.join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(4000));
}

TEST(IngestQueue, OldestPendingTracksStagedAge) {
  ivm::IngestQueue queue(4);
  EXPECT_EQ(queue.OldestPendingMillis(), 0.0);
  ASSERT_TRUE(queue.TryPush(Fact(1, {1})).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(queue.OldestPendingMillis(), 0.0);
  std::vector<ivm::PendingFact> out;
  queue.DrainTo(&out);
  EXPECT_EQ(queue.OldestPendingMillis(), 0.0);
}

// ---------------------------------------------------------------------
// Parity: the model caught up from the EDB == cold Evaluate over it.
// ---------------------------------------------------------------------

struct ParityWorkload {
  const char* name;
  const char* program;
  const char* fact_pred;
  std::vector<const char*> check_preds;
  unsigned fact_seed;
  size_t fact_count;
  size_t fact_len;
  const char* alphabet;
};

std::vector<ParityWorkload> ParityWorkloads() {
  return {
      {"suffix", programs::kSuffixes, "r", {"suffix"}, 5, 24, 16, "acgt"},
      {"genome", programs::kGenomePipeline, "dnaseq",
       {"rnaseq", "proteinseq"}, 7, 48, 24, "acgt"},
      {"text", programs::kTextIndex, "doc",
       {"occurs", "shared", "shared4", "hit"}, 11, 6, 8, "ab"},
  };
}

std::vector<std::string> RandomSeqs(unsigned seed, size_t count,
                                    size_t len, std::string_view alphabet) {
  std::mt19937 rng(seed);
  std::vector<std::string> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string s;
    s.reserve(len);
    for (size_t j = 0; j < len; ++j) {
      s += alphabet[rng() % alphabet.size()];
    }
    out.push_back(std::move(s));
  }
  return out;
}

void SetupEngine(Engine* engine, const ParityWorkload& w) {
  if (std::string_view(w.fact_pred) == "dnaseq") {
    auto transcribe =
        transducer::MakeTranscribe("transcribe", engine->symbols());
    ASSERT_TRUE(transcribe.ok());
    ASSERT_TRUE(engine->RegisterTransducer(transcribe.value()).ok());
    auto translate =
        transducer::MakeTranslate("translate", engine->symbols());
    ASSERT_TRUE(translate.ok());
    ASSERT_TRUE(engine->RegisterTransducer(translate.value()).ok());
  }
  ASSERT_TRUE(engine->LoadProgram(w.program).ok());
}

/// One randomized schedule: half the facts cold, the rest drained in
/// random batch sizes, each fact written to the EDB (AddFact) or staged
/// (EnqueueFact) at random, with re-written duplicates sprinkled in —
/// no-op deltas must not disturb the fixpoint — and a publish before
/// some drains, which moves the staged facts into the EDB without
/// touching the model. Then compare against one cold evaluation over
/// everything.
void CheckParity(const ParityWorkload& w, unsigned schedule_seed) {
  SCOPED_TRACE(std::string(w.name) + " seed=" +
               std::to_string(schedule_seed));
  std::vector<std::string> facts =
      RandomSeqs(w.fact_seed, w.fact_count, w.fact_len, w.alphabet);
  std::mt19937 rng(schedule_seed);
  std::shuffle(facts.begin(), facts.end(), rng);

  eval::EvalOptions options;

  Engine cold;
  SetupEngine(&cold, w);
  for (const std::string& f : facts) {
    ASSERT_TRUE(cold.AddFact(w.fact_pred, {f}).ok());
  }
  eval::EvalOutcome cold_out = cold.Evaluate(options);
  ASSERT_TRUE(cold_out.status.ok()) << cold_out.status.ToString();

  Engine inc;
  SetupEngine(&inc, w);
  const size_t initial = facts.size() / 2;
  for (size_t i = 0; i < initial; ++i) {
    ASSERT_TRUE(inc.AddFact(w.fact_pred, {facts[i]}).ok());
  }
  eval::EvalOutcome out = inc.Evaluate(options);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();

  auto write = [&](const std::string& fact) {
    return rng() % 2 == 0 ? inc.AddFact(w.fact_pred, {fact})
                          : inc.EnqueueFact(w.fact_pred, {fact});
  };
  size_t at = initial;
  while (at < facts.size()) {
    const size_t batch = 1 + rng() % 8;
    for (size_t b = 0; b < batch && at < facts.size(); ++b, ++at) {
      ASSERT_TRUE(write(facts[at]).ok());
      if (rng() % 4 == 0) {
        // Re-write an already-known fact: must be dropped at the seed.
        ASSERT_TRUE(write(facts[rng() % at]).ok());
      }
    }
    if (rng() % 3 == 0) inc.PublishSnapshot();
    out = inc.DrainIngest(options);
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_FALSE(out.stats.cold_fallback);
  }

  ASSERT_TRUE(inc.live_model().built());
  ASSERT_TRUE(cold.live_model().built());
  EXPECT_EQ(inc.live_model().model()->TotalFacts(),
            cold.live_model().model()->TotalFacts());
  EXPECT_EQ(inc.live_model().domain()->size(),
            cold.live_model().domain()->size());
  for (const char* pred : w.check_preds) {
    Result<std::vector<RenderedRow>> want = cold.Query(pred);
    Result<std::vector<RenderedRow>> got = inc.Query(pred);
    ASSERT_TRUE(want.ok()) << pred;
    ASSERT_TRUE(got.ok()) << pred;
    EXPECT_EQ(got.value(), want.value()) << pred;
  }
}

TEST(IncrementalModelParity, RandomSchedulesMatchColdEvaluation) {
  for (const ParityWorkload& w : ParityWorkloads()) {
    for (unsigned seed : {1u, 2u, 3u}) {
      CheckParity(w, seed);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(IncrementalModelParity, OneFactAtATime) {
  // The finest-grained schedule: every insert is its own drain.
  ParityWorkload w{"suffix", programs::kSuffixes, "r",
                   {"suffix"}, 5, 12, 12, "acgt"};
  std::vector<std::string> facts =
      RandomSeqs(w.fact_seed, w.fact_count, w.fact_len, w.alphabet);

  Engine cold;
  SetupEngine(&cold, w);
  for (const std::string& f : facts) {
    ASSERT_TRUE(cold.AddFact("r", {f}).ok());
  }
  ASSERT_TRUE(cold.Evaluate().status.ok());

  Engine inc;
  SetupEngine(&inc, w);
  ASSERT_TRUE(inc.AddFact("r", {facts[0]}).ok());
  ASSERT_TRUE(inc.Evaluate().status.ok());
  for (size_t i = 1; i < facts.size(); ++i) {
    ASSERT_TRUE(inc.AddFact("r", {facts[i]}).ok());
    eval::EvalOutcome out = inc.DrainIngest();
    ASSERT_TRUE(out.status.ok());
  }
  EXPECT_EQ(inc.Query("suffix").value(), cold.Query("suffix").value());
  EXPECT_EQ(inc.live_model().domain()->size(),
            cold.live_model().domain()->size());
}

TEST(IncrementalModel, ApplyRequiresBuild) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  eval::Evaluator evaluator(engine.catalog(), engine.pool(),
                            engine.registry());
  ivm::IncrementalModel model(&evaluator, engine.catalog());
  Database edb(engine.catalog());
  eval::EvalOutcome out = model.Apply(edb, {});
  EXPECT_EQ(out.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(model.built());
  EXPECT_EQ(model.model(), nullptr);
}

// ---------------------------------------------------------------------
// Engine staging and drain semantics.
// ---------------------------------------------------------------------

TEST(EngineIngest, PostFixpointFactsStageAndResaturate) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgt"}).ok());
  ASSERT_TRUE(engine.Evaluate().status.ok());

  // Post-fixpoint AddFact writes the EDB and nothing else: the drain
  // catches the model up from the EDB rows it has not absorbed.
  ASSERT_TRUE(engine.AddFact("r", {"ttt"}).ok());
  EXPECT_EQ(engine.ingest_queue()->depth(), 0u);

  eval::EvalOutcome out = engine.DrainIngest();
  ASSERT_TRUE(out.status.ok());
  EXPECT_EQ(out.stats.ingested_facts, 1u);
  EXPECT_GE(out.stats.resaturate_rounds, 1u);
  EXPECT_FALSE(out.stats.cold_fallback);
  EXPECT_EQ(engine.ingest_queue()->depth(), 0u);

  Result<std::vector<RenderedRow>> rows = engine.Query("suffix");
  ASSERT_TRUE(rows.ok());
  bool saw_tt = false;
  for (const RenderedRow& row : rows.value()) {
    if (row.size() == 1 && row[0] == "tt") saw_tt = true;
  }
  EXPECT_TRUE(saw_tt);
}

TEST(EngineIngest, DuplicateFactsAreNotStaged) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgt"}).ok());
  ASSERT_TRUE(engine.Evaluate().status.ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgt"}).ok());  // already present
  EXPECT_EQ(engine.ingest_queue()->depth(), 0u);
  eval::EvalOutcome out = engine.DrainIngest();
  ASSERT_TRUE(out.status.ok());
  EXPECT_EQ(out.stats.ingested_facts, 0u);
  EXPECT_EQ(out.stats.resaturate_rounds, 0u);
}

TEST(EngineIngest, EnqueueBeforeEvaluateFeedsTheColdRun) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  // No model yet: EnqueueFact stages without touching the EDB.
  ASSERT_TRUE(engine.EnqueueFact("r", {"acgt"}).ok());
  EXPECT_EQ(engine.ingest_queue()->depth(), 1u);
  // Evaluate flushes the queue into the EDB before the cold run.
  ASSERT_TRUE(engine.Evaluate().status.ok());
  EXPECT_EQ(engine.ingest_queue()->depth(), 0u);
  Result<std::vector<RenderedRow>> rows = engine.Query("suffix");
  ASSERT_TRUE(rows.ok());
  EXPECT_FALSE(rows.value().empty());
}

TEST(EngineIngest, DrainWithoutModelOnlyFeedsTheEdb) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.EnqueueFact("r", {"acgt"}).ok());
  eval::EvalOutcome out = engine.DrainIngest();
  ASSERT_TRUE(out.status.ok());
  EXPECT_EQ(out.stats.ingested_facts, 1u);
  EXPECT_FALSE(engine.live_model().built());
  // Snapshots see the fact even though no model exists.
  Snapshot snapshot = engine.PublishSnapshot();
  EXPECT_EQ(snapshot.TotalFacts(), 1u);
}

TEST(EngineIngest, ClearFactsFallsBackCold) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgt"}).ok());
  ASSERT_TRUE(engine.Evaluate().status.ok());

  engine.ClearFacts();  // retraction: not expressible as a delta
  ASSERT_TRUE(engine.AddFact("r", {"gg"}).ok());
  eval::EvalOutcome out = engine.DrainIngest();
  ASSERT_TRUE(out.status.ok());
  EXPECT_TRUE(out.stats.cold_fallback);
  EXPECT_TRUE(engine.live_model().built());

  // The recomputed model is exactly the model of the post-clear EDB.
  Result<std::vector<RenderedRow>> rows = engine.Query("suffix");
  ASSERT_TRUE(rows.ok());
  std::vector<RenderedRow> want = {{""}, {"g"}, {"gg"}};
  EXPECT_EQ(rows.value(), want);
}

TEST(EngineIngest, LoadProgramInvalidatesButKeepsStagedFacts) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.EnqueueFact("r", {"acgt"}).ok());
  // A program swap must not lose staged writes — they are EDB facts in
  // flight, not derived state.
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  EXPECT_EQ(engine.ingest_queue()->depth(), 1u);
  ASSERT_TRUE(engine.Evaluate().status.ok());
  EXPECT_FALSE(engine.Query("suffix").value().empty());
}

TEST(EngineIngest, PublishMovesStagedFactsWithoutTouchingTheModel) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgt"}).ok());
  ASSERT_TRUE(engine.Evaluate().status.ok());
  const std::vector<RenderedRow> before = engine.Query("suffix").value();

  ASSERT_TRUE(engine.EnqueueFact("r", {"ttt"}).ok());
  ASSERT_TRUE(engine.EnqueueFact("r", {"gg"}).ok());
  Snapshot snapshot = engine.PublishSnapshot();
  EXPECT_EQ(engine.ingest_queue()->depth(), 0u);
  EXPECT_EQ(snapshot.TotalFacts(), 3u);
  // The model is as the last Evaluate left it.
  EXPECT_EQ(engine.Query("suffix").value(), before);

  // The drain catches it up from the EDB rows it has not absorbed.
  eval::EvalOutcome out = engine.DrainIngest();
  ASSERT_TRUE(out.status.ok());
  EXPECT_EQ(out.stats.ingested_facts, 2u);
  EXPECT_FALSE(out.stats.cold_fallback);
  Engine cold;
  ASSERT_TRUE(cold.LoadProgram(programs::kSuffixes).ok());
  for (const char* fact : {"acgt", "ttt", "gg"}) {
    ASSERT_TRUE(cold.AddFact("r", {fact}).ok());
  }
  ASSERT_TRUE(cold.Evaluate().status.ok());
  EXPECT_EQ(engine.Query("suffix").value(), cold.Query("suffix").value());
  EXPECT_EQ(engine.live_model().domain()->size(),
            cold.live_model().domain()->size());
}

TEST(EngineIngest, DrainRefiresMembershipReadsWhenTheDomainGrows) {
  // p binds X to a constant by equality, a membership read: abc is a
  // domain member only once the drained e(c) lets c build it.
  constexpr const char* kProgram =
      "c(X ++ Y) :- e(X), e(Y).\n"
      "p(X) :- X = abc.\n";
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(kProgram).ok());
  ASSERT_TRUE(engine.AddFact("e", {"ab"}).ok());
  ASSERT_TRUE(engine.Evaluate().status.ok());
  EXPECT_TRUE(engine.Query("p").value().empty());

  ASSERT_TRUE(engine.AddFact("e", {"c"}).ok());
  ASSERT_TRUE(engine.DrainIngest().status.ok());
  const std::vector<RenderedRow> want = {{"abc"}};
  EXPECT_EQ(engine.Query("p").value(), want);

  Engine naive;
  ASSERT_TRUE(naive.LoadProgram(kProgram).ok());
  ASSERT_TRUE(naive.AddFact("e", {"ab"}).ok());
  ASSERT_TRUE(naive.AddFact("e", {"c"}).ok());
  eval::EvalOptions options;
  options.strategy = eval::Strategy::kNaive;
  ASSERT_TRUE(naive.Evaluate(options).status.ok());
  EXPECT_EQ(engine.model()->TotalFacts(), naive.model()->TotalFacts());
}

// ---------------------------------------------------------------------
// Republisher.
// ---------------------------------------------------------------------

class RepublisherTest : public ::testing::Test {
 protected:
  void SetUpEngine() {
    ASSERT_TRUE(engine_.LoadProgram(programs::kSuffixes).ok());
    ASSERT_TRUE(engine_.AddFact("r", {"acgt"}).ok());
    ASSERT_TRUE(engine_.Evaluate().status.ok());
  }

  /// True when `snapshot` holds the fact r(value).
  bool Published(const Snapshot& snapshot, const std::string& value) {
    const PredId r = engine_.catalog()->Find("r").value();
    const SeqId id = engine_.pool()->FromChars(value, engine_.symbols());
    return snapshot.db().Contains(r, std::vector<SeqId>{id});
  }

  /// Polls until `done` or 5s — drain cycles run on another thread.
  template <typename F>
  bool WaitUntil(F done) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      if (done()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return done();
  }

  Engine engine_;
  std::atomic<uint64_t> hook_calls_{0};
  Snapshot last_hook_snapshot_;  // written on the Republisher thread
};

TEST_F(RepublisherTest, ThresholdDrainPublishes) {
  SetUpEngine();
  ivm::RepublisherOptions options;
  options.cadence_ms = 60'000;  // only the threshold can trigger
  options.drain_threshold = 2;
  ivm::Republisher rep(&engine_, options, [this](const Snapshot& s) {
    last_hook_snapshot_ = s;
    hook_calls_.fetch_add(1);
  });
  rep.Start();
  EXPECT_TRUE(rep.running());

  ASSERT_TRUE(engine_.EnqueueFact("r", {"tttt"}).ok());
  ASSERT_TRUE(engine_.EnqueueFact("r", {"gg"}).ok());
  EXPECT_TRUE(WaitUntil([&] { return rep.stats().publishes >= 1; }));
  rep.Stop();
  EXPECT_FALSE(rep.running());

  ivm::IngestStats stats = rep.stats();
  EXPECT_EQ(stats.ingested_facts, 2u);
  EXPECT_GE(hook_calls_.load(), 1u);
  EXPECT_EQ(last_hook_snapshot_.version(), stats.last_version);

  // The staged facts reached the published snapshot.
  EXPECT_TRUE(Published(last_hook_snapshot_, "tttt"));
  EXPECT_TRUE(Published(last_hook_snapshot_, "gg"));
}

TEST_F(RepublisherTest, CadenceDrainPublishes) {
  SetUpEngine();
  ivm::RepublisherOptions options;
  options.cadence_ms = 5;
  options.drain_threshold = 1000;  // only the cadence can trigger
  ivm::Republisher rep(&engine_, options,
                       [this](const Snapshot&) { hook_calls_.fetch_add(1); });
  rep.Start();
  ASSERT_TRUE(engine_.EnqueueFact("r", {"cc"}).ok());
  EXPECT_TRUE(WaitUntil([&] { return rep.stats().publishes >= 1; }));
  rep.Stop();
  EXPECT_EQ(rep.stats().ingested_facts, 1u);
}

TEST_F(RepublisherTest, ForcePublishCoversEverythingStagedBefore) {
  SetUpEngine();
  ivm::RepublisherOptions options;
  options.cadence_ms = 60'000;
  options.drain_threshold = 1000;  // neither trigger fires on its own
  ivm::Republisher rep(&engine_, options,
                       [this](const Snapshot&) { hook_calls_.fetch_add(1); });
  rep.Start();
  ASSERT_TRUE(engine_.EnqueueFact("r", {"tttt"}).ok());
  ASSERT_TRUE(rep.ForcePublish().ok());
  // Everything staged before the call is applied once it returns.
  EXPECT_EQ(engine_.ingest_queue()->depth(), 0u);
  EXPECT_EQ(rep.stats().ingested_facts, 1u);
  EXPECT_GE(rep.stats().publishes, 1u);
  rep.Stop();
}

TEST_F(RepublisherTest, StopRunsAFinalDrain) {
  SetUpEngine();
  ivm::RepublisherOptions options;
  options.cadence_ms = 60'000;
  options.drain_threshold = 1000;
  ivm::Republisher rep(&engine_, options, nullptr);
  rep.Start();
  ASSERT_TRUE(engine_.EnqueueFact("r", {"gg"}).ok());
  rep.Stop();  // must not strand the staged fact
  EXPECT_EQ(engine_.ingest_queue()->depth(), 0u);
  EXPECT_EQ(rep.stats().ingested_facts, 1u);
}

TEST_F(RepublisherTest, ForcePublishFailsWhenNotRunning) {
  SetUpEngine();
  ivm::Republisher rep(&engine_, {}, nullptr);
  EXPECT_EQ(rep.ForcePublish().code(), StatusCode::kFailedPrecondition);
  rep.Start();
  rep.Stop();
  EXPECT_EQ(rep.ForcePublish().code(), StatusCode::kFailedPrecondition);
}

/// Writers hammer EnqueueFact from many threads while the Republisher
/// drains — the tsan probe for the MPSC queue + single-mutator design.
TEST_F(RepublisherTest, ConcurrentWritersWhileDraining) {
  SetUpEngine();
  ivm::RepublisherOptions options;
  options.cadence_ms = 1;
  options.drain_threshold = 4;
  ivm::Republisher rep(&engine_, options, [this](const Snapshot& s) {
    last_hook_snapshot_ = s;
    hook_calls_.fetch_add(1);
  });
  rep.Start();

  constexpr size_t kWriters = 4;
  constexpr size_t kFactsPerWriter = 25;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([this, w, &failures] {
      for (size_t i = 0; i < kFactsPerWriter; ++i) {
        std::string value = "w";
        value += std::to_string(w);
        value += "f";
        value += std::to_string(i);
        if (!engine_.EnqueueFact("r", {value}).ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  ASSERT_TRUE(rep.ForcePublish().ok());
  rep.Stop();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(rep.stats().ingested_facts, kWriters * kFactsPerWriter);
  // Spot-check one writer's fact made it into the published snapshot.
  EXPECT_TRUE(Published(last_hook_snapshot_, "w3f24"));
}

}  // namespace
}  // namespace seqlog
