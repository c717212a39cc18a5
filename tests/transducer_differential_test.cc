// Randomized differential testing of the transducer lowering: a
// seed-reproducible generator builds random deterministic two-node
// networks and checks the compiled/fused run against the interpreted
// run and against manual composition — the oracle for the lockstep
// product (compile.h), which no run-time check replays. Library-shaped
// machines (one state: identity, symbol maps, erasures) cover grounding
// and alphabets; random machines with up to six states cover how the
// product tracks both machines' states. A corpus prefix runs a compiled
// network through the full engine.
//
// Flags (also usable for CI soak runs, .github/workflows/soak.yml):
//   --seed=N    base seed of the corpus (default: fixed corpus)
//   --iters=N   number of generated networks (default 200)
// Environment:
//   SEQLOG_TDIFF_SEED / SEQLOG_TDIFF_ITERS  same as the flags
//   SEQLOG_TDIFF_SEED_LOG  file to append failing seeds to (CI uploads
//                          it as an artifact)
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "base/logging.h"
#include "core/engine.h"
#include "sequence/sequence_pool.h"
#include "sequence/symbol_table.h"
#include "transducer/builder.h"
#include "transducer/library.h"
#include "transducer/network.h"

namespace seqlog {
namespace transducer {
namespace {

uint64_t g_base_seed = 20250807;
size_t g_iters = 200;

void LogFailingSeed(uint64_t seed) {
  const char* path = std::getenv("SEQLOG_TDIFF_SEED_LOG");
  if (path == nullptr || *path == '\0') return;
  if (FILE* f = std::fopen(path, "a")) {
    std::fprintf(f, "%llu\n", static_cast<unsigned long long>(seed));
    std::fclose(f);
  }
}

/// Every input over `alphabet` of length <= max_len, plus `extra` random
/// inputs of length (max_len, 2 * max_len].
std::vector<std::vector<Symbol>> InputCorpus(
    const std::vector<Symbol>& alphabet, size_t max_len, size_t extra,
    std::mt19937_64* rng) {
  std::vector<std::vector<Symbol>> inputs;
  inputs.push_back({});  // empty input
  for (size_t len = 1; len <= max_len; ++len) {
    std::vector<size_t> odo(len, 0);
    while (true) {
      std::vector<Symbol> input(len);
      for (size_t i = 0; i < len; ++i) input[i] = alphabet[odo[i]];
      inputs.push_back(std::move(input));
      size_t i = 0;
      while (i < len && ++odo[i] == alphabet.size()) odo[i++] = 0;
      if (i == len) break;
    }
  }
  std::uniform_int_distribution<size_t> len_dist(max_len + 1, 2 * max_len);
  std::uniform_int_distribution<size_t> sym_pick(0, alphabet.size() - 1);
  for (size_t e = 0; e < extra; ++e) {
    std::vector<Symbol> input(len_dist(*rng));
    for (Symbol& s : input) s = alphabet[sym_pick(*rng)];
    inputs.push_back(std::move(input));
  }
  return inputs;
}

// ---------------------------------------------------------------------
// Corpus 1: compiled networks vs interpreted runs vs composition.
// ---------------------------------------------------------------------

TransducerPtr RandomDeterministic(std::mt19937_64* rng,
                                  const std::vector<Symbol>& alphabet,
                                  const std::string& name) {
  std::uniform_int_distribution<size_t> sym_pick(0, alphabet.size() - 1);
  switch ((*rng)() % 4) {
    case 0: {
      auto id = MakeIdentity(name);
      SEQLOG_CHECK(id.ok());
      return id.value();
    }
    case 1: {  // partial or total symbol map
      std::map<Symbol, Symbol> mapping;
      for (Symbol s : alphabet) {
        if ((*rng)() % 4 != 0) mapping[s] = alphabet[sym_pick(*rng)];
      }
      auto map = MakeMap(name, mapping, /*pass_unmapped=*/(*rng)() & 1);
      SEQLOG_CHECK(map.ok());
      return map.value();
    }
    default: {  // erase a random subset
      std::set<Symbol> erase;
      for (Symbol s : alphabet) {
        if ((*rng)() % 3 == 0) erase.insert(s);
      }
      auto er = MakeErase(name, erase);
      SEQLOG_CHECK(er.ok());
      return er.value();
    }
  }
}

/// A random partial deterministic machine with 1-6 states: each
/// (state, symbol) gets an exact row with probability 3/4, emitting
/// nothing, a random symbol or an echo, and a state sometimes ends with
/// an Any row that the exact rows above it shadow (first match wins).
TransducerPtr RandomStateful(std::mt19937_64* rng,
                             const std::vector<Symbol>& alphabet,
                             const std::string& name) {
  std::uniform_int_distribution<size_t> state_count(1, 6);
  const size_t n = state_count(*rng);
  TransducerBuilder builder(name, 1);
  std::vector<StateId> states;
  for (size_t i = 0; i < n; ++i) {
    std::string state = "q";
    state += std::to_string(i);
    states.push_back(builder.State(state));
  }
  std::uniform_int_distribution<size_t> state_pick(0, n - 1);
  std::uniform_int_distribution<size_t> sym_pick(0, alphabet.size() - 1);
  auto random_output = [&]() {
    switch ((*rng)() % 3) {
      case 0:
        return Output::Epsilon();
      case 1:
        return Output::Emit(alphabet[sym_pick(*rng)]);
      default:
        return Output::Echo(0);
    }
  };
  for (size_t s = 0; s < n; ++s) {
    for (Symbol sym : alphabet) {
      if ((*rng)() % 4 == 0) continue;
      builder.Add(states[s], {SymPattern::Exact(sym)},
                  states[state_pick(*rng)], {HeadMove::kAdvance},
                  random_output());
    }
    if ((*rng)() % 4 == 0) {
      builder.Add(states[s], {SymPattern::Any()}, states[state_pick(*rng)],
                  {HeadMove::kAdvance}, random_output());
    }
  }
  auto machine = builder.Build();
  SEQLOG_CHECK(machine.ok()) << machine.status().ToString();
  return machine.value();
}

/// Compiles the network first -> second over `alphabet` and checks it on
/// `inputs` against the interpreted run and against manual composition.
bool CheckNetwork(uint64_t seed, const char* shape, TransducerPtr first,
                  TransducerPtr second, const std::vector<Symbol>& alphabet,
                  const std::vector<std::vector<Symbol>>& inputs) {
  SequencePool pool;
  TransducerNetwork net("pipe", 1);
  auto n0 = net.AddNode(first, {InputSource::FromNetwork(0)});
  auto n1 = net.AddNode(second, {InputSource::FromNode(n0.value())});
  SEQLOG_CHECK(n0.ok() && n1.ok());
  SEQLOG_CHECK(net.SetOutput(n1.value()).ok());

  // Interpreted results first, then compile and replay.
  std::vector<Result<SeqId>> interpreted;
  interpreted.reserve(inputs.size());
  for (const std::vector<Symbol>& input : inputs) {
    const SeqId x = pool.Intern(SeqView(input.data(), input.size()));
    interpreted.push_back(net.Apply(std::span<const SeqId>(&x, 1), &pool));
  }
  Status cs = net.Compile(alphabet);
  if (!cs.ok()) {
    ADD_FAILURE() << "Compile failed (it must fall back, not fail), seed="
                  << seed << " shape=" << shape << ": " << cs.ToString();
    return false;
  }

  for (size_t i = 0; i < inputs.size(); ++i) {
    const std::vector<Symbol>& input = inputs[i];
    const SeqId x = pool.Intern(SeqView(input.data(), input.size()));
    auto compiled = net.Apply(std::span<const SeqId>(&x, 1), &pool);
    // Manual composition: second(first(x)), undefined matching undefined.
    auto composed = [&]() -> Result<SeqId> {
      auto mid = first->Apply(std::span<const SeqId>(&x, 1), &pool);
      if (!mid.ok()) return mid.status();
      const SeqId m = mid.value();
      return second->Apply(std::span<const SeqId>(&m, 1), &pool);
    }();
    const bool want_defined = interpreted[i].ok();
    if (compiled.ok() != want_defined || composed.ok() != want_defined) {
      ADD_FAILURE() << "definedness mismatch, seed=" << seed
                    << " shape=" << shape << " input#" << i
                    << " interpreted=" << want_defined
                    << " compiled=" << compiled.ok()
                    << " composed=" << composed.ok();
      return false;
    }
    if (want_defined && (compiled.value() != interpreted[i].value() ||
                         composed.value() != interpreted[i].value())) {
      ADD_FAILURE() << "output mismatch, seed=" << seed << " shape="
                    << shape << " input#" << i;
      return false;
    }
  }
  return true;
}

bool CheckNetworkSeed(uint64_t seed) {
  std::mt19937_64 rng(seed);
  SymbolTable symbols;
  std::vector<Symbol> alphabet;
  for (size_t i = 0; i < 3; ++i) {
    alphabet.push_back(symbols.Intern(std::string(1, 'a' + char(i))));
  }
  TransducerPtr first = RandomDeterministic(&rng, alphabet, "first");
  TransducerPtr second = RandomDeterministic(&rng, alphabet, "second");
  bool ok = CheckNetwork(seed, "library", first, second, alphabet,
                         InputCorpus(alphabet, /*max_len=*/4, /*extra=*/8,
                                     &rng));

  // Multi-state machines draw from a stream of their own, so the
  // library-shaped network above is generated as before.
  std::mt19937_64 stateful_rng(seed ^ 0x5757575757575757u);
  TransducerPtr s_first = RandomStateful(&stateful_rng, alphabet, "first");
  TransducerPtr s_second =
      RandomStateful(&stateful_rng, alphabet, "second");
  ok = CheckNetwork(seed, "stateful", s_first, s_second, alphabet,
                    InputCorpus(alphabet, /*max_len=*/5, /*extra=*/16,
                                &stateful_rng)) &&
       ok;
  if (!ok) LogFailingSeed(seed);
  return ok;
}

TEST(TransducerDifferential, CompiledNetworksMatchInterpretedRuns) {
  size_t failures = 0;
  for (size_t i = 0; i < g_iters; ++i) {
    if (!CheckNetworkSeed(g_base_seed + i)) {
      if (++failures >= 5) {
        GTEST_FAIL() << "stopping after 5 failing seeds";
        return;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Corpus 2 (prefix): compiled networks inside the engine, against the
// same network interpreted.
// ---------------------------------------------------------------------

bool CheckEngineSeed(uint64_t seed) {
  std::mt19937_64 rng(seed);
  // The network's own symbols live in the engine's table; build the
  // machines against a scratch table with the same single-letter interns
  // the engine will produce for the same fact strings.
  SymbolTable symbols;
  std::vector<Symbol> alphabet;
  for (size_t i = 0; i < 3; ++i) {
    alphabet.push_back(symbols.Intern(std::string(1, 'a' + char(i))));
  }
  TransducerPtr first = RandomDeterministic(&rng, alphabet, "first");
  TransducerPtr second = RandomDeterministic(&rng, alphabet, "second");

  std::uniform_int_distribution<size_t> len_dist(0, 6);
  std::uniform_int_distribution<size_t> sym_pick(0, 2);
  std::vector<std::string> facts;
  for (size_t i = 0; i < 12; ++i) {
    std::string s;
    const size_t len = len_dist(rng);
    for (size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>('a' + sym_pick(rng)));
    }
    if (!s.empty()) facts.push_back(std::move(s));
  }

  auto run = [&](bool compiled,
                 eval::EvalStats* stats) -> Result<std::vector<RenderedRow>> {
    auto net = std::make_shared<TransducerNetwork>("pipe", 1);
    auto n0 = net->AddNode(first, {InputSource::FromNetwork(0)});
    auto n1 = net->AddNode(second, {InputSource::FromNode(n0.value())});
    SEQLOG_CHECK(n0.ok() && n1.ok());
    SEQLOG_CHECK(net->SetOutput(n1.value()).ok());
    if (compiled) {
      Status cs = net->Compile(alphabet);
      if (!cs.ok()) return cs;
    }
    Engine engine;
    SEQLOG_CHECK(engine.RegisterTransducer(net).ok());
    Status ls = engine.LoadProgram("out(@pipe(X)) :- e(X).");
    if (!ls.ok()) return ls;
    for (const std::string& f : facts) {
      SEQLOG_CHECK(engine.AddFact("e", {f}).ok());
    }
    eval::EvalOutcome outcome = engine.Evaluate(eval::EvalOptions{});
    if (!outcome.status.ok()) return outcome.status;
    if (stats != nullptr) *stats = outcome.stats;
    return engine.Query("out");
  };

  auto expected = run(/*compiled=*/false, nullptr);
  if (!expected.ok()) {
    ADD_FAILURE() << "interpreted engine run failed, seed=" << seed << ": "
                  << expected.status().ToString();
    LogFailingSeed(seed);
    return false;
  }
  bool ok = true;
  eval::EvalStats stats;
  auto got = run(/*compiled=*/true, &stats);
  if (!got.ok()) {
    ADD_FAILURE() << "compiled engine run failed, seed=" << seed << ": "
                  << got.status().ToString();
    ok = false;
  } else if (got.value() != expected.value()) {
    ADD_FAILURE() << "compiled model differs from interpreted, seed="
                  << seed;
    ok = false;
  } else {
    // The engine surfaces the network's compile-time counters.
    EXPECT_TRUE(stats.transducer.Any()) << "seed=" << seed;
    EXPECT_EQ(stats.transducer.fusion_hits + stats.transducer.fusion_fallbacks,
              1u)
        << "seed=" << seed;
  }
  if (!ok) LogFailingSeed(seed);
  return ok;
}

TEST(TransducerDifferential, EngineParityAcrossThreadWidthsOnCorpusPrefix) {
  // Engine runs are much heavier than bare machine checks; the corpus
  // prefix keeps default ctest time in check while soak runs scale it
  // with --iters.
  const size_t n = std::min<size_t>(g_iters, 25);
  size_t failures = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!CheckEngineSeed(g_base_seed + i)) {
      if (++failures >= 5) {
        GTEST_FAIL() << "stopping after 5 failing seeds";
        return;
      }
    }
  }
}

}  // namespace
}  // namespace transducer
}  // namespace seqlog

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (const char* env = std::getenv("SEQLOG_TDIFF_SEED")) {
    seqlog::transducer::g_base_seed = std::strtoull(env, nullptr, 10);
  }
  if (const char* env = std::getenv("SEQLOG_TDIFF_ITERS")) {
    seqlog::transducer::g_iters = std::strtoull(env, nullptr, 10);
  }
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      seqlog::transducer::g_base_seed =
          std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (arg.rfind("--iters=", 0) == 0) {
      seqlog::transducer::g_iters = std::strtoull(argv[i] + 8, nullptr, 10);
    }
  }
  return RUN_ALL_TESTS();
}
