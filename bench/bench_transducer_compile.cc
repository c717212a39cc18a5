// TC: compiled vs interpreted transducer execution (PR 10 tentpole).
// The genome pipeline transcribe -> translate runs three ways: as an
// interpreted two-node network (per-step pattern scans, a materialised
// RNA intermediate), as two individually compiled DetTransducers (dense
// tables, still materialising the intermediate), and as one fused
// deterministic machine (Network::Compile's product composition — one
// pass, no intermediate). The reproduction table prints the speedups
// and enforces the PR bar in-binary: fused must be >= 3x interpreted at
// the largest input, else the bench exits non-zero and run_benches.sh
// fails.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sequence/sequence_pool.h"
#include "transducer/compile.h"
#include "transducer/genome.h"
#include "transducer/network.h"

namespace {

using namespace seqlog;

struct Pipeline {
  SymbolTable symbols;
  SequencePool pool;
  std::vector<Symbol> dna;
  transducer::TransducerPtr transcribe;
  transducer::TransducerPtr translate;
  std::unique_ptr<transducer::TransducerNetwork> interpreted;
  std::unique_ptr<transducer::TransducerNetwork> compiled;
  std::shared_ptr<const transducer::DetTransducer> fused;
};

std::unique_ptr<transducer::TransducerNetwork> MakeNetwork(
    const Pipeline& p) {
  auto net = std::make_unique<transducer::TransducerNetwork>("rnapipe", 1);
  auto n0 =
      net->AddNode(p.transcribe, {transducer::InputSource::FromNetwork(0)});
  if (!n0.ok()) std::abort();
  auto n1 = net->AddNode(p.translate,
                         {transducer::InputSource::FromNode(n0.value())});
  if (!n1.ok()) std::abort();
  if (!net->SetOutput(n1.value()).ok()) std::abort();
  return net;
}

std::unique_ptr<Pipeline> MakePipeline() {
  auto p = std::make_unique<Pipeline>();
  for (const char* s : {"a", "c", "g", "t"}) {
    p->dna.push_back(p->symbols.Intern(s));
  }
  auto transcribe = transducer::MakeTranscribe("transcribe", &p->symbols);
  auto translate = transducer::MakeTranslate("translate", &p->symbols);
  if (!transcribe.ok() || !translate.ok()) std::abort();
  p->transcribe = transcribe.value();
  p->translate = translate.value();
  p->interpreted = MakeNetwork(*p);
  p->compiled = MakeNetwork(*p);
  transducer::NetworkCompileOptions no_fuse;
  no_fuse.enable_fusion = false;
  if (!p->compiled->Compile(p->dna, no_fuse).ok()) std::abort();
  auto fused = transducer::FuseChain(*p->transcribe, *p->translate, p->dna);
  if (!fused.ok()) std::abort();
  p->fused = fused.value();
  return p;
}

/// Mean nanoseconds per call of `fn(x)` over the whole input set,
/// repeated until ~50ms of work (min 3 reps).
template <typename Fn>
double NanosPerCall(const std::vector<SeqId>& inputs, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  size_t reps = 3;
  for (;;) {
    auto start = Clock::now();
    for (size_t r = 0; r < reps; ++r) {
      for (SeqId x : inputs) fn(x);
    }
    double nanos = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
    if (nanos >= 5e7 || reps >= 1u << 14) {
      return nanos / static_cast<double>(reps * inputs.size());
    }
    reps *= 4;
  }
}

int PrintTable() {
  bench::Banner("TC", "compiled vs interpreted transducers (genome "
                      "pipeline transcribe -> translate)");
  auto p = MakePipeline();
  std::printf("%-8s %-14s %-14s %-14s %-9s %-9s\n", "len",
              "interpreted", "compiled", "fused", "comp/int", "fuse/int");
  double final_speedup = 0;
  for (size_t len : {30u, 300u, 3000u, 30000u}) {
    std::vector<SeqId> inputs;
    for (const std::string& s : bench::RandomDna(42, 32, len)) {
      inputs.push_back(p->pool.FromChars(s, &p->symbols));
    }
    auto run = [&](const SequenceFunction& fn) {
      return NanosPerCall(inputs, [&](SeqId x) {
        auto out = fn.Apply(std::span<const SeqId>(&x, 1), &p->pool);
        if (!out.ok()) std::abort();
        benchmark::DoNotOptimize(out.value());
      });
    };
    const double interp = run(*p->interpreted);
    const double comp = run(*p->compiled);
    const double fuse = run(*p->fused);
    final_speedup = interp / fuse;
    std::printf("%-8zu %-14.0f %-14.0f %-14.0f %-9.2f %-9.2f\n", len,
                interp, comp, fuse, interp / comp, interp / fuse);
  }
  std::printf("\nfused speedup at the largest length: %.2fx "
              "(bar: >= 3x)\n",
              final_speedup);
  if (final_speedup < 3.0) {
    std::fprintf(stderr,
                 "FAIL: fused pipeline is only %.2fx the interpreted "
                 "network (bar: 3x)\n",
                 final_speedup);
    return 1;
  }
  return 0;
}

void BM_InterpretedNetwork(benchmark::State& state) {
  auto p = MakePipeline();
  SeqId input = p->pool.FromChars(
      bench::RandomDna(7, 1, static_cast<size_t>(state.range(0)))[0],
      &p->symbols);
  for (auto _ : state) {
    auto out =
        p->interpreted->Apply(std::span<const SeqId>(&input, 1), &p->pool);
    if (!out.ok()) std::abort();
    benchmark::DoNotOptimize(out.value());
  }
}
BENCHMARK(BM_InterpretedNetwork)->Arg(300)->Arg(3000)->Arg(30000);

void BM_CompiledNodes(benchmark::State& state) {
  auto p = MakePipeline();
  SeqId input = p->pool.FromChars(
      bench::RandomDna(7, 1, static_cast<size_t>(state.range(0)))[0],
      &p->symbols);
  for (auto _ : state) {
    auto out =
        p->compiled->Apply(std::span<const SeqId>(&input, 1), &p->pool);
    if (!out.ok()) std::abort();
    benchmark::DoNotOptimize(out.value());
  }
}
BENCHMARK(BM_CompiledNodes)->Arg(300)->Arg(3000)->Arg(30000);

void BM_FusedMachine(benchmark::State& state) {
  auto p = MakePipeline();
  SeqId input = p->pool.FromChars(
      bench::RandomDna(7, 1, static_cast<size_t>(state.range(0)))[0],
      &p->symbols);
  for (auto _ : state) {
    auto out = p->fused->Apply(std::span<const SeqId>(&input, 1), &p->pool);
    if (!out.ok()) std::abort();
    benchmark::DoNotOptimize(out.value());
  }
}
BENCHMARK(BM_FusedMachine)->Arg(300)->Arg(3000)->Arg(30000);

// The compile path itself: one Network::Compile of the two-node genome
// chain (grounding both machines plus the lockstep product), which the
// shell pays at start-up for @rnapipe.
void BM_CompileGenomeChain(benchmark::State& state) {
  auto p = MakePipeline();
  auto net = MakeNetwork(*p);
  for (auto _ : state) {
    if (!net->Compile(p->dna).ok()) std::abort();
    benchmark::DoNotOptimize(net->compile_stats().states_out);
  }
}
BENCHMARK(BM_CompileGenomeChain);

}  // namespace

int main(int argc, char** argv) {
  int bar = PrintTable();
  if (bar != 0) return bar;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
