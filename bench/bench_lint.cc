// LINT: cost of the static-analysis front end (analysis/lint.h) on the
// two flagship workloads — the genome pipeline (Examples 7.1/7.2) and
// the text-index program. Engine::LoadProgram runs the linter
// unconditionally, so its wall-clock sits on the load/prepare path of
// every embedding; this bench keeps that cost visible in the perf
// trajectory (bench/run_benches.sh). The shape to reproduce: linting is pure
// static analysis — independent of data size, well under a millisecond
// per program.
#include <benchmark/benchmark.h>

#include <string>

#include "analysis/lint.h"
#include "bench_util.h"
#include "core/engine.h"
#include "core/programs.h"
#include "parser/parser.h"

namespace {

using namespace seqlog;

analysis::LintOptions GenomeOptions() {
  analysis::LintOptions options;
  options.edb_predicates = {"dnaseq", "trans"};
  return options;
}

analysis::LintOptions TextIndexOptions() {
  analysis::LintOptions options;
  options.edb_predicates = {"doc"};
  return options;
}

void PrintTable() {
  bench::Banner("LINT", "linter cost on the flagship programs");
  std::printf("%-22s %-9s %-9s %-9s\n", "program", "errors", "warnings",
              "findings");
  struct Row {
    const char* name;
    const char* source;
    analysis::LintOptions options;
  } rows[] = {
      {"genome (Ex 7.1)", programs::kGenomePipeline, GenomeOptions()},
      {"transcribe (Ex 7.2)", programs::kTranscribeSimulation,
       GenomeOptions()},
      {"text-index", programs::kTextIndex, TextIndexOptions()},
  };
  for (Row& row : rows) {
    SymbolTable symbols;
    SequencePool pool;
    row.options.include_info = true;
    analysis::DiagnosticReport report =
        analysis::LintSource(row.source, &symbols, &pool, row.options);
    std::printf("%-22s %-9zu %-9zu %-9zu\n", row.name, report.ErrorCount(),
                report.WarningCount(), report.size());
  }
  std::printf("(Ex 7.2's error is the intended Definition 10 verdict: the\n"
              " hand-written transcription recurses through '++')\n");
}

// Full front end: parse + every lint pass, fresh tables per iteration
// (what `seqlog-lint file.sl` and the shell's `:check` pay).
void BM_LintSource(benchmark::State& state, const char* source,
                   const analysis::LintOptions& options) {
  for (auto _ : state) {
    SymbolTable symbols;
    SequencePool pool;
    analysis::DiagnosticReport report =
        analysis::LintSource(source, &symbols, &pool, options);
    benchmark::DoNotOptimize(report.size());
  }
}
BENCHMARK_CAPTURE(BM_LintSource, genome, programs::kGenomePipeline,
                  GenomeOptions());
BENCHMARK_CAPTURE(BM_LintSource, transcribe,
                  programs::kTranscribeSimulation, GenomeOptions());
BENCHMARK_CAPTURE(BM_LintSource, text_index, programs::kTextIndex,
                  TextIndexOptions());

// Passes only, on a pre-parsed program (what Engine::LoadProgram adds
// on top of parsing).
void BM_LintParsed(benchmark::State& state, const char* source,
                   const analysis::LintOptions& options) {
  SymbolTable symbols;
  SequencePool pool;
  ast::Program program =
      parser::ParseProgram(source, &symbols, &pool).value();
  for (auto _ : state) {
    analysis::DiagnosticReport report =
        analysis::Lint(program, pool, symbols, options);
    benchmark::DoNotOptimize(report.size());
  }
}
BENCHMARK_CAPTURE(BM_LintParsed, genome, programs::kGenomePipeline,
                  GenomeOptions());
BENCHMARK_CAPTURE(BM_LintParsed, text_index, programs::kTextIndex,
                  TextIndexOptions());

// The goal-dependent analysis alone (what each Engine::Prepare adds).
void BM_LintGoal(benchmark::State& state) {
  SymbolTable symbols;
  SequencePool pool;
  ast::Program program =
      parser::ParseProgram(programs::kTextIndex, &symbols, &pool).value();
  ast::Atom goal =
      parser::ParseGoal("hit(acgt, X)", &symbols, &pool).value();
  for (auto _ : state) {
    std::vector<analysis::Diagnostic> warnings =
        analysis::LintGoal(program, goal);
    benchmark::DoNotOptimize(warnings.size());
  }
}
BENCHMARK(BM_LintGoal);

// End to end: LoadProgram with the linter on the load path (the cost an
// embedding actually observes per program swap).
void BM_LoadProgramWithLint(benchmark::State& state) {
  for (auto _ : state) {
    Engine engine;
    Status status = engine.LoadProgram(programs::kTextIndex);
    if (!status.ok()) std::abort();
    benchmark::DoNotOptimize(engine.diagnostics().size());
  }
}
BENCHMARK(BM_LoadProgramWithLint);

}  // namespace

int main(int argc, char** argv) {
  PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
