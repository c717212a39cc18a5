// Tests for the transducer lowering (src/transducer/compile.h,
// Network::Compile):
//
//  - machines the lowering refuses carry the stable SL-E20x codes
//    (SL-E200 shape, SL-E203 state budget, SL-E204 fusion shape), both
//    in the Status message and as coded Diagnostics when a report is
//    passed, and a network falls back to the interpreted run on each;
//  - an alphabet holding the marker or an out-of-range symbol is an
//    invalid argument on every entry point;
//  - the paper's library machines round-trip: genome transcription
//    compiles and fuses with translation unchanged in semantics, and
//    kReverse (order 2) is refused but the containing network still
//    answers identically through the interpreted fallback.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sequence/sequence_pool.h"
#include "sequence/symbol_table.h"
#include "transducer/builder.h"
#include "transducer/compile.h"
#include "transducer/genome.h"
#include "transducer/library.h"
#include "transducer/network.h"

namespace seqlog {
namespace transducer {
namespace {

bool HasCode(const Status& status, const char* code) {
  return status.code() == StatusCode::kFailedPrecondition &&
         status.message().find(code) != std::string::npos;
}

bool ReportHasCode(const analysis::DiagnosticReport& report,
                   const char* code) {
  for (const analysis::Diagnostic& d : report.diagnostics()) {
    if (d.code == code) return true;
  }
  return false;
}

class TransducerCompileTest : public ::testing::Test {
 protected:
  Symbol Sym(std::string_view name) { return symbols_.Intern(name); }
  SeqId Seq(std::string_view text) {
    return pool_.FromChars(text, &symbols_);
  }
  std::string Render(SeqId id) { return pool_.Render(id, symbols_); }
  std::vector<Symbol> Alpha(std::string_view chars) {
    std::vector<Symbol> out;
    for (char c : chars) out.push_back(Sym(std::string_view(&c, 1)));
    return out;
  }

  SymbolTable symbols_;
  SequencePool pool_;
};

// ---------------------------------------------------------------------
// Refusals and invalid arguments.
// ---------------------------------------------------------------------

TEST_F(TransducerCompileTest, RefusesUnsupportedShapes) {
  // Only single-input order-1 machines lower (SL-E200).
  auto append = MakeAppend("app", 2);
  ASSERT_TRUE(append.ok());
  analysis::DiagnosticReport report;
  auto det = CompileSingle(*append.value(), Alpha("ab"), &report);
  ASSERT_FALSE(det.ok());
  EXPECT_TRUE(HasCode(det.status(), kCodeUnsupportedShape))
      << det.status().message();
  EXPECT_TRUE(ReportHasCode(report, kCodeUnsupportedShape));

  auto reverse = MakeReverse("rev", Alpha("ab"));
  ASSERT_TRUE(reverse.ok());
  auto single = CompileSingle(*reverse.value(), Alpha("ab"));
  ASSERT_FALSE(single.ok());
  EXPECT_TRUE(HasCode(single.status(), kCodeUnsupportedShape))
      << single.status().message();
}

// q0 -a/a-> q1 -a/a-> ... -a/a-> q(n-1) -a/a-> q0: echoes its input and
// counts it mod n.
TransducerPtr EchoCounter(const std::string& name, Symbol a, size_t n) {
  TransducerBuilder builder(name, 1);
  std::vector<StateId> states;
  for (size_t i = 0; i < n; ++i) {
    std::string state = "q";
    state += std::to_string(i);
    states.push_back(builder.State(state));
  }
  for (size_t i = 0; i < n; ++i) {
    builder.Add(states[i], {SymPattern::Exact(a)}, states[(i + 1) % n],
                {HeadMove::kAdvance}, Output::Echo(0));
  }
  auto machine = builder.Build();
  EXPECT_TRUE(machine.ok()) << machine.status().message();
  return machine.value();
}

TEST_F(TransducerCompileTest, StateBudgetRefusalHasStableCode) {
  // Coprime counters in lockstep reach every pair of states: 128 x 127
  // pairs fit the product budget, 131 x 127 do not.
  const Symbol a = Sym("a");
  static_assert(128 * 127 <= kMaxProductStates);
  static_assert(131 * 127 > kMaxProductStates);
  TransducerPtr mod127 = EchoCounter("mod127", a, 127);
  TransducerPtr mod128 = EchoCounter("mod128", a, 128);
  TransducerPtr mod131 = EchoCounter("mod131", a, 131);

  auto fits = FuseChain(*mod128, *mod127, Alpha("a"));
  ASSERT_TRUE(fits.ok()) << fits.status().message();
  EXPECT_EQ(fits.value()->num_states(), 128u * 127u);

  analysis::DiagnosticReport report;
  auto refused = FuseChain(*mod131, *mod127, Alpha("a"), &report);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(HasCode(refused.status(), kCodeStateBudget))
      << refused.status().message();
  EXPECT_TRUE(ReportHasCode(report, kCodeStateBudget));

  // The network keeps the chain apart and compiles each counter alone.
  TransducerNetwork net("counters", 1);
  auto n0 = net.AddNode(mod131, {InputSource::FromNetwork(0)});
  ASSERT_TRUE(n0.ok());
  auto n1 = net.AddNode(mod127, {InputSource::FromNode(*n0)});
  ASSERT_TRUE(n1.ok());
  ASSERT_TRUE(net.SetOutput(*n1).ok());
  ASSERT_TRUE(net.Compile(Alpha("a")).ok());
  EXPECT_EQ(net.compile_stats().fusion_hits, 0u);
  EXPECT_EQ(net.compile_stats().fusion_fallbacks, 1u);
  EXPECT_EQ(net.compile_stats().compiled_nodes, 2u);
  SeqId x = Seq("aaaa");
  auto out = net.Apply(std::span<const SeqId>(&x, 1), &pool_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), x);
}

TEST_F(TransducerCompileTest, RejectsOutOfRangeAlphabetSymbols) {
  // The marker cannot be an input symbol, and symbols from 2^20 on are
  // past the dense symbol index: every entry point says so up front.
  auto transcribe = MakeTranscribe("transcribe", &symbols_);
  auto translate = MakeTranslate("translate", &symbols_);
  ASSERT_TRUE(transcribe.ok() && translate.ok());
  for (Symbol bad : {kEndMarker, Symbol{1u << 20}}) {
    std::vector<Symbol> alphabet = Alpha("acgt");
    alphabet.push_back(bad);

    auto single = CompileSingle(*transcribe.value(), alphabet);
    EXPECT_EQ(single.status().code(), StatusCode::kInvalidArgument)
        << "symbol " << bad;
    auto fused = FuseChain(*transcribe.value(), *translate.value(), alphabet);
    EXPECT_EQ(fused.status().code(), StatusCode::kInvalidArgument)
        << "symbol " << bad;

    TransducerNetwork net("rnapipe", 1);
    auto n0 = net.AddNode(transcribe.value(), {InputSource::FromNetwork(0)});
    ASSERT_TRUE(n0.ok());
    auto n1 = net.AddNode(translate.value(), {InputSource::FromNode(*n0)});
    ASSERT_TRUE(n1.ok());
    ASSERT_TRUE(net.SetOutput(*n1).ok());
    EXPECT_EQ(net.Compile(alphabet).code(), StatusCode::kInvalidArgument)
        << "symbol " << bad;
  }
}

// ---------------------------------------------------------------------
// Library machines round-trip through CompileSingle/FuseChain.
// ---------------------------------------------------------------------

TEST_F(TransducerCompileTest, TranscriptionCompilesUnchanged) {
  auto transcribe = MakeTranscribe("transcribe", &symbols_);
  ASSERT_TRUE(transcribe.ok());
  auto det = CompileSingle(*transcribe.value(), Alpha("acgt"));
  ASSERT_TRUE(det.ok()) << det.status().message();

  for (std::string_view dna : {"", "a", "tacgtt", "acgtacgtacgt", "gggg"}) {
    SeqId x = Seq(dna);
    auto want = transcribe.value()->Apply(std::span<const SeqId>(&x, 1),
                                          &pool_);
    auto got = det.value()->Apply(std::span<const SeqId>(&x, 1), &pool_);
    ASSERT_TRUE(want.ok() && got.ok()) << "dna " << dna;
    EXPECT_EQ(want.value(), got.value()) << "dna " << dna;
  }
  // Partiality is preserved: transcription is stuck on non-DNA input.
  SeqId bad = Seq("acgx");
  EXPECT_EQ(det.value()
                ->Apply(std::span<const SeqId>(&bad, 1), &pool_)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(TransducerCompileTest, GenomePipelineFusesUnchanged) {
  auto transcribe = MakeTranscribe("transcribe", &symbols_);
  auto translate = MakeTranslate("translate", &symbols_);
  ASSERT_TRUE(transcribe.ok() && translate.ok());

  auto fused =
      FuseChain(*transcribe.value(), *translate.value(), Alpha("acgt"));
  ASSERT_TRUE(fused.ok()) << fused.status().message();
  EXPECT_GT(fused.value()->num_states(), 0u);

  // Fused protein == translate(transcribe(dna)).
  for (std::string_view dna :
       {"", "ta", "tac", "tacgtt", "tacgttacgtacgttacgtacgtacgtacg"}) {
    SeqId x = Seq(dna);
    auto mid = transcribe.value()->Apply(std::span<const SeqId>(&x, 1),
                                         &pool_);
    ASSERT_TRUE(mid.ok());
    const SeqId mid_id = mid.value();
    auto want = translate.value()->Apply(
        std::span<const SeqId>(&mid_id, 1), &pool_);
    auto got = fused.value()->Apply(std::span<const SeqId>(&x, 1), &pool_);
    ASSERT_TRUE(want.ok() && got.ok()) << "dna " << dna;
    EXPECT_EQ(want.value(), got.value()) << "dna " << dna;
  }
  // The paper's example: tacgtt -> (RNA augcaa) -> MQ.
  SeqId x = Seq("tacgtt");
  auto protein = fused.value()->Apply(std::span<const SeqId>(&x, 1), &pool_);
  ASSERT_TRUE(protein.ok());
  EXPECT_EQ(Render(protein.value()), "MQ");
}

TEST_F(TransducerCompileTest, FusionRefusesOrder2WithStableCode) {
  auto transcribe = MakeTranscribe("transcribe", &symbols_);
  auto reverse = MakeDnaReverse("rev", &symbols_);
  ASSERT_TRUE(transcribe.ok() && reverse.ok());
  analysis::DiagnosticReport report;
  auto fused = FuseChain(*transcribe.value(), *reverse.value(),
                         Alpha("acgt"), &report);
  ASSERT_FALSE(fused.ok());
  EXPECT_TRUE(HasCode(fused.status(), kCodeFusionUnsupported))
      << fused.status().message();
  EXPECT_TRUE(ReportHasCode(report, kCodeFusionUnsupported));
}

// ---------------------------------------------------------------------
// Network::Compile: fusion, per-node compilation, fallback.
// ---------------------------------------------------------------------

TEST_F(TransducerCompileTest, NetworkCompileFusesGenomeChain) {
  auto transcribe = MakeTranscribe("transcribe", &symbols_);
  auto translate = MakeTranslate("translate", &symbols_);
  ASSERT_TRUE(transcribe.ok() && translate.ok());
  TransducerNetwork net("rnapipe", 1);
  auto n0 = net.AddNode(transcribe.value(), {InputSource::FromNetwork(0)});
  ASSERT_TRUE(n0.ok());
  auto n1 = net.AddNode(translate.value(), {InputSource::FromNode(*n0)});
  ASSERT_TRUE(n1.ok());
  ASSERT_TRUE(net.SetOutput(*n1).ok());

  SeqId x = Seq("tacgttacg");
  auto before = net.Apply(std::span<const SeqId>(&x, 1), &pool_);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(net.Compile(Alpha("acgt")).ok());
  EXPECT_TRUE(net.compiled());
  EXPECT_EQ(net.compile_stats().fusion_hits, 1u);
  EXPECT_EQ(net.compile_stats().fusion_fallbacks, 0u);
  EXPECT_EQ(net.compile_stats().compiled_nodes, 1u);
  EXPECT_EQ(net.compile_stats().interpreted_nodes, 0u);
  EXPECT_EQ(net.compile_stats().machines_compiled, 1u);

  auto after = net.Apply(std::span<const SeqId>(&x, 1), &pool_);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before.value(), after.value());

  TransducerStats run_stats;
  net.CollectStats(&run_stats);
  EXPECT_GE(run_stats.compiled_node_runs, 1u);
}

TEST_F(TransducerCompileTest, NetworkCompileFallsBackOnOrder2Nodes) {
  // transcribe -> reverse: the chain cannot fuse (reverse is order 2)
  // and reverse cannot compile alone, so the network falls back to the
  // interpreted run — with identical semantics before and after.
  auto transcribe = MakeTranscribe("transcribe", &symbols_);
  auto reverse = MakeDnaReverse("rev", &symbols_);
  ASSERT_TRUE(transcribe.ok() && reverse.ok());
  // reverse is built over DNA; transcription emits RNA, so reverse here
  // gets the RNA alphabet instead.
  auto rna_reverse = MakeReverse("rna_rev", Alpha("acgu"));
  ASSERT_TRUE(rna_reverse.ok());

  TransducerNetwork net("revpipe", 1);
  auto n0 = net.AddNode(transcribe.value(), {InputSource::FromNetwork(0)});
  ASSERT_TRUE(n0.ok());
  auto n1 = net.AddNode(rna_reverse.value(), {InputSource::FromNode(*n0)});
  ASSERT_TRUE(n1.ok());
  ASSERT_TRUE(net.SetOutput(*n1).ok());

  SeqId x = Seq("tacgtt");
  auto before = net.Apply(std::span<const SeqId>(&x, 1), &pool_);
  ASSERT_TRUE(before.ok());

  analysis::DiagnosticReport report;
  ASSERT_TRUE(net.Compile(Alpha("acgt"), {}, &report).ok());
  EXPECT_EQ(net.compile_stats().fusion_hits, 0u);
  EXPECT_EQ(net.compile_stats().fusion_fallbacks, 1u);
  // transcribe still compiles alone; reverse stays interpreted.
  EXPECT_EQ(net.compile_stats().compiled_nodes, 1u);
  EXPECT_EQ(net.compile_stats().interpreted_nodes, 1u);
  EXPECT_TRUE(ReportHasCode(report, kCodeFusionUnsupported));

  auto after = net.Apply(std::span<const SeqId>(&x, 1), &pool_);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before.value(), after.value());
}

TEST_F(TransducerCompileTest, NetworkCompileKeepsFanOutInterpretedChainsApart) {
  // The intermediate output feeds two consumers: fusing would lose the
  // materialised sequence, so the planner must not fuse — but both
  // consumers still compile individually.
  auto transcribe = MakeTranscribe("transcribe", &symbols_);
  auto id = MakeIdentity("copy");
  auto append = MakeAppend("app", 2);
  ASSERT_TRUE(transcribe.ok() && id.ok() && append.ok());

  TransducerNetwork net("fanout", 1);
  auto n0 = net.AddNode(transcribe.value(), {InputSource::FromNetwork(0)});
  ASSERT_TRUE(n0.ok());
  auto n1 = net.AddNode(id.value(), {InputSource::FromNode(*n0)});
  ASSERT_TRUE(n1.ok());
  auto n2 = net.AddNode(append.value(), {InputSource::FromNode(*n0),
                                         InputSource::FromNode(*n1)});
  ASSERT_TRUE(n2.ok());
  ASSERT_TRUE(net.SetOutput(*n2).ok());

  SeqId x = Seq("acgt");
  auto before = net.Apply(std::span<const SeqId>(&x, 1), &pool_);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(net.Compile(Alpha("acgt")).ok());
  EXPECT_EQ(net.compile_stats().fusion_hits, 0u);
  // transcribe and copy compile; append (multi-input) stays interpreted.
  EXPECT_EQ(net.compile_stats().compiled_nodes, 2u);
  EXPECT_EQ(net.compile_stats().interpreted_nodes, 1u);

  auto after = net.Apply(std::span<const SeqId>(&x, 1), &pool_);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before.value(), after.value());
}

}  // namespace
}  // namespace transducer
}  // namespace seqlog
