// Tests for the molecular-biology machines of Example 7.1.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/programs.h"
#include "transducer/genome.h"

namespace seqlog {
namespace transducer {
namespace {

class GenomeTest : public ::testing::Test {
 protected:
  SeqId Seq(std::string_view text) {
    return pool_.FromChars(text, &symbols_);
  }
  std::string Apply(const TransducerPtr& t, std::string_view in) {
    Result<SeqId> out = t->Apply(std::vector<SeqId>{Seq(in)}, &pool_);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? pool_.Render(out.value(), symbols_) : "<error>";
  }
  SymbolTable symbols_;
  SequencePool pool_;
};

TEST_F(GenomeTest, TranscriptionMatchesThePaper) {
  auto t = MakeTranscribe("transcribe", &symbols_);
  ASSERT_TRUE(t.ok());
  // Section 7.1: acgtacgt -> ugcaugca.
  EXPECT_EQ(Apply(*t, "acgtacgt"), "ugcaugca");
  EXPECT_EQ(Apply(*t, ""), "");
  EXPECT_EQ(Apply(*t, "aaaa"), "uuuu");
}

TEST_F(GenomeTest, TranscriptionRejectsNonDna) {
  auto t = MakeTranscribe("transcribe", &symbols_);
  ASSERT_TRUE(t.ok());
  auto out = (*t)->Apply(std::vector<SeqId>{Seq("acgu")}, &pool_);
  EXPECT_EQ(out.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(GenomeTest, ComplementIsAnInvolution) {
  auto t = MakeDnaComplement("comp", &symbols_);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(Apply(*t, "acgt"), "tgca");
  for (const char* s : {"a", "ttaacc", "gattaca"}) {
    SeqId once = (*t)->Apply(std::vector<SeqId>{Seq(s)}, &pool_).value();
    SeqId twice = (*t)->Apply(std::vector<SeqId>{once}, &pool_).value();
    EXPECT_EQ(pool_.Render(twice, symbols_), s);
  }
}

TEST_F(GenomeTest, TranslationUsesTheGeneticCode) {
  auto t = MakeTranslate("translate", &symbols_);
  ASSERT_TRUE(t.ok());
  // The paper's example: gau and gac both code for aspartic acid D;
  // gaugacuuacac -> codons gau gac uua cac -> D D L H.
  EXPECT_EQ(Apply(*t, "gaugacuuacac"), "DDLH");
  // Start codon aug -> M; stop codon uaa -> '*'.
  EXPECT_EQ(Apply(*t, "auguaa"), "M*");
  // Trailing partial codons are dropped.
  EXPECT_EQ(Apply(*t, "gauga"), "D");
}

TEST_F(GenomeTest, AllSixtyFourCodonsTranslate) {
  auto t = MakeTranslate("translate", &symbols_);
  ASSERT_TRUE(t.ok());
  const char* bases = "ucag";
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      for (int k = 0; k < 4; ++k) {
        std::string codon = {bases[i], bases[j], bases[k]};
        std::string aa = Apply(*t, codon);
        EXPECT_EQ(aa.size(), 1u) << codon;
      }
    }
  }
}

TEST_F(GenomeTest, DnaReverse) {
  auto t = MakeDnaReverse("rev", &symbols_);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(Apply(*t, "gattaca"), "acattag");
}

TEST_F(GenomeTest, ReverseComplementComposition) {
  // The classic genomics operation: reverse complement, as a two-stage
  // manual composition.
  auto comp = MakeDnaComplement("comp", &symbols_);
  auto rev = MakeDnaReverse("rev", &symbols_);
  ASSERT_TRUE(comp.ok());
  ASSERT_TRUE(rev.ok());
  SeqId c = (*comp)->Apply(std::vector<SeqId>{Seq("gattaca")}, &pool_)
                .value();
  SeqId rc = (*rev)->Apply(std::vector<SeqId>{c}, &pool_).value();
  EXPECT_EQ(pool_.Render(rc, symbols_), "tgtaatc");
}

TEST(GenomePipelineTest, Ex71CountsItsDomainWithoutInterningFactors) {
  // No Ex. 7.1 clause reads the domain, so the run must intern nothing
  // beyond epsilon and one DNA, RNA and protein sequence per input — yet
  // still report the domain's exact size.
  constexpr size_t kInputs = 200;
  Engine engine;
  ASSERT_TRUE(
      engine.RegisterTransducer(*MakeTranscribe("transcribe", engine.symbols()))
          .ok());
  ASSERT_TRUE(
      engine.RegisterTransducer(*MakeTranslate("translate", engine.symbols()))
          .ok());
  ASSERT_TRUE(engine.LoadProgram(programs::kGenomePipeline).ok());
  std::mt19937 rng(71);
  for (size_t i = 0; i < kInputs; ++i) {
    std::string dna(24, 'a');
    for (char& c : dna) c = "acgt"[rng() % 4];
    ASSERT_TRUE(engine.AddFact("dnaseq", {dna}).ok());
  }
  eval::EvalOutcome outcome = engine.Evaluate();
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_LE(engine.pool()->size(), 3 * kInputs + 1);

  // Brute force: every factor of every sequence in the model, plus eps.
  std::set<std::vector<Symbol>> factors = {{}};
  for (const char* pred : {"dnaseq", "rnaseq", "proteinseq"}) {
    Result<std::vector<std::vector<SeqId>>> rows = engine.QueryIds(pred);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    for (const std::vector<SeqId>& row : *rows) {
      for (SeqId id : row) {
        SeqView v = engine.pool()->View(id);
        for (size_t from = 0; from < v.size(); ++from) {
          for (size_t to = from + 1; to <= v.size(); ++to) {
            factors.emplace(v.begin() + from, v.begin() + to);
          }
        }
      }
    }
  }
  EXPECT_EQ(outcome.stats.domain_sequences, factors.size());
}

}  // namespace
}  // namespace transducer
}  // namespace seqlog
