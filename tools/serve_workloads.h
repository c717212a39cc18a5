// Shared workload definitions for the serving tools and benchmarks.
//
// seqlog-serve loads a named workload's program and facts; seqlog-loadgen
// and bench/bench_serve generate the matching point-lookup probes WITHOUT
// talking to the server first — both sides derive the same deterministic
// data from the same seeds, so a loadgen probe always references a fact
// the server actually holds. Keep the seeds/counts here in sync on both
// sides by construction: there is exactly one definition.
//
// Workloads:
//  * genome — Example 7.1 (DNA -> RNA -> protein pipeline); probes are
//    database DNA sequences, the goal transcribes one on demand. The
//    paper's "millions of point queries" serving scenario.
//  * text — the text-index program of examples/text_index.cpp; probes
//    are 4-symbol windows shared across documents.
//  * suffix — Example 1.1 suffix membership; probes are true suffixes.
#ifndef SEQLOG_TOOLS_SERVE_WORKLOADS_H_
#define SEQLOG_TOOLS_SERVE_WORKLOADS_H_

#include <random>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "core/programs.h"
#include "transducer/genome.h"

namespace seqlog {
namespace tools {

inline std::vector<std::string> DeterministicSequences(
    unsigned seed, size_t count, size_t len, std::string_view alphabet) {
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

inline std::vector<std::string> GenomeFacts() {
  return DeterministicSequences(7, 200, 24, "acgt");
}

inline std::vector<std::string> TextFacts() {
  return DeterministicSequences(11, 8, 10, "ab");
}

inline std::vector<std::string> SuffixFacts() {
  return DeterministicSequences(5, 64, 32, "acgt");
}

/// The parameterized point-lookup goal of workload `name` ("" for an
/// unknown name).
inline const char* WorkloadGoal(std::string_view name) {
  if (name == "genome") return "?- rnaseq($1, X).";
  if (name == "text") return "?- hit($1, D).";
  if (name == "suffix") return "?- suffix($1).";
  return "";
}

/// The extensional predicate FACT/INGEST writes target for workload
/// `name` ("" for an unknown name) — the same predicate SetupWorkload
/// populates, so mixed-load writes extend the live data set.
inline const char* WorkloadWritePred(std::string_view name) {
  if (name == "genome") return "dnaseq";
  if (name == "text") return "doc";
  if (name == "suffix") return "r";
  return "";
}

/// Deterministic write values for mixed read/write runs: the same
/// generator family as the setup facts but a disjoint per-writer seed
/// space, so concurrent writers stage distinct facts (the genome/suffix
/// spaces are large enough that collisions with the setup set are
/// negligible; duplicates are dropped on insert into the EDB anyway).
inline std::vector<std::string> WorkloadWriteValues(
    std::string_view name, unsigned writer, size_t count) {
  const unsigned seed = 1000003u + writer * 7919u;
  if (name == "genome") {
    return DeterministicSequences(seed, count, 24, "acgt");
  }
  if (name == "text") return DeterministicSequences(seed, count, 10, "ab");
  if (name == "suffix") {
    return DeterministicSequences(seed, count, 32, "acgt");
  }
  return {};
}

/// Loads program + facts of workload `name` into `engine`.
inline Status SetupWorkload(Engine* engine, std::string_view name) {
  if (name == "genome") {
    auto transcribe =
        transducer::MakeTranscribe("transcribe", engine->symbols());
    if (!transcribe.ok()) return transcribe.status();
    auto translate =
        transducer::MakeTranslate("translate", engine->symbols());
    if (!translate.ok()) return translate.status();
    SEQLOG_RETURN_IF_ERROR(engine->RegisterTransducer(transcribe.value()));
    SEQLOG_RETURN_IF_ERROR(engine->RegisterTransducer(translate.value()));
    SEQLOG_RETURN_IF_ERROR(engine->LoadProgram(programs::kGenomePipeline));
    for (const std::string& d : GenomeFacts()) {
      SEQLOG_RETURN_IF_ERROR(engine->AddFact("dnaseq", {d}));
    }
    return Status::Ok();
  }
  if (name == "text") {
    SEQLOG_RETURN_IF_ERROR(engine->LoadProgram(programs::kTextIndex));
    for (const std::string& d : TextFacts()) {
      SEQLOG_RETURN_IF_ERROR(engine->AddFact("doc", {d}));
    }
    return Status::Ok();
  }
  if (name == "suffix") {
    SEQLOG_RETURN_IF_ERROR(engine->LoadProgram(programs::kSuffixes));
    for (const std::string& s : SuffixFacts()) {
      SEQLOG_RETURN_IF_ERROR(engine->AddFact("r", {s}));
    }
    return Status::Ok();
  }
  return Status::InvalidArgument(
      "unknown workload '" + std::string(name) +
      "' (expected genome, text or suffix)");
}

/// Probe values for the workload's goal, matching SetupWorkload's data.
inline std::vector<std::string> WorkloadProbes(std::string_view name) {
  std::vector<std::string> probes;
  if (name == "genome") {
    probes = GenomeFacts();
  } else if (name == "text") {
    // Length-4 windows of the documents; with an {a,b} alphabet and 8
    // docs of length 10 nearly every window is shared (hit() requires
    // W to occur in two distinct documents).
    std::set<std::string> windows;
    for (const std::string& d : TextFacts()) {
      for (size_t i = 0; i + 4 <= d.size(); ++i) {
        windows.insert(d.substr(i, 4));
      }
    }
    probes.assign(windows.begin(), windows.end());
  } else if (name == "suffix") {
    for (const std::string& s : SuffixFacts()) {
      probes.push_back(s.substr(s.size() / 2));
    }
  }
  return probes;
}

}  // namespace tools
}  // namespace seqlog

#endif  // SEQLOG_TOOLS_SERVE_WORKLOADS_H_
