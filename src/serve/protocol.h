// seqlog serving tier: the seqlog-serve wire protocol.
//
// Newline-delimited text over TCP; one request per line, space-separated
// tokens. Replies start with `OK ...` or `ERR <code> <message>` and the
// OK header announces exactly how many body lines follow, so clients
// never sniff for a terminator:
//
//   PREPARE <name> <goal>      OK prepared name=q params=1 adornment=b
//   BIND <name> <i> <value>    OK bound $1
//   DEADLINE <millis>          OK deadline=250            (0 clears)
//   EXEC <name> [v1 ... vk]    OK rows=2 micros=413
//                              ROW acgt
//                              ROW tacg
//   BATCH <name> <n>           (then n lines "v1 ... vk", one per item)
//                              OK items=n rows=5 runs=1 micros=922
//                              ITEM 0 rows=2   (+2 ROW lines)
//                              ITEM 1 ERR SL-E010 <message>
//   STATS                      OK stats=43     (+43 "STAT <key> <value>")
//   HEALTH                     OK serving snapshot=3 uptime_ms=1200
//   FACT <pred> [v1 ...]       OK fact queued depth=3
//                              (staged on the ingest queue; visible after
//                              the republisher's next publish or PUBLISH)
//   INGEST <pred> <n>          (then n lines "v1 ... vk", one fact each)
//                              OK ingested=n depth=12
//   PUBLISH                    OK snapshot=4 facts=1201   (forces a
//                              publish of everything staged first)
//   QUIT                       OK bye           (server closes)
//
// Values are rendered sequences; the empty sequence travels as the
// reserved token `eps` (so it survives space-splitting) and values
// containing whitespace are refused at the boundary. Full grammar and
// semantics: docs/SERVING.md.
//
// Error replies reuse the stable SL-xxx diagnostic code space
// (analysis/diagnostics.h). Program/goal analysis failures surface the
// engine's own codes (SL-E001 parse, SL-E010 not demand-evaluable);
// serving-layer failures use the SL-E1xx block defined here.
//
// This header is transport-free (pure parse/format) so the protocol is
// unit-testable without sockets; server.h and client.h do the IO.
#ifndef SEQLOG_SERVE_PROTOCOL_H_
#define SEQLOG_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"

namespace seqlog {
namespace serve {

// Serving-layer diagnostic codes (the SL-E1xx block).
inline constexpr std::string_view kCodeBadRequest = "SL-E100";
inline constexpr std::string_view kCodeUnknownStatement = "SL-E101";
inline constexpr std::string_view kCodeOverloaded = "SL-E102";
inline constexpr std::string_view kCodeDeadline = "SL-E103";
inline constexpr std::string_view kCodeDraining = "SL-E104";
inline constexpr std::string_view kCodeExecFailed = "SL-E105";

/// The reserved wire token for the empty sequence.
inline constexpr std::string_view kEmptyToken = "eps";

enum class Verb {
  kPrepare,
  kBind,
  kDeadline,
  kExec,
  kBatch,
  kStats,
  kHealth,
  kFact,
  kIngest,
  kPublish,
  kQuit,
};

/// One parsed request line.
struct Request {
  Verb verb = Verb::kHealth;
  /// Statement name (PREPARE/BIND/EXEC/BATCH) or predicate
  /// (FACT/INGEST).
  std::string name;
  /// PREPARE only: the goal text (rest of the line, verbatim).
  std::string goal;
  /// BIND only: 1-based parameter index.
  size_t index = 0;
  /// BATCH/INGEST: number of item lines that follow.
  size_t count = 0;
  /// DEADLINE only: milliseconds (0 clears).
  uint64_t millis = 0;
  /// EXEC/FACT parameter values; BIND's single value. Decoded (`eps`
  /// already mapped to "").
  std::vector<std::string> values;
};

/// Parses one request line (no trailing newline; a trailing '\r' is
/// tolerated). kInvalidArgument with a client-facing message on any
/// malformed input — the server maps those to ERR SL-E100.
Result<Request> ParseRequest(std::string_view line);

/// Splits a BATCH item line into decoded values.
std::vector<std::string> SplitValues(std::string_view line);

/// Wire encoding of one value ("" -> "eps").
std::string EncodeValue(std::string_view value);
/// Inverse of EncodeValue ("eps" -> "").
std::string DecodeValue(std::string_view token);

/// The SL code an engine Status surfaces as on the wire.
std::string_view WireCode(const Status& status);

/// Formats `ERR <code> <message>` with the message flattened to one
/// line (newlines become "; ").
std::string ErrorReply(std::string_view code, std::string_view message);
std::string ErrorReply(const Status& status);

}  // namespace serve
}  // namespace seqlog

#endif  // SEQLOG_SERVE_PROTOCOL_H_
