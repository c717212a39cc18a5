// The serving tier: wire protocol units, the loopback server end to
// end, snapshot pinning, deadlines, admission control, graceful drain,
// and concurrent clients (the tsan job runs this suite, so the
// concurrent test doubles as the data-race probe for Server's
// engine-mutex / snapshot-pinning discipline).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/programs.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/stats.h"

namespace seqlog {
namespace serve {
namespace {

// ---------------------------------------------------------------------
// Protocol units (no sockets).
// ---------------------------------------------------------------------

TEST(Protocol, ParsesEveryVerb) {
  Result<Request> r = ParseRequest("PREPARE q ?- suffix($1).");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->verb, Verb::kPrepare);
  EXPECT_EQ(r->name, "q");
  EXPECT_EQ(r->goal, "?- suffix($1).");

  r = ParseRequest("BIND q 2 acgt");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->verb, Verb::kBind);
  EXPECT_EQ(r->index, 2u);
  ASSERT_EQ(r->values.size(), 1u);
  EXPECT_EQ(r->values[0], "acgt");

  r = ParseRequest("EXEC q acgt eps");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->verb, Verb::kExec);
  ASSERT_EQ(r->values.size(), 2u);
  EXPECT_EQ(r->values[1], "");  // eps decodes to the empty sequence

  r = ParseRequest("BATCH q 32");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->verb, Verb::kBatch);
  EXPECT_EQ(r->count, 32u);

  r = ParseRequest("DEADLINE 250");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->verb, Verb::kDeadline);
  EXPECT_EQ(r->millis, 250u);

  EXPECT_EQ(ParseRequest("STATS")->verb, Verb::kStats);
  EXPECT_EQ(ParseRequest("HEALTH")->verb, Verb::kHealth);
  EXPECT_EQ(ParseRequest("PUBLISH")->verb, Verb::kPublish);
  EXPECT_EQ(ParseRequest("QUIT")->verb, Verb::kQuit);

  r = ParseRequest("FACT r acgt");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->verb, Verb::kFact);
  EXPECT_EQ(r->name, "r");

  r = ParseRequest("INGEST doc 128");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->verb, Verb::kIngest);
  EXPECT_EQ(r->name, "doc");
  EXPECT_EQ(r->count, 128u);

  // Trailing carriage returns (telnet) are tolerated.
  EXPECT_TRUE(ParseRequest("HEALTH\r").ok());
}

TEST(Protocol, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("NOSUCH x").ok());
  EXPECT_FALSE(ParseRequest("PREPARE q").ok());        // missing goal
  EXPECT_FALSE(ParseRequest("BIND q x acgt").ok());    // bad index
  EXPECT_FALSE(ParseRequest("BIND q 0 acgt").ok());    // 1-based
  EXPECT_FALSE(ParseRequest("BATCH q").ok());          // missing count
  EXPECT_FALSE(ParseRequest("BATCH q -3").ok());
  EXPECT_FALSE(ParseRequest("INGEST r").ok());  // missing count
  EXPECT_FALSE(ParseRequest("INGEST r x").ok());
  EXPECT_FALSE(ParseRequest("STATS now").ok());
}

TEST(Protocol, ValueEncodingRoundTrips) {
  EXPECT_EQ(EncodeValue(""), "eps");
  EXPECT_EQ(DecodeValue("eps"), "");
  EXPECT_EQ(EncodeValue("acgt"), "acgt");
  EXPECT_EQ(DecodeValue("acgt"), "acgt");
  std::vector<std::string> values = SplitValues("acgt eps  gg");
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[1], "");
}

TEST(Protocol, ErrorRepliesReuseDiagnosticCodes) {
  // Analysis-family statuses surface the engine's own SL codes; the
  // serving block is SL-E1xx.
  EXPECT_EQ(WireCode(Status::InvalidArgument("x")), "SL-E001");
  EXPECT_EQ(WireCode(Status::FailedPrecondition("x")), "SL-E010");
  EXPECT_EQ(WireCode(Status::ResourceExhausted("x")), kCodeDeadline);
  EXPECT_EQ(ErrorReply(kCodeOverloaded, "queue full"),
            "ERR SL-E102 queue full");
  // Multi-line messages flatten to one wire line.
  EXPECT_EQ(ErrorReply(kCodeBadRequest, "a\nb"), "ERR SL-E100 a; b");
}

TEST(LatencyHistogram, PercentilesApproximateTheSamples) {
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.Record(100.0);
  h.Record(100000.0);
  EXPECT_EQ(h.count(), 100u);
  // Log-bucketed: ~±9% relative error.
  EXPECT_NEAR(h.PercentileMicros(50), 100.0, 10.0);
  EXPECT_NEAR(h.PercentileMicros(95), 100.0, 10.0);
  EXPECT_GT(h.PercentileMicros(100), 90000.0);
  EXPECT_NEAR(h.mean_micros(), 1099.0, 1.0);

  LatencyHistogram other;
  other.Record(100.0);
  other.MergeFrom(h);
  EXPECT_EQ(other.count(), 101u);
}

// ---------------------------------------------------------------------
// End-to-end over loopback.
// ---------------------------------------------------------------------

/// A suffix-membership server on an ephemeral port.
class ServeTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    ASSERT_TRUE(engine_.LoadProgram(programs::kSuffixes).ok());
    ASSERT_TRUE(engine_.AddFact("r", {"acgtacgt"}).ok());
    ASSERT_TRUE(engine_.AddFact("r", {"ttttgggg"}).ok());
    options.port = 0;
    server_ = std::make_unique<Server>(&engine_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  TextClient Connect() {
    TextClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  Engine engine_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServeTest, PrepareBindExecRoundTrip) {
  StartServer();
  TextClient client = Connect();

  Result<Reply> reply = client.Roundtrip("PREPARE q ?- suffix($1).");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->ok()) << reply->header;
  EXPECT_NE(reply->header.find("params=1"), std::string::npos);
  EXPECT_NE(reply->header.find("adornment=b"), std::string::npos);

  // Inline values.
  reply = client.Roundtrip("EXEC q acgt");
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->ok()) << reply->header;
  ASSERT_EQ(reply->body.size(), 1u);
  EXPECT_EQ(reply->body[0], "ROW acgt");

  // Session BIND state.
  ASSERT_TRUE(client.Roundtrip("BIND q 1 gggg")->ok());
  reply = client.Roundtrip("EXEC q");
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->body.size(), 1u);
  EXPECT_EQ(reply->body[0], "ROW gggg");

  // A miss: zero rows.
  reply = client.Roundtrip("EXEC q zz");
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply->ok());
  EXPECT_TRUE(reply->body.empty());

  // The empty sequence is a suffix of everything in r.
  reply = client.Roundtrip("EXEC q eps");
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->body.size(), 1u);
  EXPECT_EQ(reply->body[0], "ROW eps");

  EXPECT_TRUE(client.Roundtrip("QUIT")->ok());
}

TEST_F(ServeTest, BatchVerbAnswersPerItem) {
  StartServer();
  TextClient client = Connect();
  ASSERT_TRUE(client.Roundtrip("PREPARE q ?- suffix($1).")->ok());

  Result<Reply> reply = client.Roundtrip(
      "BATCH q 4", {"acgt", "zz", "gggg", "acgt zz"});
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->ok()) << reply->header;
  EXPECT_NE(reply->header.find("items=4"), std::string::npos);
  EXPECT_NE(reply->header.find("rows=2"), std::string::npos);
  EXPECT_NE(reply->header.find("runs=1"), std::string::npos);
  ASSERT_EQ(reply->body.size(), 6u);  // 4 ITEM + 2 ROW lines
  EXPECT_EQ(reply->body[0], "ITEM 0 rows=1");
  EXPECT_EQ(reply->body[1], "ROW acgt");
  EXPECT_EQ(reply->body[2], "ITEM 1 rows=0");
  EXPECT_EQ(reply->body[3], "ITEM 2 rows=1");
  EXPECT_EQ(reply->body[4], "ROW gggg");
  // Wrong arity: a per-item error, not a batch failure, with the code
  // EXEC sends for the same values.
  EXPECT_EQ(reply->body[5].rfind("ITEM 3 ERR SL-E100 ", 0), 0u)
      << reply->body[5];
}

TEST_F(ServeTest, ErrorsCarryStableCodes) {
  StartServer();
  TextClient client = Connect();

  Result<Reply> reply = client.Roundtrip("EXEC nosuch acgt");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->error_code(), kCodeUnknownStatement);

  reply = client.Roundtrip("GIBBERISH");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->error_code(), kCodeBadRequest);

  // A goal that cannot be prepared: parse-family code.
  reply = client.Roundtrip("PREPARE bad ?- nope(");
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply->ok());
  EXPECT_EQ(reply->error_code(), "SL-E001");
}

TEST_F(ServeTest, RequestsPinTheLatestPublishedSnapshot) {
  // Neither the cadence nor the threshold can publish during the test,
  // so visibility is gated on an explicit PUBLISH — the deterministic
  // form of the snapshot-pinning contract.
  ServerOptions options;
  options.ingest_cadence_ms = 60'000;
  options.ingest_threshold = 1000;
  StartServer(options);
  TextClient client = Connect();
  ASSERT_TRUE(client.Roundtrip("PREPARE q ?- suffix($1).")->ok());

  // Not yet a suffix of anything.
  EXPECT_TRUE(client.Roundtrip("EXEC q zzz")->body.empty());

  // FACT alone stages the fact; the served snapshot is unchanged.
  ASSERT_TRUE(client.Roundtrip("FACT r zzzz")->ok());
  EXPECT_TRUE(client.Roundtrip("EXEC q zzz")->body.empty());

  // PUBLISH makes it visible to subsequent requests.
  Result<Reply> published = client.Roundtrip("PUBLISH");
  ASSERT_TRUE(published.ok());
  ASSERT_TRUE(published->ok()) << published->header;
  Result<Reply> reply = client.Roundtrip("EXEC q zzz");
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->body.size(), 1u);
  EXPECT_EQ(reply->body[0], "ROW zzz");
}

TEST_F(ServeTest, LiveIngestStagesFactsAndPublishForcesTheDrain) {
  StartServer();  // live ingest is the default
  TextClient client = Connect();
  ASSERT_TRUE(client.Roundtrip("PREPARE q ?- suffix($1).")->ok());

  Result<Reply> fact = client.Roundtrip("FACT r zzzz");
  ASSERT_TRUE(fact.ok());
  ASSERT_TRUE(fact->ok()) << fact->header;
  // The live reply reports the staging depth, not a mutation.
  EXPECT_EQ(fact->header.rfind("OK fact queued depth=", 0), 0u)
      << fact->header;

  // PUBLISH forces a publish: the fact is visible afterwards,
  // deterministically.
  Result<Reply> published = client.Roundtrip("PUBLISH");
  ASSERT_TRUE(published.ok());
  ASSERT_TRUE(published->ok()) << published->header;
  EXPECT_EQ(published->header.rfind("OK snapshot=", 0), 0u)
      << published->header;
  Result<Reply> reply = client.Roundtrip("EXEC q zzz");
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->body.size(), 1u);
  EXPECT_EQ(reply->body[0], "ROW zzz");
}

TEST_F(ServeTest, IngestVerbStagesABatch) {
  StartServer();
  TextClient client = Connect();
  ASSERT_TRUE(client.Roundtrip("PREPARE q ?- suffix($1).")->ok());

  Result<Reply> reply =
      client.Roundtrip("INGEST r 3", {"zzzz", "yy", "xx"});
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->ok()) << reply->header;
  EXPECT_EQ(reply->header.rfind("OK ingested=3", 0), 0u) << reply->header;

  ASSERT_TRUE(client.Roundtrip("PUBLISH")->ok());
  for (const char* probe : {"zzz", "y", "x"}) {
    Result<Reply> exec =
        client.Roundtrip(std::string("EXEC q ") + probe);
    ASSERT_TRUE(exec.ok());
    EXPECT_EQ(exec->body.size(), 1u) << probe;
  }

  // A malformed batch fails fast but stays in protocol framing.
  reply = client.Roundtrip("INGEST r 2", {"ok but wrong arity", "gg"});
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply->ok());
  // The connection survives: the server consumed all count lines.
  EXPECT_TRUE(client.Roundtrip("HEALTH")->ok());
}

TEST_F(ServeTest, LiveIngestPublishesOnItsOwnCadence) {
  ServerOptions options;
  options.ingest_cadence_ms = 5;
  StartServer(options);
  TextClient client = Connect();
  ASSERT_TRUE(client.Roundtrip("PREPARE q ?- suffix($1).")->ok());
  ASSERT_TRUE(client.Roundtrip("FACT r zzzz")->ok());

  // No explicit PUBLISH: the republisher drains on its cadence. Poll
  // with a deadline; each EXEC pins the then-latest snapshot.
  bool visible = false;
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    Result<Reply> reply = client.Roundtrip("EXEC q zzz");
    ASSERT_TRUE(reply.ok());
    if (!reply->body.empty()) {
      visible = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(visible);
}

TEST_F(ServeTest, StatsReportIngestCounters) {
  StartServer();
  TextClient client = Connect();
  ASSERT_TRUE(client.Roundtrip("FACT r zzzz")->ok());
  ASSERT_TRUE(client.Roundtrip("PUBLISH")->ok());

  Result<Reply> stats = client.Roundtrip("STATS");
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->ok());
  bool saw_depth = false, saw_ingested = false, saw_staleness = false,
       saw_rate = false;
  for (const std::string& line : stats->body) {
    if (line.rfind("STAT ingest_queue_depth ", 0) == 0) saw_depth = true;
    if (line == "STAT ingested_facts 1") saw_ingested = true;
    if (line.rfind("STAT snapshot_staleness_ms ", 0) == 0) {
      saw_staleness = true;
    }
    if (line.rfind("STAT ingest_facts_per_sec ", 0) == 0) saw_rate = true;
  }
  EXPECT_TRUE(saw_depth);
  EXPECT_TRUE(saw_ingested);
  EXPECT_TRUE(saw_staleness);
  EXPECT_TRUE(saw_rate);
}

/// The write-stall regression: a publish moving a large staged batch
/// must not block concurrent PREPARE/EXEC — reads pin snapshots and
/// PREPARE takes no lock, so sessions stay responsive while the
/// republisher is mid-publish. A regression deadlocks or serialises
/// here and trips the test timeout.
TEST_F(ServeTest, SlowPublishDoesNotBlockConcurrentReads) {
  ServerOptions options;
  options.sessions = 4;
  StartServer(options);
  {
    TextClient setup = Connect();
    ASSERT_TRUE(setup.Roundtrip("PREPARE q ?- suffix($1).")->ok());
    // Stage a batch big enough that its publish does real work.
    std::vector<std::string> lines;
    for (int i = 0; i < 400; ++i) {
      std::string value = "zz";
      value.append(static_cast<size_t>(1 + i % 17), 'g');
      value += std::to_string(i);
      lines.push_back(std::move(value));
    }
    Result<Reply> reply = setup.Roundtrip(
        "INGEST r " + std::to_string(lines.size()), lines);
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(reply->ok()) << reply->header;
  }

  std::atomic<size_t> failures{0};
  std::thread publisher([this, &failures] {
    TextClient writer;
    if (!writer.Connect("127.0.0.1", server_->port()).ok()) {
      failures.fetch_add(1);
      return;
    }
    if (!writer.Roundtrip("PUBLISH")->ok()) failures.fetch_add(1);
  });
  // While the forced publish runs, fresh PREPAREs and EXECs must keep
  // completing on other sessions.
  TextClient reader = Connect();
  for (int i = 0; i < 20; ++i) {
    std::string name = "p";
    name += std::to_string(i);
    if (!reader.Roundtrip("PREPARE " + name + " ?- suffix($1).")->ok()) {
      failures.fetch_add(1);
    }
    if (!reader.Roundtrip("EXEC " + name + " acgt")->ok()) {
      failures.fetch_add(1);
    }
  }
  publisher.join();
  EXPECT_EQ(failures.load(), 0u);
}

TEST_F(ServeTest, DeadlineCutsOffDivergentPrograms) {
  // kEcho has an infinite least fixpoint and its recursion position is
  // not bindable, so the demanded evaluation diverges — only the
  // deadline stops it.
  ASSERT_TRUE(engine_.LoadProgram(programs::kEcho).ok());
  ASSERT_TRUE(engine_.AddFact("r", {"acgt"}).ok());
  server_ = std::make_unique<Server>(&engine_, ServerOptions{});
  ASSERT_TRUE(server_->Start().ok());
  TextClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  ASSERT_TRUE(client.Roundtrip("PREPARE e ?- answer($1, Y).")->ok());
  ASSERT_TRUE(client.Roundtrip("DEADLINE 25")->ok());
  Result<Reply> reply = client.Roundtrip("EXEC e acgt");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->ok());
  EXPECT_EQ(reply->error_code(), kCodeDeadline) << reply->header;
  EXPECT_GE(server_->stats().deadline_exceeded.load(), 1u);
}

TEST_F(ServeTest, AdmissionControlRefusesWhenQueueIsFull) {
  ServerOptions options;
  options.max_pending = 0;  // every connection is refused at the door
  StartServer(options);
  TextClient client = Connect();
  Result<std::string> line = client.RecvLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(line->rfind("ERR SL-E102", 0), 0u) << *line;
  EXPECT_GE(server_->stats().connections_rejected.load(), 1u);
}

TEST_F(ServeTest, StatsVerbAndHealthReport) {
  StartServer();
  TextClient client = Connect();
  ASSERT_TRUE(client.Roundtrip("PREPARE q ?- suffix($1).")->ok());
  ASSERT_TRUE(client.Roundtrip("EXEC q acgt")->ok());

  Result<Reply> health = client.Roundtrip("HEALTH");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->header.rfind("OK serving snapshot=", 0), 0u)
      << health->header;

  Result<Reply> stats = client.Roundtrip("STATS");
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->ok());
  EXPECT_FALSE(stats->body.empty());
  bool saw_requests = false, saw_p99 = false, saw_statements = false;
  for (const std::string& line : stats->body) {
    EXPECT_EQ(line.rfind("STAT ", 0), 0u) << line;
    if (line.rfind("STAT requests ", 0) == 0) saw_requests = true;
    if (line.rfind("STAT request_p99_us ", 0) == 0) saw_p99 = true;
    if (line == "STAT statements 1") saw_statements = true;
  }
  EXPECT_TRUE(saw_requests);
  EXPECT_TRUE(saw_p99);
  EXPECT_TRUE(saw_statements);
}

TEST_F(ServeTest, GracefulDrainCompletesAndCloses) {
  StartServer();
  TextClient client = Connect();
  ASSERT_TRUE(client.Roundtrip("PREPARE q ?- suffix($1).")->ok());
  ASSERT_TRUE(client.Roundtrip("EXEC q acgt")->ok());

  server_->Shutdown();
  server_->Wait();
  // The idle connection was closed by the drain.
  Result<std::string> line = client.RecvLine();
  EXPECT_FALSE(line.ok());
  EXPECT_FALSE(server_->stats().requests.load() == 0);
}

/// Many clients hammer EXEC/BATCH while another churns FACT+PUBLISH:
/// the tsan probe for snapshot pinning vs engine mutation.
TEST_F(ServeTest, ConcurrentClientsWithPublishChurn) {
  ServerOptions options;
  options.sessions = 4;
  StartServer(options);
  {
    TextClient setup = Connect();
    ASSERT_TRUE(setup.Roundtrip("PREPARE q ?- suffix($1).")->ok());
  }

  constexpr size_t kClients = 6;
  constexpr size_t kRequests = 15;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients + 1);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([this, c, &failures] {
      TextClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (size_t r = 0; r < kRequests; ++r) {
        Result<Reply> reply =
            c % 2 == 0
                ? client.Roundtrip("EXEC q acgt")
                : client.Roundtrip("BATCH q 2", {"gggg", "tt"});
        if (!reply.ok() || !reply.value().ok()) failures.fetch_add(1);
      }
    });
  }
  clients.emplace_back([this, &failures] {
    TextClient writer;
    if (!writer.Connect("127.0.0.1", server_->port()).ok()) {
      failures.fetch_add(1);
      return;
    }
    for (size_t i = 0; i < 10; ++i) {
      if (!writer.Roundtrip("FACT r acgtacgt")->ok()) failures.fetch_add(1);
      if (!writer.Roundtrip("PUBLISH")->ok()) failures.fetch_add(1);
    }
  });
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(server_->stats().requests.load(),
            kClients * kRequests);
}

}  // namespace
}  // namespace serve
}  // namespace seqlog
