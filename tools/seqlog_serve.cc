// seqlog-serve: the seqlog query server binary.
//
// Loads a named workload (program + deterministic facts,
// serve_workloads.h), starts serve::Server on loopback, prints the
// bound port, and serves until SIGTERM/SIGINT — then drains gracefully
// (in-flight requests complete) and exits 0 with a final stats summary.
//
//   seqlog-serve --workload=genome --port=0 --sessions=4
//     -> "seqlog-serve listening on 127.0.0.1:37103" (stdout, flushed)
//
// FACT/INGEST writes stage on the engine's ingest queue; a republisher
// thread moves them into the EDB and publishes a fresh snapshot every
// --ingest-cadence-ms, or early at --ingest-threshold staged facts.
// EXEC/BATCH answer from that snapshot, so the server never evaluates
// the workload's full model.
//
// Protocol: docs/SERVING.md. Load generation: seqlog-loadgen.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "serve/server.h"
#include "serve_workloads.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int) { g_stop = 1; }

bool FlagValue(const char* arg, const char* name, const char** value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: seqlog-serve [--workload=genome|text|suffix] [--port=N]\n"
      "                    [--host=A.B.C.D] [--sessions=N]\n"
      "                    [--max-pending=N] [--deadline-ms=N]\n"
      "                    [--ingest-cadence-ms=N]\n"
      "                    [--ingest-threshold=N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace seqlog;

  std::string workload = "genome";
  serve::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (FlagValue(argv[i], "--workload", &value)) {
      workload = value;
    } else if (FlagValue(argv[i], "--port", &value)) {
      options.port = static_cast<uint16_t>(std::atoi(value));
    } else if (FlagValue(argv[i], "--host", &value)) {
      options.host = value;
    } else if (FlagValue(argv[i], "--sessions", &value)) {
      options.sessions = static_cast<size_t>(std::atoi(value));
    } else if (FlagValue(argv[i], "--max-pending", &value)) {
      options.max_pending = static_cast<size_t>(std::atoi(value));
    } else if (FlagValue(argv[i], "--deadline-ms", &value)) {
      options.default_deadline_ms =
          static_cast<uint64_t>(std::atoll(value));
    } else if (FlagValue(argv[i], "--ingest-cadence-ms", &value)) {
      options.ingest_cadence_ms = static_cast<uint64_t>(std::atoll(value));
    } else if (FlagValue(argv[i], "--ingest-threshold", &value)) {
      options.ingest_threshold = static_cast<size_t>(std::atoi(value));
    } else {
      return Usage();
    }
  }

  Engine engine;
  Status status = tools::SetupWorkload(&engine, workload);
  if (!status.ok()) {
    std::fprintf(stderr, "seqlog-serve: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  serve::Server server(&engine, options);
  status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "seqlog-serve: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("seqlog-serve listening on %s:%u (workload=%s)\n",
              options.host.c_str(), server.port(), workload.c_str());
  std::fflush(stdout);

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  server.Shutdown();
  server.Wait();
  const serve::ServerStats& stats = server.stats();
  std::printf(
      "seqlog-serve drained cleanly: requests=%llu qps=%.1f "
      "p50_us=%.1f p99_us=%.1f protocol_errors=%llu\n",
      static_cast<unsigned long long>(stats.requests.load()), stats.qps(),
      stats.request_latency.PercentileMicros(50),
      stats.request_latency.PercentileMicros(99),
      static_cast<unsigned long long>(stats.protocol_errors.load()));
  return 0;
}
