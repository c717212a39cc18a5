// seqlog-loadgen: closed-loop load generation for seqlog-serve.
//
// Opens N connections, each driven by its own thread in a closed loop
// (next request only after the previous reply — so concurrency is
// exactly N and latency includes queueing honestly). Probes are the
// deterministic workload values of serve_workloads.h, so every request
// references data the server holds.
//
//   seqlog-loadgen --port=37103 --workload=genome --connections=4
//                  --requests=200 --mode=exec
//   seqlog-loadgen --port=37103 --workload=genome --mode=batch
//                  --batch-size=32 --requests=10
//
// Per worker: PREPARE once (idempotent server-side), then EXEC one
// probe per request (mode=exec) or BATCH batch-size probes per request
// (mode=batch). Client-side latency lands in a serve::LatencyHistogram;
// workers merge on join.
//
// --write-mix=F (0..1) turns fraction F of each worker's requests into
// FACT writes against the workload's base predicate, with fresh
// deterministic values per worker (serve_workloads.h), exercising the
// live-ingest path under concurrent reads. Reads and writes land in
// separate histograms so the JSON reports read p99 under write load —
// the headline number for the IVM subsystem. Workers with writes end
// with one PUBLISH so everything staged is drained before exit.
//
// Output: a human summary, or with --json a single JSON object shaped
// like a google-benchmark entry so bench/run_benches.sh can aggregate
// it into its JSON output. Exit 0 iff every request got a well-formed
// non-ERR reply.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/stats.h"
#include "serve_workloads.h"

namespace {

using namespace seqlog;

struct Config {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string workload = "genome";
  std::string mode = "exec";  // exec | batch
  size_t connections = 4;
  size_t requests = 100;  // per connection
  size_t batch_size = 32;
  uint64_t deadline_ms = 0;
  double write_mix = 0;  // fraction of requests that are FACT writes
  bool json = false;
};

struct WorkerResult {
  serve::LatencyHistogram latency;        // all requests combined
  serve::LatencyHistogram read_latency;   // EXEC/BATCH only
  serve::LatencyHistogram write_latency;  // FACT only
  uint64_t requests = 0;
  uint64_t items = 0;
  uint64_t rows = 0;
  uint64_t writes = 0;
  uint64_t errors = 0;  // transport + ERR replies
};

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
      "usage: seqlog-loadgen --port=N [--host=A.B.C.D]\n"
      "                      [--workload=genome|text|suffix]\n"
      "                      [--mode=exec|batch] [--connections=N]\n"
      "                      [--requests=N] [--batch-size=N]\n"
      "                      [--deadline-ms=N] [--write-mix=F] [--json]\n");
  return 2;
}

void RunWorker(const Config& config,
               const std::vector<std::string>& probes, size_t worker,
               WorkerResult* result) {
  serve::TextClient client;
  if (!client.Connect(config.host, config.port).ok()) {
    result->errors += 1;
    return;
  }
  if (!client.Roundtrip(std::string("PREPARE q ") +
                        tools::WorkloadGoal(config.workload))
           .ok()) {
    result->errors += 1;
    return;
  }
  if (config.deadline_ms != 0) {
    auto reply =
        client.Roundtrip("DEADLINE " + std::to_string(config.deadline_ms));
    if (!reply.ok() || !reply.value().ok()) {
      result->errors += 1;
      return;
    }
  }
  // Write-mix plumbing: a per-worker deterministic coin decides which
  // requests become FACT writes, and the write values come from a
  // per-worker seed space so concurrent writers stage distinct facts.
  const std::string write_pred =
      tools::WorkloadWritePred(config.workload);
  std::vector<std::string> write_values;
  size_t write_at = 0;
  if (config.write_mix > 0) {
    write_values = tools::WorkloadWriteValues(
        config.workload, static_cast<unsigned>(worker), config.requests);
  }
  std::mt19937 coin(static_cast<unsigned>(worker) * 2654435761u + 12345u);
  std::bernoulli_distribution is_write(
      config.write_mix > 0 ? config.write_mix : 0.0);

  size_t probe_at = worker;  // stagger workers across the probe set
  for (size_t r = 0; r < config.requests; ++r) {
    if (config.write_mix > 0 && is_write(coin) &&
        write_at < write_values.size()) {
      auto w0 = std::chrono::steady_clock::now();
      Result<serve::Reply> wreply = client.Roundtrip(
          "FACT " + write_pred + " " +
          serve::EncodeValue(write_values[write_at++]));
      double wmicros = std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - w0)
                           .count();
      if (!wreply.ok()) {  // transport failure: stop this worker
        result->errors += 1;
        return;
      }
      result->latency.Record(wmicros);
      result->write_latency.Record(wmicros);
      result->requests += 1;
      result->items += 1;
      result->writes += 1;
      if (!wreply.value().ok()) result->errors += 1;
      continue;
    }
    auto t0 = std::chrono::steady_clock::now();
    Result<serve::Reply> reply = Status::Internal("unset");
    size_t items = 1;
    if (config.mode == "batch") {
      items = config.batch_size;
      std::vector<std::string> lines;
      lines.reserve(items);
      for (size_t b = 0; b < items; ++b) {
        lines.push_back(
            serve::EncodeValue(probes[probe_at++ % probes.size()]));
        probe_at %= probes.size();
      }
      reply = client.Roundtrip(
          "BATCH q " + std::to_string(lines.size()), lines);
    } else {
      reply = client.Roundtrip(
          "EXEC q " +
          serve::EncodeValue(probes[probe_at++ % probes.size()]));
      probe_at %= probes.size();
    }
    double micros = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    if (!reply.ok()) {  // transport failure: stop this worker
      result->errors += 1;
      return;
    }
    result->latency.Record(micros);
    result->read_latency.Record(micros);
    result->requests += 1;
    result->items += items;
    if (!reply.value().ok()) {
      result->errors += 1;
    } else {
      for (const std::string& line : reply.value().body) {
        if (line.rfind("ROW", 0) == 0) {
          result->rows += 1;
        } else if (line.rfind("ITEM ", 0) == 0 &&
                   line.find(" ERR ") != std::string::npos) {
          result->errors += 1;
        }
      }
    }
  }
  if (result->writes > 0) {
    // Force a drain so everything this worker staged is applied and
    // published before the run is scored (not counted as a request).
    Result<serve::Reply> publish = client.Roundtrip("PUBLISH");
    if (!publish.ok() || !publish.value().ok()) result->errors += 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (FlagValue(argv[i], "--host", &value)) {
      config.host = value;
    } else if (FlagValue(argv[i], "--port", &value)) {
      config.port = static_cast<uint16_t>(std::atoi(value));
    } else if (FlagValue(argv[i], "--workload", &value)) {
      config.workload = value;
    } else if (FlagValue(argv[i], "--mode", &value)) {
      config.mode = value;
    } else if (FlagValue(argv[i], "--connections", &value)) {
      config.connections = static_cast<size_t>(std::atoi(value));
    } else if (FlagValue(argv[i], "--requests", &value)) {
      config.requests = static_cast<size_t>(std::atoi(value));
    } else if (FlagValue(argv[i], "--batch-size", &value)) {
      config.batch_size = static_cast<size_t>(std::atoi(value));
    } else if (FlagValue(argv[i], "--deadline-ms", &value)) {
      config.deadline_ms = static_cast<uint64_t>(std::atoll(value));
    } else if (FlagValue(argv[i], "--write-mix", &value)) {
      config.write_mix = std::atof(value);
      if (config.write_mix < 0 || config.write_mix > 1) return Usage();
    } else if (std::strcmp(argv[i], "--json") == 0) {
      config.json = true;
    } else {
      return Usage();
    }
  }
  if (config.port == 0) return Usage();
  if (config.mode != "exec" && config.mode != "batch") return Usage();
  std::vector<std::string> probes =
      tools::WorkloadProbes(config.workload);
  if (probes.empty()) {
    std::fprintf(stderr, "seqlog-loadgen: unknown workload '%s'\n",
                 config.workload.c_str());
    return 2;
  }
  if (config.connections == 0) config.connections = 1;

  std::vector<WorkerResult> results(config.connections);
  std::vector<std::thread> workers;
  workers.reserve(config.connections);
  auto t0 = std::chrono::steady_clock::now();
  for (size_t w = 0; w < config.connections; ++w) {
    workers.emplace_back(RunWorker, std::cref(config), std::cref(probes),
                         w, &results[w]);
  }
  for (std::thread& t : workers) t.join();
  double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  serve::LatencyHistogram latency, read_latency, write_latency;
  uint64_t requests = 0, items = 0, rows = 0, writes = 0, errors = 0;
  for (const WorkerResult& r : results) {
    latency.MergeFrom(r.latency);
    read_latency.MergeFrom(r.read_latency);
    write_latency.MergeFrom(r.write_latency);
    requests += r.requests;
    items += r.items;
    rows += r.rows;
    writes += r.writes;
    errors += r.errors;
  }
  double qps = wall_seconds > 0
                   ? static_cast<double>(requests) / wall_seconds
                   : 0;
  double ips = wall_seconds > 0
                   ? static_cast<double>(items) / wall_seconds
                   : 0;

  if (config.json) {
    std::printf(
        "{\"name\": \"loadgen/%s/%s\", \"connections\": %zu, "
        "\"requests\": %llu, \"items\": %llu, \"rows\": %llu, "
        "\"errors\": %llu, \"wall_seconds\": %.3f, \"qps\": %.1f, "
        "\"items_per_second\": %.1f, \"p50_us\": %.1f, "
        "\"p95_us\": %.1f, \"p99_us\": %.1f, \"write_mix\": %.2f, "
        "\"writes\": %llu, \"read_p50_us\": %.1f, "
        "\"read_p95_us\": %.1f, \"read_p99_us\": %.1f, "
        "\"write_p50_us\": %.1f, \"write_p95_us\": %.1f, "
        "\"write_p99_us\": %.1f}\n",
        config.workload.c_str(), config.mode.c_str(),
        config.connections,
        static_cast<unsigned long long>(requests),
        static_cast<unsigned long long>(items),
        static_cast<unsigned long long>(rows),
        static_cast<unsigned long long>(errors), wall_seconds, qps, ips,
        latency.PercentileMicros(50), latency.PercentileMicros(95),
        latency.PercentileMicros(99), config.write_mix,
        static_cast<unsigned long long>(writes),
        read_latency.PercentileMicros(50),
        read_latency.PercentileMicros(95),
        read_latency.PercentileMicros(99),
        write_latency.PercentileMicros(50),
        write_latency.PercentileMicros(95),
        write_latency.PercentileMicros(99));
  } else {
    std::printf(
        "seqlog-loadgen %s/%s: %llu requests (%llu items, %llu rows) "
        "over %zu connections in %.2fs\n"
        "  qps=%.1f items/s=%.1f p50=%.1fus p95=%.1fus p99=%.1fus "
        "errors=%llu\n",
        config.workload.c_str(), config.mode.c_str(),
        static_cast<unsigned long long>(requests),
        static_cast<unsigned long long>(items),
        static_cast<unsigned long long>(rows), config.connections,
        wall_seconds, qps, ips, latency.PercentileMicros(50),
        latency.PercentileMicros(95), latency.PercentileMicros(99),
        static_cast<unsigned long long>(errors));
    if (config.write_mix > 0) {
      std::printf(
          "  writes=%llu (mix=%.2f) read_p50=%.1fus read_p99=%.1fus "
          "write_p50=%.1fus write_p99=%.1fus\n",
          static_cast<unsigned long long>(writes), config.write_mix,
          read_latency.PercentileMicros(50),
          read_latency.PercentileMicros(99),
          write_latency.PercentileMicros(50),
          write_latency.PercentileMicros(99));
    }
  }
  return errors == 0 && requests > 0 ? 0 : 1;
}
