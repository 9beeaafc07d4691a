// Closed-loop HTTP load generator on plain kernel threads.
//
// kThreads pthreads, each owning kConnsPerThread loopback TCP connections
// driven with blocking sockets and poll(2); one request is in flight per
// connection. The threads are created with every signal blocked and never
// call into the sunmt runtime, so the server's LWPs are the only kernel
// threads the runtime schedules.
//
// Lifecycle: Start() spawns the threads, which set up (http_hit: connect, then
// one request per key so the cache holds the whole working set) and then run
// an unmeasured warm-up; WaitWarm() returns once every thread is warm;
// BeginMeasure() starts the recorded phase, which
// NextSlice() cuts into slices; Stop() lets in-flight requests finish and
// joins the threads.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workload.h"

namespace perfbench {

struct GenConfig {
  // kHttpHit: keep-alive connections; kHttpChurn: one request per connection.
  WorkloadKind kind = WorkloadKind::kHttpHit;
  uint16_t port = 0;
  const Keyspace* keys = nullptr;
  // Read at each request start: a RequestRecord is kept for every measured
  // request started while it is set.
  const std::atomic<bool>* tracing = nullptr;
};

// One measured request, as the client saw it (CLOCK_MONOTONIC ns).
struct RequestRecord {
  uint64_t id = 0;
  int64_t start_ns = 0;  // connect() on churn, first byte sent on hit
  int64_t sent_ns = 0;   // first byte of the request handed to send()
  int64_t end_ns = 0;    // last response byte verified
};

class LoadGenerator {
 public:
  static constexpr int kThreads = 2;
  static constexpr int kConnsPerThread = 2;
  static constexpr int kConns = kThreads * kConnsPerThread;

  explicit LoadGenerator(const GenConfig& config);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  // Spawns the threads. False (with error()) if a thread could not start.
  bool Start();
  // Blocks until every thread finished its warm-up or failed; false on
  // failure or timeout.
  bool WaitWarm(int64_t timeout_ns);
  // When the last thread finished setting up, before its warm-up; valid after
  // WaitWarm() succeeded.
  int64_t set_up_ns() const;
  void BeginMeasure();
  // Ends the current latency slice; requests completing later go to the next.
  void NextSlice() { slice_.fetch_add(1, std::memory_order_relaxed); }
  // Ends the measured phase and joins the threads. False if a thread did not
  // finish within the timeout (the process must then exit without cleanup).
  bool Stop(int64_t timeout_ns);

  // Measured requests completed correctly so far, safe while running.
  uint64_t completed() const;
  // Summed CPU time of the generator threads, safe while running.
  int64_t CpuNs() const;

  // Valid after Stop().
  // Per-slice latency percentiles of correct requests, in ns, one entry per
  // generator thread and slice, and the number of latency samples.
  const std::vector<SliceLatency>& slice_latency() const { return slice_latency_; }
  uint64_t latency_samples() const { return latency_samples_; }
  const Tally& tally() const { return tally_; }
  const Tally& warmup_tally() const { return warm_tally_; }
  const std::vector<RequestRecord>& records() const { return records_; }
  const std::string& error() const { return error_; }

 private:
  struct Worker;
  static void* WorkerMain(void* arg);

  GenConfig config_;
  std::vector<std::string> hit_bodies_;  // http_hit: every key's body
  std::atomic<int> phase_{0};             // 0 warm-up, 1 measure, 2 stop
  std::atomic<int> warm_threads_{0};
  std::atomic<int> slice_{0};
  std::vector<std::unique_ptr<Worker>> workers_;
  bool joined_ = true;

  std::vector<SliceLatency> slice_latency_;
  uint64_t latency_samples_ = 0;
  Tally tally_;
  Tally warm_tally_;
  std::vector<RequestRecord> records_;
  std::string error_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
