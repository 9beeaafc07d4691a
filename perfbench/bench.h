// The sunmt side of the benchmark: the three workloads, the probes of the
// traced run, and the result the binary prints for run.py.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/workload.h"

namespace perfbench {

struct Options {
  WorkloadKind kind = WorkloadKind::kHttpHit;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;  // stop at the first timed operation
  std::string out_dir = ".bench_out";
  int64_t start_ns = 0;     // process start (main entry), for setup_s
};

// Everything one run reports; printed as one JSON object.
struct Output {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  // Run record: key and value, the value already JSON text.
  std::vector<std::pair<std::string, std::string>> record;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // wrong responses, broken invariants

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& key, const std::string& value);
  void NoteNum(const std::string& key, double value);
  std::string ToJson() const;
};

// Tracing on/off in alternating slices of one run. Tracing means
// Stats::Enable() plus the benchmark's own span recording; the ratio of the
// operation rates in traced and untraced slices is trace.overhead.
class TraceSlicer {
 public:
  static constexpr int64_t kSliceNs = 250'000'000;

  explicit TraceSlicer(bool enabled) : enabled_(enabled) {}
  void Begin(int64_t now, uint64_t ops);
  // Closes the current slice if it is over and flips tracing.
  void Tick(int64_t now, uint64_t ops);
  void End(int64_t now, uint64_t ops);
  // Traced op rate / untraced op rate; 0 until both kinds of slice ran.
  double overhead() const;

 private:
  void Close(int64_t now, uint64_t ops);

  bool enabled_;
  int64_t slice_start_ = 0;
  uint64_t slice_ops_ = 0;
  double traced_ops_ = 0, traced_ns_ = 0, untraced_ops_ = 0, untraced_ns_ = 0;
};

// Whether the current slice is traced; read by the handler and the
// generator (through GenConfig::tracing).
extern std::atomic<bool> g_tracing;

// The Figure 5/6 rows, one batch per row per round.
struct PaperResult {
  double create_unbound_us = 0;
  double create_bound_us = 0;
  double sync_unbound_us = 0;
  double sync_bound_us = 0;
  double sync_shared_us = 0;
  // paper_fig56's request stream: each round ends with a batch of unbound
  // semaphore round trips timed one by one. A slice is kRoundsPerSlice
  // rounds; per slice, the round trips' rate and process CPU, and their
  // latency percentiles.
  static constexpr int kTimedRoundTrips = 200;  // per round
  static constexpr int kRoundsPerSlice = 250;
  static constexpr int kRoundTripsPerSlice = kRoundsPerSlice * kTimedRoundTrips;
  std::vector<double> slice_roundtrips_per_s;
  std::vector<double> slice_cpu_us_per_roundtrip;
  std::vector<double> slice_steal;
  SlicedPercentiles roundtrip_ns{kRoundTripsPerSlice};
  uint64_t roundtrips = 0;
  uint64_t rounds = 0;
  std::string error;  // a handshake lost rounds, or a create failed
};

// Starts the partners (threads and the fork1 child), runs one untimed warm-up
// round, calls on_start(now) just before the first timed round, then runs
// rounds until `seconds` elapse, ticking `slicer` (may be null) between them.
// Returns with every partner stopped and reaped.
PaperResult RunPaperRows(double seconds, TraceSlicer* slicer,
                         const std::function<void(int64_t)>& on_start);

// Each workload fills `out`; a non-zero return means the run could not be
// carried out at all (set-up failed).
int RunHttpWorkload(const Options& opt, Output* out);
int RunPaperWorkload(const Options& opt, Output* out);

// The runtime's own counters, read through its public snapshots at the start
// and the end of a measured phase.
struct LayerSnapshot {
  struct LwpUsage {
    int id;
    int64_t user_ns;
    int64_t wait_ns;
    uint64_t kernel_calls;
  };
  uint64_t dispatches = 0, wakes = 0, notify_wakes = 0, notify_throttled = 0;
  uint64_t steals = 0, threads_created = 0;
  std::vector<LwpUsage> lwps;
  size_t lwp_count = 0;  // LwpRegistry::Count()
  uint64_t objcache_fallbacks = 0;
  int64_t at_ns = 0;
  static LayerSnapshot Take();
};

// core.*_per_req, core.threads_created_per_req, lwp.*, objcache.*: deltas
// between the snapshots per request (per round on paper_fig56).
void AddCounterLayerMetrics(const LayerSnapshot& before,
                            const LayerSnapshot& after, double reqs,
                            Output* out);
// core/sync/net histogram quantiles from Stats (traced slices only).
void AddHistogramLayerMetrics(Output* out);
// The probes, plus the probe of the workload's own request bytes and cache.
void AddProbeLayerMetrics(const Keyspace& ks, size_t cache_bytes, bool close,
                          int64_t timer_delay_ns, Output* out);

// CPU time of the whole machine from /proc/stat, in clock ticks: the total
// and the part the hypervisor gave to other guests.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
  static CpuTicks Read();
  // Share of the time between `earlier` and this that was stolen.
  double StealSince(const CpuTicks& earlier) const;
};

// VmHWM of this process in MiB.
double PeakRssMb();
// Process CPU (user + system) from getrusage, ns.
int64_t ProcessCpuNs();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
