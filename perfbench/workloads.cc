// The three workloads: set-up, measured phase, checks, and the metrics each
// one reports. Every workload reports every end-to-end metric of
// BENCHMARK.json (README.md says what each means on each workload).

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <unordered_map>

#include "perfbench/bench.h"
#include "perfbench/loadgen.h"
#include "src/core/runtime.h"
#include "src/core/thread.h"
#include "src/http/cache.h"
#include "src/http/server.h"
#include "src/net/backend.h"
#include "src/net/net.h"
#include "src/stats/stats.h"
#include "src/util/clock.h"

namespace perfbench {

std::atomic<bool> g_tracing{false};

void TraceSlicer::Begin(int64_t now, uint64_t ops) {
  slice_start_ = now;
  slice_ops_ = ops;
  g_tracing.store(false, std::memory_order_relaxed);
  sunmt::Stats::Disable();
}

void TraceSlicer::Close(int64_t now, uint64_t ops) {
  double n = static_cast<double>(ops - slice_ops_);
  double ns = static_cast<double>(now - slice_start_);
  if (g_tracing.load(std::memory_order_relaxed)) {
    traced_ops_ += n;
    traced_ns_ += ns;
  } else {
    untraced_ops_ += n;
    untraced_ns_ += ns;
  }
  slice_start_ = now;
  slice_ops_ = ops;
}

void TraceSlicer::Tick(int64_t now, uint64_t ops) {
  if (!enabled_ || now - slice_start_ < kSliceNs) {
    return;
  }
  Close(now, ops);
  bool trace = !g_tracing.load(std::memory_order_relaxed);
  if (trace) {
    sunmt::Stats::Enable();
  } else {
    sunmt::Stats::Disable();
  }
  g_tracing.store(trace, std::memory_order_relaxed);
}

void TraceSlicer::End(int64_t now, uint64_t ops) {
  if (enabled_) {
    Close(now, ops);
  }
  sunmt::Stats::Disable();
  g_tracing.store(false, std::memory_order_relaxed);
}

double TraceSlicer::overhead() const {
  if (traced_ns_ <= 0 || untraced_ns_ <= 0 || untraced_ops_ <= 0) {
    return 0.0;
  }
  return (traced_ops_ / traced_ns_) / (untraced_ops_ / untraced_ns_);
}

namespace {

using sunmt::MonotonicNowNs;

// Server shape: 2 pool LWPs for 4 client connections (more threads than
// LWPs: the paper's M:N case), plus the dedicated poller's bound LWP.
constexpr int kPoolLwps = 2;
constexpr int kPollerLwps = 1;
// The initial program thread, adopted by the runtime when it first calls in;
// it only orchestrates and sleeps through the measured phase.
constexpr int kAdoptedLwps = 1;
// Share of --seconds given to the HTTP load; the rest measures the paper
// rows against the live, idle server.
constexpr double kLoadShare = 0.8;
// The load is measured in slices this long; rates, CPU per request and
// latency percentiles are medians over slices.
constexpr int64_t kLoadSliceNs = 1'000'000'000;
constexpr int64_t kSecond = 1'000'000'000;
// The HTTP workloads are named for how they use the cache, so a measured
// hit ratio outside these fails the run: http_hit must be served from the
// cache, and http_churn's uniform keys over a keyspace kChurnKeyspaceFactor
// times the cache budget hit about 1/kChurnKeyspaceFactor of the time.
constexpr double kHitMinHitRatio = 0.99;
constexpr double kChurnMinHitRatio = 1.0 / kChurnKeyspaceFactor / 1.5;
constexpr double kChurnMaxHitRatio = 1.0 / kChurnKeyspaceFactor * 1.5;

void SleepNs(int64_t ns) {
  struct timespec ts = {static_cast<time_t>(ns / kSecond),
                        static_cast<long>(ns % kSecond)};
  nanosleep(&ts, nullptr);
}

// Spans of the application's handler, recorded only in traced slices.
struct HandlerRecord {
  uint64_t id;
  int64_t entry_ns;
  int64_t respond_ns;
};

struct App {
  const Keyspace* ks = nullptr;
  std::unique_ptr<HandlerRecord[]> records;
  size_t capacity = 0;
  std::atomic<size_t> count{0};
};
App g_app;

// The application: serves key i's body, built from the key on every call.
void Handle(const sunmt::HttpMessage& req, sunmt::HttpExchange* ex) {
  const bool traced = g_tracing.load(std::memory_order_relaxed);
  int64_t entry = traced ? MonotonicNowNs() : 0;
  uint32_t key = 0;
  if (!ParseTarget(req.target, g_app.ks->sizes.size(), &key)) {
    ex->Respond(404, "text/plain", "no such key\n");
    return;
  }
  std::string body = MakeBody(*g_app.ks, key);
  if (traced) {
    // Written before the response goes out, so the record is complete by the
    // time the client (and, after joining it, the main thread) sees the reply.
    int64_t respond = MonotonicNowNs();
    const std::string* id = req.FindHeader("X-Req-Id");
    size_t slot = g_app.count.fetch_add(1, std::memory_order_relaxed);
    if (id != nullptr && slot < g_app.capacity) {
      g_app.records[slot] = {strtoull(id->c_str(), nullptr, 10), entry, respond};
    }
  }
  ex->Respond(200, "application/octet-stream", body);
}

void AddPaperRowMetrics(const PaperResult& p, Output* out) {
  out->Add("create_unbound_us", p.create_unbound_us, "us");
  out->Add("create_bound_us", p.create_bound_us, "us");
  out->Add("sync_unbound_us", p.sync_unbound_us, "us");
  out->Add("sync_bound_us", p.sync_bound_us, "us");
  out->Add("sync_shared_us", p.sync_shared_us, "us");
  out->NoteNum("paper_rounds", static_cast<double>(p.rounds));
  if (!p.error.empty()) {
    out->errors.push_back("paper rows: " + p.error);
  }
}

// ingress/handler/egress percentiles from the traced requests that ran the
// handler, and the spans file: every traced request at or above the traced
// p99, plus every 64th, each as a root span with its children.
void AddSpanMetrics(const Options& opt, const LoadGenerator& gen, Output* out) {
  std::unordered_map<uint64_t, const HandlerRecord*> by_id;
  size_t n = std::min(g_app.count.load(), g_app.capacity);
  for (size_t i = 0; i < n; ++i) {
    by_id[g_app.records[i].id] = &g_app.records[i];
  }
  std::vector<int64_t> ingress, handler, egress, traced;
  for (const RequestRecord& r : gen.records()) {
    traced.push_back(r.end_ns - r.start_ns);
    if (auto it = by_id.find(r.id); it != by_id.end()) {
      ingress.push_back(it->second->entry_ns - r.sent_ns);
      handler.push_back(it->second->respond_ns - it->second->entry_ns);
      egress.push_back(r.end_ns - it->second->respond_ns);
    }
  }
  out->NoteNum("span_requests_with_handler", static_cast<double>(ingress.size()));
  out->Add("http.ingress_p50_ns", Percentile(&ingress, 0.50), "ns");
  out->Add("http.ingress_p99_ns", Percentile(&ingress, 0.99), "ns");
  out->Add("http.handler_p50_ns", Percentile(&handler, 0.50), "ns");
  out->Add("http.egress_p50_ns", Percentile(&egress, 0.50), "ns");
  out->Add("http.egress_p99_ns", Percentile(&egress, 0.99), "ns");

  std::string path = opt.out_dir + "/spans-" + WorkloadName(opt.kind) +
                     "-seed" + std::to_string(opt.seed) + ".jsonl";
  std::ofstream f(path);
  const double tail = Percentile(&traced, 0.99);
  size_t written = 0;
  auto span = [&f](uint64_t id, const char* name, const char* parent,
                   int64_t start, int64_t end) {
    f << "{\"id\":" << id << ",\"span\":\"" << name << "\",\"parent\":"
      << (parent ? std::string("\"") + parent + "\"" : std::string("null"))
      << ",\"start_ns\":" << start << ",\"end_ns\":" << end << "}\n";
  };
  for (const RequestRecord& r : gen.records()) {
    if (written >= 100000 ||
        (static_cast<double>(r.end_ns - r.start_ns) < tail && r.id % 64 != 0)) {
      continue;
    }
    ++written;
    span(r.id, "request", nullptr, r.start_ns, r.end_ns);
    if (r.sent_ns > r.start_ns) {
      span(r.id, "connect", "request", r.start_ns, r.sent_ns);
    }
    if (auto it = by_id.find(r.id); it != by_id.end()) {
      const HandlerRecord& h = *it->second;
      span(r.id, "ingress", "request", r.sent_ns, h.entry_ns);
      span(r.id, "handler", "request", h.entry_ns, h.respond_ns);
      span(r.id, "egress", "request", h.respond_ns, r.end_ns);
    }
  }
  out->Note("spans_file", path);
  out->NoteNum("spans_requests_written", static_cast<double>(written));
}

// Run record: how many slices there were, how many the medians used, and
// the host's steal in each.
void NoteSlices(const std::vector<double>& steal, const std::vector<bool>& use,
                Output* out) {
  out->NoteNum("slices", static_cast<double>(steal.size()));
  out->NoteNum("slices_used", static_cast<double>(std::count(use.begin(), use.end(), true)));
  std::string list = "[";
  for (size_t i = 0; i < steal.size(); ++i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "%s%.4f", i ? "," : "", steal[i]);
    list += buf;
  }
  out->record.emplace_back("slice_steal", list + "]");
}

}  // namespace

CpuTicks CpuTicks::Read() {
  CpuTicks t;
  FILE* f = fopen("/proc/stat", "r");
  if (f == nullptr) {
    return t;
  }
  // cpu  user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  if (fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
             &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    t.steal = v[7];
    for (unsigned long long x : v) {
      t.total += x;
    }
  }
  fclose(f);
  return t;
}

double CpuTicks::StealSince(const CpuTicks& earlier) const {
  uint64_t total = this->total - earlier.total;
  return total == 0 ? 0.0
                    : static_cast<double>(steal - earlier.steal) / static_cast<double>(total);
}

double PeakRssMb() {
  FILE* f = fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kb = 0;
  while (fgets(line, sizeof(line), f) != nullptr) {
    if (strncmp(line, "VmHWM:", 6) == 0) {
      kb = strtod(line + 6, nullptr);
    }
  }
  fclose(f);
  return kb / 1024.0;
}

int64_t ProcessCpuNs() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * kSecond + tv.tv_usec * 1000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

int RunHttpWorkload(const Options& opt, Output* out) {
  const bool churn = opt.kind == WorkloadKind::kHttpChurn;
  sunmt::RuntimeConfig rc;
  rc.initial_pool_lwps = kPoolLwps;
  sunmt::Runtime::Configure(rc);
  sunmt::thread_setconcurrency(kPoolLwps);
  if (sunmt::net_poller_start() != 0) {
    out->errors.push_back("net_poller_start failed");
    return 1;
  }
  Keyspace ks = MakeKeyspace(opt.kind, opt.seed);
  const size_t cache_bytes = churn ? kChurnCacheBytes : kHitCacheBytes;
  sunmt::HttpCache cache(16, cache_bytes);
  g_app.ks = &ks;
  if (opt.trace) {
    g_app.capacity = 1u << 20;
    g_app.records.reset(new HandlerRecord[g_app.capacity]);
  }
  sunmt::HttpServerConfig sc;
  sc.cache = &cache;
  sc.handler = &Handle;
  const int64_t idle_timeout_ns = sc.idle_timeout_ns;
  sunmt::HttpServer server(sc);
  if (server.Start() != 0) {
    out->errors.push_back("server start failed");
    return 1;
  }

  GenConfig gc;
  gc.kind = opt.kind;
  gc.port = server.port();
  gc.keys = &ks;
  gc.tracing = &g_tracing;
  LoadGenerator gen(gc);
  if (!gen.Start() || !gen.WaitWarm(60 * kSecond)) {
    out->errors.push_back("load generator: " + gen.error());
    if (!gen.Stop(30 * kSecond)) {
      return 2;
    }
    server.Stop();
    return 1;
  }
  // Set-up ends when the generator's threads are up (on http_hit: connected,
  // with the cache filled); the warm-up that follows is not part of it.
  out->Add("setup_s", static_cast<double>(gen.set_up_ns() - opt.start_ns) / 1e9, "s");
  sunmt::NetBackendStats backend;
  sunmt::net_backend_snapshot(&backend);
  out->Note("net_backend", backend.name);
  if (opt.setup_only) {
    bool stopped = gen.Stop(30 * kSecond);
    server.Stop();
    return stopped ? 0 : 2;
  }

  // ---- measured phase: the generator runs, this thread only samples.
  sunmt::Stats::Reset();
  LayerSnapshot before = LayerSnapshot::Take();
  sunmt::HttpServerStats server0 = server.SnapshotStats();
  sunmt::HttpCache::Stats cache0 = cache.SnapshotStats();
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t gen_cpu0 = gen.CpuNs();
  TraceSlicer slicer(opt.trace);
  gen.BeginMeasure();
  const int64_t m0 = MonotonicNowNs();
  slicer.Begin(m0, 0);
  const int64_t load_ns = static_cast<int64_t>(opt.seconds * kLoadShare * kSecond);
  const int64_t slices = std::max<int64_t>(1, load_ns / kLoadSliceNs);
  std::vector<double> slice_rate, slice_cpu, slice_steal;
  int64_t prev_t = m0, prev_cpu = cpu0, prev_gen_cpu = gen_cpu0;
  uint64_t prev_ok = 0;
  CpuTicks prev_ticks = CpuTicks::Read();
  for (int64_t i = 1; i <= slices; ++i) {
    const int64_t slice_end = m0 + load_ns * i / slices;
    for (int64_t now; (now = MonotonicNowNs()) < slice_end;) {
      SleepNs(std::min<int64_t>(slice_end - now, 10'000'000));
      slicer.Tick(MonotonicNowNs(), gen.completed());
    }
    gen.NextSlice();
    const int64_t now = MonotonicNowNs();
    const uint64_t ok = gen.completed();
    const int64_t cpu = ProcessCpuNs(), gen_cpu = gen.CpuNs();
    const CpuTicks ticks = CpuTicks::Read();
    slice_steal.push_back(ticks.StealSince(prev_ticks));
    prev_ticks = ticks;
    const double n = static_cast<double>(ok - prev_ok);
    slice_rate.push_back(n / (static_cast<double>(now - prev_t) / 1e9));
    slice_cpu.push_back(
        n > 0 ? static_cast<double>((cpu - prev_cpu) - (gen_cpu - prev_gen_cpu)) / 1e3 / n
              : 0.0);
    prev_t = now, prev_ok = ok, prev_cpu = cpu, prev_gen_cpu = gen_cpu;
  }
  const int64_t t1 = prev_t;
  const int64_t gen_cpu1 = prev_gen_cpu;
  slicer.End(t1, prev_ok);
  LayerSnapshot after = LayerSnapshot::Take();
  sunmt::HttpServerStats server1 = server.SnapshotStats();
  sunmt::HttpCache::Stats cache1 = cache.SnapshotStats();
  if (!gen.Stop(30 * kSecond)) {
    out->errors.push_back("load generator: " + gen.error());
    return 2;
  }

  // ---- end-to-end metrics and checks.
  const Tally& tally = gen.tally();
  const double reqs = static_cast<double>(tally.ok);
  const double gen_cpu = static_cast<double>(gen_cpu1 - gen_cpu0);
  out->attempted = tally.attempted();
  out->failed = tally.failed();
  if (tally.failed() != 0 || tally.ok == 0) {
    char buf[160];
    snprintf(buf, sizeof(buf),
             "%llu of %llu requests failed (refused %llu, short %llu, wrong %llu)",
             static_cast<unsigned long long>(tally.failed()),
             static_cast<unsigned long long>(tally.attempted()),
             static_cast<unsigned long long>(tally.refused),
             static_cast<unsigned long long>(tally.short_reads),
             static_cast<unsigned long long>(tally.wrong));
    out->errors.push_back(buf);
  }
  const size_t lwp_limit = kPoolLwps + kPollerLwps + kAdoptedLwps;
  if (after.lwp_count > lwp_limit) {
    out->errors.push_back("LWP count " + std::to_string(after.lwp_count) +
                          " exceeds pool + poller + adopted main thread (" +
                          std::to_string(lwp_limit) + ")");
  }
  const uint64_t hits = cache1.hits - cache0.hits;
  const uint64_t lookups = hits + (cache1.misses - cache0.misses);
  const double hit_ratio =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
  out->NoteNum("cache_hit_ratio", hit_ratio);
  if (churn ? (hit_ratio < kChurnMinHitRatio || hit_ratio > kChurnMaxHitRatio)
            : hit_ratio < kHitMinHitRatio) {
    char buf[128];
    snprintf(buf, sizeof(buf), "cache hit ratio %.4f outside [%.4f, %.4f]", hit_ratio,
             churn ? kChurnMinHitRatio : kHitMinHitRatio, churn ? kChurnMaxHitRatio : 1.0);
    out->errors.push_back(buf);
  }
  const double busy = gen_cpu / (static_cast<double>(t1 - m0) * LoadGenerator::kThreads);
  out->NoteNum("gen_busy_frac", busy);
  if (busy > 0.9) {
    out->Note("gen_saturated", "true");
    fprintf(stderr, "warning: load generator busy %.2f > 0.9: the run measures the client\n",
            busy);
  }
  out->NoteNum("fail_ratio", tally.fail_ratio());
  out->NoteNum("latency_samples", static_cast<double>(gen.latency_samples()));
  out->NoteNum("lwp_count", static_cast<double>(after.lwp_count));
  out->NoteNum("load_seconds", static_cast<double>(t1 - m0) / 1e9);
  const std::vector<bool> use = QuietSlices(slice_steal);
  NoteSlices(slice_steal, use, out);
  out->Add("reqs_per_s", MedianOver(slice_rate, use), "1/s");
  out->Add("latency_p50_us",
           MedianOver(gen.slice_latency(), &SliceLatency::p50, use) / 1e3, "us");
  out->Add("latency_p99_us",
           MedianOver(gen.slice_latency(), &SliceLatency::p99, use) / 1e3, "us");
  out->Add("cpu_us_per_req", MedianOver(slice_cpu, use), "us");

  if (opt.trace) {
    AddCounterLayerMetrics(before, after, reqs, out);
    AddHistogramLayerMetrics(out);
    out->Add("http.cache_hit_ratio", hit_ratio, "ratio");
    out->Add("http.evictions_per_req",
             reqs > 0 ? static_cast<double>(cache1.evictions - cache0.evictions) / reqs : 0.0,
             "count/req");
    uint64_t server_errors =
        (server1.parse_errors - server0.parse_errors) +
        (server1.idle_timeouts - server0.idle_timeouts) +
        (server1.request_timeouts - server0.request_timeouts);
    out->Add("http.server_errors", static_cast<double>(server_errors), "count");
    AddSpanMetrics(opt, gen, out);
    out->Add("gen.busy_frac", busy, "ratio");
    out->Add("trace.overhead", slicer.overhead(), "ratio");
    AddProbeLayerMetrics(ks, cache_bytes, churn, idle_timeout_ns, out);
  } else {
    // The paper rows against the live, idle server, on one CPU as the
    // paper's uniprocessor.
    sunmt::thread_setconcurrency(1);
    PaperResult paper = RunPaperRows(opt.seconds * (1 - kLoadShare), nullptr, {});
    AddPaperRowMetrics(paper, out);
    out->Add("rss_mb", PeakRssMb(), "MB");
  }
  server.Stop();
  return 0;
}

int RunPaperWorkload(const Options& opt, Output* out) {
  // One LWP for unbound threads, as fig6: unbound sync is then the pure
  // user-level switch the paper measured.
  sunmt::thread_setconcurrency(1);
  TraceSlicer slicer(opt.trace);
  LayerSnapshot before;
  const double seconds = opt.setup_only ? 0.0 : opt.seconds;
  PaperResult p = RunPaperRows(seconds, &slicer, [&](int64_t start) {
    out->Add("setup_s", static_cast<double>(start - opt.start_ns) / 1e9, "s");
    sunmt::Stats::Reset();
    before = LayerSnapshot::Take();
  });
  if (opt.setup_only) {
    return p.error.empty() ? 0 : 1;
  }
  LayerSnapshot after = LayerSnapshot::Take();
  // A request here is one unbound semaphore round trip, timed on its own.
  const double rounds = static_cast<double>(p.rounds);
  out->attempted = p.roundtrips;
  out->failed = p.error.empty() ? 0 : 1;
  out->Note("net_backend", "none");
  const std::vector<bool> use = QuietSlices(p.slice_steal);
  NoteSlices(p.slice_steal, use, out);
  out->NoteNum("latency_samples", static_cast<double>(p.roundtrip_ns.samples()));
  out->Add("reqs_per_s", MedianOver(p.slice_roundtrips_per_s, use), "1/s");
  out->Add("latency_p50_us", MedianOver(p.roundtrip_ns.slices(), &SliceLatency::p50, use) / 1e3,
           "us");
  out->Add("latency_p99_us", MedianOver(p.roundtrip_ns.slices(), &SliceLatency::p99, use) / 1e3,
           "us");
  out->Add("cpu_us_per_req", MedianOver(p.slice_cpu_us_per_roundtrip, use), "us");
  AddPaperRowMetrics(p, out);
  out->Add("rss_mb", PeakRssMb(), "MB");
  if (opt.trace) {
    AddCounterLayerMetrics(before, after, rounds, out);
    AddHistogramLayerMetrics(out);
    // No server and no generator on this workload: their layers are idle
    // and report 0.
    out->Add("http.cache_hit_ratio", 0.0, "ratio");
    out->Add("http.evictions_per_req", 0.0, "count/req");
    out->Add("http.server_errors", 0.0, "count");
    for (const char* name : {"http.ingress_p50_ns", "http.ingress_p99_ns",
                             "http.handler_p50_ns", "http.egress_p50_ns",
                             "http.egress_p99_ns"}) {
      out->Add(name, 0.0, "ns");
    }
    out->Add("gen.busy_frac", 0.0, "ratio");
    out->Add("trace.overhead", slicer.overhead(), "ratio");
    // The probes need the dedicated poller for the net round trip; the
    // measured rows are over, so starting it now changes none of them.
    sunmt::net_poller_start();
    Keyspace ks = MakeHitKeyspace(opt.seed);
    AddProbeLayerMetrics(ks, kHitCacheBytes, false, 30 * kSecond, out);
  }
  return 0;
}

}  // namespace perfbench
