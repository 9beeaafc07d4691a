// Per-layer metrics of the traced run. Everything is read from outside the
// runtime: its public counters and snapshots, the Stats histograms, and
// probes that time calls into one module's public functions. Probes run after
// the load phase, never during it.

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <map>

#include "perfbench/bench.h"
#include "src/core/thread.h"
#include "src/http/cache.h"
#include "src/http/parser.h"
#include "src/introspect/introspect.h"
#include "src/lwp/lwp.h"
#include "src/net/backend.h"
#include "src/net/net.h"
#include "src/stats/stats.h"
#include "src/timer/timer.h"
#include "src/util/clock.h"
#include "src/util/object_cache.h"

namespace perfbench {
namespace {

using sunmt::LatencyStat;
using sunmt::MonotonicNowNs;

double Per(double n, double reqs) { return reqs > 0 ? n / reqs : 0.0; }

sunmt::HistogramSnapshot Hist(LatencyStat stat) {
  sunmt::HistogramSnapshot h;
  sunmt::Stats::Snapshot(stat, &h);
  return h;
}

// Runs fn on a fresh unbound thread and waits for it: probes measure the
// user-level paths the server's own threads take, not the adopted main
// thread's.
void RunUnbound(const std::function<void()>& fn) {
  auto tramp = [](void* arg) { (*static_cast<const std::function<void()>*>(arg))(); };
  sunmt::thread_id_t id = sunmt::thread_create(
      nullptr, 0, tramp, const_cast<std::function<void()>*>(&fn),
      sunmt::THREAD_WAIT);
  if (id != 0) {
    sunmt::thread_wait(id);
  }
}

// Median over `batches` of the per-call time of `body` run `per_batch` times,
// after one untimed warm-up batch.
template <typename Body>
double MedianPerOpNs(int batches, int per_batch, Body&& body) {
  std::vector<double> per_op;
  for (int b = -1; b < batches; ++b) {
    int64_t start = MonotonicNowNs();
    for (int i = 0; i < per_batch; ++i) {
      body(i);
    }
    if (b >= 0) {
      per_op.push_back(static_cast<double>(MonotonicNowNs() - start) / per_batch);
    }
  }
  return Median(per_op);
}

void NopThread(void*) {}
void NopTimer(void*, uint64_t) {}

bool ReadFull(int fd, char* buf, size_t n) {
  while (n > 0) {
    ssize_t r = sunmt::net_read(fd, buf, n);
    if (r <= 0) {
      return false;
    }
    buf += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

bool WriteFull(int fd, const char* buf, size_t n) {
  while (n > 0) {
    ssize_t w = sunmt::net_write(fd, buf, n);
    if (w <= 0) {
      return false;
    }
    buf += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

void EchoMain(void* arg) {
  int fd = *static_cast<int*>(arg);
  char buf[64];
  while (ReadFull(fd, buf, sizeof(buf)) && WriteFull(fd, buf, sizeof(buf))) {
  }
}

double ProbeCreateJoinNs() {
  double ns = 0;
  RunUnbound([&] {
    ns = MedianPerOpNs(30, 100, [](int) {
      sunmt::thread_id_t id = sunmt::thread_create(nullptr, 0, &NopThread,
                                                   nullptr, sunmt::THREAD_WAIT);
      sunmt::thread_wait(id);
    });
  });
  return ns;
}

double ProbeTimerArmCancelNs(int64_t delay_ns) {
  double ns = 0;
  RunUnbound([&] {
    ns = MedianPerOpNs(30, 1000, [delay_ns](int) {
      sunmt::timer_cancel(
          sunmt::timer_arm_callback(delay_ns, &NopTimer, nullptr, 0));
    });
  });
  return ns;
}

// One round trip of a 64-byte message between two unbound threads over a
// registered socketpair: bare forwarding at the smallest message.
double ProbeNetRoundtrip64Ns() {
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    return 0;
  }
  double ns = 0;
  if (sunmt::net_register(sv[0]) == 0 && sunmt::net_register(sv[1]) == 0) {
    sunmt::thread_id_t echo = sunmt::thread_create(nullptr, 0, &EchoMain,
                                                   &sv[1], sunmt::THREAD_WAIT);
    RunUnbound([&] {
      char msg[64];
      memset(msg, 'p', sizeof(msg));
      ns = MedianPerOpNs(20, 1000, [&](int) {
        WriteFull(sv[0], msg, sizeof(msg));
        ReadFull(sv[0], msg, sizeof(msg));
      });
    });
    shutdown(sv[0], SHUT_RDWR);  // the echo thread reads EOF and exits
    sunmt::thread_wait(echo);
  }
  sunmt::net_unregister(sv[0]);
  sunmt::net_unregister(sv[1]);
  close(sv[0]);
  close(sv[1]);
  return ns;
}

// HttpParser Feed + Next over the generator's exact request bytes
// (connection 0's stream).
double ProbeParseNs(const Keyspace& ks, bool close) {
  constexpr int kRequests = 1000;
  std::vector<std::string> reqs;
  KeyStream stream(ks.seed, 0, ks.sizes.size());
  for (int i = 0; i < kRequests; ++i) {
    char buf[256];
    size_t n = FormatRequest(stream.Next(), MakeReqId(0, i), close, buf, sizeof(buf));
    reqs.emplace_back(buf, n);
  }
  double ns = 0;
  RunUnbound([&] {
    sunmt::HttpParser parser(sunmt::HttpParser::kRequest);
    sunmt::HttpMessage msg;
    ns = MedianPerOpNs(30, kRequests, [&](int i) {
      parser.Feed(reqs[i].data(), reqs[i].size());
      if (parser.Next(&msg) != sunmt::HttpParser::kMessage) {
        parser.Reset();
      }
    });
  });
  return ns;
}

void ProbeCache(const Keyspace& ks, size_t cache_bytes, double* lookup_ns,
                double* insert_ns) {
  const size_t nkeys = ks.sizes.size();
  const int ops = nkeys > kHitKeys ? 20000 : 100000;
  std::vector<std::string> targets;
  for (uint32_t k = 0; k < nkeys; ++k) {
    targets.push_back(TargetFor(k));
  }
  RunUnbound([&] {
    sunmt::HttpCache cache(16, cache_bytes);
    KeyStream stream(ks.seed, 0, nkeys);
    int64_t lookup_total = 0, insert_total = 0;
    int inserts = 0;
    for (int i = 0; i < ops; ++i) {
      uint32_t key = stream.Next();
      int64_t t0 = MonotonicNowNs();
      bool hit = cache.Lookup(targets[key]) != nullptr;
      lookup_total += MonotonicNowNs() - t0;
      if (!hit) {
        sunmt::HttpCache::Entry entry;
        entry.content_type = "application/octet-stream";
        entry.body = MakeBody(ks, key);
        int64_t t1 = MonotonicNowNs();
        cache.Insert(targets[key], std::move(entry));
        insert_total += MonotonicNowNs() - t1;
        ++inserts;
      }
    }
    *lookup_ns = static_cast<double>(lookup_total) / ops;
    *insert_ns = inserts > 0 ? static_cast<double>(insert_total) / inserts : 0.0;
  });
}

}  // namespace

LayerSnapshot LayerSnapshot::Take() {
  LayerSnapshot s;
  sunmt::SchedStatsSnapshot st = sunmt::SnapshotSchedStats();
  s.dispatches = st.dispatches;
  s.wakes = st.wakes;
  s.notify_wakes = st.notify_wakes;
  s.notify_throttled = st.notify_throttled;
  s.steals = st.steals;
  s.threads_created = st.threads_created;
  std::vector<sunmt::LwpSnapshot> lwps;
  sunmt::SnapshotLwps(&lwps);
  for (const sunmt::LwpSnapshot& l : lwps) {
    s.lwps.push_back({l.id, l.user_ns, l.system_wait_ns, l.kernel_calls});
  }
  s.lwp_count = sunmt::LwpRegistry::Count();
  s.objcache_fallbacks = sunmt::ObjectCacheFallbackAllocs();
  s.at_ns = MonotonicNowNs();
  return s;
}

void AddCounterLayerMetrics(const LayerSnapshot& before,
                            const LayerSnapshot& after, double reqs,
                            Output* out) {
  auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  out->Add("core.dispatches_per_req", Per(d(before.dispatches, after.dispatches), reqs), "count/req");
  out->Add("core.wakes_per_req", Per(d(before.wakes, after.wakes), reqs), "count/req");
  out->Add("core.notify_wakes_per_req",
           Per(d(before.notify_wakes, after.notify_wakes), reqs), "count/req");
  out->Add("core.notify_throttled_per_req",
           Per(d(before.notify_throttled, after.notify_throttled), reqs), "count/req");
  out->Add("core.steals_per_req", Per(d(before.steals, after.steals), reqs), "count/req");
  out->Add("core.threads_created_per_req",
           Per(d(before.threads_created, after.threads_created), reqs), "count/req");
  // LWP usage by id: an LWP that started during the phase counts in full,
  // one that ended during it is lost (bound threads on paper_fig56 only).
  std::map<int, LayerSnapshot::LwpUsage> start;
  for (const auto& l : before.lwps) {
    start[l.id] = l;
  }
  double user = 0, wait = 0, calls = 0;
  for (const auto& l : after.lwps) {
    LayerSnapshot::LwpUsage s = {l.id, 0, 0, 0};
    if (auto it = start.find(l.id); it != start.end()) {
      s = it->second;
    }
    user += static_cast<double>(l.user_ns - s.user_ns);
    wait += static_cast<double>(l.wait_ns - s.wait_ns);
    calls += static_cast<double>(l.kernel_calls - s.kernel_calls);
  }
  double wall = static_cast<double>(after.at_ns - before.at_ns);
  double lwps = static_cast<double>(after.lwps.size());
  out->Add("lwp.count", static_cast<double>(after.lwp_count), "count");
  out->Add("lwp.user_ns_per_req", Per(user, reqs), "ns/req");
  out->Add("lwp.kernel_calls_per_req", Per(calls, reqs), "count/req");
  out->Add("lwp.kernel_wait_frac", lwps * wall > 0 ? wait / (lwps * wall) : 0.0, "ratio");
  out->Add("objcache.fallback_allocs_per_req",
           Per(d(before.objcache_fallbacks, after.objcache_fallbacks), reqs),
           "count/req");
}

void AddHistogramLayerMetrics(Output* out) {
  sunmt::HistogramSnapshot dispatch = Hist(LatencyStat::kDispatchLatency);
  out->Add("core.dispatch_wait_p50_ns", dispatch.Quantile(0.50), "ns");
  out->Add("core.dispatch_wait_p99_ns", dispatch.Quantile(0.99), "ns");
  out->Add("core.runq_depth_p99", Hist(LatencyStat::kRunQueueDepth).Quantile(0.99), "count");
  out->Add("sync.rwlock_wait_p99_ns", Hist(LatencyStat::kRwlockWaitLocal).Quantile(0.99), "ns");
  sunmt::HistogramSnapshot mutex = Hist(LatencyStat::kMutexWaitAdaptive);
  sunmt::HistogramSnapshot spin = Hist(LatencyStat::kMutexWaitAdaptiveSpin);
  out->Add("sync.mutex_wait_p99_ns", mutex.Quantile(0.99), "ns");
  out->Add("sync.mutex_spin_ratio", Per(static_cast<double>(spin.count),
                                        static_cast<double>(mutex.count)), "ratio");
  out->Add("sync.sema_wait_p50_ns", Hist(LatencyStat::kSemaWaitLocal).Quantile(0.50), "ns");
  const bool uring = strcmp(sunmt::net_backend_name(), "uring") == 0;
  sunmt::HistogramSnapshot park = Hist(uring ? LatencyStat::kNetCompletionWait
                                             : LatencyStat::kNetReadinessWait);
  out->Add("net.park_wait_p50_ns", park.Quantile(0.50), "ns");
  out->Add("net.park_wait_p99_ns", park.Quantile(0.99), "ns");
  out->Add("net.events_per_wake",
           Hist(uring ? LatencyStat::kNetUringSqeBatch : LatencyStat::kNetEpollBatch).Mean(),
           "count");
}

void AddProbeLayerMetrics(const Keyspace& ks, size_t cache_bytes, bool close,
                          int64_t timer_delay_ns, Output* out) {
  out->Add("core.create_join_ns", ProbeCreateJoinNs(), "ns");
  out->Add("timer.arm_cancel_ns", ProbeTimerArmCancelNs(timer_delay_ns), "ns");
  out->Add("net.roundtrip_64b_ns", ProbeNetRoundtrip64Ns(), "ns");
  out->Add("http.parse_ns", ProbeParseNs(ks, close), "ns");
  double lookup = 0, insert = 0;
  ProbeCache(ks, cache_bytes, &lookup, &insert);
  out->Add("http.cache_lookup_ns", lookup, "ns");
  out->Add("http.cache_insert_ns", insert, "ns");
}

}  // namespace perfbench
