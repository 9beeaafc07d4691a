#include "perfbench/loadgen.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstring>
#include <numeric>

#include "src/util/clock.h"  // header-only: no runtime dependency

namespace perfbench {
namespace {

using sunmt::MonotonicNowNs;

constexpr int kPhaseWarm = 0;
constexpr int kPhaseMeasure = 1;
constexpr int kPhaseStop = 2;
// A request with no complete response by then counts as short.
constexpr int64_t kRequestTimeoutNs = 5'000'000'000;
// Unmeasured requests per connection after set-up, so the measured phase
// starts with the server's caches and the kernel's socket paths warm.
constexpr int kHitWarmupPerConn = 100;
constexpr int kChurnWarmupPerConn = 50;
// Latency samples kept per thread and slice: far above what one thread
// completes in a one-second slice.
constexpr size_t kSliceCapacity = 1 << 18;
// Bounds the traced run's memory: about 13 s of http_hit per thread.
constexpr size_t kMaxRecordsPerThread = 400'000;

int64_t ClockNs(clockid_t clock) {
  struct timespec ts;
  if (clock_gettime(clock, &ts) != 0) {
    return 0;
  }
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

bool SendAll(int fd, const char* p, size_t n) {
  while (n > 0) {
    ssize_t w = send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) {
      continue;
    }
    if (w <= 0) {
      return false;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

// A connected loopback TCP socket, or -1.
int ConnectTo(uint16_t port, bool reset_on_close) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (reset_on_close) {
    // Close with RST: no TIME_WAIT, so a long churn run cannot exhaust the
    // ephemeral ports.
    struct linger lg = {1, 0};
    setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int rc;
  do {
    rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

struct LoadGenerator::Worker {
  struct Conn {
    Conn(uint64_t seed, int idx, size_t nkeys) : index(idx), stream(seed, idx, nkeys) {}
    int index;
    KeyStream stream;
    int fd = -1;
    uint64_t seq = 0;
    int made = 0;  // requests started in the current Loop
    bool busy = false;
    bool measured = false;
    bool traced = false;
    int64_t deadline = 0;
    RequestRecord rec;
    ResponseChecker checker;
    std::string scratch;  // expected churn body
  };

  LoadGenerator* gen;
  int index;
  pthread_t tid{};
  bool started = false;
  clockid_t cpu_clock{};
  std::atomic<bool> done{false};
  std::atomic<int64_t> set_up_ns{0};
  std::atomic<int64_t> final_cpu_ns{0};
  std::atomic<uint64_t> completed{0};
  std::vector<Conn> conns;
  SlicedPercentiles latency{kSliceCapacity};
  int slice = 0;
  Tally tally;
  Tally warm_tally;
  std::vector<RequestRecord> records;
  std::string error;

  bool churn() const { return gen->config_.kind == WorkloadKind::kHttpChurn; }

  void Run();
  void Loop(Conn* const* cs, int n, int budget, const std::vector<uint32_t>* keys);
  void StartRequest(Conn* c, const std::vector<uint32_t>* keys);
  void Finish(Conn* c, Verdict v, int64_t now);
};

void LoadGenerator::Worker::StartRequest(Conn* c,
                                         const std::vector<uint32_t>* keys) {
  const GenConfig& cfg = gen->config_;
  uint32_t key = keys != nullptr ? (*keys)[c->made] : c->stream.Next();
  ++c->made;
  const char* expected;
  size_t expected_len = cfg.keys->sizes[key];
  if (churn()) {
    c->scratch.resize(expected_len);
    FillBody(cfg.keys->seed, key, expected_len, c->scratch.data());
    expected = c->scratch.data();
  } else {
    expected = gen->hit_bodies_[key].data();
  }
  char req[256];
  uint64_t id = MakeReqId(c->index, c->seq++);
  size_t len = FormatRequest(key, id, churn(), req, sizeof(req));
  c->measured = gen->phase_.load(std::memory_order_acquire) == kPhaseMeasure;
  c->rec = RequestRecord{};
  c->rec.id = id;
  c->traced = cfg.tracing != nullptr && cfg.tracing->load(std::memory_order_relaxed);
  c->busy = true;
  c->rec.start_ns = MonotonicNowNs();
  if (c->fd < 0) {
    c->fd = ConnectTo(cfg.port, churn());
    if (c->fd < 0) {
      Finish(c, Verdict::kRefused, MonotonicNowNs());
      return;
    }
  }
  c->rec.sent_ns = churn() ? MonotonicNowNs() : c->rec.start_ns;
  if (!SendAll(c->fd, req, len)) {
    Finish(c, Verdict::kRefused, MonotonicNowNs());
    return;
  }
  c->checker.Begin(expected, expected_len);
  c->deadline = MonotonicNowNs() + kRequestTimeoutNs;
}

void LoadGenerator::Worker::Finish(Conn* c, Verdict v, int64_t now) {
  c->busy = false;
  if (c->measured) {
    tally.Count(v);
    if (v == Verdict::kOk) {
      int s = gen->slice_.load(std::memory_order_relaxed);
      if (s != slice) {
        latency.EndSlice(slice);
        slice = s;
      }
      latency.Add(static_cast<uint32_t>(
          std::min<int64_t>(now - c->rec.start_ns, UINT32_MAX)));
      if (c->traced && records.size() < kMaxRecordsPerThread) {
        c->rec.end_ns = now;
        records.push_back(c->rec);
      }
      completed.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    warm_tally.Count(v);
  }
  // A churn connection carries one request; a keep-alive one is reopened
  // after any failure, since its byte stream can no longer be trusted.
  if (c->fd >= 0 && (churn() || v != Verdict::kOk)) {
    close(c->fd);
    c->fd = -1;
  }
}

// Runs requests on cs[0..n) until each has started `budget` of them (budget
// < 0: until the phase is stop). `keys`, if given, is the key of each request
// in order, instead of the connection's stream.
void LoadGenerator::Worker::Loop(Conn* const* cs, int n, int budget,
                                 const std::vector<uint32_t>* keys) {
  auto more = [&](const Conn* c) {
    return budget >= 0 ? c->made < budget
                       : gen->phase_.load(std::memory_order_acquire) != kPhaseStop;
  };
  for (int i = 0; i < n; ++i) {
    cs[i]->made = 0;
    if (more(cs[i])) {
      StartRequest(cs[i], keys);
    }
  }
  char buf[64 * 1024];
  struct pollfd pfds[kConnsPerThread];
  Conn* polled[kConnsPerThread];
  for (;;) {
    int k = 0;
    for (int i = 0; i < n; ++i) {
      if (cs[i]->busy) {
        pfds[k] = {cs[i]->fd, POLLIN, 0};
        polled[k++] = cs[i];
      }
    }
    if (k == 0) {
      return;
    }
    int rc = poll(pfds, static_cast<nfds_t>(k), 50);
    if (rc < 0 && errno != EINTR) {
      error = std::string("poll: ") + strerror(errno);
      return;
    }
    int64_t now = MonotonicNowNs();
    for (int j = 0; j < k; ++j) {
      Conn* c = polled[j];
      Verdict v = Verdict::kPending;
      if (rc > 0 && pfds[j].revents != 0) {
        ssize_t r = recv(c->fd, buf, sizeof(buf), 0);
        if (r > 0) {
          v = c->checker.Feed(buf, static_cast<size_t>(r));
        } else if (r == 0 || (errno != EINTR && errno != EAGAIN)) {
          v = c->checker.Eof();
        }
        if (v != Verdict::kPending) {
          now = MonotonicNowNs();
        }
      }
      if (v == Verdict::kPending && now > c->deadline) {
        v = c->checker.Eof();
      }
      if (v != Verdict::kPending) {
        Finish(c, v, now);
        if (v != Verdict::kRefused && more(c)) {
          StartRequest(c, keys);
        }
      }
    }
  }
}

void LoadGenerator::Worker::Run() {
  const GenConfig& cfg = gen->config_;
  size_t nkeys = cfg.keys->sizes.size();
  conns.reserve(kConnsPerThread);
  for (int i = 0; i < kConnsPerThread; ++i) {
    conns.emplace_back(cfg.keys->seed, index * kConnsPerThread + i, nkeys);
  }
  Conn* all[kConnsPerThread];
  for (int i = 0; i < kConnsPerThread; ++i) {
    all[i] = &conns[i];
  }
  if (!churn()) {
    for (Conn& c : conns) {
      c.fd = ConnectTo(cfg.port, false);
      if (c.fd < 0) {
        error = std::string("connect: ") + strerror(errno);
      }
    }
    if (index == 0 && error.empty()) {
      // Every key once, in order, so the cache holds the working set before
      // anything is measured.
      std::vector<uint32_t> every(nkeys);
      std::iota(every.begin(), every.end(), 0u);
      Loop(all, 1, static_cast<int>(nkeys), &every);
    }
  }
  set_up_ns.store(MonotonicNowNs(), std::memory_order_release);
  if (error.empty()) {
    Loop(all, kConnsPerThread, churn() ? kChurnWarmupPerConn : kHitWarmupPerConn,
         nullptr);
  }
  gen->warm_threads_.fetch_add(1, std::memory_order_acq_rel);
  int phase;
  while ((phase = gen->phase_.load(std::memory_order_acquire)) == kPhaseWarm) {
    gen->phase_.wait(kPhaseWarm, std::memory_order_acquire);
  }
  if (phase == kPhaseMeasure && error.empty()) {
    Loop(all, kConnsPerThread, -1, nullptr);
    if (gen->slice_.load(std::memory_order_relaxed) != slice) {
      latency.EndSlice(slice);  // the last slice, complete
    } else {
      latency.Discard();  // stragglers completing after the last slice
    }
  }
  for (Conn& c : conns) {
    if (c.fd >= 0) {
      close(c.fd);
      c.fd = -1;
    }
  }
  final_cpu_ns.store(ClockNs(CLOCK_THREAD_CPUTIME_ID), std::memory_order_release);
  done.store(true, std::memory_order_release);
}

void* LoadGenerator::WorkerMain(void* arg) {
  static_cast<Worker*>(arg)->Run();
  return nullptr;
}

LoadGenerator::LoadGenerator(const GenConfig& config) : config_(config) {
  if (config_.kind != WorkloadKind::kHttpChurn) {
    for (uint32_t k = 0; k < config_.keys->sizes.size(); ++k) {
      hit_bodies_.push_back(MakeBody(*config_.keys, k));
    }
  }
}

LoadGenerator::~LoadGenerator() {
  if (!joined_) {
    Stop(60'000'000'000);
  }
}

bool LoadGenerator::Start() {
  sigset_t all, old;
  sigfillset(&all);
  pthread_sigmask(SIG_BLOCK, &all, &old);  // inherited by the workers
  joined_ = false;
  for (int i = 0; i < kThreads; ++i) {
    auto w = std::make_unique<Worker>();
    w->gen = this;
    w->index = i;
    if (pthread_create(&w->tid, nullptr, &WorkerMain, w.get()) != 0) {
      error_ = "pthread_create failed";
      break;
    }
    w->started = true;
    pthread_getcpuclockid(w->tid, &w->cpu_clock);
    workers_.push_back(std::move(w));
  }
  pthread_sigmask(SIG_SETMASK, &old, nullptr);
  return error_.empty();
}

bool LoadGenerator::WaitWarm(int64_t timeout_ns) {
  int64_t deadline = MonotonicNowNs() + timeout_ns;
  while (warm_threads_.load(std::memory_order_acquire) <
         static_cast<int>(workers_.size())) {
    if (MonotonicNowNs() > deadline) {
      error_ = "warm-up timed out";
      return false;
    }
    struct timespec ts = {0, 1000000};
    nanosleep(&ts, nullptr);
  }
  for (const auto& w : workers_) {
    if (!w->error.empty()) {
      error_ = w->error;
      return false;
    }
    if (w->warm_tally.failed() != 0) {
      error_ = "warm-up request failed";
      return false;
    }
  }
  return error_.empty();
}

int64_t LoadGenerator::set_up_ns() const {
  int64_t last = 0;
  for (const auto& w : workers_) {
    last = std::max(last, w->set_up_ns.load(std::memory_order_acquire));
  }
  return last;
}

void LoadGenerator::BeginMeasure() {
  phase_.store(kPhaseMeasure, std::memory_order_release);
  phase_.notify_all();
}

uint64_t LoadGenerator::completed() const {
  uint64_t n = 0;
  for (const auto& w : workers_) {
    n += w->completed.load(std::memory_order_relaxed);
  }
  return n;
}

int64_t LoadGenerator::CpuNs() const {
  int64_t total = 0;
  for (const auto& w : workers_) {
    total += w->done.load(std::memory_order_acquire)
                 ? w->final_cpu_ns.load(std::memory_order_acquire)
                 : ClockNs(w->cpu_clock);
  }
  return total;
}

bool LoadGenerator::Stop(int64_t timeout_ns) {
  phase_.store(kPhaseStop, std::memory_order_release);
  phase_.notify_all();
  struct timespec deadline;
  clock_gettime(CLOCK_REALTIME, &deadline);
  deadline.tv_sec += static_cast<time_t>(timeout_ns / 1000000000);
  bool ok = true;
  for (auto& w : workers_) {
    if (w->started && pthread_timedjoin_np(w->tid, nullptr, &deadline) != 0) {
      ok = false;
      error_ = "load generator thread did not finish";
      continue;
    }
    w->started = false;
    if (error_.empty() && !w->error.empty()) {
      error_ = w->error;
    }
    const SlicedPercentiles& l = w->latency;
    slice_latency_.insert(slice_latency_.end(), l.slices().begin(), l.slices().end());
    latency_samples_ += l.samples();
    tally_.Merge(w->tally);
    warm_tally_.Merge(w->warm_tally);
    records_.insert(records_.end(), w->records.begin(), w->records.end());
  }
  joined_ = ok;
  return ok;
}

}  // namespace perfbench
