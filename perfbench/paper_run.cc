// paper_fig56: the paper's Figure 5 (thread create) and Figure 6 (semaphore
// handshake) rows, measured the way bench/fig5_thread_create.cc and
// bench/fig6_sync.cc measure them, but as rounds of one batch per row so a
// run yields a median over many batches and a noisy second on a shared box
// touches every row a little instead of one row a lot.

#include <dirent.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <functional>
#include <utility>
#include <vector>

#include "perfbench/bench.h"
#include "src/core/runtime.h"
#include "src/core/thread.h"
#include "src/ipc/fork1.h"
#include "src/ipc/shared_arena.h"
#include "src/sync/sync.h"
#include "src/util/clock.h"

namespace perfbench {
namespace {

constexpr int kCreateUnboundBatch = 64;  // below the stack cache, as fig5
constexpr int kCreateBoundBatch = 8;
constexpr int kSyncUnboundRounds = 1000;
constexpr int kSyncBoundRounds = 100;
constexpr int kSyncSharedRounds = 100;
constexpr int kTimedRoundTrips = PaperResult::kTimedRoundTrips;

void NopThread(void*) {}

// Pins every kernel thread of the process to `cpu` and returns each one's
// previous mask. The caller alone is not enough: an unbound thread of the rows
// may run on any pool LWP, and on the HTTP workloads the server's idle pool
// LWPs would otherwise take some of them onto other CPUs in some runs and not
// in others.
std::vector<std::pair<pid_t, cpu_set_t>> PinProcess(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  std::vector<std::pair<pid_t, cpu_set_t>> saved;
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) {
    return saved;
  }
  while (const dirent* e = readdir(d)) {
    pid_t tid = static_cast<pid_t>(atoi(e->d_name));
    cpu_set_t mask;
    if (tid > 0 && sched_getaffinity(tid, sizeof(mask), &mask) == 0 &&
        sched_setaffinity(tid, sizeof(one), &one) == 0) {
      saved.emplace_back(tid, mask);
    }
  }
  closedir(d);
  return saved;
}

// Times only the thread_create() calls; continue + reap happen untimed, so
// the first dispatch is never included (the paper's method).
double CreateBatchUs(int n, int flags, std::string* error) {
  sunmt::thread_id_t ids[kCreateUnboundBatch];
  int64_t total_ns = 0;
  for (int i = 0; i < n; ++i) {
    int64_t start = sunmt::MonotonicNowNs();
    ids[i] = sunmt::thread_create(nullptr, 0, &NopThread, nullptr,
                                  flags | sunmt::THREAD_STOP | sunmt::THREAD_WAIT);
    total_ns += sunmt::MonotonicNowNs() - start;
    if (ids[i] == 0) {
      *error = "thread_create failed";
      n = i;
      break;
    }
  }
  for (int i = 0; i < n; ++i) {
    sunmt::thread_continue(ids[i]);
  }
  for (int i = 0; i < n; ++i) {
    if (sunmt::thread_wait(ids[i]) != ids[i]) {
      *error = "thread_wait failed";
    }
  }
  return n == 0 ? 0.0 : static_cast<double>(total_ns) / n / 1e3;
}

// Two threads handshaking through s1/s2 (fig6's thread1/thread2); `go` and
// `done` hand one batch at a time to the timing thread, outside its timer.
struct SyncPair {
  explicit SyncPair(int rounds) : rounds_per_batch(rounds) {
    for (sunmt::sema_t* s : {&s1, &s2, &go, &done}) {
      sunmt::sema_init(s, 0, 0, nullptr);
    }
  }
  sunmt::sema_t s1, s2, go, done;
  const int rounds_per_batch;
  // Set for a batch of kTimedRoundTrips round trips timed one by one.
  SlicedPercentiles* each = nullptr;
  std::atomic<bool> stop{false};
  int64_t last_ns = 0;
  uint64_t timer_rounds = 0;
  uint64_t partner_rounds = 0;
  sunmt::thread_id_t timer = 0, partner = 0;
};

void PairTimer(void* arg) {
  auto* p = static_cast<SyncPair*>(arg);
  for (;;) {
    sunmt::sema_p(&p->go);
    if (p->stop.load(std::memory_order_acquire)) {
      break;
    }
    const int n = p->each != nullptr ? kTimedRoundTrips : p->rounds_per_batch;
    int64_t start = sunmt::MonotonicNowNs();
    if (p->each != nullptr) {
      for (int i = 0; i < n; ++i) {
        int64_t t0 = sunmt::MonotonicNowNs();
        sunmt::sema_v(&p->s1);
        sunmt::sema_p(&p->s2);
        p->each->Add(static_cast<uint32_t>(sunmt::MonotonicNowNs() - t0));
      }
    } else {
      for (int i = 0; i < n; ++i) {
        sunmt::sema_v(&p->s1);
        sunmt::sema_p(&p->s2);
      }
    }
    p->last_ns = sunmt::MonotonicNowNs() - start;
    p->timer_rounds += static_cast<uint64_t>(n);
    sunmt::sema_v(&p->done);
  }
  sunmt::sema_v(&p->s1);  // the partner wakes, sees stop, and exits
}

void PairPartner(void* arg) {
  auto* p = static_cast<SyncPair*>(arg);
  for (;;) {
    sunmt::sema_p(&p->s1);
    if (p->stop.load(std::memory_order_acquire)) {
      break;
    }
    ++p->partner_rounds;
    sunmt::sema_v(&p->s2);
  }
}

bool StartPair(SyncPair* p, int flags) {
  p->partner = sunmt::thread_create(nullptr, 0, &PairPartner, p,
                                    flags | sunmt::THREAD_WAIT);
  p->timer = sunmt::thread_create(nullptr, 0, &PairTimer, p,
                                  flags | sunmt::THREAD_WAIT);
  return p->partner != 0 && p->timer != 0;
}

// Per-synchronization time of one batch, in microseconds: half a round trip.
double PairBatchUs(SyncPair* p) {
  sunmt::sema_v(&p->go);
  sunmt::sema_p(&p->done);
  return static_cast<double>(p->last_ns) / p->rounds_per_batch / 2 / 1e3;
}

// One batch of round trips each timed into *each; returns the batch's time.
int64_t PairTimedEachNs(SyncPair* p, SlicedPercentiles* each) {
  p->each = each;
  sunmt::sema_v(&p->go);
  sunmt::sema_p(&p->done);
  p->each = nullptr;
  return p->last_ns;
}

void StopPair(SyncPair* p) {
  p->stop.store(true, std::memory_order_release);
  sunmt::sema_v(&p->go);
  sunmt::thread_wait(p->timer);
  sunmt::thread_wait(p->partner);
}

// The cross-process pair: the semaphores live in an anonymous shared mapping
// inherited by a fork1() child (THREAD_SYNC_SHARED).
struct SharedHandshake {
  sunmt::sema_t s1;
  sunmt::sema_t s2;
  std::atomic<uint32_t> stop;
  std::atomic<uint64_t> child_rounds;
};

[[noreturn]] void SharedChild(SharedHandshake* h) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive a crashed parent
  for (;;) {
    sunmt::sema_p(&h->s1);
    if (h->stop.load(std::memory_order_acquire) != 0) {
      _exit(0);
    }
    h->child_rounds.fetch_add(1, std::memory_order_relaxed);
    sunmt::sema_v(&h->s2);
  }
}

double SharedBatchUs(SharedHandshake* h) {
  int64_t start = sunmt::MonotonicNowNs();
  for (int i = 0; i < kSyncSharedRounds; ++i) {
    sunmt::sema_v(&h->s1);
    sunmt::sema_p(&h->s2);
  }
  int64_t elapsed = sunmt::MonotonicNowNs() - start;
  return static_cast<double>(elapsed) / kSyncSharedRounds / 2 / 1e3;
}

}  // namespace

PaperResult RunPaperRows(double seconds, TraceSlicer* slicer,
                         const std::function<void(int64_t)>& on_start) {
  PaperResult r;
  // One CPU for the whole process, inherited by the bound threads and the
  // fork1 child it creates: the paper's rows come from a uniprocessor, and on
  // a multi-core box the kernel's placement of two bound LWPs (same CPU or
  // not) otherwise decides between two very different handshake costs.
  const auto saved = PinProcess(sched_getcpu());
  SyncPair unbound(kSyncUnboundRounds);
  SyncPair bound(kSyncBoundRounds);
  if (!StartPair(&unbound, 0) || !StartPair(&bound, sunmt::THREAD_BIND_LWP)) {
    r.error = "cannot start the handshake threads";
    return r;
  }
  sunmt::SharedArena arena = sunmt::SharedArena::CreateAnonymous(64 * 1024);
  auto* shared = arena.New<SharedHandshake>();
  sunmt::sema_init(&shared->s1, 0, sunmt::THREAD_SYNC_SHARED, nullptr);
  sunmt::sema_init(&shared->s2, 0, sunmt::THREAD_SYNC_SHARED, nullptr);
  pid_t child = sunmt::fork1();
  if (child == 0) {
    SharedChild(shared);
  }
  if (child < 0) {
    r.error = "fork1 failed";
  }

  std::vector<double> cu, cb, su, sb, ss;
  uint64_t shared_rounds = 0;
  // Time and process CPU of the current slice's timed-alone round trips.
  int64_t slice_ns = 0, slice_cpu_ns = 0;
  uint64_t slice_trips = 0;
  auto round = [&](bool timed) {
    double v[5] = {
        CreateBatchUs(kCreateUnboundBatch, 0, &r.error),
        CreateBatchUs(kCreateBoundBatch, sunmt::THREAD_BIND_LWP, &r.error),
        PairBatchUs(&unbound),
        PairBatchUs(&bound),
        SharedBatchUs(shared),
    };
    shared_rounds += kSyncSharedRounds;
    if (!timed) {
      return;
    }
    int64_t cpu = ProcessCpuNs();
    slice_ns += PairTimedEachNs(&unbound, &r.roundtrip_ns);
    slice_cpu_ns += ProcessCpuNs() - cpu;
    slice_trips += kTimedRoundTrips;
    r.roundtrips += kTimedRoundTrips;
    cu.push_back(v[0]);
    cb.push_back(v[1]);
    su.push_back(v[2]);
    sb.push_back(v[3]);
    ss.push_back(v[4]);
    ++r.rounds;
  };
  CpuTicks slice_ticks = CpuTicks::Read();
  auto end_slice = [&] {
    double n = static_cast<double>(slice_trips);
    CpuTicks ticks = CpuTicks::Read();
    r.roundtrip_ns.EndSlice(static_cast<int>(r.slice_roundtrips_per_s.size()));
    r.slice_roundtrips_per_s.push_back(n / (static_cast<double>(slice_ns) / 1e9));
    r.slice_cpu_us_per_roundtrip.push_back(static_cast<double>(slice_cpu_ns) / 1e3 / n);
    r.slice_steal.push_back(ticks.StealSince(slice_ticks));
    slice_ticks = ticks;
    slice_ns = slice_cpu_ns = 0;
    slice_trips = 0;
  };

  if (r.error.empty()) {
    round(false);  // warm-up: stack cache, LWP pool, every partner's first wake
    int64_t start = sunmt::MonotonicNowNs();
    if (on_start) {
      on_start(start);
    }
    if (slicer != nullptr) {
      slicer->Begin(start, 0);
    }
    slice_ticks = CpuTicks::Read();
    int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    while (r.error.empty() && sunmt::MonotonicNowNs() < deadline) {
      round(true);
      if (r.rounds % PaperResult::kRoundsPerSlice == 0) {
        end_slice();
      }
      if (slicer != nullptr) {
        slicer->Tick(sunmt::MonotonicNowNs(), r.rounds);
      }
    }
    if (r.slice_roundtrips_per_s.empty() && slice_trips > 0) {
      end_slice();  // a run too short for one full slice
    }
    r.roundtrip_ns.Discard();
    if (slicer != nullptr) {
      slicer->End(sunmt::MonotonicNowNs(), r.rounds);
    }
  }

  StopPair(&unbound);
  StopPair(&bound);
  if (child > 0) {
    shared->stop.store(1, std::memory_order_release);
    sunmt::sema_v(&shared->s1);
    int status = 0;
    waitpid(child, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      r.error = "handshake child did not exit cleanly";
    }
  }
  for (const auto& [tid, mask] : saved) {
    sched_setaffinity(tid, sizeof(mask), &mask);
  }
  // Every handshake must have completed its full round count on both sides.
  if (r.error.empty() && (unbound.timer_rounds != unbound.partner_rounds ||
                          bound.timer_rounds != bound.partner_rounds ||
                          shared->child_rounds.load() != shared_rounds)) {
    r.error = "a semaphore handshake lost rounds";
  }
  r.create_unbound_us = Median(cu);
  r.create_bound_us = Median(cb);
  r.sync_unbound_us = Median(su);
  r.sync_bound_us = Median(sb);
  r.sync_shared_us = Median(ss);
  return r;
}

}  // namespace perfbench
