// Seeded inputs and output checks for the benchmark, with no dependency on the
// sunmt runtime: the load generator (loadgen.h) runs on plain kernel threads
// and must never enter the runtime, so everything it needs lives here.
//
//   * Keyspace: the body size of every key, drawn from the seed.
//   * FillBody: the body a key serves, a pure function of (seed, key, size);
//     the server's handler builds it and the generator checks it.
//   * KeyStream / FormatRequest: the byte-exact request stream of one client
//     connection.
//   * ResponseChecker / Tally: per-response verdicts and failure counting.
//   * Percentile / SlicedPercentiles: exact percentiles, per slice of a run,
//     in memory fixed up front so the generator does not bias the process's
//     peak RSS by the request count.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// SplitMix64 finalizer: the one hash every seeded choice goes through.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix64(seed)) {}
  uint64_t Next() { return Mix64(state_++); }
  // Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  double Unit() { return static_cast<double>(Next() >> 11) * (1.0 / (1ull << 53)); }

 private:
  uint64_t state_;
};

enum class WorkloadKind { kHttpHit, kHttpChurn, kPaperFig56 };

// Returns false for an unknown name.
bool ParseWorkload(const std::string& name, WorkloadKind* out);
const char* WorkloadName(WorkloadKind kind);

// Workload shapes (see README.md for why).
inline constexpr int kHitKeys = 64;
inline constexpr uint32_t kHitBodyBytes = 1024;
inline constexpr size_t kHitCacheBytes = 4u << 20;  // holds all 64 keys
inline constexpr size_t kChurnCacheBytes = 2u << 20;
inline constexpr int kChurnKeyspaceFactor = 8;  // keyspace bytes / cache budget
inline constexpr uint32_t kChurnMinBody = 256;
inline constexpr uint32_t kChurnMaxBody = 32 * 1024;

struct Keyspace {
  uint64_t seed = 0;
  std::vector<uint32_t> sizes;  // body bytes of key i
  uint64_t total_bytes = 0;
};

// http_hit: kHitKeys keys of kHitBodyBytes each.
Keyspace MakeHitKeyspace(uint64_t seed);
// http_churn: log-uniform sizes in [kChurnMinBody, kChurnMaxBody] until the
// bodies total kChurnKeyspaceFactor x kChurnCacheBytes.
Keyspace MakeChurnKeyspace(uint64_t seed);
Keyspace MakeKeyspace(WorkloadKind kind, uint64_t seed);

// Writes the `size`-byte body of `key` (printable bytes) into out[0, size).
void FillBody(uint64_t seed, uint32_t key, size_t size, char* out);
std::string MakeBody(const Keyspace& ks, uint32_t key);

// The request target for a key ("/k/<key>") and back; ParseTarget returns
// false for anything that is not a valid key of `nkeys`.
std::string TargetFor(uint32_t key);
bool ParseTarget(const std::string& target, size_t nkeys, uint32_t* key);

// One request: GET /k/<key> with an X-Req-Id header; `close` adds
// "Connection: close". Returns the byte count written (0 if cap is too small).
size_t FormatRequest(uint32_t key, uint64_t req_id, bool close, char* buf,
                     size_t cap);

// Request ids are unique per run: the client connection in the high bits,
// the connection's sequence number in the low 40.
inline uint64_t MakeReqId(int conn_index, uint64_t seq) {
  return (static_cast<uint64_t>(conn_index) << 40) | seq;
}

// The key sequence of one client connection: uniform over the keyspace,
// seeded by (seed, conn_index) so every connection's stream is reproducible
// regardless of how the connections interleave.
class KeyStream {
 public:
  KeyStream(uint64_t seed, int conn_index, size_t nkeys)
      : rng_(seed * 0x100000001b3ull + static_cast<uint64_t>(conn_index) + 1),
        nkeys_(nkeys) {}
  uint32_t Next() { return static_cast<uint32_t>(rng_.Below(nkeys_)); }

 private:
  Rng rng_;
  size_t nkeys_;
};

// What happened to one request.
enum class Verdict {
  kPending,     // response incomplete; feed more bytes
  kOk,          // 200, right Content-Length, exactly the expected body
  kRefused,     // connect() or send() failed
  kShort,       // EOF or timeout before the response was complete
  kBadStatus,   // status other than 200
  kBadLength,   // missing or wrong Content-Length
  kWrongBody,   // body bytes differ from the key's body
  kMalformed,   // unparseable head, or bytes beyond the response
};

// Incremental check of one HTTP/1.1 response against the expected body. It
// parses independently of src/http, so a server-side parser or formatter bug
// cannot hide behind the same code on the client side.
class ResponseChecker {
 public:
  // Starts a new response; `expected` must stay valid until the verdict.
  void Begin(const char* expected, size_t expected_len);

  // Consumes bytes; returns kPending until the response is complete or wrong.
  // Bytes past the end of a complete response make it kMalformed.
  Verdict Feed(const char* data, size_t len);

  // The connection hit EOF (or the request timed out) before completion.
  Verdict Eof() const { return Verdict::kShort; }

 private:
  Verdict ParseHead();

  const char* expected_ = nullptr;
  size_t expected_len_ = 0;
  std::string head_;
  bool in_body_ = false;
  size_t body_seen_ = 0;
  bool done_ = false;
};

// Request outcomes of one generator thread (or of a whole run, merged).
struct Tally {
  uint64_t ok = 0;
  uint64_t refused = 0;
  uint64_t short_reads = 0;
  uint64_t wrong = 0;  // bad status, length, body, or malformed

  void Count(Verdict v);
  void Merge(const Tally& o);
  uint64_t attempted() const { return ok + failed(); }
  uint64_t failed() const { return refused + short_reads + wrong; }
  // failed / attempted; 0 when nothing was attempted.
  double fail_ratio() const;
};

// Percentile q in [0, 1] of *v by linear interpolation between order
// statistics (numpy's default); reorders *v; 0 when empty.
template <typename T>
double Percentile(std::vector<T>* v, double q) {
  if (v->empty()) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  double rank = q * static_cast<double>(v->size() - 1);
  size_t lo = static_cast<size_t>(rank);
  std::nth_element(v->begin(), v->begin() + lo, v->end());
  double x = static_cast<double>((*v)[lo]);
  if (lo + 1 == v->size()) {
    return x;
  }
  double next = static_cast<double>(*std::min_element(v->begin() + lo + 1, v->end()));
  return x + (rank - static_cast<double>(lo)) * (next - x);
}

// The latency percentiles of one slice of a run.
struct SliceLatency {
  int slice;       // index of the slice
  size_t samples;  // samples kept for it
  double p50;
  double p99;
};

// The p50 and p99 of a stream of samples, one slice at a time: a run reports
// the median over its slices, so a burst of interference on a shared machine
// moves one slice rather than the run's figure.
class SlicedPercentiles {
 public:
  // A slice needs this many samples for its p99 to have ten beyond it.
  static constexpr size_t kMinSamples = 1000;

  // Room for `capacity` samples per slice, allocated and touched up front so
  // the memory used does not depend on the request rate; samples beyond it
  // are counted but not kept.
  explicit SlicedPercentiles(size_t capacity);

  void Add(uint32_t value) {
    if (buf_.size() < capacity_) {
      buf_.push_back(value);
    }
    ++samples_;
  }
  // Closes the current slice as slice `index`; one with fewer than
  // kMinSamples samples is dropped.
  void EndSlice(int index);
  // Drops the samples of an unfinished slice.
  void Discard() { buf_.clear(); }

  const std::vector<SliceLatency>& slices() const { return slices_; }
  uint64_t samples() const { return samples_; }

 private:
  std::vector<uint32_t> buf_;
  size_t capacity_;
  std::vector<SliceLatency> slices_;
  uint64_t samples_ = 0;
};

// The slices a run's medians use: the quieter half, those in which the
// hypervisor took no more of the machine's CPU time from this guest
// (steal[i], from /proc/stat) than in the run's median slice.
std::vector<bool> QuietSlices(const std::vector<double>& steal);

// Median of values[i] over the slices i in `use`.
double MedianOver(const std::vector<double>& values, const std::vector<bool>& use);
// Median of one percentile over the SliceLatency entries whose slice is in
// `use` (several entries may share a slice: one per generator thread).
double MedianOver(const std::vector<SliceLatency>& slices, double SliceLatency::*field,
                  const std::vector<bool>& use);

// Median of a vector; 0 when empty.
inline double Median(std::vector<double> v) { return Percentile(&v, 0.5); }

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
