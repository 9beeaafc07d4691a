#include "perfbench/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <strings.h>

#include <utility>

namespace perfbench {

bool ParseWorkload(const std::string& name, WorkloadKind* out) {
  for (WorkloadKind k : {WorkloadKind::kHttpHit, WorkloadKind::kHttpChurn,
                         WorkloadKind::kPaperFig56}) {
    if (name == WorkloadName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kHttpHit: return "http_hit";
    case WorkloadKind::kHttpChurn: return "http_churn";
    case WorkloadKind::kPaperFig56: return "paper_fig56";
  }
  return "?";
}

Keyspace MakeHitKeyspace(uint64_t seed) {
  Keyspace ks;
  ks.seed = seed;
  ks.sizes.assign(kHitKeys, kHitBodyBytes);
  ks.total_bytes = static_cast<uint64_t>(kHitKeys) * kHitBodyBytes;
  return ks;
}

Keyspace MakeChurnKeyspace(uint64_t seed) {
  Keyspace ks;
  ks.seed = seed;
  Rng rng(seed ^ 0x5a17e5ull);
  const double lo = std::log(static_cast<double>(kChurnMinBody));
  const double hi = std::log(static_cast<double>(kChurnMaxBody));
  const uint64_t target =
      static_cast<uint64_t>(kChurnKeyspaceFactor) * kChurnCacheBytes;
  while (ks.total_bytes < target) {
    double size = std::exp(lo + (hi - lo) * rng.Unit());
    uint32_t s = std::clamp(static_cast<uint32_t>(size), kChurnMinBody,
                            kChurnMaxBody);
    ks.sizes.push_back(s);
    ks.total_bytes += s;
  }
  return ks;
}

Keyspace MakeKeyspace(WorkloadKind kind, uint64_t seed) {
  return kind == WorkloadKind::kHttpChurn ? MakeChurnKeyspace(seed)
                                          : MakeHitKeyspace(seed);
}

void FillBody(uint64_t seed, uint32_t key, size_t size, char* out) {
  uint64_t base = Mix64(seed ^ (static_cast<uint64_t>(key) << 32));
  size_t i = 0;
  for (uint64_t block = 0; i < size; ++block) {
    uint64_t bits = Mix64(base + block);
    for (int b = 0; b < 8 && i < size; ++b, ++i, bits >>= 8) {
      out[i] = static_cast<char>('A' + (bits & 31));
    }
  }
}

std::string MakeBody(const Keyspace& ks, uint32_t key) {
  std::string body(ks.sizes[key], '\0');
  FillBody(ks.seed, key, body.size(), body.data());
  return body;
}

std::string TargetFor(uint32_t key) { return "/k/" + std::to_string(key); }

bool ParseTarget(const std::string& target, size_t nkeys, uint32_t* key) {
  if (target.size() < 4 || target.compare(0, 3, "/k/") != 0 ||
      target.size() > 3 + 9) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 3; i < target.size(); ++i) {
    char c = target[i];
    if (c < '0' || c > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  if (v >= nkeys) {
    return false;
  }
  *key = static_cast<uint32_t>(v);
  return true;
}

size_t FormatRequest(uint32_t key, uint64_t req_id, bool close, char* buf,
                     size_t cap) {
  int n = snprintf(buf, cap,
                   "GET /k/%u HTTP/1.1\r\nHost: perfbench\r\nX-Req-Id: %llu\r\n"
                   "%s\r\n",
                   key, static_cast<unsigned long long>(req_id),
                   close ? "Connection: close\r\n" : "");
  return n > 0 && static_cast<size_t>(n) < cap ? static_cast<size_t>(n) : 0;
}

void ResponseChecker::Begin(const char* expected, size_t expected_len) {
  expected_ = expected;
  expected_len_ = expected_len;
  head_.clear();
  in_body_ = false;
  body_seen_ = 0;
  done_ = false;
}

Verdict ResponseChecker::ParseHead() {
  // Status line: "HTTP/1.1 200 <reason>".
  if (head_.compare(0, 9, "HTTP/1.1 ") != 0 || head_.size() < 12) {
    return Verdict::kMalformed;
  }
  if (head_.compare(9, 3, "200") != 0) {
    return Verdict::kBadStatus;
  }
  // Header lines, case-insensitive name match on Content-Length.
  static constexpr char kName[] = "content-length:";
  constexpr size_t kNameLen = sizeof(kName) - 1;
  long long length = -1;
  size_t pos = head_.find("\r\n");
  while (pos != std::string::npos && pos + 2 < head_.size()) {
    size_t line = pos + 2;
    size_t end = head_.find("\r\n", line);
    if (end == std::string::npos) {
      break;
    }
    if (end - line > kNameLen &&
        strncasecmp(head_.data() + line, kName, kNameLen) == 0) {
      std::string value = head_.substr(line + kNameLen, end - line - kNameLen);
      char* stop = nullptr;
      length = strtoll(value.c_str(), &stop, 10);
      while (stop != nullptr && *stop == ' ') {
        ++stop;
      }
      if (stop == nullptr || *stop != '\0' || length < 0) {
        return Verdict::kBadLength;
      }
    }
    pos = end;
  }
  if (length < 0 || static_cast<size_t>(length) != expected_len_) {
    return Verdict::kBadLength;
  }
  return Verdict::kPending;
}

Verdict ResponseChecker::Feed(const char* data, size_t len) {
  if (done_) {
    return len == 0 ? Verdict::kOk : Verdict::kMalformed;
  }
  if (!in_body_) {
    size_t old = head_.size();
    head_.append(data, len);
    size_t end = head_.find("\r\n\r\n", old >= 3 ? old - 3 : 0);
    if (end == std::string::npos) {
      return head_.size() > 16 * 1024 ? Verdict::kMalformed : Verdict::kPending;
    }
    size_t body_start = end + 4;
    std::string rest = head_.substr(body_start);
    head_.resize(end + 2);  // keep the last header's CRLF for ParseHead
    Verdict v = ParseHead();
    if (v != Verdict::kPending) {
      return v;
    }
    in_body_ = true;
    if (rest.empty()) {
      if (expected_len_ == 0) {
        done_ = true;
        return Verdict::kOk;
      }
      return Verdict::kPending;
    }
    return Feed(rest.data(), rest.size());
  }
  size_t want = expected_len_ - body_seen_;
  size_t take = std::min(want, len);
  if (memcmp(data, expected_ + body_seen_, take) != 0) {
    return Verdict::kWrongBody;
  }
  body_seen_ += take;
  if (take < len) {
    return Verdict::kMalformed;  // bytes past the announced body
  }
  if (body_seen_ == expected_len_) {
    done_ = true;
    return Verdict::kOk;
  }
  return Verdict::kPending;
}

void Tally::Count(Verdict v) {
  switch (v) {
    case Verdict::kPending:
      break;
    case Verdict::kOk:
      ++ok;
      break;
    case Verdict::kRefused:
      ++refused;
      break;
    case Verdict::kShort:
      ++short_reads;
      break;
    case Verdict::kBadStatus:
    case Verdict::kBadLength:
    case Verdict::kWrongBody:
    case Verdict::kMalformed:
      ++wrong;
      break;
  }
}

void Tally::Merge(const Tally& o) {
  ok += o.ok;
  refused += o.refused;
  short_reads += o.short_reads;
  wrong += o.wrong;
}

double Tally::fail_ratio() const {
  uint64_t n = attempted();
  return n == 0 ? 0.0 : static_cast<double>(failed()) / static_cast<double>(n);
}

SlicedPercentiles::SlicedPercentiles(size_t capacity) : capacity_(capacity) {
  buf_.resize(capacity);  // touch every page now
  buf_.clear();
}

void SlicedPercentiles::EndSlice(int index) {
  if (buf_.size() >= kMinSamples) {
    slices_.push_back({index, buf_.size(), Percentile(&buf_, 0.50),
                       Percentile(&buf_, 0.99)});
  }
  buf_.clear();
}

std::vector<bool> QuietSlices(const std::vector<double>& steal) {
  const double median = Median(steal);
  std::vector<bool> use(steal.size());
  for (size_t i = 0; i < steal.size(); ++i) {
    use[i] = steal[i] <= median;
  }
  return use;
}

double MedianOver(const std::vector<double>& values, const std::vector<bool>& use) {
  std::vector<double> picked;
  for (size_t i = 0; i < values.size() && i < use.size(); ++i) {
    if (use[i]) {
      picked.push_back(values[i]);
    }
  }
  return Median(std::move(picked));
}

double MedianOver(const std::vector<SliceLatency>& slices, double SliceLatency::*field,
                  const std::vector<bool>& use) {
  std::vector<double> picked;
  for (const SliceLatency& s : slices) {
    if (s.slice >= 0 && static_cast<size_t>(s.slice) < use.size() && use[s.slice]) {
      picked.push_back(s.*field);
    }
  }
  return Median(std::move(picked));
}

}  // namespace perfbench
