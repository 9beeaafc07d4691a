// Tests of the benchmark's own code: seeded inputs, response checks and
// failure counting, and percentile arithmetic.

#include "perfbench/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace perfbench {
namespace {

// The bytes connection `conn` sends for its first `n` requests.
std::string RequestStream(const Keyspace& ks, int conn, int n, bool close) {
  KeyStream stream(ks.seed, conn, ks.sizes.size());
  std::string out;
  for (int i = 0; i < n; ++i) {
    char buf[256];
    size_t len = FormatRequest(stream.Next(), MakeReqId(conn, i), close, buf, sizeof(buf));
    out.append(buf, len);
  }
  return out;
}

TEST(Seeding, SameSeedSameRequestBytes) {
  for (WorkloadKind kind : {WorkloadKind::kHttpHit, WorkloadKind::kHttpChurn}) {
    Keyspace a = MakeKeyspace(kind, 42);
    Keyspace b = MakeKeyspace(kind, 42);
    bool close = kind == WorkloadKind::kHttpChurn;
    for (int conn = 0; conn < 4; ++conn) {
      EXPECT_EQ(RequestStream(a, conn, 500, close), RequestStream(b, conn, 500, close));
    }
    EXPECT_NE(RequestStream(a, 0, 500, close), RequestStream(a, 1, 500, close));
    Keyspace c = MakeKeyspace(kind, 43);
    EXPECT_NE(RequestStream(a, 0, 500, close), RequestStream(c, 0, 500, close));
  }
}

TEST(Seeding, SameSeedSameBodySizesAndBodies) {
  Keyspace a = MakeChurnKeyspace(7);
  Keyspace b = MakeChurnKeyspace(7);
  EXPECT_EQ(a.sizes, b.sizes);
  EXPECT_NE(a.sizes, MakeChurnKeyspace(8).sizes);
  for (uint32_t k : {0u, 1u, 100u}) {
    EXPECT_EQ(MakeBody(a, k), MakeBody(b, k));
  }
  EXPECT_NE(MakeBody(a, 0), MakeBody(MakeChurnKeyspace(8), 0).substr(0, a.sizes[0]));
}

TEST(Seeding, ChurnKeyspaceShape) {
  Keyspace ks = MakeChurnKeyspace(1);
  EXPECT_GE(ks.total_bytes, kChurnKeyspaceFactor * kChurnCacheBytes);
  EXPECT_LT(ks.total_bytes, kChurnKeyspaceFactor * kChurnCacheBytes + kChurnMaxBody);
  uint64_t sum = 0;
  for (uint32_t s : ks.sizes) {
    EXPECT_GE(s, kChurnMinBody);
    EXPECT_LE(s, kChurnMaxBody);
    sum += s;
  }
  EXPECT_EQ(sum, ks.total_bytes);
  // Log-uniform: about half the keys lie below the geometric mean (~2.9 KiB).
  size_t small = std::count_if(ks.sizes.begin(), ks.sizes.end(),
                               [](uint32_t s) { return s < 2896; });
  EXPECT_NEAR(static_cast<double>(small) / ks.sizes.size(), 0.5, 0.05);
}

TEST(Targets, RoundTripAndRejects) {
  uint32_t key = 0;
  EXPECT_TRUE(ParseTarget(TargetFor(63), 64, &key));
  EXPECT_EQ(key, 63u);
  EXPECT_FALSE(ParseTarget(TargetFor(64), 64, &key));
  EXPECT_FALSE(ParseTarget("/k/", 64, &key));
  EXPECT_FALSE(ParseTarget("/k/1x", 64, &key));
  EXPECT_FALSE(ParseTarget("/x/1", 64, &key));
  EXPECT_FALSE(ParseTarget("/k/99999999999", 64, &key));
}

std::string Response(const std::string& body, const char* status = "200 OK",
                     long long length = -2) {
  std::string r = std::string("HTTP/1.1 ") + status +
                  "\r\nContent-Type: application/octet-stream\r\n";
  if (length != -1) {
    r += "Content-Length: " +
         std::to_string(length == -2 ? static_cast<long long>(body.size()) : length) + "\r\n";
  }
  return r + "Connection: keep-alive\r\n\r\n" + body;
}

Verdict FeedAll(const std::string& expected, const std::string& bytes, size_t chunk) {
  ResponseChecker c;
  c.Begin(expected.data(), expected.size());
  Verdict v = Verdict::kPending;
  for (size_t i = 0; i < bytes.size() && v == Verdict::kPending; i += chunk) {
    v = c.Feed(bytes.data() + i, std::min(chunk, bytes.size() - i));
  }
  return v;
}

TEST(ResponseChecker, AcceptsExactResponseInAnyChunking) {
  std::string body(1000, 'Q');
  body[500] = 'Z';
  for (size_t chunk : {1, 3, 7, 64, 4096}) {
    EXPECT_EQ(FeedAll(body, Response(body), chunk), Verdict::kOk) << chunk;
  }
}

TEST(ResponseChecker, ClassifiesWrongResponses) {
  std::string body = "abcdef";
  EXPECT_EQ(FeedAll(body, Response(body, "404 Not Found"), 5), Verdict::kBadStatus);
  EXPECT_EQ(FeedAll(body, Response(body, "200 OK", 5), 5), Verdict::kBadLength);
  EXPECT_EQ(FeedAll(body, Response(body, "200 OK", -1), 5), Verdict::kBadLength);
  EXPECT_EQ(FeedAll(body, Response("abcdeX"), 5), Verdict::kWrongBody);
  EXPECT_EQ(FeedAll(body, Response(body) + "extra", 4096), Verdict::kMalformed);
  EXPECT_EQ(FeedAll(body, "garbage\r\n\r\n", 4), Verdict::kMalformed);
  // A short response stays pending; the generator then reports Eof().
  EXPECT_EQ(FeedAll(body, Response(body).substr(0, Response(body).size() - 3), 4),
            Verdict::kPending);
}

TEST(Tally, FailRatioCountsRefusedShortAndWrong) {
  Tally t;
  EXPECT_EQ(t.fail_ratio(), 0.0);
  for (int i = 0; i < 96; ++i) {
    t.Count(Verdict::kOk);
  }
  t.Count(Verdict::kRefused);
  t.Count(Verdict::kShort);
  t.Count(Verdict::kWrongBody);
  t.Count(Verdict::kBadStatus);
  t.Count(Verdict::kPending);  // not an outcome
  EXPECT_EQ(t.attempted(), 100u);
  EXPECT_EQ(t.failed(), 4u);
  EXPECT_EQ(t.refused, 1u);
  EXPECT_EQ(t.short_reads, 1u);
  EXPECT_EQ(t.wrong, 2u);
  EXPECT_DOUBLE_EQ(t.fail_ratio(), 0.04);
  Tally u;
  u.Count(Verdict::kMalformed);
  t.Merge(u);
  EXPECT_EQ(t.attempted(), 101u);
  EXPECT_DOUBLE_EQ(t.fail_ratio(), 5.0 / 101);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  // Values as numpy.percentile gives them for [1..10] and [7, 1, 3].
  std::vector<int> v = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(Percentile(&v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(&v, 0.5), 5.5);
  EXPECT_DOUBLE_EQ(Percentile(&v, 0.99), 9.91);
  EXPECT_DOUBLE_EQ(Percentile(&v, 1.0), 10.0);
  std::vector<int> w = {7, 1, 3};
  EXPECT_DOUBLE_EQ(Percentile(&w, 0.25), 2.0);
  std::vector<int> one = {4};
  EXPECT_DOUBLE_EQ(Percentile(&one, 0.99), 4.0);
  std::vector<int> empty;
  EXPECT_DOUBLE_EQ(Percentile(&empty, 0.5), 0.0);
}

TEST(Percentile, MatchesFullSortOnRandomData) {
  Rng rng(3);
  std::vector<uint32_t> v;
  for (int i = 0; i < 20001; ++i) {
    v.push_back(static_cast<uint32_t>(rng.Below(1000000)));
  }
  std::vector<uint32_t> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.5, 0.9, 0.99}) {
    std::vector<uint32_t> copy = v;
    double rank = q * 20000;
    size_t lo = static_cast<size_t>(rank);
    double want = sorted[lo] + (rank - lo) * (static_cast<double>(sorted[lo + 1]) - sorted[lo]);
    EXPECT_DOUBLE_EQ(Percentile(&copy, q), want) << q;
  }
}

TEST(SlicedPercentiles, OneEntryPerFullSliceAndEveryAddCounted) {
  SlicedPercentiles s(5000);
  for (int slice = 0; slice < 3; ++slice) {
    for (uint32_t i = 1; i <= 1000; ++i) {
      s.Add(slice * 10000 + i);
    }
    s.EndSlice(slice);
  }
  for (uint32_t i = 0; i < 999; ++i) {
    s.Add(i);  // a short slice: dropped, its p99 would have <10 samples beyond
  }
  s.EndSlice(3);
  s.Add(7);
  s.Discard();
  ASSERT_EQ(s.slices().size(), 3u);
  EXPECT_EQ(s.slices()[1].slice, 1);
  EXPECT_EQ(s.slices()[1].samples, 1000u);
  EXPECT_DOUBLE_EQ(s.slices()[1].p50, 10000 + 500.5);
  EXPECT_DOUBLE_EQ(s.slices()[2].p99, 20000 + 990.01);
  EXPECT_EQ(s.samples(), 4000u);
}

TEST(SlicedPercentiles, CountsSamplesBeyondCapacity) {
  SlicedPercentiles s(1000);
  for (uint32_t i = 0; i < 1500; ++i) {
    s.Add(i);  // the last 500 are counted, not kept
  }
  s.EndSlice(0);
  ASSERT_EQ(s.slices().size(), 1u);
  EXPECT_EQ(s.slices()[0].samples, 1000u);
  EXPECT_DOUBLE_EQ(s.slices()[0].p50, 499.5);
  EXPECT_EQ(s.samples(), 1500u);
}

TEST(QuietSlices, KeepsTheLessStolenHalf) {
  EXPECT_EQ(QuietSlices({0.0, 0.05, 0.01, 0.3}),
            (std::vector<bool>{true, false, true, false}));
  EXPECT_EQ(QuietSlices({0.02, 0.0, 0.5, 0.02, 0.1}),
            (std::vector<bool>{true, true, false, true, false}));
  // Ties at the median all count; a steady run keeps every slice.
  EXPECT_EQ(QuietSlices({0.0, 0.0, 0.0}), std::vector<bool>(3, true));
  EXPECT_TRUE(QuietSlices({}).empty());
}

TEST(MedianOver, PicksUsableSlicesOnly) {
  std::vector<bool> use = {true, false, true, true};
  EXPECT_DOUBLE_EQ(MedianOver({1.0, 100.0, 3.0, 2.0}, use), 2.0);
  // Two generator threads per slice; slice 1 is skipped, slice 9 is unknown.
  std::vector<SliceLatency> lat = {{0, 1000, 10, 50}, {0, 1000, 12, 60},
                                   {1, 1000, 99, 999}, {2, 1000, 14, 70},
                                   {3, 1000, 16, 80}, {9, 1000, 0, 0}};
  EXPECT_DOUBLE_EQ(MedianOver(lat, &SliceLatency::p50, use), 13.0);
  EXPECT_DOUBLE_EQ(MedianOver(lat, &SliceLatency::p99, use), 65.0);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

}  // namespace
}  // namespace perfbench
