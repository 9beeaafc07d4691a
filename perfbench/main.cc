// perfbench: one run of one workload. run.py builds this binary, runs it,
// and turns its last line (one JSON object) into the benchmark's result.
//
//   perfbench --workload http_hit|http_churn|paper_fig56 --seed N
//             --seconds S [--trace] [--setup-only] [--out-dir DIR]
//
// Exit status: 0 when every check passed, 1 when a response was wrong or an
// invariant broke (the JSON still lists what happened), 2 when the process
// could not shut its own threads down.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/bench.h"
#include "src/util/clock.h"

namespace perfbench {

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

[[noreturn]] void Usage(const char* msg) {
  fprintf(stderr,
          "perfbench: %s\nusage: perfbench --workload http_hit|http_churn|paper_fig56 "
          "--seed N --seconds S [--trace] [--setup-only] [--out-dir DIR]\n",
          msg);
  exit(64);
}

}  // namespace

void Output::Note(const std::string& key, const std::string& value) {
  record.emplace_back(key, JsonString(value));
}

void Output::NoteNum(const std::string& key, double value) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", value);
  record.emplace_back(key, buf);
}

std::string Output::ToJson() const {
  std::string s = "{\"attempted\":" + std::to_string(attempted) +
                  ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    snprintf(num, sizeof(num), "%.17g", metrics[i].value);
    s += (i ? "," : "") + JsonString(metrics[i].name) + ":{\"value\":" + num +
         ",\"unit\":" + JsonString(metrics[i].unit) + "}";
  }
  s += "},\"record\":{";
  for (size_t i = 0; i < record.size(); ++i) {
    s += (i ? "," : "") + JsonString(record[i].first) + ":" + record[i].second;
  }
  s += "},\"errors\":[";
  for (size_t i = 0; i < errors.size(); ++i) {
    s += (i ? "," : "") + JsonString(errors[i]);
  }
  return s + "]}";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.start_ns = sunmt::MonotonicNowNs();
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        perfbench::Usage(("missing value for " + a).c_str());
      }
      return argv[++i];
    };
    if (a == "--workload") {
      have_workload = perfbench::ParseWorkload(value(), &opt.kind);
      if (!have_workload) {
        perfbench::Usage("unknown workload");
      }
    } else if (a == "--seed") {
      opt.seed = strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = true;
    } else if (a == "--setup-only") {
      opt.setup_only = true;
    } else if (a == "--out-dir") {
      opt.out_dir = value();
    } else {
      perfbench::Usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload || !(opt.seconds > 0)) {
    perfbench::Usage("--workload and a positive --seconds are required");
  }
  mkdir(opt.out_dir.c_str(), 0755);

  perfbench::Output out;
  int rc = opt.kind == perfbench::WorkloadKind::kPaperFig56
               ? perfbench::RunPaperWorkload(opt, &out)
               : perfbench::RunHttpWorkload(opt, &out);
  out.NoteNum("peak_rss_mb", perfbench::PeakRssMb());
  if (rc == 0 && !out.errors.empty()) {
    rc = 1;
  }
  printf("%s\n", out.ToJson().c_str());
  fflush(stdout);
  if (rc == 2) {
    _exit(2);  // threads still running: skip static destructors
  }
  return rc;
}
