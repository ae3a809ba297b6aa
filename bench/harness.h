#ifndef OPDELTA_BENCH_HARNESS_H_
#define OPDELTA_BENCH_HARNESS_H_

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/env.h"
#include "common/status.h"
#include "engine/database.h"

namespace opdelta::bench {

/// Aborts with a message on error — benches have no meaningful recovery.
inline void CheckOk(const Status& st, const char* context) {
  if (!st.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", context, st.ToString().c_str());
    std::abort();
  }
}

#define BENCH_OK(expr) ::opdelta::bench::CheckOk((expr), #expr)

/// A bench's own correctness check: figures measured on wrong results mean
/// nothing, so a failed check exits nonzero instead of printing on.
inline void CheckThat(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "FAILED check: %s\n", what.c_str());
  std::exit(1);
}

/// Workload scale multiplier. 1.0 reproduces the default (≈100× smaller
/// than the paper's 1999 hardware run, finishing in seconds per bench);
/// raise via OPDELTA_BENCH_SCALE=10 for closer-to-paper sizes.
inline double ScaleFactor() {
  const char* env = std::getenv("OPDELTA_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::strtod(env, nullptr);
  return v > 0 ? v : 1.0;
}

inline int64_t Scaled(int64_t base) {
  return static_cast<int64_t>(static_cast<double>(base) * ScaleFactor());
}

/// Scratch directory removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name) {
    path_ = "/tmp/opdelta_bench_" + name + "_" + std::to_string(::getpid());
    (void)Env::Default()->RemoveDirAll(path_);
    BENCH_OK(Env::Default()->CreateDir(path_));
  }
  ~ScratchDir() { (void)Env::Default()->RemoveDirAll(path_); }

  const std::string& path() const { return path_; }
  std::string Sub(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

inline std::string FormatMicros(Micros us) {
  char buf[64];
  if (us < 1000) {
    std::snprintf(buf, sizeof(buf), "%lldus", static_cast<long long>(us));
  } else if (us < 1000000) {
    std::snprintf(buf, sizeof(buf), "%.1fms", us / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", us / 1e6);
  }
  return buf;
}

inline std::string FormatBytes(uint64_t bytes) {
  char buf[64];
  if (bytes < 1024) {
    std::snprintf(buf, sizeof(buf), "%lluB",
                  static_cast<unsigned long long>(bytes));
  } else if (bytes < 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fKB", bytes / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fMB", bytes / (1024.0 * 1024.0));
  }
  return buf;
}

/// Fixed-width text table, printed like the paper's tables.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        if (row[i].size() > widths[i]) widths[i] = row[i].size();
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      std::printf("|");
      for (size_t i = 0; i < widths.size(); ++i) {
        const std::string& cell = i < cells.size() ? cells[i] : "";
        std::printf(" %-*s |", static_cast<int>(widths[i]), cell.c_str());
      }
      std::printf("\n");
    };
    auto print_sep = [&]() {
      std::printf("+");
      for (size_t w : widths) {
        for (size_t i = 0; i < w + 2; ++i) std::printf("-");
        std::printf("+");
      }
      std::printf("\n");
    };
    print_sep();
    print_row(headers_);
    print_sep();
    for (const auto& row : rows_) print_row(row);
    print_sep();
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Machine-readable companion to the printed tables: when a bench is run
/// with `--json`, every metric recorded here lands in `BENCH_<name>.json`
/// in the working directory (CI uploads these as artifacts for trend
/// tracking). Without the flag the report is inert, so wiring it into a
/// bench costs nothing on normal runs.
///
///   JsonReport report("hub_scaling", argc, argv);
///   report.Add("records_per_sec_s4", 1234.5);
///   ... report writes itself on destruction.
class JsonReport {
 public:
  JsonReport(std::string name, int argc, char** argv)
      : name_(std::move(name)) {
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--json") enabled_ = true;
    }
  }

  ~JsonReport() { Write(); }

  bool enabled() const { return enabled_; }

  void Add(const std::string& metric, double value) {
    metrics_.emplace_back(metric, value);
  }

  /// Writes BENCH_<name>.json (atomic; idempotent — later calls rewrite).
  void Write() {
    if (!enabled_) return;
    std::string out = "{\n  \"bench\": \"" + name_ + "\",\n";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", ScaleFactor());
    out += "  \"scale\": " + std::string(buf) + ",\n  \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.6g", metrics_[i].second);
      out += (i == 0 ? "\n" : ",\n");
      out += "    \"" + metrics_[i].first + "\": " + buf;
    }
    out += "\n  }\n}\n";
    CheckOk(WriteFileAtomic(Env::Default(), "BENCH_" + name_ + ".json", out),
            "write bench json report");
  }

 private:
  std::string name_;
  bool enabled_ = false;
  std::vector<std::pair<std::string, double>> metrics_;
};

inline void PrintHeader(const char* experiment, const char* paper_ref,
                        const char* expectation) {
  std::printf("\n=============================================================="
              "==================\n");
  std::printf("%s\n  (reproduces %s)\n", experiment, paper_ref);
  std::printf("  paper-shape expectation: %s\n", expectation);
  std::printf("  scale factor: %.2f (set OPDELTA_BENCH_SCALE to change)\n",
              ScaleFactor());
  std::printf("================================================================"
              "================\n");
}

}  // namespace opdelta::bench

#endif  // OPDELTA_BENCH_HARNESS_H_
