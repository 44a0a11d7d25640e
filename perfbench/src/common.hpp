// Shared plumbing of the benchmark: clocks, sample statistics, the input
// fingerprint, host calibration, the span recorder of the traced run and
// the result printer.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double micros_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// A latency sample set.  Percentiles are nearest-rank on the exact
/// samples; a percentile is quotable only with >= 10 samples beyond it.
class Samples {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void append(const Samples& other);
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double percentile(double q) const;
  double median() const { return percentile(0.5); }
  double mean() const;
  bool quotable(double q) const;
  /// "p50=812.3us (n=4012)" style summary used in the report lines.
  std::string describe(double scale, const char* unit) const;

 private:
  mutable std::vector<double> values_;  ///< sorted lazily by percentile()
  mutable bool sorted_ = true;
};

/// 64-bit FNV-1a over everything the generator will send, so two runs (or
/// a parent and a change) can be shown to drive identical traffic.
class Fingerprint {
 public:
  void bytes(const void* data, std::size_t size);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void vec(const std::vector<std::uint8_t>& v) {
    u64(v.size());
    bytes(v.data(), v.size());
  }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Typed failures kept with their code for the report ("wire:NOT_FOUND",
/// "predict:FLOW_MISMATCH", ...).
class Failures {
 public:
  void add(const std::string& code, const std::string& detail);
  std::uint64_t total() const;
  /// One line per code with its count and first detail.
  void print(const char* prefix) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::pair<std::uint64_t, std::string>> by_code_;
};

/// The host the result came from: nproc plus effective parallelism from
/// a calibrated CPU burn at 1 thread and at nproc threads.
struct HostInfo {
  unsigned nproc = 1;
  double burn_1t_mops = 0.0;  ///< burn iterations per second, one thread
  double parallelism = 0.0;   ///< nproc-thread rate / one-thread rate
};
HostInfo calibrate_host();

/// Host speed while the load runs.  The hosts this was built on change
/// their speed for branchy, cache-bound code by a quarter or more over
/// seconds to minutes (other tenants' load), while a plain integer burn
/// barely moves; see README.md.  A sampler thread runs a fixed kernel of
/// the benchmark's own (sort and hash pseudo-random keys, an instruction
/// mix like the solver's) in short bursts on the run's CPU, every
/// kPeriodMs, timing each burst by its own CPU time, so being preempted by
/// the load does not count.  The rate is units over the bursts' total CPU
/// time, which weights slow stretches as the load felt them.  Time metrics
/// are then scaled to the nominal host: measured time x factor().
class HostSpeed {
 public:
  /// Kernel units per CPU-second of the nominal host.
  static constexpr double kNominalRate = 2000.0;
  static constexpr int kPeriodMs = 50;
  static constexpr int kBurstUnits = 1;

  ~HostSpeed() { stop(); }
  void start();
  /// Stop and join the sampler (idempotent).
  void stop();
  /// Kernel units per CPU-second of the bursts (0 before any burst).
  double rate() const { return kernel_s_ > 0.0 ? units_ / kernel_s_ : 0.0; }
  /// Measured speed over nominal speed (> 1 on a faster host).
  double factor() const { return rate() / kNominalRate; }
  std::size_t bursts() const { return bursts_; }
  /// CPU time the sampler itself used, seconds.
  double cpu_s() const { return cpu_s_; }

 private:
  double units_ = 0.0, kernel_s_ = 0.0, cpu_s_ = 0.0;
  std::size_t bursts_ = 0;
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
};

/// Time the hypervisor took from `cpu` since boot (its steal column in
/// /proc/stat), seconds; 0 when unknown.
double cpu_steal_s(int cpu);

/// CPU time of the calling thread / of the whole process, seconds.
double thread_cpu_s();
double process_cpu_s();

/// Pin the calling thread, and so every thread it starts later, to the CPU
/// it is running on.  Returns that CPU, or -1 when pinning failed.
int pin_to_current_cpu();

/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mb();
/// Current resident set (VmRSS), MiB.
double rss_mb();
/// Restart the peak-resident-set mark at the current size (Linux
/// /proc/self/clear_refs); false when the kernel refuses.
bool reset_peak_rss();

/// In-memory span recorder of the traced replay.  Spans of one replayed
/// operation share an op id; a child names its parent's index.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    std::uint64_t op = 0;
  };

  Tracer();
  /// Open a span; returns its index.  `parent` = -1 for a root span.
  int begin(const std::string& name, std::uint64_t op, int parent = -1);
  /// Close a span; returns its duration in microseconds.
  double end(int index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Sum of durations of every span with this name, and their count.
  double total_us(const std::string& name, std::size_t* count = nullptr) const;
  /// Mean duration of the spans with this name (0 when none).
  double mean_us(const std::string& name) const;
  /// Write all spans as JSON lines to `path`.
  bool write(const std::string& path) const;

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// One metric of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Print the result object as the last line of stdout.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, Metric>& metrics);

}  // namespace perfbench
