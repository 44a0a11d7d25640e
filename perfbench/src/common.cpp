#include "common.hpp"

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <random>
#include <thread>
#include <unordered_map>

namespace perfbench {

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::percentile(double q) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values_.size())));
  return values_[std::max<std::size_t>(1, rank) - 1];
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

bool Samples::quotable(double q) const {
  const double beyond = (1.0 - q) * static_cast<double>(values_.size());
  return beyond >= 10.0;
}

std::string Samples::describe(double scale, const char* unit) const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << "p50=" << median() * scale
     << unit;
  if (quotable(0.99))
    os << " p99=" << percentile(0.99) * scale << unit;
  else if (quotable(0.9))
    os << " p90=" << percentile(0.9) * scale << unit;
  os << " (n=" << values_.size() << ")";
  return os.str();
}

void Fingerprint::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

std::string Fingerprint::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void Failures::add(const std::string& code, const std::string& detail) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = by_code_[code];
  if (slot.first++ == 0) slot.second = detail;
}

std::uint64_t Failures::total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = 0;
  for (const auto& [code, slot] : by_code_) n += slot.first;
  return n;
}

void Failures::print(const char* prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (by_code_.empty()) {
    std::cout << prefix << "failures: none\n";
    return;
  }
  for (const auto& [code, slot] : by_code_)
    std::cout << prefix << "failure " << code << " x" << slot.first
              << " (first: " << slot.second << ")\n";
}

namespace {

/// Integer mixing loop the compiler cannot fold; returns iterations done
/// before `stop` turned true.
std::uint64_t burn(const std::atomic<bool>& stop, std::uint64_t* sink) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL, n = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    for (int i = 0; i < 4096; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    n += 4096;
  }
  *sink = x;
  return n;
}

double burn_rate(unsigned threads, double seconds) {
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> counts(threads, 0), sinks(threads, 0);
  std::vector<std::thread> pool;
  const auto t0 = Clock::now();
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&, t] { counts[t] = burn(stop, &sinks[t]); });
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop = true;
  for (std::thread& t : pool) t.join();
  const double elapsed = seconds_since(t0);
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  return static_cast<double>(total) / elapsed;
}

}  // namespace

HostInfo calibrate_host() {
  HostInfo h;
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  h.nproc = n > 0 ? static_cast<unsigned>(n) : 1u;
  const double one = burn_rate(1, 0.25);
  const double all = burn_rate(h.nproc, 0.25);
  h.burn_1t_mops = one / 1e6;
  h.parallelism = one > 0.0 ? all / one : 0.0;
  return h;
}

namespace {

double status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      std::istringstream is(line.substr(field.size()));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

namespace {

double clock_s(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One unit of the host-speed kernel: sort 4096 pseudo-random keys, then
/// hash 1024 of them.  The same 16 inputs recur, so every unit does the
/// same work on every run.
std::uint64_t reference_unit(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint32_t> keys(4096);
  for (std::uint32_t& k : keys) k = rng();
  std::sort(keys.begin(), keys.end());
  std::unordered_map<std::uint32_t, std::uint32_t> table;
  for (std::uint32_t i = 0; i < 1024; ++i) table[keys[4 * i] ^ keys[4095 - i]] += i;
  return table.size() + keys[seed % keys.size()];
}

}  // namespace

double cpu_steal_s(int cpu) {
  std::ifstream stat("/proc/stat");
  const std::string want = "cpu" + std::to_string(cpu) + " ";
  std::string line;
  while (std::getline(stat, line)) {
    if (line.rfind(want, 0) != 0) continue;
    std::istringstream is(line.substr(want.size()));
    double field[8] = {};  // user nice system idle iowait irq softirq steal
    for (double& f : field) is >> f;
    return field[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }
  return 0.0;
}

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

void HostSpeed::start() {
  stop_ = false;
  thread_ = std::thread([this] {
    volatile std::uint64_t sink = 0;  // keeps the kernel's work observable
    std::uint32_t unit = 0;
    const double cpu0 = thread_cpu_s();
    std::unique_lock<std::mutex> lock(mutex_);
    while (!wake_.wait_for(lock, std::chrono::milliseconds(kPeriodMs),
                           [this] { return stop_; })) {
      const double t0 = thread_cpu_s();
      for (int k = 0; k < kBurstUnits; ++k)
        sink = sink + reference_unit(1 + unit++ % 16);
      kernel_s_ += thread_cpu_s() - t0;
      units_ += kBurstUnits;
      ++bursts_;
    }
    cpu_s_ = thread_cpu_s() - cpu0;
  });
}

void HostSpeed::stop() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

int pin_to_current_cpu() {
  const int cpu = ::sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

double peak_rss_mb() { return status_mb("VmHWM:"); }

double rss_mb() { return status_mb("VmRSS:"); }

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

Tracer::Tracer() : t0_(Clock::now()) {}

int Tracer::begin(const std::string& name, std::uint64_t op, int parent) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = parent;
  s.start_us = micros_since(t0_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::end(int index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_us = micros_since(t0_);
  return s.end_us - s.start_us;
}

double Tracer::total_us(const std::string& name, std::size_t* count) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    sum += s.end_us - s.start_us;
    ++n;
  }
  if (count != nullptr) *count = n;
  return sum;
}

double Tracer::mean_us(const std::string& name) const {
  std::size_t n = 0;
  const double sum = total_us(name, &n);
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::setprecision(12);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"op\":" << s.op
        << ",\"parent\":" << s.parent << ",\"start_us\":" << s.start_us
        << ",\"end_us\":" << s.end_us << "}\n";
  }
  return static_cast<bool>(out);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) os << ", ";
    first = false;
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    os << "\"" << name << "\": {\"value\": " << v << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

}  // namespace perfbench
