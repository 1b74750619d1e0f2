#include "harness.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace perfbench {

Clock::time_point ProcessStart() {
  static const Clock::time_point start = Clock::now();
  return start;
}

const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
      }
    }
    return allowed;
  }();
  return cpus;
}

int AvailableCpus() {
  return std::max(1, static_cast<int>(AllowedCpus().size()));
}

namespace {

/// Sets the affinity of the calling thread first (threads it starts later
/// inherit it), then of every other thread of the process.
void SetAffinityOfAllThreads(const cpu_set_t& set) {
  sched_setaffinity(0, sizeof(set), &set);
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return;
  while (struct dirent* entry = readdir(dir)) {
    pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (tid > 0) sched_setaffinity(tid, sizeof(set), &set);
  }
  closedir(dir);
}

}  // namespace

void PinRound(int round) {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<size_t>(round) % cpus.size()], &one);
  SetAffinityOfAllThreads(one);
}

void Unpin() {
  cpu_set_t all;
  CPU_ZERO(&all);
  for (int cpu : AllowedCpus()) CPU_SET(cpu, &all);
  SetAffinityOfAllThreads(all);
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  double pos = q * static_cast<double>(values->size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values->size() - 1);
  double frac = pos - static_cast<double>(lo);
  return (*values)[lo] * (1.0 - frac) + (*values)[hi] * frac;
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

std::vector<double> OpTimes::BestUs() const {
  std::vector<double> best;
  for (double seconds : best_) {
    if (seconds >= 0.0) best.push_back(seconds * 1e6);
  }
  return best;
}

double OpTimes::OpsPerSecond() const {
  std::vector<double> best = BestUs();
  double total_us = 0.0;
  for (double us : best) total_us += us;
  return total_us > 0.0 ? best.size() / (total_us * 1e-6) : 0.0;
}

void Report::Add(const std::string& name, double value) {
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

std::vector<std::string> Report::Names() const {
  std::vector<std::string> names;
  for (const auto& [n, v] : values_) names.push_back(n);
  return names;
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  if (failures_logged_++ < 20) {
    std::fprintf(stderr, "perfbench: INCORRECT: %s\n", why.c_str());
  }
}

std::string Report::ToJson(
    const std::vector<std::pair<std::string, std::string>>& listed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": 0"
      << ", \"metrics\": {";
  for (size_t i = 0; i < listed.size(); ++i) {
    double value = 0.0;
    for (const auto& [n, v] : values_) {
      if (n == listed[i].first) value = v;
    }
    char text[64];
    std::snprintf(text, sizeof(text), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    out << (i == 0 ? "" : ", ") << "\"" << listed[i].first
        << "\": {\"value\": " << text << ", \"unit\": \""
        << listed[i].second << "\"}";
  }
  out << "}}";
  return out.str();
}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Buffer* Tracer::ThreadBuffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->thread = static_cast<int>(buffers_.size()) - 1;
  }
  return buffer;
}

namespace {
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - ProcessStart())
      .count();
}
}  // namespace

Tracer::Span::Span(const char* name, uint64_t op) {
  Tracer& t = Get();
  if (!t.enabled_) return;
  Buffer* b = t.ThreadBuffer();
  index_ = static_cast<int32_t>(b->records.size());
  b->records.push_back({name, NowNs(), 0, b->open, op});
  b->open = index_;
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  Buffer* b = Get().ThreadBuffer();
  Record& r = b->records[static_cast<size_t>(index_)];
  r.end_ns = NowNs();
  b->open = r.parent;
}

std::vector<std::pair<std::string, double>> Tracer::LayerSelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> self;
  for (const auto& b : buffers_) {
    std::vector<int64_t> child_ns(b->records.size(), 0);
    for (const Record& r : b->records) {
      if (r.parent >= 0) {
        child_ns[static_cast<size_t>(r.parent)] += r.end_ns - r.start_ns;
      }
    }
    for (size_t i = 0; i < b->records.size(); ++i) {
      const Record& r = b->records[i];
      std::string name(r.name);
      std::string layer = name.substr(0, name.find('.'));
      self[layer] += static_cast<double>(r.end_ns - r.start_ns - child_ns[i]) *
                     1e-9;
    }
  }
  return {self.begin(), self.end()};
}

size_t Tracer::SpanCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& b : buffers_) n += b->records.size();
  return n;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    for (size_t i = 0; i < b->records.size(); ++i) {
      const Record& r = b->records[i];
      out << "{\"thread\":" << b->thread << ",\"id\":" << i << ",\"name\":\""
          << r.name << "\",\"start_ns\":" << r.start_ns
          << ",\"end_ns\":" << r.end_ns << ",\"parent\":" << r.parent
          << ",\"op\":" << r.op << "}\n";
    }
  }
  return static_cast<bool>(out);
}

bool PlantReversedContainments(mapcomp::CompositionResult* res) {
  mapcomp::ConstraintSet reversed;
  for (const mapcomp::Constraint& c : res->constraints) {
    if (!c.IsEquality()) {
      reversed.push_back(mapcomp::Constraint::Contain(c.rhs, c.lhs));
    }
  }
  res->constraints.insert(res->constraints.end(), reversed.begin(),
                          reversed.end());
  return !reversed.empty();
}

void FinishTrace(const Args& args) {
  const Tracer& tracer = Tracer::Get();
  std::string base = std::string(kOutDir) + "/trace-" + args.workload + "-s" +
                     std::to_string(args.seed);
  if (!tracer.Write(base + ".jsonl")) {
    std::fprintf(stderr, "perfbench: cannot write %s.jsonl\n", base.c_str());
  }
  std::ofstream summary(base + "-self.json");
  summary << "{";
  bool first = true;
  for (const auto& [layer, seconds] : tracer.LayerSelfSeconds()) {
    std::fprintf(stderr, "perfbench: self time %-10s %.6f s\n", layer.c_str(),
                 seconds);
    summary << (first ? "" : ", ") << "\"" << layer << "\": " << seconds;
    first = false;
  }
  summary << "}\n";
  std::fprintf(stderr, "perfbench: %zu spans written to %s.jsonl\n",
               tracer.SpanCount(), base.c_str());
}

}  // namespace perfbench
