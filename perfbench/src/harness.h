// Shared plumbing of the perfbench workloads: command-line arguments, the
// result line, order statistics, resident-memory readout, and the in-memory
// span tracer used by traced runs.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/compose/compose.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The instant main() was entered; set-up time is measured from here.
Clock::time_point ProcessStart();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test: plant a known fault in the workload's outputs (or in the
  /// check's own reference) so the run must report correct = false.
  bool plant_fault = false;
};

/// Directory for trace and result files, relative to the working directory
/// (the repository root).
constexpr char kOutDir[] = "perfbench-out";

/// CPUs this process may run on (what `nproc` prints), as they were at the
/// first call; main() makes that call before anything is pinned.
const std::vector<int>& AllowedCpus();
int AvailableCpus();

/// Moves every thread of the process, and every thread started later, to
/// one CPU: the `round`-th of AllowedCpus(), cyclically. Workloads call it
/// before each round, so consecutive rounds run on different CPUs:
///  - on one CPU, a hand-off between threads (client to server, caller to
///    pool worker) is a context switch instead of waking an idle virtual
///    CPU, whose cost swings with the load on the host;
///  - a virtual CPU whose host core is busy runs every op slower for
///    seconds at a time, and the per-op minimum (OpTimes) then comes from
///    the rounds that ran elsewhere.
void PinRound(int round);
/// Lets every thread run on all of AllowedCpus() again.
void Unpin();

/// Peak resident set of this process, in MB (getrusage ru_maxrss).
double PeakRssMb();

/// Linear-interpolated quantile of `values` (sorted in place), q in [0, 1].
double Quantile(std::vector<double>* values, double q);
double Median(std::vector<double> values);

/// Times of a fixed list of ops that every round repeats. An op's time is
/// its fastest over the rounds: on a shared machine contention only ever
/// adds time, so the minimum is the estimate it moves least, and a change
/// in the program still moves every op's minimum. The rate and the latency
/// quantiles are taken over these per-op times, so they weigh every op of
/// the list, not just those of one lucky or unlucky round.
class OpTimes {
 public:
  explicit OpTimes(size_t ops) : best_(ops, -1.0) {}
  void Record(size_t op, double seconds) {
    if (best_[op] < 0.0 || seconds < best_[op]) best_[op] = seconds;
  }
  /// Per-op fastest time, in microseconds, for the ops recorded at least
  /// once.
  std::vector<double> BestUs() const;
  /// Ops recorded divided by the sum of their fastest times.
  double OpsPerSecond() const;

 private:
  std::vector<double> best_;
};

/// What a run prints as its last line, plus the reasons it is incorrect.
class Report {
 public:
  void Add(const std::string& name, double value);
  /// Marks the run incorrect and records why (printed to stderr).
  void Fail(const std::string& why);
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  /// Names reported through Add, in order.
  std::vector<std::string> Names() const;
  /// The result line: exactly the metrics in `listed` (name, unit), in that
  /// order; a listed name the workload did not report reads 0.
  std::string ToJson(
      const std::vector<std::pair<std::string, std::string>>& listed) const;

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  std::vector<std::pair<std::string, double>> values_;
  int failures_logged_ = 0;
};

/// In-memory span recorder for traced runs. Spans are opened and closed by
/// the benchmark's own code around each call it makes into the program, so
/// they carry the name of the layer called (`layer.call`), the op id they
/// belong to, and the enclosing span on the same thread. Disabled, a Span
/// costs one branch.
class Tracer {
 public:
  struct Record {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  ///< index in the same thread's buffer, -1 at top level
    uint64_t op;
  };

  static Tracer& Get();
  void Enable() { enabled_ = true; }

  /// RAII span. `name` must be a string literal.
  class Span {
   public:
    Span(const char* name, uint64_t op);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    int32_t index_ = -1;
  };

  /// Self time per layer (span duration minus the part covered by its
  /// child spans), in seconds, keyed by the layer prefix of the span name.
  std::vector<std::pair<std::string, double>> LayerSelfSeconds() const;
  /// Writes every span as one JSON object per line. Returns false on an
  /// I/O error.
  bool Write(const std::string& path) const;
  size_t SpanCount() const;

 private:
  struct Buffer {
    int thread = 0;
    std::vector<Record> records;
    int32_t open = -1;  ///< innermost open span on this thread
  };
  Buffer* ThreadBuffer();

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Accumulates the duration of calls into one layer and, when tracing is
/// on, records a span around each: `ScopedCall call(&seconds, "compose.X",
/// op); ...call into the program...;` adds the elapsed time to `seconds`.
class ScopedCall {
 public:
  ScopedCall(double* sink, const char* name, uint64_t op)
      : sink_(sink), span_(name, op), start_(Clock::now()) {}
  ~ScopedCall() { *sink_ += SecondsSince(start_); }
  ScopedCall(const ScopedCall&) = delete;
  ScopedCall& operator=(const ScopedCall&) = delete;

 private:
  double* sink_;
  Tracer::Span span_;
  Clock::time_point start_;
};

/// Self-test fault: splices the reverse of each of the result's
/// containments into it, an unsound output the semantic check must catch.
/// Returns false when the result has no containment to reverse.
bool PlantReversedContainments(mapcomp::CompositionResult* res);

/// Workload entry points. Each fills `report` with its metrics: the
/// end-to-end ones in an untraced run, the per-layer ones in a traced run.
void RunEditStream(const Args& args, Report* report);
void RunRegistryChains(const Args& args, Report* report);
void RunWireMixed(const Args& args, Report* report);
void RunSoundnessSweep(const Args& args, Report* report);

/// Writes the trace file and prints each layer's self time to stderr.
void FinishTrace(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
