//===- Telemetry.h - Analysis instrumentation layer -------------*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement substrate behind the paper's experimental section:
/// RAII phase spans over a monotonic clock (lex -> parse -> simplify ->
/// ig-build -> pointsto -> clients), named counters for the analysis hot
/// paths (body re-analyses, memo hits/misses, map/unmap traffic,
/// pending-list wakeups, loop fixed-point iterations), size histograms
/// (per-statement points-to set sizes, iterations per loop), log-bucketed
/// latency recorders (serve request quantiles), and gauges (memory
/// footprint snapshots such as `mem.peak_rss_kb`).
///
/// Two exporters turn one run into machine-readable artifacts:
///  - writeTraceJson: Chrome `trace_event` JSON ("X" complete events),
///    loadable by chrome://tracing and Perfetto;
///  - writeStatsJson: a flat stats document for benchmark trajectories
///    (the BENCH_*.json files).
///
/// Instrumentation is pay-for-what-you-use: hot paths hold a
/// `Telemetry *` (or a cached `Counter *` / `Histogram *`) that is null
/// when telemetry is off, so the disabled cost is one branch on a null
/// pointer. A Telemetry constructed with Enabled=false is a null sink:
/// every mutation short-circuits and the exporters emit empty documents.
///
/// Thread safety (the contract the in-process batch and the concurrent
/// serve daemon build on):
///  - Counter / Histogram / LatencyRecorder mutation is lock-free: all
///    fields are relaxed atomics, so any number of threads may share one
///    resolved handle and totals stay exact.
///  - Name registration (`counter()` / `histogram()` / `latency()` /
///    `gauge()`), span completion, and the exporters serialize on one
///    internal mutex. The registries are node-stable maps, so a handle
///    resolved once stays valid for the Telemetry's lifetime — keep the
///    resolve-handle-once idiom on hot paths and the lock is never on
///    them.
///  - The raw `counters()` / `histograms()` accessors return the live
///    maps; iterating them while another thread *registers new names*
///    is a race. Exporters and `mergeFrom` take the lock internally;
///    tests and single-threaded drivers may iterate freely. Concurrent
///    readers use the locked copies (`gauges()`, `countersSnapshot()`).
///  - `mergeFrom(Child)` folds a request-scoped child instance into an
///    aggregate. It locks the child's registries while snapshotting
///    them, so racing registration is structurally safe; the child
///    should still be quiescent (its request finished) for the merged
///    totals to be exact.
///
//===----------------------------------------------------------------------===//

#ifndef MCPTA_SUPPORT_TELEMETRY_H
#define MCPTA_SUPPORT_TELEMETRY_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mcpta {
namespace support {

/// Peak resident set size of this process in KiB (getrusage ru_maxrss).
/// Returns 0 when the platform cannot report it.
uint64_t peakRssKb();

/// Atomically raises \p Slot to \p V if V is larger (relaxed CAS loop).
inline void atomicMax(std::atomic<uint64_t> &Slot, uint64_t V) {
  uint64_t Cur = Slot.load(std::memory_order_relaxed);
  while (Cur < V &&
         !Slot.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
  }
}

/// Atomically lowers \p Slot to \p V if V is smaller (relaxed CAS loop).
inline void atomicMin(std::atomic<uint64_t> &Slot, uint64_t V) {
  uint64_t Cur = Slot.load(std::memory_order_relaxed);
  while (Cur > V &&
         !Slot.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
  }
}

/// One named monotonically increasing counter. All mutation is a relaxed
/// atomic add: concurrent increments through a shared handle never lose
/// updates, and the disabled-mode scratch slot tolerates racing writers.
/// Non-copyable — counters live in node-stable registries and are
/// addressed by reference.
struct Counter {
  std::atomic<uint64_t> Value{0};

  Counter() = default;
  Counter(const Counter &) = delete;
  Counter &operator=(const Counter &) = delete;

  Counter &operator++() {
    Value.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  Counter &operator+=(uint64_t Delta) {
    Value.fetch_add(Delta, std::memory_order_relaxed);
    return *this;
  }
  uint64_t load() const { return Value.load(std::memory_order_relaxed); }
};

/// A size/count distribution: count, sum, min, max plus power-of-two
/// buckets (bucket i holds values v with 2^(i-1) <= v < 2^i; bucket 0
/// holds zeros). record() is lock-free (relaxed adds plus CAS min/max),
/// so one histogram can absorb concurrent recorders with exact count and
/// sum totals. All summaries are empty-safe: count/sum/min/max/mean are
/// 0 for a histogram that never recorded.
class Histogram {
public:
  static constexpr unsigned NumBuckets = 33;

  Histogram() = default;
  Histogram(const Histogram &) = delete;
  Histogram &operator=(const Histogram &) = delete;

  void record(uint64_t V) {
    N.fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(V, std::memory_order_relaxed);
    atomicMin(Lo, V);
    atomicMax(Hi, V);
    Buckets[bucketOf(V)].fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t count() const { return N.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  uint64_t min() const {
    return count() ? Lo.load(std::memory_order_relaxed) : 0;
  }
  uint64_t max() const { return Hi.load(std::memory_order_relaxed); }
  double mean() const {
    uint64_t C = count();
    return C ? double(sum()) / double(C) : 0.0;
  }
  uint64_t bucket(unsigned I) const {
    return Buckets[I].load(std::memory_order_relaxed);
  }

  /// Folds a quiescent histogram into this one (counts and buckets add,
  /// min/max widen).
  void mergeFrom(const Histogram &O);

  /// Index of the power-of-two bucket V falls into.
  static unsigned bucketOf(uint64_t V) {
    unsigned B = 0;
    while (V) {
      ++B;
      V >>= 1;
    }
    return B < NumBuckets ? B : NumBuckets - 1;
  }

private:
  std::atomic<uint64_t> N{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Lo{~uint64_t(0)};
  std::atomic<uint64_t> Hi{0};
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
};

/// A log-linear latency distribution over microseconds, built for the
/// serve daemon's per-method quantiles (`serve.latency.<method>.*`).
/// Buckets are power-of-two octaves split into 8 linear sub-buckets, so
/// a reported quantile overstates the true value by at most one
/// sub-bucket width (~12.5%). record is lock-free; quantiles are read
/// from a relaxed snapshot of the buckets (exact once recording stops,
/// approximate while racing — fine for monitoring output).
class LatencyRecorder {
public:
  static constexpr unsigned SubBuckets = 8; // per octave; power of two
  static constexpr unsigned NumBuckets = 62 * SubBuckets;

  LatencyRecorder() = default;
  LatencyRecorder(const LatencyRecorder &) = delete;
  LatencyRecorder &operator=(const LatencyRecorder &) = delete;

  void recordUs(uint64_t Us) {
    N.fetch_add(1, std::memory_order_relaxed);
    SumUs.fetch_add(Us, std::memory_order_relaxed);
    atomicMax(MaxUs, Us);
    Buckets[bucketOf(Us)].fetch_add(1, std::memory_order_relaxed);
  }
  void recordMs(double Ms) {
    recordUs(Ms <= 0 ? 0 : static_cast<uint64_t>(Ms * 1000.0 + 0.5));
  }

  uint64_t count() const { return N.load(std::memory_order_relaxed); }
  double maxMs() const {
    return double(MaxUs.load(std::memory_order_relaxed)) / 1000.0;
  }
  double meanMs() const {
    uint64_t C = count();
    return C ? double(SumUs.load(std::memory_order_relaxed)) / double(C) /
                   1000.0
             : 0.0;
  }

  /// The value at quantile \p Q in [0,1], in microseconds: the upper
  /// bound of the first bucket whose cumulative count reaches Q*N
  /// (conservative — never understates). 0 when empty.
  uint64_t quantileUs(double Q) const;
  double quantileMs(double Q) const { return double(quantileUs(Q)) / 1000.0; }

  /// Folds a quiescent recorder into this one.
  void mergeFrom(const LatencyRecorder &O);

  /// Log-linear bucket index for \p Us.
  static unsigned bucketOf(uint64_t Us);
  /// Upper bound (exclusive-1, i.e. largest member) of bucket \p I.
  static uint64_t bucketUpperUs(unsigned I);

private:
  std::atomic<uint64_t> N{0};
  std::atomic<uint64_t> SumUs{0};
  std::atomic<uint64_t> MaxUs{0};
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
};

/// Collects spans, counters, histograms, latency recorders, and gauges
/// for one pipeline run, one serve request, or a whole daemon lifetime.
class Telemetry {
public:
  /// One completed phase span. Depth is the nesting level at the time
  /// the span opened (0 = top level).
  struct SpanRecord {
    std::string Name;
    uint64_t StartUs = 0;
    uint64_t DurUs = 0;
    unsigned Depth = 0;
  };

  /// RAII phase span. Constructing against a null or disabled Telemetry
  /// is a no-op; destruction appends a SpanRecord.
  class Span {
  public:
    Span(Telemetry *T, std::string_view Name);
    ~Span();
    Span(Span &&O) noexcept
        : T(O.T), Name(std::move(O.Name)), StartUs(O.StartUs),
          Depth(O.Depth) {
      O.T = nullptr;
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    Span &operator=(Span &&) = delete;

  private:
    Telemetry *T = nullptr;
    std::string Name;
    uint64_t StartUs = 0;
    unsigned Depth = 0;
  };

  explicit Telemetry(bool Enabled = true);

  bool enabled() const { return Enabled; }

  /// Request attribution: a correlation id stamped on every export this
  /// instance produces (the serve daemon gives each request-scoped child
  /// its request's cid). Empty by default.
  void setCorrelationId(std::string Cid);
  std::string correlationId() const;

  /// Returns the named counter, creating it on first use. On a disabled
  /// instance, returns a shared scratch slot that is never exported.
  /// The returned reference stays valid for the Telemetry's lifetime.
  Counter &counter(std::string_view Name);
  /// Returns the named histogram (same disabled-mode contract).
  Histogram &histogram(std::string_view Name);
  /// Returns the named latency recorder (same disabled-mode contract).
  LatencyRecorder &latency(std::string_view Name);

  /// Sets the named gauge to \p Value (last write wins — gauges are
  /// point-in-time snapshots such as `mem.peak_rss_kb`, not totals).
  /// No-op when disabled.
  void gauge(std::string_view Name, uint64_t Value);
  /// Copy of the gauge map (name -> latest value).
  std::map<std::string, uint64_t, std::less<>> gauges() const;

  /// Copy of the counter totals (name -> value), taken under the
  /// registration lock. The accessor to use while other threads may
  /// still be registering counter names (the serve daemon's stats
  /// path); the raw counters() map is only safe to iterate once
  /// registration has quiesced.
  std::map<std::string, uint64_t, std::less<>> countersSnapshot() const;

  /// Convenience mutators; both are no-ops when disabled. add() with a
  /// zero delta still registers the counter name, so a run's exported
  /// key set is deterministic.
  void add(std::string_view Name, uint64_t Delta) {
    if (Enabled)
      counter(Name) += Delta;
  }
  void record(std::string_view Name, uint64_t Value) {
    if (Enabled)
      histogram(Name).record(Value);
  }

  /// Folds a quiescent \p Child into this instance: counters add,
  /// histograms and latency recorders merge, gauges overwrite (last
  /// writer wins). Spans are NOT merged — a long-lived aggregate would
  /// grow without bound; per-request spans are exported from the child
  /// itself (writeTraceJson) while it is alive. Safe to call while other
  /// threads mutate this instance.
  void mergeFrom(const Telemetry &Child);

  /// Completed spans in completion order (inner spans close first).
  const std::vector<SpanRecord> &spans() const { return Spans; }
  /// Total wall time of all spans with this name, in microseconds.
  uint64_t phaseUs(std::string_view Name) const;

  const std::map<std::string, Counter, std::less<>> &counters() const {
    return Counters;
  }
  const std::map<std::string, Histogram, std::less<>> &histograms() const {
    return Histograms;
  }
  const std::map<std::string, LatencyRecorder, std::less<>> &
  latencies() const {
    return Latencies;
  }

  //===--------------------------------------------------------------------===//
  // Exporters
  //===--------------------------------------------------------------------===//

  /// Human-readable per-phase wall-time table (the --profile output),
  /// sorted by total wall time (hottest phase first). When any `mem.*`
  /// gauge is set, a final `mem:` summary line reports them, so a single
  /// profiled run shows memory without a JSON round-trip.
  std::string profileTable() const;

  /// Chrome trace_event JSON: {"traceEvents":[{"ph":"X",...},...]}.
  /// Loadable by chrome://tracing and Perfetto's trace_event parser.
  void writeTraceJson(std::ostream &OS) const;

  /// Flat stats JSON: counters, histogram summaries, gauges, latency
  /// quantiles, and per-phase wall times under stable keys — the
  /// BENCH_*.json building block.
  void writeStatsJson(std::ostream &OS) const;

  /// File variants; return false (without throwing) if the file cannot
  /// be opened.
  bool writeTraceJsonFile(const std::string &Path) const;
  bool writeStatsJsonFile(const std::string &Path) const;

  /// Renders every latency recorder as a JSON object keyed by recorder
  /// name: {"serve.latency.analyze":{"count":3,"p50":0.421,...},...}.
  /// Quantiles are milliseconds with 3 decimals. Shared between
  /// writeStatsJson and the serve `stats` method.
  std::string latencyJson() const;

  /// Escapes a string for embedding in a JSON document (helper shared
  /// with the bench harness's composite exports).
  static std::string jsonEscape(std::string_view S);

private:
  friend class Span;

  uint64_t nowUs() const;
  void statsJsonBody(std::ostream &OS) const;

  bool Enabled;
  std::chrono::steady_clock::time_point Epoch;
  /// Guards registration into the maps below, Spans/ActiveDepth, Gauges,
  /// and Cid. Mutating an already-resolved Counter/Histogram/
  /// LatencyRecorder handle never takes it.
  mutable std::mutex Mu;
  std::map<std::string, Counter, std::less<>> Counters;
  std::map<std::string, Histogram, std::less<>> Histograms;
  std::map<std::string, LatencyRecorder, std::less<>> Latencies;
  std::map<std::string, uint64_t, std::less<>> Gauges;
  std::vector<SpanRecord> Spans;
  std::string Cid;
  unsigned ActiveDepth = 0;
  Counter Scratch;
  Histogram HistScratch;
  LatencyRecorder LatScratch;
};

} // namespace support
} // namespace mcpta

#endif // MCPTA_SUPPORT_TELEMETRY_H
