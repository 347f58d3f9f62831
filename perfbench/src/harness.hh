/**
 * @file
 * Run plumbing shared by the three workloads: options, the result of
 * one run, the run record, client-side spans, and the timed-phase
 * clock that samples per-interval throughput.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "metrics.hh"

namespace perfbench {

std::uint64_t nowNs();

inline double
secondsSince(std::uint64_t t0)
{
    return static_cast<double>(nowNs() - t0) / 1e9;
}

/** Command line of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned seconds = 10;
    bool trace = false;
    /** Wire workloads: sleeping fence drain, serialized per device. */
    std::uint64_t wireFenceNs = 25000;
    /** pjo_heap: spinning fence stall on the mutator's core. */
    std::uint64_t pjhFenceNs = 500;
    /** Where the traced run writes its spans (empty: nowhere). */
    std::string outDir;
    /** Revert one acknowledged write before the final check, which
     * must then fail the run (proves the checker can fail). */
    bool dropAckedWrite = false;
};

/** Ordered JSON object for the run record (input properties,
 * steady-state intervals, sample counts). */
class Record
{
  public:
    void num(const std::string &key, double v);
    void str(const std::string &key, const std::string &v);
    void nums(const std::string &key, const std::vector<double> &v);
    void raw(const std::string &key, std::string json);
    std::string json() const;

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** Outcome of one run. */
struct RunResult
{
    bool correct = true;
    std::string failure; ///< first failed check
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0; ///< ops that never succeeded
    Report metrics;
    Record record;

    void
    fail(const std::string &why)
    {
        if (correct)
            failure = why;
        correct = false;
    }
};

/** Points where the benchmark calls into a layer. */
enum class SpanName : std::uint8_t
{
    kWireRead,    ///< net: client send -> response, read op
    kWireWrite,   ///< net: client send -> response, write op
    kInprocRead,  ///< the same read replayed in-process
    kInprocWrite, ///< the same write replayed in-process
    kDbBegin,     ///< beginDetached
    kDbFetch,     ///< fetchRecord
    kDbPersist,   ///< persistRecord / updateRecord
    kDbCommit,    ///< commitDetached
    kPjhPnew,     ///< pnewInstance
    kPjhFlush,    ///< flushObject
    kMapPut,      ///< PHashmap::put
    kMapGet,      ///< PHashmap::get
    kPjhCollect,  ///< PjhHeap::collect
    kPjhLoad,     ///< HeapManager::loadHeap
    kCount
};

const char *spanName(SpanName n);

/** One timed call. Spans of one op share @c req; @c parent indexes
 * the enclosing span in the same log. */
struct Span
{
    SpanName name;
    std::uint32_t parent;
    std::uint64_t req;
    std::uint64_t startNs;
    std::uint64_t endNs;
};

constexpr std::uint32_t kNoParent = ~0u;

/** One thread's spans, kept in memory; a disabled log records
 * nothing. */
class SpanLog
{
  public:
    bool on() const { return on_; }
    void enable(bool on) { on_ = on; }

    /** Open a span now; returns its id (kNoParent when off). */
    std::uint32_t begin(SpanName n, std::uint64_t req,
                        std::uint32_t parent = kNoParent);
    void end(std::uint32_t id);

    /** Record a span whose bounds the caller measured. */
    void add(SpanName n, std::uint64_t req, std::uint64_t start_ns,
             std::uint64_t end_ns, std::uint32_t parent = kNoParent);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool on_ = false;
    std::vector<Span> spans_;
};

/** RAII span around one call. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, SpanName n, std::uint64_t req,
               std::uint32_t parent = kNoParent)
        : log_(log), id_(log.begin(n, req, parent))
    {}
    ~ScopedSpan() { log_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint32_t id() const { return id_; }

  private:
    SpanLog &log_;
    std::uint32_t id_;
};

/** Every thread's spans after a traced phase. */
class TraceSet
{
  public:
    void absorb(const SpanLog &log);

    /** Durations of every @p n span, in microseconds. */
    Samples durationsUs(SpanName n) const;

    /** JSON object: span name -> {count, p50 duration, p50 self
     * time} in microseconds. Self time is a span's duration minus
     * the time its child spans cover. */
    std::string summaryJson() const;

    /** One span per line: name, req, parent, start, end (ns). */
    void write(const std::string &path) const;

  private:
    /** Logs are kept apart: parent ids index within one log. */
    std::vector<std::vector<Span>> logs_;
};

/** Runs a timed phase: sleeps through @p seconds in one-second
 * intervals, sampling @p completed, then keeps going (to at most
 * three times @p seconds) while @p need_more reports too few
 * samples, and finally raises stop. */
class PhaseClock
{
  public:
    std::atomic<bool> stop{false};

    void run(double seconds, const std::function<std::uint64_t()> &completed,
             const std::function<bool()> &need_more);

    const std::vector<double> &intervals() const { return rates_; }

    /** intervals + first/last comparison into @p rec under
     * @p prefix. */
    void record(Record &rec, const std::string &prefix) const;

  private:
    std::vector<double> rates_;
};

/** One client thread's tallies for the current phase. An op is one
 * user-level request; an attempt is one try of it (ops that hit
 * kBusy / kConflict / kDeadlock are retried as new attempts). */
struct ClientPhase
{
    Samples readUs, writeUs;
    /** Ops finished, by kind (read while the phase runs). */
    std::atomic<std::uint64_t> reads{0}, writes{0};
    std::uint64_t attempts = 0, failedAttempts = 0;
    std::uint64_t failedOps = 0; ///< gave up: never succeeded
    /** Failed attempts by reason (wire status name, or the engine's). */
    std::map<std::string, std::uint64_t> failures;
    SpanLog spans;
    std::string wrong; ///< first correctness violation seen

    void reset(bool trace);

    void
    attemptFailed(const std::string &reason)
    {
        ++failedAttempts;
        ++failures[reason];
    }

    void
    violation(const std::string &why)
    {
        if (wrong.empty())
            wrong = why;
    }
};

/** Every client's tallies of one phase, merged. */
struct PhaseTotals
{
    Samples readUs, writeUs;
    std::uint64_t ops = 0, reads = 0, writes = 0;
    std::uint64_t attempts = 0, failedAttempts = 0, failedOps = 0;
    std::map<std::string, std::uint64_t> failures;
    double wallS = 0;
    TraceSet trace;
    std::string wrong;

    double opsPerS() const { return static_cast<double>(ops) / wallS; }
    double readShare() const
    {
        return static_cast<double>(reads) / static_cast<double>(ops);
    }
};

/** Reset @p clients, run @p body(i) for each through a timed phase
 * that lasts until p99 has enough samples of both op kinds, and merge
 * their tallies. */
PhaseTotals runClients(PhaseClock &clock, std::vector<ClientPhase *> clients,
                       double seconds, bool trace,
                       const std::function<void(unsigned)> &body);

/** The timed phase's read share, failed tries by reason and sample
 * counts, into the run record. */
void recordPhase(Record &rec, const PhaseTotals &m);

/** Every end-to-end metric: latencies and the failed share from the
 * timed phase @p m, the rest as the workload measured them. */
void setEndToEnd(Report &e, const PhaseTotals &m, double setup_s,
                 double throughput_ops_s, double recovery_s,
                 double write_amp);

/** trace.overhead.*: the traced phase @p t against the untraced
 * phase @p m of the same run, with their throughputs. */
void setTraceOverhead(Report &l, const PhaseTotals &m, double untraced_ops_s,
                      const PhaseTotals &t, double traced_ops_s);

/** Set every per-layer metric under @p prefixes to 0: the layers a
 * workload never calls into read as doing no work. */
void bypassLayers(Report &r, const std::vector<std::string> &prefixes);

/** @name Repetition of set-up and crash recovery
 * Each is repeated at least kMin* times and for at least its budget,
 * so its median spans a second or more of a shared host's noise, not
 * one short moment of it. */
/// @{
constexpr int kMinSetups = 5;
constexpr double kSetupBudgetS = 1.0;
constexpr int kMinRecoveries = 9;
constexpr double kRecoveryBudgetS = 2.0;
/// @}

/** Call @p fn (which returns the seconds it measured) at least
 * @p min_reps times and until @p budget_s seconds have passed since
 * the first call; returns what it measured. */
Samples repeatTimed(int min_reps, double budget_s,
                    const std::function<double()> &fn);

/** @p num / @p den, or 0 when nothing was counted. */
inline double
ratio(double num, double den)
{
    return den == 0 ? 0 : num / den;
}

/** Failure share the way the benchmark reports it: the add-one
 * estimate (failed + 1) / (attempts + 1), which is never 0, so a
 * relative bound on it stays defined when no attempt fails. */
inline double
failedShare(std::uint64_t failed_attempts, std::uint64_t attempts)
{
    return static_cast<double>(failed_attempts + 1) /
           static_cast<double>(attempts + 1);
}

/** @name Workloads (each fills @p r) */
/// @{
void runKvWire(const Options &o, RunResult &r);
void runTransferWire(const Options &o, RunResult &r);
void runPjoHeap(const Options &o, RunResult &r);
/// @}

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
