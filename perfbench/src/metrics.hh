/**
 * @file
 * Metric vocabulary of the repo benchmark: sample percentiles, the
 * named metric table, and the per-run report that prints it.
 *
 * Every metric the benchmark can print is declared once in
 * metricTable() with its unit and direction; Report refuses names
 * outside the table, so a typo cannot silently add a metric.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** A tail percentile is reported only with this many samples above
 * its rank; fewer and the run fails instead of guessing. */
constexpr std::size_t kMinBeyond = 10;

/** Zero-based nearest-rank index of quantile @p q in @p n sorted
 * samples (n > 0, 0 < q <= 1). */
std::size_t rankIndex(std::size_t n, double q);

/** Samples strictly above the nearest-rank @p q quantile. */
std::size_t samplesBeyond(std::size_t n, double q);

/** Most parts partTail() splits a run's samples into. */
constexpr std::size_t kTailParts = 20;

/** Measurements (latencies, pause times), kept in the order they were
 * added. */
class Samples
{
  public:
    void add(double v) { v_.push_back(v); sorted_.clear(); }
    void append(const Samples &o);
    std::size_t size() const { return v_.size(); }
    bool empty() const { return v_.empty(); }

    /** Median; throws when empty. */
    double median() const;

    /** Tail quantile @p q; throws std::runtime_error unless at least
     * kMinBeyond samples lie above its rank. */
    double tail(double q) const;

    /** Tail quantile @p q of a run, steadied against short
     * disturbances: the samples are cut, in the order they were
     * added, into at most kTailParts parts of equal size, each with
     * kMinBeyond samples above its @p q rank, and the median of the
     * parts' tails is returned. With too few samples for two parts it
     * is tail(q); with too few for one it throws. */
    double partTail(double q) const;

    /** Largest sample; throws when empty. */
    double max() const;

  private:
    const std::vector<double> &sorted() const;

    std::vector<double> v_;
    mutable std::vector<double> sorted_; ///< v_ sorted, built on demand
};

/** Which run prints a metric: the timed run or the traced run. */
enum class Scope
{
    kEndToEnd,
    kPerLayer,
};

struct MetricDef
{
    const char *name;
    const char *unit;
    bool higherIsBetter;
    Scope scope;
};

/** Every metric, in print order. */
const std::vector<MetricDef> &metricTable();

/** The table's definition of @p name, or nullptr. */
const MetricDef *findMetric(const std::string &name);

/** Metric values of one run. */
class Report
{
  public:
    /** Record @p name; throws on a name outside the table or a
     * non-finite value. */
    void set(const std::string &name, double value);

    double get(const std::string &name) const;

    /** `{"name": {"value": v, "unit": u}, ...}` over every metric of
     * @p scope; throws when one was never set. */
    std::string json(Scope scope) const;

  private:
    std::map<std::string, double> values_;
};

/** Shortest round-trip decimal form of @p v (JSON number). */
std::string jsonNumber(double v);

/** JSON string literal for @p s. */
std::string jsonString(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
