#include "metrics.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace perfbench {

std::size_t
rankIndex(std::size_t n, double q)
{
    if (n == 0 || !(q > 0.0) || q > 1.0)
        throw std::invalid_argument("rankIndex: need n > 0 and 0 < q <= 1");
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    return std::clamp<std::size_t>(rank, 1, n) - 1;
}

std::size_t
samplesBeyond(std::size_t n, double q)
{
    return n - 1 - rankIndex(n, q);
}

void
Samples::append(const Samples &o)
{
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    sorted_.clear();
}

const std::vector<double> &
Samples::sorted() const
{
    if (sorted_.size() != v_.size()) {
        sorted_ = v_;
        std::sort(sorted_.begin(), sorted_.end());
    }
    return sorted_;
}

double
Samples::median() const
{
    if (v_.empty())
        throw std::runtime_error("median of no samples");
    return sorted()[rankIndex(v_.size(), 0.5)];
}

double
Samples::tail(double q) const
{
    if (v_.empty() || samplesBeyond(v_.size(), q) < kMinBeyond)
        throw std::runtime_error(
            "p" + std::to_string(q * 100) + " needs " +
            std::to_string(kMinBeyond) + " samples above it; have " +
            std::to_string(v_.size()) + " samples");
    return sorted()[rankIndex(v_.size(), q)];
}

double
Samples::partTail(double q) const
{
    if (!(q < 1.0))
        return tail(q);
    // The fewest samples whose q rank has kMinBeyond above it; start
    // just under the closed form and step up past rounding.
    auto min_part =
        static_cast<std::size_t>(static_cast<double>(kMinBeyond) / (1.0 - q));
    min_part = min_part > 2 ? min_part - 2 : 1;
    while (samplesBeyond(min_part, q) < kMinBeyond)
        ++min_part;
    std::size_t parts = std::min(kTailParts, v_.size() / min_part);
    if (parts < 2)
        return tail(q);
    Samples tails;
    std::size_t per = v_.size() / parts;
    for (std::size_t p = 0; p < parts; ++p) {
        Samples part;
        auto first = v_.begin() + static_cast<std::ptrdiff_t>(p * per);
        // The last part takes the remainder.
        part.v_.assign(first, p + 1 == parts
                                  ? v_.end()
                                  : first + static_cast<std::ptrdiff_t>(per));
        tails.add(part.tail(q));
    }
    return tails.median();
}

double
Samples::max() const
{
    if (v_.empty())
        throw std::runtime_error("max of no samples");
    return sorted().back();
}

const std::vector<MetricDef> &
metricTable()
{
    constexpr Scope E = Scope::kEndToEnd;
    constexpr Scope L = Scope::kPerLayer;
    static const std::vector<MetricDef> table = {
        // End to end: what a client of the store sees.
        {"setup_s", "s", false, E},
        {"throughput_ops_s", "ops/s", true, E},
        {"read_p50_us", "us", false, E},
        {"read_p99_us", "us", false, E},
        {"write_p50_us", "us", false, E},
        {"write_p99_us", "us", false, E},
        {"failed_share", "ratio", false, E},
        {"recovery_s", "s", false, E},
        {"write_amp", "B/B", false, E},
        // net: reactor Server + wire protocol.
        {"net.frames_per_op", "count", false, L},
        {"net.admission_rejects_per_op", "count", false, L},
        {"net.read_overhead_us", "us", false, L},
        {"net.write_overhead_us", "us", false, L},
        // db: ShardedDatabase, row store, MVCC, 2PC, group commit.
        {"db.fetch_us.p50", "us", false, L},
        {"db.fetch_us.p99", "us", false, L},
        {"db.persist_us.p50", "us", false, L},
        {"db.persist_us.p99", "us", false, L},
        {"db.commit_us.p50", "us", false, L},
        {"db.commit_us.p99", "us", false, L},
        {"db.group_commit.avg_batch", "count", true, L},
        {"db.group_commit.window_timeouts_per_batch", "count", false, L},
        {"db.txn.useful_ratio", "ratio", true, L},
        {"db.txn.cross_shard_share", "ratio", false, L},
        {"db.recovery_ms", "ms", false, L},
        // nvm: persistence events per op, by device group.
        {"nvm.member.fences_per_op", "count", false, L},
        {"nvm.member.lines_per_op", "count", false, L},
        {"nvm.member.flush_calls_per_op", "count", false, L},
        {"nvm.coord.fences_per_op", "count", false, L},
        {"nvm.pjh.fences_per_op", "count", false, L},
        {"nvm.pjh.lines_per_op", "count", false, L},
        // pjh + collections: allocation, flush, map ops, GC, load.
        {"pjh.pnew_ns", "ns", false, L},
        {"pjh.flush_object_ns", "ns", false, L},
        {"collections.put_us", "us", false, L},
        {"collections.get_us", "us", false, L},
        {"pjh.gc.pause_ms.p50", "ms", false, L},
        {"pjh.gc.pause_ms.max", "ms", false, L},
        {"pjh.gc.mark_ms", "ms", false, L},
        {"pjh.gc.compact_ms", "ms", false, L},
        {"pjh.gc.cycles", "count", false, L},
        {"pjh.gc.marked_objects", "count", false, L},
        {"pjh.load_ms", "ms", false, L},
        {"pjh.load_bind_ms", "ms", false, L},
        {"pjh.load_safety_ms", "ms", false, L},
        // Cost of tracing itself: traced minus untraced, same run.
        {"trace.overhead.throughput_pct", "%", false, L},
        {"trace.overhead.read_p50_us", "us", false, L},
        {"trace.overhead.write_p50_us", "us", false, L},
    };
    return table;
}

const MetricDef *
findMetric(const std::string &name)
{
    for (const MetricDef &m : metricTable())
        if (name == m.name)
            return &m;
    return nullptr;
}

void
Report::set(const std::string &name, double value)
{
    if (findMetric(name) == nullptr)
        throw std::invalid_argument("unknown metric " + name);
    if (!std::isfinite(value))
        throw std::invalid_argument("non-finite value for " + name);
    values_[name] = value;
}

double
Report::get(const std::string &name) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        throw std::invalid_argument("metric " + name + " was not set");
    return it->second;
}

std::string
Report::json(Scope scope) const
{
    std::string out = "{";
    for (const MetricDef &m : metricTable()) {
        if (m.scope != scope)
            continue;
        if (out.size() > 1)
            out += ", ";
        out += jsonString(m.name) + ": {\"value\": " +
               jsonNumber(get(m.name)) +
               ", \"unit\": " + jsonString(m.unit) + "}";
    }
    return out + "}";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        throw std::invalid_argument("non-finite JSON number");
    char buf[64];
    auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue; // names and messages are single-line
        out += c;
    }
    return out + "\"";
}

} // namespace perfbench
