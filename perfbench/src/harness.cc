#include "harness.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
Record::num(const std::string &key, double v)
{
    fields_.emplace_back(key, jsonNumber(v));
}

void
Record::str(const std::string &key, const std::string &v)
{
    fields_.emplace_back(key, jsonString(v));
}

void
Record::nums(const std::string &key, const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + jsonNumber(v[i]);
    fields_.emplace_back(key, out + "]");
}

void
Record::raw(const std::string &key, std::string json)
{
    fields_.emplace_back(key, std::move(json));
}

std::string
Record::json() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i)
        out += (i ? ", " : "") + jsonString(fields_[i].first) + ": " +
               fields_[i].second;
    return out + "}";
}

const char *
spanName(SpanName n)
{
    static const char *const names[] = {
        "wire.read",   "wire.write",  "inproc.read",
        "inproc.write", "db.begin",   "db.fetch",
        "db.persist",  "db.commit",   "pjh.pnew",
        "pjh.flush_object", "collections.put", "collections.get",
        "pjh.collect", "pjh.load_heap",
    };
    static_assert(sizeof(names) / sizeof(names[0]) ==
                  static_cast<std::size_t>(SpanName::kCount));
    return names[static_cast<std::size_t>(n)];
}

std::uint32_t
SpanLog::begin(SpanName n, std::uint64_t req, std::uint32_t parent)
{
    if (!on_)
        return kNoParent;
    spans_.push_back(Span{n, parent, req, nowNs(), 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
}

void
SpanLog::end(std::uint32_t id)
{
    if (id != kNoParent)
        spans_[id].endNs = nowNs();
}

void
SpanLog::add(SpanName n, std::uint64_t req, std::uint64_t start_ns,
             std::uint64_t end_ns, std::uint32_t parent)
{
    if (on_)
        spans_.push_back(Span{n, parent, req, start_ns, end_ns});
}

void
TraceSet::absorb(const SpanLog &log)
{
    logs_.push_back(log.spans());
}

Samples
TraceSet::durationsUs(SpanName n) const
{
    Samples s;
    for (const auto &log : logs_)
        for (const Span &sp : log)
            if (sp.name == n)
                s.add(static_cast<double>(sp.endNs - sp.startNs) / 1e3);
    return s;
}

std::string
TraceSet::summaryJson() const
{
    constexpr auto kNames = static_cast<std::size_t>(SpanName::kCount);
    std::vector<Samples> dur(kNames), self(kNames);
    for (const auto &log : logs_) {
        std::vector<std::uint64_t> child_ns(log.size(), 0);
        for (const Span &sp : log)
            if (sp.parent != kNoParent)
                child_ns[sp.parent] += sp.endNs - sp.startNs;
        for (std::size_t i = 0; i < log.size(); ++i) {
            const Span &sp = log[i];
            auto k = static_cast<std::size_t>(sp.name);
            std::uint64_t d = sp.endNs - sp.startNs;
            dur[k].add(static_cast<double>(d) / 1e3);
            self[k].add(static_cast<double>(d - std::min(d, child_ns[i])) /
                        1e3);
        }
    }
    Record out;
    for (std::size_t k = 0; k < kNames; ++k) {
        if (dur[k].empty())
            continue;
        Record one;
        one.num("count", static_cast<double>(dur[k].size()));
        one.num("p50_us", dur[k].median());
        one.num("self_p50_us", self[k].median());
        out.raw(spanName(static_cast<SpanName>(k)), one.json());
    }
    return out.json();
}

void
TraceSet::write(const std::string &path) const
{
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        throw std::runtime_error("cannot write spans to " + path);
    f << "name\treq\tparent\tstart_ns\tend_ns\n";
    for (const auto &log : logs_)
        for (const Span &sp : log)
            f << spanName(sp.name) << '\t' << sp.req << '\t'
              << (sp.parent == kNoParent ? -1 : static_cast<long long>(
                                                    sp.parent))
              << '\t' << sp.startNs << '\t' << sp.endNs << '\n';
    if (!f)
        throw std::runtime_error("short write of spans to " + path);
}

void
PhaseClock::run(double seconds,
                const std::function<std::uint64_t()> &completed,
                const std::function<bool()> &need_more)
{
    rates_.clear();
    std::uint64_t t0 = nowNs();
    std::uint64_t last_t = t0;
    std::uint64_t last_n = completed();
    while (!stop.load(std::memory_order_acquire)) {
        double elapsed = secondsSince(t0);
        bool timed_out = elapsed >= seconds;
        if (timed_out && (!need_more() || elapsed >= 3 * seconds))
            break;
        double step = std::min(1.0, std::max(0.05, seconds - elapsed));
        if (timed_out)
            step = 0.25;
        std::this_thread::sleep_for(std::chrono::duration<double>(step));
        std::uint64_t t = nowNs();
        std::uint64_t n = completed();
        rates_.push_back(static_cast<double>(n - last_n) /
                         (static_cast<double>(t - last_t) / 1e9));
        last_t = t;
        last_n = n;
    }
    stop.store(true, std::memory_order_release);
}

void
PhaseClock::record(Record &rec, const std::string &prefix) const
{
    rec.nums(prefix + ".interval_ops_s", rates_);
    if (rates_.size() >= 2 && rates_.front() > 0) {
        rec.num(prefix + ".first_interval_ops_s", rates_.front());
        rec.num(prefix + ".last_interval_ops_s", rates_.back());
        rec.num(prefix + ".last_over_first", rates_.back() / rates_.front());
    }
}

namespace {

/** Run @p body(i) on @p n threads for a PhaseClock phase of
 * @p seconds (bodies poll @p clock.stop), join them, and rethrow the
 * first exception a body raised. Returns the phase's wall seconds,
 * start to last join. */
double
runThreads(PhaseClock &clock, unsigned n, double seconds,
           const std::function<void(unsigned)> &body,
           const std::function<std::uint64_t()> &completed,
           const std::function<bool()> &need_more)
{
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::thread> threads;
    clock.stop.store(false);
    std::uint64_t t0 = nowNs();
    for (unsigned i = 0; i < n; ++i)
        threads.emplace_back([&, i] {
            try {
                body(i);
            } catch (...) {
                errors[i] = std::current_exception();
                clock.stop.store(true);
            }
        });
    clock.run(seconds, completed, need_more);
    for (auto &t : threads)
        t.join();
    double wall = secondsSince(t0);
    for (auto &e : errors)
        if (e)
            std::rethrow_exception(e);
    return wall;
}

} // namespace

void
ClientPhase::reset(bool trace)
{
    readUs = Samples();
    writeUs = Samples();
    reads.store(0);
    writes.store(0);
    attempts = failedAttempts = failedOps = 0;
    failures.clear();
    spans = SpanLog();
    spans.enable(trace);
    wrong.clear();
}

PhaseTotals
runClients(PhaseClock &clock, std::vector<ClientPhase *> clients,
           double seconds, bool trace,
           const std::function<void(unsigned)> &body)
{
    for (ClientPhase *c : clients)
        c->reset(trace);
    auto sum = [&](auto field) {
        std::uint64_t n = 0;
        for (ClientPhase *c : clients)
            n += field(*c);
        return n;
    };
    // The tail percentile needs 100 * kMinBeyond samples of each kind.
    constexpr std::uint64_t kTailSamples = 100 * kMinBeyond;
    PhaseTotals t;
    t.wallS = runThreads(
        clock, static_cast<unsigned>(clients.size()), seconds, body,
        [&] {
            return sum([](ClientPhase &c) {
                return c.reads.load() + c.writes.load();
            });
        },
        [&] {
            return sum([](ClientPhase &c) { return c.reads.load(); }) <
                       kTailSamples ||
                   sum([](ClientPhase &c) { return c.writes.load(); }) <
                       kTailSamples;
        });
    for (ClientPhase *c : clients) {
        t.readUs.append(c->readUs);
        t.writeUs.append(c->writeUs);
        t.reads += c->reads;
        t.writes += c->writes;
        t.attempts += c->attempts;
        t.failedAttempts += c->failedAttempts;
        t.failedOps += c->failedOps;
        for (const auto &[why, n] : c->failures)
            t.failures[why] += n;
        t.trace.absorb(c->spans);
        if (t.wrong.empty())
            t.wrong = c->wrong;
    }
    t.ops = t.reads + t.writes;
    return t;
}

void
recordPhase(Record &rec, const PhaseTotals &m)
{
    rec.num("read_share", m.readShare());
    Record failures;
    for (const auto &[why, n] : m.failures)
        failures.num(why, static_cast<double>(n));
    rec.raw("failed_attempts_by_reason", failures.json());
    rec.num("read_samples", static_cast<double>(m.readUs.size()));
    rec.num("write_samples", static_cast<double>(m.writeUs.size()));
}

void
setEndToEnd(Report &e, const PhaseTotals &m, double setup_s,
            double throughput_ops_s, double recovery_s, double write_amp)
{
    e.set("setup_s", setup_s);
    e.set("throughput_ops_s", throughput_ops_s);
    e.set("read_p50_us", m.readUs.median());
    e.set("read_p99_us", m.readUs.partTail(0.99));
    e.set("write_p50_us", m.writeUs.median());
    e.set("write_p99_us", m.writeUs.partTail(0.99));
    e.set("failed_share", failedShare(m.failedAttempts, m.attempts));
    e.set("recovery_s", recovery_s);
    e.set("write_amp", write_amp);
}

void
setTraceOverhead(Report &l, const PhaseTotals &m, double untraced_ops_s,
                 const PhaseTotals &t, double traced_ops_s)
{
    l.set("trace.overhead.throughput_pct",
          100.0 * (untraced_ops_s - traced_ops_s) / untraced_ops_s);
    l.set("trace.overhead.read_p50_us",
          t.readUs.median() - m.readUs.median());
    l.set("trace.overhead.write_p50_us",
          t.writeUs.median() - m.writeUs.median());
}

void
bypassLayers(Report &r, const std::vector<std::string> &prefixes)
{
    for (const MetricDef &m : metricTable()) {
        if (m.scope != Scope::kPerLayer)
            continue;
        for (const std::string &p : prefixes)
            if (std::string(m.name).rfind(p, 0) == 0)
                r.set(m.name, 0.0);
    }
}

Samples
repeatTimed(int min_reps, double budget_s, const std::function<double()> &fn)
{
    Samples s;
    std::uint64_t t0 = nowNs();
    while (static_cast<int>(s.size()) < min_reps ||
           secondsSince(t0) < budget_s)
        s.add(fn());
    return s;
}

} // namespace perfbench
