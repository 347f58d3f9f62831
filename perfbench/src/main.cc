/**
 * @file
 * The repo benchmark's binary (perfbench/run.py builds and
 * runs it):
 *
 *   perfbench --workload kv_wire|transfer_wire|pjo_heap --seed N
 *             --seconds S --trace 0|1 [--wire-fence-ns NS]
 *             [--pjh-fence-ns NS] [--out-dir DIR] [--drop-acked-write]
 *   perfbench --list-metrics
 *
 * Prints the run record (input properties, per-interval throughput,
 * span summaries) as one `record {...}` line, then the result as the
 * last line: {"correct", "attempted", "failed", "metrics"}. The
 * metrics are the end-to-end ones with --trace 0 and the per-layer
 * ones with --trace 1. Exits 1 when a correctness check failed and 2
 * on a usage or run error (no result line).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "kv_wire|transfer_wire|pjo_heap --seed N --seconds S "
                 "--trace 0|1 [--wire-fence-ns NS] [--pjh-fence-ns NS] "
                 "[--out-dir DIR] [--drop-acked-write] | --list-metrics\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
number(const char *flag, const char *s)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || s[0] == '-')
        usage(std::string("bad value for ") + flag + ": " + s);
    return v;
}

void
listMetrics()
{
    std::string out = "[";
    for (const MetricDef &m : metricTable()) {
        if (out.size() > 1)
            out += ", ";
        out += "{\"name\": " + jsonString(m.name) +
               ", \"unit\": " + jsonString(m.unit) + ", \"better\": " +
               jsonString(m.higherIsBetter ? "higher" : "lower") +
               ", \"scope\": " +
               jsonString(m.scope == Scope::kEndToEnd ? "end_to_end"
                                                      : "per_layer") +
               "}";
    }
    std::printf("%s]\n", out.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        if (a == "--list-metrics") {
            listMetrics();
            return 0;
        } else if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.seed = number("--seed", value());
            have_seed = true;
        } else if (a == "--seconds") {
            std::uint64_t s = number("--seconds", value());
            if (s < 1 || s > 600)
                usage("--seconds must be 1..600");
            o.seconds = static_cast<unsigned>(s);
            have_seconds = true;
        } else if (a == "--trace") {
            std::uint64_t t = number("--trace", value());
            if (t > 1)
                usage("--trace must be 0 or 1");
            o.trace = t == 1;
            have_trace = true;
        } else if (a == "--wire-fence-ns") {
            o.wireFenceNs = number("--wire-fence-ns", value());
        } else if (a == "--pjh-fence-ns") {
            o.pjhFenceNs = number("--pjh-fence-ns", value());
        } else if (a == "--out-dir") {
            o.outDir = value();
        } else if (a == "--drop-acked-write") {
            o.dropAckedWrite = true;
        } else {
            usage("unknown argument " + a);
        }
    }
    if (!have_seed || !have_seconds || !have_trace || o.workload.empty())
        usage("--workload, --seed, --seconds and --trace are required");

    RunResult r;
    try {
        if (o.workload == "kv_wire")
            runKvWire(o, r);
        else if (o.workload == "transfer_wire")
            runTransferWire(o, r);
        else if (o.workload == "pjo_heap")
            runPjoHeap(o, r);
        else
            usage("unknown workload " + o.workload);
        r.record.str("workload", o.workload);
        r.record.num("seed", static_cast<double>(o.seed));
        r.record.num("seconds", o.seconds);
        r.record.num("wire_fence_ns", static_cast<double>(o.wireFenceNs));
        r.record.num("pjh_fence_ns", static_cast<double>(o.pjhFenceNs));
        std::string metrics = r.metrics.json(
            o.trace ? Scope::kPerLayer : Scope::kEndToEnd);
        if (!r.correct)
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         r.failure.c_str());
        std::printf("record %s\n", r.record.json().c_str());
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": %s}\n",
                    r.correct ? "true" : "false",
                    static_cast<unsigned long long>(r.attempted),
                    static_cast<unsigned long long>(r.failed),
                    metrics.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s run failed: %s\n",
                     o.workload.c_str(), e.what());
        return 2;
    }
    std::fflush(stdout);
    return r.correct ? 0 : 1;
}
