/**
 * @file
 * Tests of the benchmark's own code: percentile selection, metric
 * names and units, and the result checkers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <stdexcept>

#include "harness.hh"
#include "metrics.hh"
#include "verify.hh"

namespace perfbench {
namespace {

/** Name syntax the benchmark contract accepts. */
bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '.' || c == '-';
    });
}

/** Unit syntax the benchmark contract accepts. */
bool
validUnit(const std::string &unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '/' || c == '%' || c == '.' || c == '-';
    });
}

Samples
oneTo(int n)
{
    Samples s;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        s.add(i);
    return s;
}

TEST(Percentile, NearestRank)
{
    EXPECT_EQ(rankIndex(1, 0.5), 0u);
    EXPECT_EQ(rankIndex(10, 0.5), 4u);
    EXPECT_EQ(rankIndex(1000, 0.99), 989u);
    EXPECT_EQ(rankIndex(7, 1.0), 6u);
    EXPECT_THROW(rankIndex(0, 0.5), std::invalid_argument);
    EXPECT_THROW(rankIndex(10, 0.0), std::invalid_argument);
}

TEST(Percentile, MedianOfOddAndEvenCounts)
{
    EXPECT_EQ(oneTo(5).median(), 3);
    EXPECT_EQ(oneTo(10).median(), 5);
    EXPECT_EQ(oneTo(10).max(), 10);
    EXPECT_THROW(Samples().median(), std::runtime_error);
}

TEST(Percentile, TailNeedsTenSamplesBeyond)
{
    // 1000 samples: p99 has exactly 10 above it.
    EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
    EXPECT_EQ(oneTo(1000).tail(0.99), 990);
    // 999 samples leave only 9 above the p99 rank: refused.
    EXPECT_EQ(samplesBeyond(999, 0.99), 9u);
    EXPECT_THROW(oneTo(999).tail(0.99), std::runtime_error);
    // A lower percentile is fine on the same data.
    EXPECT_EQ(oneTo(999).tail(0.9), 900);
}

TEST(Percentile, PartTailIgnoresADisturbedPart)
{
    // Ten parts of 1..1000; one of them ran 100x slower.
    Samples s;
    for (int p = 0; p < 10; ++p)
        for (int i = 1; i <= 1000; ++i)
            s.add(p == 3 ? 100.0 * i : i);
    EXPECT_EQ(s.partTail(0.99), 990);
    EXPECT_GT(s.tail(0.99), 1000);
}

TEST(Percentile, PartTailNeedsTenSamplesBeyondInEachPart)
{
    // Fewer than two parts of 1000: the plain tail, or nothing.
    EXPECT_EQ(oneTo(1999).partTail(0.99), oneTo(1999).tail(0.99));
    EXPECT_THROW(oneTo(999).partTail(0.99), std::runtime_error);
    // Never more than kTailParts parts: 40 x 1000 samples, each part
    // two copies of 1..1000, so each part's p99 is the same.
    Samples s;
    for (int p = 0; p < 40; ++p)
        for (int i = 1; i <= 1000; ++i)
            s.add(i);
    EXPECT_EQ(s.partTail(0.99), 990);
}

TEST(Metrics, NamesAndUnitsFollowTheContract)
{
    std::set<std::string> seen;
    int end_to_end = 0;
    for (const MetricDef &m : metricTable()) {
        EXPECT_TRUE(validMetricName(m.name)) << m.name;
        EXPECT_TRUE(validUnit(m.unit)) << m.name << " " << m.unit;
        EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
        end_to_end += m.scope == Scope::kEndToEnd;
    }
    EXPECT_EQ(end_to_end, 9);
    const MetricDef *setup = findMetric("setup_s");
    ASSERT_NE(setup, nullptr);
    EXPECT_STREQ(setup->unit, "s");
    EXPECT_FALSE(setup->higherIsBetter);
    EXPECT_EQ(setup->scope, Scope::kEndToEnd);
    // Timings say their unit in their name.
    for (const MetricDef &m : metricTable()) {
        std::string n = m.name;
        for (const char *u : {"_us", "_ms", "_ns"}) {
            if (n.find(u) != std::string::npos) {
                EXPECT_EQ(std::string(m.unit), std::string(u + 1)) << n;
            }
        }
    }
}

TEST(Metrics, SyntaxRejectsBadNames)
{
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_leading"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_TRUE(validMetricName("db.fetch_us.p50"));
    EXPECT_FALSE(validUnit(""));
    EXPECT_FALSE(validUnit("micro seconds"));
    EXPECT_TRUE(validUnit("ops/s"));
    EXPECT_TRUE(validUnit("%"));
}

TEST(Metrics, ReportRefusesUnknownMissingAndNonFinite)
{
    Report r;
    EXPECT_THROW(r.set("no_such_metric", 1), std::invalid_argument);
    EXPECT_THROW(r.set("setup_s", 1.0 / 0.0), std::invalid_argument);
    r.set("setup_s", 0.25);
    EXPECT_THROW(r.json(Scope::kEndToEnd), std::invalid_argument);
    for (const MetricDef &m : metricTable())
        if (m.scope == Scope::kEndToEnd)
            r.set(m.name, 1.5);
    std::string j = r.json(Scope::kEndToEnd);
    EXPECT_NE(j.find("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"),
              std::string::npos)
        << j;
    EXPECT_EQ(j.find("net."), std::string::npos);
}

TEST(Metrics, BypassedLayersReadZero)
{
    Report r;
    bypassLayers(r, {"net.", "db."});
    EXPECT_EQ(r.get("net.frames_per_op"), 0);
    EXPECT_EQ(r.get("db.commit_us.p99"), 0);
    EXPECT_THROW(r.get("pjh.gc.cycles"), std::invalid_argument);
    EXPECT_THROW(r.get("setup_s"), std::invalid_argument);
}

TEST(Metrics, FailedShareIsNeverZero)
{
    EXPECT_GT(failedShare(0, 1000000), 0);
    EXPECT_DOUBLE_EQ(failedShare(9, 99), 0.1);
}

std::int64_t
keyIsValue(std::int64_t key)
{
    return key;
}

TEST(Verify, IntactStorePasses)
{
    AckLog log(8, keyIsValue);
    log.ack(3, 300);
    log.ack(5, 500);
    std::vector<std::optional<std::int64_t>> seen = {0, 1, 2, 300,
                                                     4, 500, 6, 7};
    std::string first;
    EXPECT_EQ(log.check(seen, &first), 0u);
}

TEST(Verify, DroppedAcknowledgedWriteFails)
{
    AckLog log(8, keyIsValue);
    log.ack(3, 300);
    log.ack(3, 301);
    // The store lost the last acknowledged put of key 3.
    std::vector<std::optional<std::int64_t>> seen = {0, 1, 2, 300,
                                                     4, 5, 6, 7};
    std::string first;
    EXPECT_EQ(log.check(seen, &first), 1u);
    EXPECT_NE(first.find("key 3"), std::string::npos) << first;
    // A missing key is also a lost write.
    seen[3] = 301;
    seen[6] = std::nullopt;
    EXPECT_EQ(log.check(seen, &first), 1u);
}

TEST(Verify, GroupSumsMustBeConserved)
{
    std::string bad;
    EXPECT_EQ(checkGroupSums({10, -2, 2, 10, 5, 15}, 3, 10, &bad), 1u);
    EXPECT_NE(bad.find("group 1"), std::string::npos) << bad;
    EXPECT_EQ(checkGroupSums({10, -2, 2, 10, 5, -5}, 3, 10, &bad), 0u);
    EXPECT_THROW(checkGroupSums({1, 2}, 3, 3, &bad), std::invalid_argument);
}

} // namespace
} // namespace perfbench
