/**
 * @file
 * Tests for the metrics registry: log2 histogram bucketing edges,
 * percentile determinism, gauge merge policies, and byte-stable
 * serialization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/metrics.hh"

namespace {

using namespace snaple::sim;

std::string
jsonl(const MetricsRegistry &reg, Tick t, std::string_view node)
{
    std::string out;
    reg.writeJsonl(out, t, node);
    return out;
}

std::string
csv(const MetricsRegistry &reg, Tick t, std::string_view node)
{
    std::string out;
    reg.writeCsv(out, t, node);
    return out;
}

TEST(MetricHistogramTest, BucketEdgesFollowBitWidth)
{
    // Bucket 0 is exactly {0}; bucket b >= 1 is [2^(b-1), 2^b - 1].
    EXPECT_EQ(MetricHistogram::bucketOf(0), 0u);
    EXPECT_EQ(MetricHistogram::bucketOf(1), 1u);
    EXPECT_EQ(MetricHistogram::bucketOf(2), 2u);
    EXPECT_EQ(MetricHistogram::bucketOf(3), 2u);
    EXPECT_EQ(MetricHistogram::bucketOf(4), 3u);
    for (std::size_t k = 1; k < 64; ++k) {
        const std::uint64_t p = std::uint64_t{1} << k;
        EXPECT_EQ(MetricHistogram::bucketOf(p - 1), k);
        EXPECT_EQ(MetricHistogram::bucketOf(p), k + 1);
    }
    EXPECT_EQ(MetricHistogram::bucketOf(~std::uint64_t{0}), 64u);
}

TEST(MetricHistogramTest, BucketBoundsRoundTripThroughBucketOf)
{
    for (std::size_t b = 0; b < MetricHistogram::kNumBuckets; ++b) {
        EXPECT_EQ(MetricHistogram::bucketOf(MetricHistogram::bucketLo(b)),
                  b);
        EXPECT_EQ(MetricHistogram::bucketOf(MetricHistogram::bucketHi(b)),
                  b);
    }
}

TEST(MetricHistogramTest, RecordTracksMoments)
{
    MetricHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    h.record(7);
    h.record(100);
    h.record(3);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 110u);
    EXPECT_EQ(h.min(), 3u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 110.0 / 3.0);
}

TEST(MetricHistogramTest, PercentileIsClampedAndMonotone)
{
    MetricHistogram h;
    for (std::uint64_t v : {5u, 9u, 17u, 33u, 1000u, 1001u})
        h.record(v);
    EXPECT_DOUBLE_EQ(h.percentile(0), 5.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 1001.0);
    double prev = -1.0;
    for (double p = 0; p <= 100; p += 2.5) {
        double v = h.percentile(p);
        EXPECT_GE(v, prev) << "p=" << p;
        EXPECT_GE(v, 5.0);
        EXPECT_LE(v, 1001.0);
        prev = v;
    }
}

TEST(MetricHistogramTest, PercentileIsExactWhenAllSamplesEqual)
{
    // min == max tightens the interpolation span to a point.
    MetricHistogram h;
    for (int i = 0; i < 50; ++i)
        h.record(42);
    EXPECT_DOUBLE_EQ(h.percentile(1), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(99), 42.0);
}

TEST(MetricHistogramTest, MergeMatchesRecordingEverythingInOne)
{
    MetricHistogram a, b, both;
    for (std::uint64_t v : {0u, 1u, 6u, 900u}) {
        a.record(v);
        both.record(v);
    }
    for (std::uint64_t v : {2u, 2u, 70000u}) {
        b.record(v);
        both.record(v);
    }
    a.mergeFrom(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_EQ(a.sum(), both.sum());
    EXPECT_EQ(a.min(), both.min());
    EXPECT_EQ(a.max(), both.max());
    for (std::size_t bkt = 0; bkt < MetricHistogram::kNumBuckets; ++bkt)
        EXPECT_EQ(a.bucket(bkt), both.bucket(bkt)) << "bucket " << bkt;
    EXPECT_DOUBLE_EQ(a.percentile(50), both.percentile(50));
}

TEST(MetricHistogramTest, RestoreReproducesPercentiles)
{
    MetricHistogram h;
    for (std::uint64_t v : {3u, 19u, 21u, 500u, 8000u})
        h.record(v);
    MetricHistogram::Sparse buckets;
    for (std::size_t b = 0; b < MetricHistogram::kNumBuckets; ++b)
        if (h.bucket(b))
            buckets.emplace_back(b, h.bucket(b));
    MetricHistogram r;
    r.restore(h.count(), h.sum(), h.min(), h.max(), buckets);
    EXPECT_DOUBLE_EQ(r.percentile(50), h.percentile(50));
    EXPECT_DOUBLE_EQ(r.percentile(99), h.percentile(99));
    EXPECT_EQ(r.mean(), h.mean());
}

TEST(MetricsRegistryTest, CountersAndGaugesKeepStableReferences)
{
    MetricsRegistry reg;
    MetricCounter &c = reg.counter("a.count");
    c.inc(3);
    // Creating more instruments must not invalidate c.
    for (int i = 0; i < 100; ++i)
        reg.counter("filler." + std::to_string(i));
    c.inc();
    EXPECT_EQ(reg.counter("a.count").value(), 4u);
}

TEST(MetricsRegistryTest, MergePoliciesSumMeanSkip)
{
    MetricsRegistry a, b, dst;
    a.counter("n").inc(10);
    b.counter("n").inc(5);
    a.gauge("sum", GaugeMerge::Sum).set(2.0);
    b.gauge("sum", GaugeMerge::Sum).set(4.0);
    a.gauge("mean", GaugeMerge::Mean).set(0.5);
    b.gauge("mean", GaugeMerge::Mean).set(0.25);
    a.gauge("skip", GaugeMerge::Skip).set(7.0);
    b.gauge("skip", GaugeMerge::Skip).set(9.0);

    dst.mergeFrom(a);
    dst.mergeFrom(b);
    EXPECT_EQ(dst.counter("n").value(), 15u);
    EXPECT_DOUBLE_EQ(dst.gauge("sum").value(), 6.0);
    EXPECT_DOUBLE_EQ(dst.gauge("mean").value(), 0.375);
    EXPECT_DOUBLE_EQ(dst.gauge("skip").value(), 0.0);
}

TEST(MetricsRegistryTest, ResetThenRemergeIsIdempotent)
{
    MetricsRegistry src, dst;
    src.counter("c").inc(2);
    src.gauge("g", GaugeMerge::Mean).set(1.0);
    src.histogram("h").record(9);
    for (int round = 0; round < 3; ++round) {
        dst.resetValues();
        dst.mergeFrom(src);
        EXPECT_EQ(dst.counter("c").value(), 2u);
        EXPECT_DOUBLE_EQ(dst.gauge("g").value(), 1.0);
        EXPECT_EQ(dst.histogram("h").count(), 1u);
    }
}

TEST(MetricsRegistryTest, JsonlSnapshotsAreByteStable)
{
    MetricsRegistry reg;
    reg.counter("z.last").inc(1);
    reg.counter("a.first").inc(42);
    reg.gauge("m.duty", GaugeMerge::Mean).set(0.125);
    reg.histogram("h.wait").record(0);
    reg.histogram("h.wait").record(300);

    const std::string s1 = jsonl(reg, 777, "n0");
    EXPECT_EQ(s1, jsonl(reg, 777, "n0"));
    // Name-sorted order, not insertion order.
    EXPECT_LT(s1.find("a.first"), s1.find("z.last"));
    EXPECT_NE(s1.find("\"type\":\"hist\""), std::string::npos);
    EXPECT_NE(s1.find("\"v\":0.125"), std::string::npos);
}

TEST(MetricsRegistryTest, CsvRowsMatchHeaderShape)
{
    MetricsRegistry reg;
    reg.counter("c").inc(3);
    reg.gauge("g").set(1.5);
    reg.histogram("h").record(10);
    std::string out;
    MetricsRegistry::writeCsvHeader(out);
    reg.writeCsv(out, 5, "n1");
    std::istringstream in(out);
    std::string line;
    std::getline(in, line);
    const auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    const auto headerCommas = commas(line);
    int rows = 0;
    while (std::getline(in, line)) {
        EXPECT_EQ(commas(line), headerCommas) << line;
        ++rows;
    }
    EXPECT_EQ(rows, 3);
}

TEST(MetricsRegistryTest, FormatDoubleIsShortestRoundTrip)
{
    EXPECT_EQ(formatDouble(0.0), "0");
    EXPECT_EQ(formatDouble(0.5), "0.5");
    EXPECT_EQ(formatDouble(0.125), "0.125");
    EXPECT_EQ(formatDouble(3.0), "3");
}

// ---------------------------------------------------------------
// Byte pins. The expected strings were captured from the
// ostream-based writers these tests replaced; any formatter change
// that moves one byte fails here before it reaches a golden.

/** One registry holding every kind and every formatting edge. */
MetricsRegistry
everyKind()
{
    MetricsRegistry reg;
    reg.counter("c.max").set(std::numeric_limits<std::uint64_t>::max());
    reg.counter("c.zero");
    reg.counter("esc\"q\\b\x01z").inc(7);
    reg.gauge("g.neg").set(-2.5);
    reg.gauge("g.tiny").set(1e-300);
    reg.gauge("g.big", GaugeMerge::Skip).set(123456789.125);
    reg.histogram("h.empty");
    MetricHistogram &h = reg.histogram("h.full");
    for (std::uint64_t v : {0u, 1u, 5u, 6u, 1000u, 4000000u})
        h.record(v);
    return reg;
}

/** The "all" view of three nodes' Mean gauge plus a counter. */
MetricsRegistry
meanOverThree()
{
    MetricsRegistry nodes[3], dst;
    const double duty[3] = {0.1, 0.2, 0.4};
    for (int i = 0; i < 3; ++i) {
        nodes[i].gauge("core.duty_cycle", GaugeMerge::Mean).set(duty[i]);
        nodes[i].counter("core.instructions").inc(10u + unsigned(i));
    }
    for (const MetricsRegistry &n : nodes)
        dst.mergeFrom(n);
    return dst;
}

TEST(MetricsBytesTest, JsonlIsPinnedForEveryKind)
{
    EXPECT_EQ(jsonl(everyKind(), 18446744073709551615ull, "n\"1"),
              R"({"kind":"sample","t":18446744073709551615,"node":"n\"1","name":"c.max","type":"counter","v":18446744073709551615})" "\n"
              R"({"kind":"sample","t":18446744073709551615,"node":"n\"1","name":"c.zero","type":"counter","v":0})" "\n"
              R"({"kind":"sample","t":18446744073709551615,"node":"n\"1","name":"esc\"q\\b z","type":"counter","v":7})" "\n"
              R"({"kind":"sample","t":18446744073709551615,"node":"n\"1","name":"g.big","type":"gauge","v":123456789.125})" "\n"
              R"({"kind":"sample","t":18446744073709551615,"node":"n\"1","name":"g.neg","type":"gauge","v":-2.5})" "\n"
              R"({"kind":"sample","t":18446744073709551615,"node":"n\"1","name":"g.tiny","type":"gauge","v":1e-300})" "\n"
              R"({"kind":"sample","t":18446744073709551615,"node":"n\"1","name":"h.empty","type":"hist","count":0,"sum":0,"min":0,"max":0,"buckets":[]})" "\n"
              R"({"kind":"sample","t":18446744073709551615,"node":"n\"1","name":"h.full","type":"hist","count":6,"sum":4001012,"min":0,"max":4000000,"buckets":[[0,1],[1,1],[3,2],[10,1],[22,1]]})" "\n");
}

TEST(MetricsBytesTest, CsvIsPinnedForEveryKind)
{
    EXPECT_EQ(csv(everyKind(), 250, "n1"),
              R"(250,n1,c.max,counter,18446744073709551615,,,,,,)" "\n"
              R"(250,n1,c.zero,counter,0,,,,,,)" "\n"
              "250,n1,esc\"q\\b\x01" "z,counter,7,,,,,,\n"
              R"(250,n1,g.big,gauge,123456789.125,,,,,,)" "\n"
              R"(250,n1,g.neg,gauge,-2.5,,,,,,)" "\n"
              R"(250,n1,g.tiny,gauge,1e-300,,,,,,)" "\n"
              R"(250,n1,h.empty,hist,,0,0,0,0,0,0)" "\n"
              R"(250,n1,h.full,hist,,6,4001012,0,4000000,4.75,997.45)" "\n");
}

TEST(MetricsBytesTest, MeanGaugeOverThreeRegistriesIsPinned)
{
    const MetricsRegistry all = meanOverThree();
    EXPECT_EQ(jsonl(all, 7, "all"),
              R"({"kind":"sample","t":7,"node":"all","name":"core.duty_cycle","type":"gauge","v":0.23333333333333336})" "\n"
              R"({"kind":"sample","t":7,"node":"all","name":"core.instructions","type":"counter","v":33})" "\n");
    EXPECT_EQ(csv(all, 7, "all"),
              R"(7,all,core.duty_cycle,gauge,0.23333333333333336,,,,,,)" "\n"
              R"(7,all,core.instructions,counter,33,,,,,,)" "\n");
}

TEST(MetricsBytesTest, LateInstrumentJoinsNameOrderAndAggregate)
{
    MetricsRegistry node, all;
    MetricsRegistry::MergeTable table; // kept across both samples
    node.counter("b").inc(1);
    node.counter("d").inc(2);
    all.mergeFrom(node, table);
    EXPECT_EQ(jsonl(node, 1, "n0"),
              R"({"kind":"sample","t":1,"node":"n0","name":"b","type":"counter","v":1})" "\n"
              R"({"kind":"sample","t":1,"node":"n0","name":"d","type":"counter","v":2})" "\n");
    EXPECT_EQ(jsonl(all, 1, "all"),
              R"({"kind":"sample","t":1,"node":"all","name":"b","type":"counter","v":1})" "\n"
              R"({"kind":"sample","t":1,"node":"all","name":"d","type":"counter","v":2})" "\n");

    node.counter("c").inc(3);
    node.histogram("a").record(9);
    all.resetValues();
    all.mergeFrom(node, table);
    EXPECT_EQ(jsonl(node, 2, "n0"),
              R"({"kind":"sample","t":2,"node":"n0","name":"a","type":"hist","count":1,"sum":9,"min":9,"max":9,"buckets":[[4,1]]})" "\n"
              R"({"kind":"sample","t":2,"node":"n0","name":"b","type":"counter","v":1})" "\n"
              R"({"kind":"sample","t":2,"node":"n0","name":"c","type":"counter","v":3})" "\n"
              R"({"kind":"sample","t":2,"node":"n0","name":"d","type":"counter","v":2})" "\n");
    EXPECT_EQ(jsonl(all, 2, "all"),
              R"({"kind":"sample","t":2,"node":"all","name":"a","type":"hist","count":1,"sum":9,"min":9,"max":9,"buckets":[[4,1]]})" "\n"
              R"({"kind":"sample","t":2,"node":"all","name":"b","type":"counter","v":1})" "\n"
              R"({"kind":"sample","t":2,"node":"all","name":"c","type":"counter","v":3})" "\n"
              R"({"kind":"sample","t":2,"node":"all","name":"d","type":"counter","v":2})" "\n");
}

/**
 * Reference aggregate, by name: fold each source's saved instruments
 * into @p acc with the documented merge rules, one name at a time,
 * counting each Mean gauge's contributions in @p meanN. Dividing
 * those gauges by their count (meanOf) and restoreState() of the
 * result gives the "all" registry.
 */
void
mergeByName(std::map<std::string, MetricsRegistry::SavedInstrument> &acc,
            std::map<std::string, std::uint32_t> &meanN,
            const MetricsRegistry &src)
{
    for (const auto &s : src.saveState()) {
        auto [it, fresh] = acc.try_emplace(s.name);
        auto &d = it->second;
        if (fresh) {
            d.name = s.name;
            d.kind = s.kind;
            d.gaugeMerge = s.gaugeMerge;
        }
        switch (s.kind) {
          case 0:
            d.counter += s.counter;
            break;
          case 1:
            if (s.gaugeMerge != std::uint8_t(GaugeMerge::Skip))
                d.gaugeV += s.gaugeV;
            if (s.gaugeMerge == std::uint8_t(GaugeMerge::Mean))
                ++meanN[s.name];
            break;
          case 2: {
            if (s.histCount == 0)
                break;
            if (d.histCount == 0) {
                d.histMin = s.histMin;
                d.histMax = s.histMax;
            } else {
                d.histMin = std::min(d.histMin, s.histMin);
                d.histMax = std::max(d.histMax, s.histMax);
            }
            d.histCount += s.histCount;
            d.histSum += s.histSum;
            for (const auto &[b, n] : s.buckets) {
                auto at = std::lower_bound(
                    d.buckets.begin(), d.buckets.end(), b,
                    [](const auto &p, std::uint64_t i) {
                        return p.first < i;
                    });
                if (at == d.buckets.end() || at->first != b)
                    at = d.buckets.insert(at, {b, 0});
                at->second += n;
            }
            break;
          }
        }
    }
}

/** @p acc as restoreState() input, each Mean gauge divided by its
 *  contribution count from @p meanN as MetricGauge::value() does. */
std::vector<MetricsRegistry::SavedInstrument>
meanOf(const std::map<std::string, MetricsRegistry::SavedInstrument> &acc,
       const std::map<std::string, std::uint32_t> &meanN)
{
    std::vector<MetricsRegistry::SavedInstrument> saved;
    for (auto [name, ins] : acc) {
        const auto n = meanN.find(name);
        if (n != meanN.end() && n->second > 1)
            ins.gaugeV /= n->second;
        saved.push_back(ins);
    }
    return saved;
}

TEST(MetricsBytesTest, MergeOverMixedInstrumentSetsMatchesByName)
{
    // n0 has a radio, n1 does not; n2 gains its radio mid-run.
    MetricsRegistry n[3];
    for (int i = 0; i < 3; ++i) {
        n[i].counter("core.instructions").inc(100u * unsigned(i + 1));
        n[i].gauge("core.duty_cycle", GaugeMerge::Mean).set(0.3 * i);
        n[i].histogram("core.evq_wait_ticks").record(40u + unsigned(i));
    }
    n[0].counter("radio.tx_words").inc(5);
    n[0].gauge("radio.mode", GaugeMerge::Skip).set(2);
    MetricsRegistry all;
    MetricsRegistry::MergeTable tables[3]; // one per node, reused
    for (int sample = 0; sample < 3; ++sample) {
        if (sample == 1) {
            n[2].counter("radio.tx_words").inc(9);
            n[2].gauge("energy.radio_pj").set(-0.5);
        }
        for (int i = 0; i < 3; ++i)
            n[i].counter("core.instructions").inc(1);
        all.resetValues();
        std::map<std::string, MetricsRegistry::SavedInstrument> acc;
        std::map<std::string, std::uint32_t> meanN;
        for (int i = 0; i < 3; ++i) {
            all.mergeFrom(n[i], tables[i]);
            mergeByName(acc, meanN, n[i]);
        }
        MetricsRegistry ref;
        ref.restoreState(meanOf(acc, meanN));
        EXPECT_EQ(jsonl(all, Tick(sample), "all"),
                  jsonl(ref, Tick(sample), "all"))
            << "sample " << sample;
        EXPECT_EQ(csv(all, Tick(sample), "all"),
                  csv(ref, Tick(sample), "all"))
            << "sample " << sample;
    }
}

// ---------------------------------------------------------------
// Snapshot input is data: a bad instrument record is a FatalError
// that names it, never a simulator panic or a silent skip.

TEST(MetricsRestoreTest, KindDisagreementIsFatalAndNamed)
{
    MetricsRegistry reg;
    reg.counter("msg.tx_words").inc(4);
    MetricsRegistry::SavedInstrument s;
    s.name = "msg.tx_words";
    s.kind = 1; // gauge, but the live instrument is a counter
    try {
        reg.restoreState({s});
        FAIL() << "restoreState accepted a kind mismatch";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("msg.tx_words"),
                  std::string::npos)
            << e.what();
    }
}

TEST(MetricsRestoreTest, SavedHistogramKeepsOnlyRecordedBuckets)
{
    MetricsRegistry reg;
    reg.counter("a.count").inc(2);
    MetricHistogram &h = reg.histogram("h.wait");
    for (std::uint64_t v : {0u, 5u, 6u, 300u})
        h.record(v);
    const auto saved = reg.saveState();
    ASSERT_EQ(saved.size(), 2u);
    EXPECT_TRUE(saved[0].buckets.empty()); // a counter has none
    EXPECT_EQ(saved[1].buckets,
              (MetricHistogram::Sparse{{0, 1}, {3, 2}, {9, 1}}));
    MetricsRegistry back;
    back.restoreState(saved);
    EXPECT_EQ(jsonl(back, 1, "n0"), jsonl(reg, 1, "n0"));
}

/** restoreState() of histogram "h.wait" holding @p buckets for
 *  @p count samples must throw a FatalError naming it. */
void
expectBucketsRefused(std::uint64_t count, MetricHistogram::Sparse buckets)
{
    MetricsRegistry reg;
    MetricsRegistry::SavedInstrument s;
    s.name = "h.wait";
    s.kind = 2;
    s.histCount = count;
    s.buckets = std::move(buckets);
    try {
        reg.restoreState({s});
        FAIL() << "restoreState accepted bad buckets";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("h.wait"), std::string::npos)
            << e.what();
    }
}

TEST(MetricsRestoreTest, BadBucketPairsAreFatalAndNamed)
{
    expectBucketsRefused(1, {{65, 1}});
    expectBucketsRefused(~std::uint64_t{0}, {{~std::uint64_t{0}, 1}});
    expectBucketsRefused(2, {{3, 1}, {3, 1}});          // repeated
    expectBucketsRefused(2, {{4, 1}, {3, 1}});          // descending
    expectBucketsRefused(1, {{2, 0}, {3, 1}});          // zero count
    expectBucketsRefused(3, {{3, 1}, {4, 1}});          // sums short
    expectBucketsRefused(1, {{3, 1}, {4, 1}});          // sums over
    expectBucketsRefused(1, {{3, 1}, {4, ~std::uint64_t{0}}}); // wraps
    expectBucketsRefused(1, {});
}

TEST(MetricsRestoreTest, OutOfRangeGaugeMergeIsFatalAndNamed)
{
    MetricsRegistry reg;
    MetricsRegistry::SavedInstrument s;
    s.name = "core.duty_cycle";
    s.kind = 1;
    s.gaugeMerge = 3;
    try {
        reg.restoreState({s});
        FAIL() << "restoreState accepted gaugeMerge 3";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("core.duty_cycle"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
