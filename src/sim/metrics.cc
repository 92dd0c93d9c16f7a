#include "sim/metrics.hh"

#include <algorithm>
#include <charconv>

#include "sim/logging.hh"

namespace snaple::sim {

namespace {

/** Longest text std::to_chars writes for a double. */
constexpr std::size_t kMaxDouble = 32;

/** Shortest round-trip text (std::to_chars), the one double path. */
char *
doubleChars(char *p, double v)
{
    auto [end, ec] = std::to_chars(p, p + kMaxDouble, v);
    panicIf(ec != std::errc{}, "formatDouble: to_chars failed");
    return end;
}

void
putDouble(std::string &out, double v)
{
    char buf[kMaxDouble];
    out.append(buf, doubleChars(buf, v));
}

void
putU64(std::string &out, std::uint64_t v)
{
    char buf[20];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/** Minimal JSON string escaping (names are tame, but be correct). */
void
putJsonString(std::string &out, std::string_view s)
{
    out += '"';
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    out += '"';
}

/** A histogram's JSONL fields after `"count":`, closing the object. */
void
putHistTail(std::string &out, const MetricHistogram &h)
{
    putU64(out, h.count());
    out += ",\"sum\":";
    putU64(out, h.sum());
    out += ",\"min\":";
    putU64(out, h.min());
    out += ",\"max\":";
    putU64(out, h.max());
    out += ",\"buckets\":[";
    bool first = true;
    for (std::size_t b = 0; b < MetricHistogram::kNumBuckets; ++b) {
        if (h.bucket(b) == 0)
            continue;
        out += first ? "[" : ",[";
        first = false;
        putU64(out, b);
        out += ',';
        putU64(out, h.bucket(b));
        out += ']';
    }
    out += "]}\n";
}

} // namespace

std::string
formatDouble(double v)
{
    char buf[kMaxDouble];
    return std::string(buf, doubleChars(buf, v));
}

double
MetricHistogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    if (p <= 0.0)
        return double(min_);
    if (p >= 100.0)
        return double(max_);

    // Target rank in [0, count-1]; the value at fractional rank r is
    // interpolated inside the bucket that holds floor(r).
    const double rank = p / 100.0 * double(count_ - 1);
    std::uint64_t below = 0;
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
        const std::uint64_t n = bucket(b);
        if (n == 0)
            continue;
        if (rank < double(below + n)) {
            // Linear interpolation across the bucket's value span,
            // positioned by how far the rank sits into the bucket.
            const double frac = (rank - double(below)) / double(n);
            double lo = double(bucketLo(b));
            double hi = double(bucketHi(b));
            // The recorded extremes tighten the outermost buckets.
            if (double(min_) > lo)
                lo = double(min_);
            if (double(max_) < hi)
                hi = double(max_);
            return lo + frac * (hi - lo);
        }
        below += n;
    }
    return double(max_); // unreachable when counts are consistent
}

void
MetricHistogram::checkBuckets(std::string_view name, std::uint64_t count,
                              const Sparse &buckets)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        const auto [b, n] = buckets[i];
        fatalIf(b >= kNumBuckets, "histogram ", name, ": bucket index ", b,
                " out of range (", kNumBuckets, " buckets)");
        fatalIf(i > 0 && b <= buckets[i - 1].first, "histogram ", name,
                ": bucket index ", b, " does not ascend");
        fatalIf(n == 0, "histogram ", name, ": bucket ", b,
                " has count 0");
        fatalIf(n > count - total, "histogram ", name,
                ": bucket counts exceed the count ", count);
        total += n;
    }
    fatalIf(total != count, "histogram ", name, ": bucket counts sum to ",
            total, ", not the count ", count);
}

std::size_t
MetricsRegistry::lowerBound(std::string_view name) const
{
    const auto it = std::lower_bound(
        names_.begin(), names_.end(), name,
        [this](const Entry &e, std::string_view n) {
            return nameOf(e) < n;
        });
    return static_cast<std::size_t>(it - names_.begin());
}

const MetricsRegistry::Entry &
MetricsRegistry::insert(std::size_t pos, std::string_view name, Kind kind,
                        GaugeMerge merge)
{
    static constexpr std::string_view kCsvType[] = {
        ",counter,",
        ",gauge,",
        ",hist,,",
    };
    static constexpr std::string_view kJsonType[] = {
        ",\"type\":\"counter\",\"v\":",
        ",\"type\":\"gauge\",\"v\":",
        ",\"type\":\"hist\",\"count\":",
    };
    const auto k = static_cast<std::size_t>(kind);
    Entry e;
    e.at = static_cast<std::uint32_t>(text_.size());
    e.nameLen = static_cast<std::uint32_t>(name.size());
    e.kind = kind;
    text_ += name;
    text_ += kCsvType[k];
    e.csvLen = static_cast<std::uint32_t>(text_.size() - e.at);
    text_ += ",\"name\":";
    putJsonString(text_, name);
    text_ += kJsonType[k];
    e.jsonLen = static_cast<std::uint32_t>(text_.size() - e.at - e.csvLen);
    switch (kind) {
      case Kind::Counter:
        e.idx = static_cast<std::uint32_t>(counters_.size());
        counters_.emplace_back();
        break;
      case Kind::Gauge:
        e.idx = static_cast<std::uint32_t>(gauges_.size());
        gauges_.emplace_back().merge_ = merge;
        break;
      case Kind::Histogram:
        e.idx = static_cast<std::uint32_t>(hists_.size());
        hists_.emplace_back();
        break;
    }
    return *names_.insert(names_.begin() + static_cast<std::ptrdiff_t>(pos),
                          e);
}

const MetricsRegistry::Entry &
MetricsRegistry::find(std::string_view name, Kind kind, GaugeMerge merge)
{
    const std::size_t pos = lowerBound(name);
    const Entry &e = pos < names_.size() && nameOf(names_[pos]) == name
                         ? names_[pos]
                         : insert(pos, name, kind, merge);
    panicIf(e.kind != kind, "metric kind mismatch for: ", name);
    return e;
}

MetricCounter &
MetricsRegistry::counter(std::string_view name)
{
    return counters_[find(name, Kind::Counter).idx];
}

MetricGauge &
MetricsRegistry::gauge(std::string_view name, GaugeMerge merge)
{
    return gauges_[find(name, Kind::Gauge, merge).idx];
}

MetricHistogram &
MetricsRegistry::histogram(std::string_view name)
{
    return hists_[find(name, Kind::Histogram).idx];
}

void
MetricsRegistry::mergeFrom(const MetricsRegistry &src, MergeTable &table)
{
    if (table.src_ != &src || table.dst_ != this ||
        table.srcGeneration_ != src.generation()) {
        table.src_ = &src;
        table.dst_ = this;
        table.srcGeneration_ = src.generation();
        table.counters_.assign(src.counters_.size(), nullptr);
        table.gauges_.assign(src.gauges_.size(), nullptr);
        table.hists_.assign(src.hists_.size(), nullptr);
        // Both name lists are sorted: one merge-join walk finds or
        // places every source name here.
        std::size_t d = 0;
        for (const Entry &s : src.names_) {
            const std::string_view name = src.nameOf(s);
            while (d < names_.size() && nameOf(names_[d]) < name)
                ++d;
            if (d == names_.size() || nameOf(names_[d]) != name)
                insert(d, name, s.kind,
                       s.kind == Kind::Gauge ? src.gauges_[s.idx].merge_
                                             : GaugeMerge::Sum);
            const Entry &e = names_[d];
            panicIf(e.kind != s.kind, "metric kind mismatch for: ", name);
            switch (s.kind) {
              case Kind::Counter:
                table.counters_[s.idx] = &counters_[e.idx];
                break;
              case Kind::Gauge:
                table.gauges_[s.idx] = &gauges_[e.idx];
                break;
              case Kind::Histogram:
                table.hists_[s.idx] = &hists_[e.idx];
                break;
            }
        }
    }

    for (std::size_t i = 0; i < table.counters_.size(); ++i)
        table.counters_[i]->inc(src.counters_[i].value());
    for (std::size_t i = 0; i < table.gauges_.size(); ++i) {
        const MetricGauge &g = src.gauges_[i];
        MetricGauge &d = *table.gauges_[i];
        switch (g.merge_) {
          case GaugeMerge::Skip:
            break;
          case GaugeMerge::Sum:
            d.v_ += g.v_;
            break;
          case GaugeMerge::Mean:
            // value() divides by the contribution count, so the
            // aggregate reads as the across-nodes mean.
            d.v_ += g.v_;
            ++d.mergedN_;
            break;
        }
    }
    for (std::size_t i = 0; i < table.hists_.size(); ++i)
        table.hists_[i]->mergeFrom(src.hists_[i]);
}

std::vector<MetricsRegistry::SavedInstrument>
MetricsRegistry::saveState() const
{
    std::vector<SavedInstrument> out;
    out.reserve(names_.size());
    for (const Entry &e : names_) {
        SavedInstrument si;
        si.name = nameOf(e);
        si.kind = static_cast<std::uint8_t>(e.kind);
        switch (e.kind) {
          case Kind::Counter:
            si.counter = counters_[e.idx].value();
            break;
          case Kind::Gauge: {
            const MetricGauge &g = gauges_[e.idx];
            si.gaugeV = g.v_;
            si.gaugeMerge = static_cast<std::uint8_t>(g.merge_);
            break;
          }
          case Kind::Histogram: {
            const MetricHistogram &h = hists_[e.idx];
            si.histCount = h.count();
            si.histSum = h.sum();
            si.histMin = h.min();
            si.histMax = h.max();
            for (std::size_t b = 0;
                 b < MetricHistogram::kNumBuckets; ++b)
                if (h.bucket(b))
                    si.buckets.emplace_back(b, h.bucket(b));
            break;
          }
        }
        out.push_back(std::move(si));
    }
    return out;
}

void
MetricsRegistry::restoreState(const std::vector<SavedInstrument> &saved)
{
    for (const SavedInstrument &s : saved) {
        fatalIf(s.kind > 2, "snapshot: bad instrument kind for ",
                s.name);
        const auto kind = static_cast<Kind>(s.kind);
        const std::size_t pos = lowerBound(s.name);
        const bool live =
            pos < names_.size() && nameOf(names_[pos]) == s.name;
        fatalIf(live && names_[pos].kind != kind, "snapshot: instrument ",
                s.name, " has kind ", unsigned(s.kind),
                ", the live one kind ",
                unsigned(live ? names_[pos].kind : kind));
        fatalIf(kind == Kind::Gauge &&
                    s.gaugeMerge >
                        static_cast<std::uint8_t>(GaugeMerge::Skip),
                "snapshot: bad gauge merge policy ",
                unsigned(s.gaugeMerge), " for ", s.name);
        if (kind == Kind::Histogram)
            MetricHistogram::checkBuckets(s.name, s.histCount, s.buckets);
        const std::uint32_t idx =
            live ? names_[pos].idx
                 : insert(pos, s.name, kind, GaugeMerge::Sum).idx;
        switch (kind) {
          case Kind::Counter:
            counters_[idx].set(s.counter);
            break;
          case Kind::Gauge: {
            MetricGauge &g = gauges_[idx];
            g.v_ = s.gaugeV;
            g.merge_ = static_cast<GaugeMerge>(s.gaugeMerge);
            g.mergedN_ = 0;
            break;
          }
          case Kind::Histogram:
            hists_[idx].restore(s.histCount, s.histSum, s.histMin,
                                s.histMax, s.buckets);
            break;
        }
    }
}

void
MetricsRegistry::resetValues()
{
    for (MetricCounter &c : counters_)
        c.reset();
    for (MetricGauge &g : gauges_)
        g.reset();
    for (MetricHistogram &h : hists_)
        h.reset();
}

void
MetricsRegistry::writeJsonl(std::string &out, Tick t,
                            std::string_view node) const
{
    std::string head = "{\"kind\":\"sample\",\"t\":";
    putU64(head, t);
    head += ",\"node\":";
    putJsonString(head, node);
    for (const Entry &e : names_) {
        out += head;
        out.append(text_, e.at + e.csvLen, e.jsonLen);
        switch (e.kind) {
          case Kind::Counter:
            putU64(out, counters_[e.idx].value());
            out += "}\n";
            break;
          case Kind::Gauge:
            putDouble(out, gauges_[e.idx].value());
            out += "}\n";
            break;
          case Kind::Histogram:
            putHistTail(out, hists_[e.idx]);
            break;
        }
    }
}

void
MetricsRegistry::writeCsvHeader(std::string &out)
{
    out += "t,node,name,type,value,count,sum,min,max,p50,p99\n";
}

void
MetricsRegistry::writeCsv(std::string &out, Tick t,
                          std::string_view node) const
{
    std::string head;
    putU64(head, t);
    head += ',';
    head += node;
    head += ',';
    for (const Entry &e : names_) {
        out += head;
        out.append(text_, e.at, e.csvLen);
        switch (e.kind) {
          case Kind::Counter:
            putU64(out, counters_[e.idx].value());
            out += ",,,,,,\n";
            break;
          case Kind::Gauge:
            putDouble(out, gauges_[e.idx].value());
            out += ",,,,,,\n";
            break;
          case Kind::Histogram: {
            const MetricHistogram &h = hists_[e.idx];
            putU64(out, h.count());
            out += ',';
            putU64(out, h.sum());
            out += ',';
            putU64(out, h.min());
            out += ',';
            putU64(out, h.max());
            out += ',';
            putDouble(out, h.percentile(50));
            out += ',';
            putDouble(out, h.percentile(99));
            out += '\n';
            break;
          }
        }
    }
}

void
MetricsRegistry::writeMetaJsonl(std::string &out, std::string_view node,
                                double volts, Tick interval)
{
    out += "{\"kind\":\"meta\",\"version\":1,\"node\":";
    putJsonString(out, node);
    out += ",\"volts\":";
    putDouble(out, volts);
    out += ",\"interval\":";
    putU64(out, interval);
    out += "}\n";
}

void
MetricsRegistry::writeProfileJsonl(std::string &out,
                                   std::string_view node,
                                   const ProfileRow &row)
{
    out += "{\"kind\":\"profile\",\"node\":";
    putJsonString(out, node);
    out += ",\"handler\":";
    putJsonString(out, row.handler);
    out += ",\"pc\":";
    putU64(out, row.pc);
    out += ",\"count\":";
    putU64(out, row.count);
    out += ",\"ticks\":";
    putU64(out, row.ticks);
    out += ",\"pj\":";
    putDouble(out, row.pj);
    out += "}\n";
}

} // namespace snaple::sim
