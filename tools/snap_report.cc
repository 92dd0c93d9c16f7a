/**
 * @file
 * snap-report: fold a snap-run metrics file into paper-style tables.
 *
 * Usage: snap-report FILE.jsonl [--folded] [--validate] [--energest]
 *
 * Reads the JSONL metrics stream written by `snap-run --metrics=FILE`
 * (schema in docs/METRICS.md) and prints:
 *
 *  - a per-node run summary (instructions, handlers, duty cycle),
 *  - dynamic energy by ledger category by supply voltage, the shape of
 *    the paper's section 4.4 energy table (nodes sharing a voltage are
 *    summed; run snap-run with --volts 1.8,0.9,0.6 to get all three
 *    operating points from one file),
 *  - the committed instruction mix by ISA class,
 *  - handler dispatch-latency percentiles (enqueue-to-dispatch wait)
 *    from the merged "all" histograms, rebuilt bucket-for-bucket so
 *    the percentile estimator is the simulator's own,
 *  - air/radio channel totals.
 *
 * --folded instead emits the end-of-run per-PC profile (snap-run
 * --profile) as collapsed stacks — `node;handler;0x<pc> <ticks>` — the
 * format speedscope and flamegraph.pl ingest directly.
 *
 * --validate parses every line strictly and exits nonzero on the
 * first malformed one (CI smoke uses this).
 *
 * --energest prints the component duty ledger (docs/METRICS.md,
 * "Energest duty gauges"): per-component duty-cycle percentage and
 * attributed energy, summed over the nodes at each supply voltage —
 * the energest-style table Contiki prints, rebuilt from the
 * energest.* gauges the simulator streams.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "isa/isa.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/ticks.hh"
#include "jsonl.hh"

namespace {

using namespace snaple;
using tools::getF64;
using tools::getU64;
using tools::parseU64;
using tools::valueOffset;

/** One parsed sample line; histograms keep their bucket vector. */
struct Sample
{
    std::string type; ///< "counter" | "gauge" | "hist"
    double v = 0.0;
    std::uint64_t count = 0, sum = 0, min = 0, max = 0;
    sim::MetricHistogram::Sparse buckets;
};

struct NodeData
{
    double volts = 0.0;
    bool hasMeta = false;
    std::map<std::string, Sample> last; ///< name -> latest sample
};

struct ProfileLine
{
    std::string node, handler;
    std::uint64_t pc = 0, count = 0, ticks = 0;
    double pj = 0.0;
};

bool
getString(const std::string &line, const char *key, std::string &out)
{
    std::size_t at = valueOffset(line, key);
    if (at == std::string::npos || at >= line.size() ||
        line[at] != '"')
        return false;
    out.clear();
    for (std::size_t i = at + 1; i < line.size(); ++i) {
        char c = line[i];
        if (c == '\\' && i + 1 < line.size()) {
            out.push_back(line[++i]);
        } else if (c == '"') {
            return true;
        } else {
            out.push_back(c);
        }
    }
    return false;
}

/** Parse `"buckets":[[b,n],...]` (possibly empty). The pairs still
 *  need MetricHistogram::checkBuckets(). */
bool
getBuckets(const std::string &line, sim::MetricHistogram::Sparse &out)
{
    std::size_t at = valueOffset(line, "buckets");
    if (at == std::string::npos || line[at] != '[')
        return false;
    out.clear();
    std::size_t i = at + 1;
    while (i < line.size() && line[i] != ']') {
        if (line[i] != '[')
            return false;
        const char *end = nullptr;
        std::uint64_t b = 0, n = 0;
        if (!parseU64(line.c_str() + i + 1, end, b) || *end != ',' ||
            !parseU64(end + 1, end, n) || *end != ']')
            return false;
        out.emplace_back(b, n);
        i = std::size_t(end - line.c_str()) + 1;
        if (i < line.size() && line[i] == ',')
            ++i;
    }
    return i < line.size();
}

struct Report
{
    std::map<std::string, NodeData> nodes;
    std::vector<ProfileLine> profiles;
    std::uint64_t sampleLines = 0;
    std::uint64_t lastT = 0;

    /** Parse one line; returns false (with *err set) when malformed. */
    bool
    addLine(const std::string &line, std::string *err)
    {
        if (line.empty())
            return true;
        std::string kind;
        if (!getString(line, "kind", kind)) {
            *err = "no \"kind\" field";
            return false;
        }
        if (kind == "meta") {
            std::string node;
            double volts;
            if (!getString(line, "node", node) ||
                !getF64(line, "volts", volts)) {
                *err = "meta line missing node/volts";
                return false;
            }
            nodes[node].volts = volts;
            nodes[node].hasMeta = true;
            return true;
        }
        if (kind == "sample") {
            std::string node, name;
            Sample s;
            std::uint64_t t;
            if (!getString(line, "node", node) ||
                !getString(line, "name", name) ||
                !getString(line, "type", s.type) ||
                !getU64(line, "t", t)) {
                *err = "sample line missing node/name/type/t";
                return false;
            }
            if (s.type == "counter" || s.type == "gauge") {
                if (!getF64(line, "v", s.v)) {
                    *err = "sample line missing v";
                    return false;
                }
            } else if (s.type == "hist") {
                if (!getU64(line, "count", s.count) ||
                    !getU64(line, "sum", s.sum) ||
                    !getU64(line, "min", s.min) ||
                    !getU64(line, "max", s.max) ||
                    !getBuckets(line, s.buckets)) {
                    *err = "hist sample missing fields";
                    return false;
                }
                try {
                    sim::MetricHistogram::checkBuckets(name, s.count,
                                                       s.buckets);
                } catch (const sim::FatalError &e) {
                    *err = e.what();
                    return false;
                }
            } else {
                *err = "unknown sample type " + s.type;
                return false;
            }
            nodes[node].last[name] = std::move(s);
            ++sampleLines;
            if (t > lastT)
                lastT = t;
            return true;
        }
        if (kind == "profile") {
            ProfileLine p;
            if (!getString(line, "node", p.node) ||
                !getString(line, "handler", p.handler) ||
                !getU64(line, "pc", p.pc) ||
                !getU64(line, "count", p.count) ||
                !getU64(line, "ticks", p.ticks) ||
                !getF64(line, "pj", p.pj)) {
                *err = "profile line missing fields";
                return false;
            }
            profiles.push_back(std::move(p));
            return true;
        }
        *err = "unknown kind " + kind;
        return false;
    }

    double
    value(const std::string &node, const std::string &name) const
    {
        auto n = nodes.find(node);
        if (n == nodes.end())
            return 0.0;
        auto s = n->second.last.find(name);
        return s == n->second.last.end() ? 0.0 : s->second.v;
    }
};

/** A node row is a real node iff it carried a meta line. */
bool
isRealNode(const std::pair<const std::string, NodeData> &kv)
{
    return kv.second.hasMeta;
}

void
printSummary(const Report &r)
{
    std::printf("run: %llu sample lines, %zu node(s), last sample at "
                "%.3f ms\n\n",
                static_cast<unsigned long long>(r.sampleLines),
                static_cast<std::size_t>(std::count_if(
                    r.nodes.begin(), r.nodes.end(), isRealNode)),
                double(r.lastT) / 1e9);
    std::printf("%-6s %7s %14s %10s %10s %10s\n", "node", "volts",
                "instructions", "handlers", "sleeps", "duty");
    for (const auto &[name, nd] : r.nodes) {
        if (!nd.hasMeta)
            continue;
        std::printf("%-6s %7.2f %14.0f %10.0f %10.0f %9.4f%%\n",
                    name.c_str(), nd.volts,
                    r.value(name, "core.instructions"),
                    r.value(name, "core.handlers"),
                    r.value(name, "core.sleeps"),
                    100.0 * r.value(name, "core.duty_cycle"));
    }
    std::printf("\n");
}

void
printEnergyByVoltage(const Report &r)
{
    // Columns: distinct supply voltages, descending (1.8, 0.9, 0.6).
    std::set<double, std::greater<double>> voltSet;
    for (const auto &kv : r.nodes)
        if (kv.second.hasMeta)
            voltSet.insert(kv.second.volts);
    if (voltSet.empty())
        return;
    std::vector<double> volts(voltSet.begin(), voltSet.end());

    // Rows: every energy.<cat>_pj gauge seen on any real node.
    std::set<std::string> cats;
    for (const auto &[name, nd] : r.nodes) {
        if (!nd.hasMeta)
            continue;
        for (const auto &[metric, s] : nd.last)
            if (metric.rfind("energy.", 0) == 0)
                cats.insert(metric);
    }
    if (cats.empty())
        return;

    std::printf("dynamic + leakage energy by category (nJ, summed "
                "over nodes at each supply)\n");
    std::printf("%-12s", "category");
    for (double v : volts)
        std::printf(" %11.2f V", v);
    std::printf("\n");
    std::vector<double> totals(volts.size(), 0.0);
    for (const std::string &cat : cats) {
        // "energy.datapath_pj" -> "datapath"
        std::string label = cat.substr(7, cat.size() - 7 - 3);
        std::printf("%-12s", label.c_str());
        for (std::size_t c = 0; c < volts.size(); ++c) {
            double pj = 0.0;
            for (const auto &[name, nd] : r.nodes)
                if (nd.hasMeta && nd.volts == volts[c])
                    pj += r.value(name, cat);
            totals[c] += pj;
            std::printf(" %13.2f", pj / 1e3);
        }
        std::printf("\n");
    }
    std::printf("%-12s", "total");
    for (double t : totals)
        std::printf(" %13.2f", t / 1e3);
    std::printf("\n\n");
}

/**
 * The energest duty table: per-component duty % (accrued ticks over
 * the run's final sample instant, averaged over the nodes at each
 * supply) and attributed energy. Exit status 1 when the file carries
 * no energest gauges at all.
 */
int
printEnergest(const Report &r)
{
    std::set<double, std::greater<double>> voltSet;
    std::map<double, std::size_t> nodesAt;
    for (const auto &kv : r.nodes)
        if (kv.second.hasMeta) {
            voltSet.insert(kv.second.volts);
            ++nodesAt[kv.second.volts];
        }
    if (voltSet.empty() || r.lastT == 0) {
        std::fprintf(stderr, "no node meta lines or samples — not a "
                             "snap-run metrics file?\n");
        return 1;
    }
    std::vector<double> volts(voltSet.begin(), voltSet.end());

    static const char *kComps[] = {"cpu_active", "cpu_sleep",
                                   "radio_tx",   "radio_listen",
                                   "radio_off",  "timer",
                                   "sensor",     "msg"};
    bool any = false;
    for (const char *comp : kComps)
        for (const auto &[name, nd] : r.nodes)
            if (nd.hasMeta &&
                nd.last.count("energest." + std::string(comp) +
                              "_ticks"))
                any = true;
    if (!any) {
        std::fprintf(stderr,
                     "no energest.* gauges — run a build with the "
                     "duty ledger (docs/METRICS.md) first\n");
        return 1;
    }

    std::printf("energest component duty and attributed energy "
                "(per supply; duty averaged, nJ summed over nodes)\n");
    std::printf("%-14s", "component");
    for (double v : volts)
        std::printf("   %4.2fV duty %9s", v, "nJ");
    std::printf("\n");
    for (const char *comp : kComps) {
        const std::string ticksName =
            "energest." + std::string(comp) + "_ticks";
        const std::string pjName =
            "energest." + std::string(comp) + "_pj";
        std::printf("%-14s", comp);
        for (double v : volts) {
            double ticks = 0.0, pj = 0.0;
            bool hasPj = false;
            for (const auto &[name, nd] : r.nodes) {
                if (!nd.hasMeta || nd.volts != v)
                    continue;
                ticks += r.value(name, ticksName);
                if (nd.last.count(pjName)) {
                    hasPj = true;
                    pj += r.value(name, pjName);
                }
            }
            const double duty =
                ticks / (double(nodesAt.at(v)) * double(r.lastT));
            std::printf("   %9.4f%%", 100.0 * duty);
            // The core's active/sleep split has no attributed pJ
            // gauge (the ledger's category table covers it).
            if (hasPj)
                std::printf(" %9.2f", pj / 1e3);
            else
                std::printf(" %9s", "-");
        }
        std::printf("\n");
    }
    std::printf("\n");
    return 0;
}

void
printInstructionMix(const Report &r)
{
    // The "all" aggregate holds the summed per-class counters.
    auto all = r.nodes.find("all");
    const NodeData *src = all != r.nodes.end() ? &all->second : nullptr;
    if (!src) {
        // Single-machine files have exactly one node and no aggregate.
        for (const auto &kv : r.nodes)
            if (kv.second.hasMeta)
                src = &kv.second;
    }
    if (!src)
        return;
    // Retirements only: core.class.<slug> counters, not their
    // .ticks and .pj companions.
    double total = 0.0;
    std::vector<std::pair<std::string, double>> classes;
    for (const auto &[metric, s] : src->last)
        if (metric.rfind("core.class.", 0) == 0 &&
            metric.find('.', 11) == std::string::npos &&
            s.type == "counter" && s.v > 0) {
            classes.emplace_back(metric.substr(11), s.v);
            total += s.v;
        }
    if (classes.empty() || total == 0.0)
        return;
    std::sort(classes.begin(), classes.end(),
              [](const auto &a, const auto &b) {
                  return a.second != b.second ? a.second > b.second
                                              : a.first < b.first;
              });
    std::printf("instruction mix (all nodes)\n");
    for (const auto &[cls, n] : classes)
        std::printf("%-14s %12.0f  %5.1f%%\n", cls.c_str(), n,
                    100.0 * n / total);
    std::printf("\n");
}

void
printLatency(const Report &r)
{
    auto all = r.nodes.find("all");
    const NodeData *src = all != r.nodes.end() ? &all->second : nullptr;
    if (!src)
        for (const auto &kv : r.nodes)
            if (kv.second.hasMeta)
                src = &kv.second;
    if (!src)
        return;
    bool any = false;
    for (const auto &[metric, s] : src->last) {
        if (metric.rfind("core.evq_wait_ticks", 0) != 0 ||
            s.type != "hist" || s.count == 0)
            continue;
        if (!any) {
            // Ticks are ps; three decimals of ns keep every tick.
            std::printf("handler dispatch latency, enqueue to "
                        "dispatch (ns)\n");
            std::printf("%-28s %9s %11s %11s %11s %11s\n", "event",
                        "samples", "p50", "p90", "p99", "max");
            any = true;
        }
        // Rebuild the histogram so percentiles use the simulator's
        // own deterministic estimator.
        sim::MetricHistogram h;
        h.restore(s.count, s.sum, s.min, s.max, s.buckets);
        std::string label = metric == "core.evq_wait_ticks"
                                ? "(all events)"
                                : metric.substr(20);
        std::printf("%-28s %9llu %11.3f %11.3f %11.3f %11.3f\n",
                    label.c_str(),
                    static_cast<unsigned long long>(h.count()),
                    h.percentile(50) / 1e3, h.percentile(90) / 1e3,
                    h.percentile(99) / 1e3, double(h.max()) / 1e3);
    }
    if (any)
        std::printf("\n");
}

void
printAir(const Report &r)
{
    auto net = r.nodes.find("net");
    if (net == r.nodes.end())
        return;
    std::printf("air: %.0f words sent, %.0f delivered, %.0f collided, "
                "%.0f sniff-ring overwrites\n",
                r.value("net", "air.words_sent"),
                r.value("net", "air.words_delivered"),
                r.value("net", "air.collisions"),
                r.value("net", "air.sniff_overwrites"));
}

void
printFolded(const Report &r)
{
    // Collapsed-stack form: one line per (node, handler, pc), weight =
    // attributed ticks. speedscope and flamegraph.pl read this as-is.
    for (const ProfileLine &p : r.profiles)
        std::printf("%s;%s;0x%04llx %llu\n", p.node.c_str(),
                    p.handler.c_str(),
                    static_cast<unsigned long long>(p.pc),
                    static_cast<unsigned long long>(p.ticks));
}

} // namespace

int
main(int argc, char **argv)
{
    const char *path = nullptr;
    bool folded = false;
    bool validate = false;
    bool energest = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--folded"))
            folded = true;
        else if (!std::strcmp(argv[i], "--validate"))
            validate = true;
        else if (!std::strcmp(argv[i], "--energest"))
            energest = true;
        else if (argv[i][0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", argv[i]);
            return 2;
        } else
            path = argv[i];
    }
    if (!path) {
        std::fprintf(stderr, "usage: snap-report FILE.jsonl "
                             "[--folded] [--validate] [--energest]\n");
        return 2;
    }
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return 1;
    }

    Report report;
    std::string line, err;
    std::uint64_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (!report.addLine(line, &err)) {
            std::fprintf(stderr, "%s:%llu: %s\n", path,
                         static_cast<unsigned long long>(lineno),
                         err.c_str());
            return 1;
        }
    }
    if (report.sampleLines == 0) {
        std::fprintf(stderr, "%s: no sample lines\n", path);
        return 1;
    }
    if (validate) {
        std::printf("%s: %llu lines ok (%llu samples, %zu profile "
                    "rows)\n",
                    path, static_cast<unsigned long long>(lineno),
                    static_cast<unsigned long long>(
                        report.sampleLines),
                    report.profiles.size());
        return 0;
    }
    if (energest)
        return printEnergest(report);
    if (folded) {
        printFolded(report);
        return 0;
    }
    printSummary(report);
    printEnergyByVoltage(report);
    printInstructionMix(report);
    printLatency(report);
    printAir(report);
    return 0;
}
