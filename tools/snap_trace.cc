/**
 * @file
 * snap-trace: offline analysis of flow-span streams.
 *
 * Usage: snap-trace FILE.jsonl [--validate] [--chrome=FILE] [--top=N]
 *
 * Reads the flow-span JSONL a run emits via `snap-run --flows`
 * (src/obs/flow.hh, docs/TRACING.md) — FILE may be `-` for stdin —
 * and folds the spans into per-flow dissemination trees: which nodes
 * a flow reached, along which parent edges, at what hop depth, with
 * per-hop forward latency percentiles and attributed transmit energy
 * per flow and per span.
 *
 * --validate checks every line against the canonical span schema and
 * the stream's ordering contract (globally sorted by (tx_tick, node),
 * hop 0 iff parent -1, rx latch never after tx) and exits nonzero on
 * the first violation; CI smokes the --jobs determinism with it.
 *
 * --chrome=FILE exports a Chrome trace (chrome://tracing /
 * ui.perfetto.dev): one track per node, each hop>0 span drawn as a
 * latch-to-transmit slice, origin transmissions as instants.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "jsonl.hh"

namespace {

using snaple::tools::getF64;
using snaple::tools::getU64;
using snaple::tools::valueOffset;

/** One parsed span line (schema: src/obs/flow.hh writeSpanJsonl). */
struct Span
{
    std::uint32_t origin = 0;
    std::uint32_t id = 0;
    std::uint32_t node = 0;
    long long parent = -1; ///< -1 at hop 0
    std::uint32_t hop = 0;
    std::uint32_t word = 0;
    std::uint64_t rxTick = 0;
    std::uint64_t txTick = 0;
    double pj = 0.0;
};

bool
getI64(const std::string &line, const char *key, long long &out)
{
    const auto at = valueOffset(line, key);
    if (at == std::string::npos)
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtoll(line.c_str() + at, &end, 10);
    return end != line.c_str() + at && errno == 0;
}

/**
 * Parse and schema-check one line. Returns false with *err set on
 * any violation of the canonical writer's contract.
 */
bool
parseSpan(const std::string &line, Span &s, std::string *err)
{
    if (line.rfind("{\"type\":\"span\",", 0) != 0) {
        *err = "not a span line";
        return false;
    }
    std::uint64_t origin = 0, id = 0, node = 0, hop = 0, word = 0;
    long long parent = 0;
    if (!getU64(line, "origin", origin) || !getU64(line, "id", id) ||
        !getU64(line, "node", node) ||
        !getI64(line, "parent", parent) || !getU64(line, "hop", hop) ||
        !getU64(line, "word", word) ||
        !getU64(line, "rx_tick", s.rxTick) ||
        !getU64(line, "tx_tick", s.txTick) ||
        !getF64(line, "pj", s.pj)) {
        *err = "missing or malformed field";
        return false;
    }
    if (origin > 0xffffffffu || node > 0xffffffffu || hop > 0xffff ||
        word > 0xffff || parent < -1 || parent > 0xffffffffll) {
        *err = "field out of range";
        return false;
    }
    s.origin = static_cast<std::uint32_t>(origin);
    s.id = static_cast<std::uint32_t>(id);
    s.node = static_cast<std::uint32_t>(node);
    s.parent = parent;
    s.hop = static_cast<std::uint32_t>(hop);
    s.word = static_cast<std::uint32_t>(word);
    if ((s.hop == 0) != (s.parent == -1)) {
        *err = "hop/parent mismatch (hop 0 iff parent -1)";
        return false;
    }
    if (s.hop == 0 && s.rxTick != 0) {
        *err = "origin span with nonzero rx_tick";
        return false;
    }
    if (s.hop == 0 && s.origin != s.node) {
        *err = "origin span not emitted by its origin node";
        return false;
    }
    if (s.hop > 0 && s.rxTick > s.txTick) {
        *err = "rx latch after transmit";
        return false;
    }
    if (s.pj < 0) {
        *err = "negative pj";
        return false;
    }
    return true;
}

double
toMs(std::uint64_t tick)
{
    return double(tick) / 1e9; // 1000 ticks per ns (sim/ticks.hh)
}

/** Exact percentile (nearest-rank) of an already-sorted vector. */
double
percentile(const std::vector<double> &sorted, double p)
{
    const auto idx = static_cast<std::size_t>(
        p * double(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

/** Flows keyed by (origin, id). */
using FlowKey = std::pair<std::uint32_t, std::uint32_t>;

struct Flow
{
    std::vector<Span> spans; ///< stream order
    /** Per node: first span (earliest tx — the tree edge). */
    std::map<std::uint32_t, const Span *> first;
    std::uint32_t maxHop = 0;
    double pj = 0.0;
};

void
printTree(const Flow &f, std::uint32_t node,
          std::set<std::uint32_t> &visited, int depth)
{
    const auto it = f.first.find(node);
    if (it == f.first.end() || !visited.insert(node).second)
        return;
    const Span &s = *it->second;
    std::size_t count = 0;
    double pj = 0.0;
    for (const Span &sp : f.spans)
        if (sp.node == node) {
            ++count;
            pj += sp.pj;
        }
    std::printf("  %*snode %u hop %u", depth * 2, "", s.node, s.hop);
    if (s.hop > 0)
        std::printf(" rx@%.3fms", toMs(s.rxTick));
    std::printf(" tx@%.3fms (%zu span%s, %.1f nJ)\n", toMs(s.txTick),
                count, count == 1 ? "" : "s", pj / 1e3);
    // Children sorted by first-transmit tick: breadth-stable output.
    std::vector<const Span *> kids;
    for (const auto &[n, sp] : f.first)
        if (sp->parent == static_cast<long long>(node))
            kids.push_back(sp);
    std::sort(kids.begin(), kids.end(),
              [](const Span *a, const Span *b) {
                  return a->txTick != b->txTick ? a->txTick < b->txTick
                                                : a->node < b->node;
              });
    for (const Span *k : kids)
        printTree(f, k->node, visited, depth + 1);
}

void
printReport(const std::vector<Span> &spans, std::size_t top)
{
    std::map<FlowKey, Flow> flows;
    std::set<std::uint32_t> nodes;
    double totalPj = 0.0;
    for (const Span &s : spans) {
        Flow &f = flows[{s.origin, s.id}];
        f.spans.push_back(s);
        f.maxHop = std::max(f.maxHop, s.hop);
        f.pj += s.pj;
        nodes.insert(s.node);
        totalPj += s.pj;
    }
    for (auto &[key, f] : flows)
        for (const Span &s : f.spans) {
            auto [it, fresh] = f.first.try_emplace(s.node, &s);
            if (!fresh && s.txTick < it->second->txTick)
                it->second = &s;
        }

    std::printf("%zu spans, %zu flows, %zu node(s), %.1f nJ "
                "(%.1f pJ/span)\n\n",
                spans.size(), flows.size(), nodes.size(), totalPj / 1e3,
                spans.empty() ? 0.0 : totalPj / double(spans.size()));

    // Forward latency — rx latch to transmit — per hop depth.
    std::map<std::uint32_t, std::vector<double>> byHop;
    for (const Span &s : spans)
        if (s.hop > 0)
            byHop[s.hop].push_back(toMs(s.txTick - s.rxTick));
    if (!byHop.empty()) {
        std::printf("per-hop forward latency (rx latch -> tx), ms\n");
        std::printf("%-5s %7s %9s %9s %9s\n", "hop", "count", "p50",
                    "p90", "p99");
        for (auto &[hop, v] : byHop) {
            std::sort(v.begin(), v.end());
            std::printf("%-5u %7zu %9.3f %9.3f %9.3f\n", hop, v.size(),
                        percentile(v, 0.50), percentile(v, 0.90),
                        percentile(v, 0.99));
        }
        std::printf("\n");
    }

    // Largest flows, with their dissemination trees.
    std::vector<const std::pair<const FlowKey, Flow> *> order;
    for (const auto &kv : flows)
        order.push_back(&kv);
    std::sort(order.begin(), order.end(), [](auto *a, auto *b) {
        if (a->second.spans.size() != b->second.spans.size())
            return a->second.spans.size() > b->second.spans.size();
        return a->first < b->first;
    });
    std::size_t shown = 0, singles = 0;
    for (const auto *kv : order)
        if (kv->second.spans.size() < 2)
            ++singles;
    std::printf("flows (top %zu by span count; %zu single-span flows "
                "elided)\n",
                std::min(top, order.size() - singles), singles);
    for (const auto *kv : order) {
        const auto &[key, f] = *kv;
        if (shown >= top || f.spans.size() < 2)
            break;
        ++shown;
        std::printf("flow %u/%u: %zu spans, %zu nodes, max hop %u, "
                    "%.1f nJ\n",
                    key.first, key.second, f.spans.size(),
                    f.first.size(), f.maxHop, f.pj / 1e3);
        std::set<std::uint32_t> visited;
        printTree(f, key.first, visited, 0);
        // Orphan subtrees: the parent's own first span may postdate
        // the transmission this node latched (retransmit chains).
        for (const auto &[n, sp] : f.first)
            if (!visited.count(n))
                printTree(f, n, visited, 0);
    }
}

/**
 * Chrome trace_event JSON: pid 0, one tid (track) per node. Hop>0
 * spans become "X" slices from rx latch to transmit; origin
 * transmissions become "i" instants.
 */
int
writeChrome(const std::vector<Span> &spans, const char *path)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 1;
    }
    out << "{\"traceEvents\":[\n";
    std::set<std::uint32_t> nodes;
    for (const Span &s : spans)
        nodes.insert(s.node);
    bool sep = false;
    for (std::uint32_t n : nodes) {
        if (sep)
            out << ",\n";
        sep = true;
        out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
               "\"tid\":"
            << n << ",\"args\":{\"name\":\"node " << n << "\"}}";
    }
    char buf[64];
    for (const Span &s : spans) {
        out << ",\n";
        const double tsUs =
            double(s.hop > 0 ? s.rxTick : s.txTick) / 1e6;
        out << "{\"name\":\"flow " << s.origin << "/" << s.id
            << " hop " << s.hop << "\",\"ph\":\""
            << (s.hop > 0 ? 'X' : 'i') << "\",\"pid\":0,\"tid\":"
            << s.node << ",\"ts\":";
        std::snprintf(buf, sizeof buf, "%.3f", tsUs);
        out << buf;
        if (s.hop > 0) {
            std::snprintf(buf, sizeof buf, "%.3f",
                          double(s.txTick - s.rxTick) / 1e6);
            out << ",\"dur\":" << buf;
        } else {
            out << ",\"s\":\"t\"";
        }
        out << ",\"args\":{\"origin\":" << s.origin << ",\"id\":"
            << s.id << ",\"parent\":" << s.parent << ",\"word\":"
            << s.word << ",\"pj\":" << s.pj << "}}";
    }
    out << "\n]}\n";
    out.flush();
    return out ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *path = nullptr;
    const char *chrome = nullptr;
    bool validate = false;
    std::size_t top = 10;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--validate"))
            validate = true;
        else if (!std::strncmp(argv[i], "--chrome=", 9))
            chrome = argv[i] + 9;
        else if (!std::strncmp(argv[i], "--top=", 6))
            top = snaple::tools::flagValue<std::size_t>("--top",
                                                        argv[i] + 6);
        else if (argv[i][0] == '-' && std::strcmp(argv[i], "-"))
            path = nullptr, i = argc; // unknown flag -> usage
        else if (!path)
            path = argv[i];
        else
            path = nullptr, i = argc; // extra positional -> usage
    }
    if (!path) {
        std::fprintf(stderr,
                     "usage: snap-trace FILE.jsonl [--validate] "
                     "[--chrome=FILE] [--top=N]\n"
                     "FILE may be - for stdin\n");
        return 2;
    }

    std::ifstream file;
    if (std::strcmp(path, "-")) {
        file.open(path);
        if (!file) {
            std::fprintf(stderr, "cannot open %s\n", path);
            return 2;
        }
    }
    std::istream &in = std::strcmp(path, "-") ? file : std::cin;

    std::vector<Span> spans;
    std::string line, err;
    std::size_t lineNo = 0;
    std::uint64_t prevTx = 0;
    std::uint32_t prevNode = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        Span s;
        if (!parseSpan(line, s, &err)) {
            std::fprintf(stderr, "%s:%zu: %s\n", path, lineNo,
                         err.c_str());
            return 1;
        }
        // Ordering contract: globally sorted by (tx_tick, node).
        if (!spans.empty() &&
            (s.txTick < prevTx ||
             (s.txTick == prevTx && s.node <= prevNode))) {
            std::fprintf(stderr,
                         "%s:%zu: stream not sorted by "
                         "(tx_tick, node)\n",
                         path, lineNo);
            return 1;
        }
        prevTx = s.txTick;
        prevNode = s.node;
        spans.push_back(s);
    }

    if (validate) {
        std::map<FlowKey, std::size_t> flows;
        for (const Span &s : spans)
            ++flows[{s.origin, s.id}];
        std::printf("OK: %zu spans, %zu flows, schema and ordering "
                    "valid\n",
                    spans.size(), flows.size());
        return 0;
    }
    if (chrome) {
        const int rc = writeChrome(spans, chrome);
        if (rc)
            return rc;
        std::printf("wrote %s (%zu events)\n", chrome, spans.size());
        return 0;
    }
    printReport(spans, top);
    return 0;
}
