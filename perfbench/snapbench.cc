/**
 * @file
 * snapbench: the simulator's end-to-end benchmark harness.
 *
 * One process runs one workload single-threaded (jobs = 1) in a closed
 * loop for a fixed host time, timing only calls into the public API:
 * scenario::loadScenario/runScenario, assembler::assembleSnap,
 * net::ParallelNetwork and snapshot::encodeSnapshot/decodeSnapshot.
 * Every operation's output is checked outside the timed region; a
 * failed check or a thrown error counts the operation as failed. The
 * last line of stdout is one JSON object (correct, attempted, failed,
 * metrics). With --trace 1 the run records in-memory spans around the
 * same calls, prints a per-layer self-time table, writes the spans as
 * JSONL and reports the per-layer metrics instead of the end-to-end
 * ones. perfbench/README.md defines every workload and metric.
 *
 *     snapbench --workload NAME --seed N --seconds S --trace 0|1
 *               [--root DIR] [--spans-dir DIR] [--plant-fault]
 *
 * Seed 0 selects the shipped scenario seeds (byte-exact golden
 * comparison); any other seed overrides every scenario's seed and
 * derives the field run's base seed.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "asm/snap_backend.hh"
#include "net/parallel_network.hh"
#include "radio/field_medium.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "sim/rng.hh"
#include "sim/ticks.hh"
#include "snapshot/snapshot.hh"

namespace {

using namespace snaple;
using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Smallest sample; 0 when there is none. */
double
fastest(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/** Whole file, read into a string of exactly its size. */
std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::string text(std::size_t(in.tellg()), '\0');
    in.seekg(0);
    if (!in.read(text.data(), std::streamsize(text.size())))
        throw std::runtime_error("cannot read " + path);
    return text;
}

/**
 * Peak resident set of this program image, MB: VmHWM, which starts
 * afresh at exec (ru_maxrss would carry over a forking parent's peak).
 */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/** Current resident set of this process, KB. */
double
currentRssKb()
{
    std::ifstream in("/proc/self/statm");
    std::uint64_t size = 0, resident = 0;
    in >> size >> resident;
    return double(resident) * double(sysconf(_SC_PAGESIZE)) / 1024.0;
}

// ------------------------------------------------------------------
// Spans (--trace 1): name, start, end, parent and operation id, kept
// in memory and written out when the run ends.

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0, end = 0;
        int parent = -1;
        std::uint64_t op = 0;
    };

    struct Layer
    {
        std::uint64_t count = 0;
        double total = 0; ///< summed span durations
        double self = 0;  ///< total minus time covered by child spans
    };

    /** RAII span; a no-op when the tracer is null. */
    class Scope
    {
      public:
        Scope(Tracer *t, std::string name) : t_(t)
        {
            if (!t_)
                return;
            idx_ = int(t_->spans_.size());
            const int parent = t_->stack_.empty() ? -1 : t_->stack_.back();
            t_->spans_.push_back(
                Span{std::move(name), since(t_->t0_), 0, parent, t_->op_});
            t_->stack_.push_back(idx_);
        }
        ~Scope()
        {
            if (!t_)
                return;
            t_->spans_[std::size_t(idx_)].end = since(t_->t0_);
            t_->stack_.pop_back();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *t_;
        int idx_ = -1;
    };

    void setOp(std::uint64_t op) { op_ = op; }
    std::size_t size() const { return spans_.size(); }

    std::map<std::string, Layer>
    layers() const
    {
        std::vector<double> childTime(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                childTime[std::size_t(s.parent)] += s.end - s.start;
        std::map<std::string, Layer> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            Layer &l = out[spans_[i].name];
            const double d = spans_[i].end - spans_[i].start;
            l.count += 1;
            l.total += d;
            l.self += d - childTime[i];
        }
        return out;
    }

    /** Summed duration of every @p name span. */
    double
    total(const std::string &name) const
    {
        const auto ls = layers();
        const auto it = ls.find(name);
        return it == ls.end() ? 0.0 : it->second.total;
    }

    /** Mean duration of one @p name span; 0 when none was recorded. */
    double
    mean(const std::string &name) const
    {
        const auto ls = layers();
        const auto it = ls.find(name);
        return it == ls.end() ? 0.0
                              : it->second.total / double(it->second.count);
    }

    /** The per-layer self-time table, one row per span name. */
    void
    printTable(std::ostream &os) const
    {
        char buf[160];
        std::snprintf(buf, sizeof buf, "%-36s %8s %12s %12s\n", "span",
                      "count", "total_s", "self_s");
        os << buf;
        for (const auto &[name, l] : layers()) {
            std::snprintf(buf, sizeof buf, "%-36s %8llu %12.6f %12.6f\n",
                          name.c_str(), (unsigned long long)l.count,
                          l.total, l.self);
            os << buf;
        }
    }

    void
    writeJsonl(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            throw std::runtime_error("cannot write " + path);
        char buf[96];
        for (const Span &s : spans_) {
            std::snprintf(buf, sizeof buf, ",\"start\":%.9f,\"end\":%.9f",
                          s.start, s.end);
            out << "{\"name\":\"" << s.name << "\"" << buf
                << ",\"parent\":" << s.parent << ",\"op\":" << s.op
                << "}\n";
        }
    }

  private:
    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::uint64_t op_ = 0;
};

// ------------------------------------------------------------------
// Arguments and result bookkeeping.

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string root = ".";
    std::string spansDir = ".";
    bool plantFault = false;

    /** Scenario seed override; none = the shipped seeds. */
    std::optional<std::uint64_t>
    seedOverride() const
    {
        return seed ? std::optional<std::uint64_t>(seed) : std::nullopt;
    }

    std::string
    scenarioPath(const std::string &name) const
    {
        return root + "/examples/scenarios/" + name + ".scn";
    }

    std::string
    goldenPath(const std::string &name, const char *ext) const
    {
        return root + "/tests/scenario/golden/" + name + ext;
    }
};

struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, std::pair<double, std::string>> metrics;

    /** Count one checked operation. */
    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::cerr << "snapbench: check failed: " << what << "\n";
        }
    }

    /** Count one operation that threw. */
    void
    error(const std::string &what, const std::exception &e)
    {
        ++attempted;
        ++failed;
        std::cerr << "snapbench: " << what << ": " << e.what() << "\n";
    }

    void
    set(const std::string &name, double v, const char *unit)
    {
        metrics[name] = {v, unit};
    }
};

/** Every per-layer metric and its unit (BENCHMARK.json "per_layer"). */
const std::vector<std::pair<std::string, const char *>> kPerLayer = {
    {"scenario.parse_s", "s"},
    {"scenario.build_s", "s"},
    {"scenario.run_s.trickle", "s"},
    {"scenario.run_s.leach", "s"},
    {"scenario.run_s.dutycycle", "s"},
    {"scenario.run_s.rssi_cluster", "s"},
    {"scenario.run_s.trickle_fast", "s"},
    {"scenario.run_s.lifetime_metered", "s"},
    {"scenario.resume_run_s", "s"},
    {"asm.assemble_s", "s"},
    {"net.add_node_s", "s"},
    {"net.place_s", "s"},
    {"net.start_s", "s"},
    {"net.run_for_s", "s"},
    {"net.ns_per_event", "ns"},
    {"net.events", "count"},
    {"net.rss_per_node_kb", "KB"},
    {"core.instructions", "count"},
    {"core.handlers", "count"},
    {"core.active_ticks", "count"},
    {"air.words_sent", "count"},
    {"air.words_delivered", "count"},
    {"air.collisions", "count"},
    {"air.rx_in_range", "count"},
    {"air.delivered_ratio", "ratio"},
    {"metrics.bytes", "count"},
    {"metrics.stream_s", "s"},
    {"snapshot.bytes", "count"},
    {"snapshot.bytes_per_node", "count"},
    {"snapshot.encode_s", "s"},
    {"snapshot.decode_s", "s"},
    {"energy.deaths", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

/** Final "all" sample of counter @p name in a metrics JSONL stream. */
std::uint64_t
lastAllCounter(const std::string &jsonl, const std::string &name)
{
    const std::string key = "\"node\":\"all\",\"name\":\"" + name +
                            "\",\"type\":\"counter\",\"v\":";
    const std::size_t at = jsonl.rfind(key);
    if (at == std::string::npos)
        throw std::runtime_error("metrics stream lacks " + name);
    return std::stoull(jsonl.substr(at + key.size(), 24));
}

/** rows() without the `checkpoint=` lines: a resumed run reports only
 *  the checkpoints past its restore point. */
std::string
rowsWithoutCheckpoints(const std::string &rows)
{
    std::istringstream in(rows);
    std::string line, out;
    while (std::getline(in, line))
        if (line.rfind("checkpoint=", 0) != 0)
            out += line + "\n";
    return out;
}

/** Flip one byte of a reference (the --plant-fault self-test). */
void
plant(std::string &ref)
{
    if (!ref.empty())
        ref[ref.size() / 2] ^= 0x20;
}

/** Air counters a run ends with, for the per-layer metrics. */
struct AirCounts
{
    std::uint64_t sent = 0, delivered = 0, collisions = 0, rxInRange = 0;
    /** Delivery attempts: rx_in_range in field mode, else every
     *  resolved per-receiver outcome (docs/SIMULATOR.md). */
    std::uint64_t attempts = 0;

    void
    add(const scenario::RunResult &r)
    {
        sent += r.air.wordsSent;
        delivered += r.air.wordsDelivered;
        collisions += r.air.collisions;
        rxInRange += r.rxInRange;
        attempts += r.rxInRange
                        ? r.rxInRange
                        : r.air.wordsDelivered + r.air.collisions +
                              r.air.dropsMode + r.air.dropsFifo +
                              r.dropsLink + r.dropsDead;
    }

    void
    report(Outcome &out) const
    {
        out.set("air.words_sent", double(sent), "count");
        out.set("air.words_delivered", double(delivered), "count");
        out.set("air.collisions", double(collisions), "count");
        out.set("air.rx_in_range", double(rxInRange), "count");
        // Useful outcomes over attempts.
        out.set("air.delivered_ratio",
                attempts ? double(delivered) / double(attempts) : 0.0,
                "ratio");
    }
};

std::size_t
deaths(const scenario::RunResult &r)
{
    return std::size_t(std::count_if(
        r.outcomes.begin(), r.outcomes.end(),
        [](const scenario::NodeOutcome &o) { return o.dead; }));
}

double
nodeSeconds(const scenario::Scenario &sc, double fromMs = 0)
{
    return double(sc.nodes) * (sc.durationMs - fromMs) / 1000.0;
}

scenario::Scenario
load(const std::string &path, const std::optional<std::uint64_t> &seed,
     Tracer *tr = nullptr)
{
    Tracer::Scope s(tr, "scenario.parse");
    scenario::Scenario sc = scenario::loadScenario(path);
    if (seed)
        sc.seed = *seed;
    return sc;
}

/**
 * One setup sample: @p rounds times, parse every scenario file and
 * build its network — runScenario on a zero-duration copy with faults
 * and checkpoints removed. Returns host seconds for the whole sample.
 */
double
setupSample(const std::vector<std::string> &paths, const Args &a, int rounds,
            Tracer *tr)
{
    const Clock::time_point t0 = Clock::now();
    for (int r = 0; r < rounds; ++r)
        for (const std::string &p : paths) {
            scenario::Scenario sc = load(p, a.seedOverride(), tr);
            sc.durationMs = 0;
            sc.faults.clear();
            sc.checkpoints.clear();
            Tracer::Scope s(tr, "scenario.build");
            scenario::runScenario(sc);
        }
    return since(t0);
}

/**
 * setup_s samples, taken about once a second through the timed phase
 * (outside the timed calls); at least kMin of them. setup_s is the
 * fastest sample: other load on the host only ever adds time.
 */
struct SetupSampler
{
    static constexpr std::size_t kMin = 5;

    std::vector<std::string> paths;
    int rounds; ///< suite builds per sample
    std::vector<double> samples;
    double next = 0;

    void
    poll(const Args &a, double elapsed, Tracer *tr)
    {
        if (elapsed < next)
            return;
        samples.push_back(setupSample(paths, a, rounds, tr));
        next = elapsed + 1.0;
    }

    void
    fill(const Args &a, Tracer *tr)
    {
        while (samples.size() < kMin)
            samples.push_back(setupSample(paths, a, rounds, tr));
    }

    double builds() const { return double(samples.size()) * rounds; }
};

/**
 * Assemble every distinct (program, params) pair of @p sc as the runner
 * does (`.equ` prolog + source): the asm layer's own span.
 */
void
assemblePrograms(const scenario::Scenario &sc, Tracer *tr)
{
    std::map<std::string, std::string> texts;
    for (std::size_t i = 0; i < sc.nodes; ++i) {
        const scenario::NodeSettings ns = sc.resolved(i);
        std::ostringstream src;
        for (const auto &[k, v] : ns.params)
            src << ".equ " << k << ", " << v << "\n";
        src << readFile(sc.baseDir + "/" + *ns.program);
        texts.emplace(src.str(), *ns.program);
    }
    for (const auto &[text, name] : texts) {
        Tracer::Scope s(tr, "asm.assemble");
        assembler::assembleSnap(text, name);
    }
}

/**
 * Metrics-stream sink appending to a string reserved once up front.
 * The reservation is never touched beyond the stream's length, so the
 * benchmark's own share of peak RSS follows the stream size instead
 * of a string's doubling steps.
 */
class MetricsSink : public std::streambuf
{
  public:
    MetricsSink() { text.reserve(std::size_t(64) << 20); }

    std::string text;

  protected:
    int_type
    overflow(int_type c) override
    {
        if (!traits_type::eq_int_type(c, traits_type::eof()))
            text.push_back(traits_type::to_char_type(c));
        return c;
    }

    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        text.append(s, std::size_t(n));
        return n;
    }
};

struct ScenarioRun
{
    std::string rows;
    scenario::RunResult result;
};

/** Run @p sc with the metrics stream into @p sink (none when null). */
ScenarioRun
runOne(const scenario::Scenario &sc, std::optional<bool> fast,
       MetricsSink *sink, double *hostSeconds = nullptr)
{
    std::ostream metrics(sink);
    scenario::RunOptions opt;
    opt.fidelityFast = fast;
    if (sink) {
        sink->text.clear();
        opt.metricsOut = &metrics;
    }
    const Clock::time_point t0 = Clock::now();
    scenario::RunResult res = scenario::runScenario(sc, opt);
    if (hostSeconds)
        *hostSeconds = since(t0);
    return ScenarioRun{res.rows(), std::move(res)};
}

// ------------------------------------------------------------------
// fast_time_err_pct: the fast tier's timing error on the golden suite.

const std::vector<std::string> kSuite = {"trickle", "leach", "dutycycle",
                                         "rssi_cluster", "trickle_fast"};

/** The all-cycle scenarios the error averages over. */
const std::vector<std::string> kErrSuite = {"trickle", "dutycycle", "leach",
                                            "rssi_cluster"};

/**
 * Mean over kErrSuite of |fast - cycle| / cycle final `all`
 * core.active_ticks, in percent, from untimed runs. At the shipped
 * seeds the cycle side is read from the golden JSONL instead.
 */
double
fastTimeErrPct(const Args &a, Outcome &out)
{
    MetricsSink sink;
    double sum = 0;
    for (const std::string &name : kErrSuite) {
        double ticks[2] = {0, 0};
        for (const bool fast : {false, true}) {
            if (!fast && !a.seedOverride())
                sink.text = readFile(a.goldenPath(name, ".jsonl"));
            else
                runOne(load(a.scenarioPath(name), a.seedOverride()), fast,
                       &sink);
            ticks[fast] = double(lastAllCounter(sink.text, "core.active_ticks"));
        }
        const double cyc = ticks[0], fst = ticks[1];
        out.check(cyc > 0 && fst > 0, name + " active_ticks reference");
        if (cyc > 0)
            sum += std::fabs(fst - cyc) / cyc;
    }
    return 100.0 * sum / double(kErrSuite.size());
}

// ------------------------------------------------------------------
// Reporting shared by the workloads.

/**
 * Host time of one operation: a fixed sequence of timed calls that every
 * operation repeats with the same work (each operation is checked to
 * reproduce the first). Each call keeps its fastest repetition, because
 * other load on the host only ever adds time to a call; the operation's
 * time is their sum.
 */
class CallTimes
{
  public:
    /** One repetition's host seconds per call, in call order. */
    void
    add(const std::vector<double> &calls)
    {
        if (best_.empty()) {
            best_ = calls;
            return;
        }
        for (std::size_t i = 0; i < calls.size(); ++i)
            best_[i] = std::min(best_[i], calls[i]);
    }

    double
    total() const
    {
        return std::accumulate(best_.begin(), best_.end(), 0.0);
    }

  private:
    std::vector<double> best_;
};

/** Throughput of one run: an operation's work over its host time. */
struct Rates
{
    double nodeSec = 0;      ///< sim node-seconds per operation
    double instructions = 0; ///< guest instructions per operation
    CallTimes measured;      ///< untraced runs; traced ops of a traced run
    CallTimes untraced;      ///< a traced run's untraced ops

    double
    per(double work, const CallTimes &t) const
    {
        return t.total() > 0 ? work / t.total() : 0.0;
    }
};

void
reportEndToEnd(const Args &a, Outcome &out, const Rates &r,
               const std::vector<double> &setup)
{
    out.set("sim_node_s_per_s", r.per(r.nodeSec, r.measured), "1/s");
    out.set("guest_instr_per_s", r.per(r.instructions, r.measured), "1/s");
    out.set("setup_s", fastest(setup), "s");
    out.set("peak_rss_mb", peakRssMb(), "MB");
    out.set("fast_time_err_pct", fastTimeErrPct(a, out), "%");
}

/** Tracing overhead, the per-layer table and the span file. */
void
reportTraced(const Args &a, Outcome &out, const Tracer &t, const Rates &r)
{
    const double traced = r.per(r.nodeSec, r.measured),
                 untraced = r.per(r.nodeSec, r.untraced);
    out.set("trace.overhead_pct",
            traced > 0 ? 100.0 * (untraced / traced - 1.0) : 0.0, "%");
    out.set("trace.spans", double(t.size()), "count");
    t.printTable(std::cout);
    t.writeJsonl(a.spansDir + "/spans-" + a.workload + "-" +
                 std::to_string(a.seed) + ".jsonl");
}

// ------------------------------------------------------------------
// scenarios_cycle: the five shipped scenarios as shipped, looped.

void
runSuite(const Args &a, Outcome &out)
{
    Tracer tracer;
    Tracer *tr = a.trace ? &tracer : nullptr;
    std::vector<std::string> paths;
    for (const std::string &n : kSuite)
        paths.push_back(a.scenarioPath(n));

    // One setup sample builds the suite ten times (50 networks), so it
    // is tens of milliseconds, never a sub-millisecond reading.
    SetupSampler setup{paths, 10, {}, 0};
    std::vector<scenario::Scenario> scs;
    for (const std::string &p : paths)
        scs.push_back(load(p, a.seedOverride()));
    if (tr)
        for (const scenario::Scenario &sc : scs)
            assemblePrograms(sc, tr);

    const auto golden = [&](const std::string &name, const char *ext) {
        std::string g = readFile(a.goldenPath(name, ext));
        if (a.plantFault)
            plant(g);
        return g;
    };
    MetricsSink sink;
    const auto matchesGolden = [&](const std::string &name,
                                   const std::string &rows) {
        return rows == golden(name, ".row") &&
               sink.text == golden(name, ".jsonl");
    };

    // The goldens are checked on every run: under a seed override, one
    // untimed pass at the shipped seeds does it.
    if (a.seedOverride()) {
        for (const std::string &name : kSuite) {
            try {
                const ScenarioRun r =
                    runOne(load(a.scenarioPath(name), std::nullopt),
                           std::nullopt, &sink);
                out.check(matchesGolden(name, r.rows), name + " golden");
            } catch (const std::exception &e) {
                out.error(name + " golden run", e);
            }
        }
    }

    // Warm-up pass, untimed: the first repetition, whose rows and
    // metrics every later repetition must reproduce. At the shipped
    // seeds it must also reproduce the goldens.
    struct Reference
    {
        std::string rows, metrics;
    };
    std::vector<Reference> first(scs.size());
    for (std::size_t i = 0; i < scs.size(); ++i) {
        try {
            first[i] = {runOne(scs[i], std::nullopt, &sink).rows,
                        sink.text};
            if (!a.seedOverride())
                out.check(matchesGolden(kSuite[i], first[i].rows),
                          kSuite[i] + " golden");
            else
                out.check(true, kSuite[i] + " first repetition");
            if (a.plantFault)
                plant(first[i].rows);
        } catch (const std::exception &e) {
            out.error(kSuite[i] + " first repetition", e);
        }
    }

    // Timed phase: whole suite passes until the time is up. A traced
    // run rotates its passes through traced, untraced, and traced with
    // the metrics stream off (tracing overhead and the metrics A/B).
    Rates rates;
    for (const scenario::Scenario &sc : scs)
        rates.nodeSec += nodeSeconds(sc);
    std::vector<std::string> firstOff(scs.size());
    std::uint64_t instr = 0, handlers = 0, active = 0, bytes = 0, dead = 0;
    AirCounts air;
    const Clock::time_point phase = Clock::now();
    const std::uint64_t minPasses = a.trace ? 3 : 1;
    for (std::uint64_t pass = 0; pass < minPasses || since(phase) < a.seconds;
         ++pass) {
        const int kind = a.trace ? int(pass % 3) : 0;
        Tracer *ptr = kind == 1 ? nullptr : tr;
        const bool metricsOn = kind != 2;
        tracer.setOp(pass);
        std::vector<double> callS; // host seconds per runScenario call
        std::uint64_t pInstr = 0, pHandlers = 0, pActive = 0, pBytes = 0,
                      pDead = 0;
        AirCounts pAir;
        bool ok = true;
        {
            Tracer::Scope op(ptr, "op");
            for (std::size_t i = 0; i < scs.size(); ++i) {
                try {
                    double t = 0;
                    ScenarioRun r;
                    {
                        Tracer::Scope s(ptr, "scenario.run." + kSuite[i] +
                                                 (metricsOn ? ""
                                                            : ".nometrics"));
                        r = runOne(scs[i], std::nullopt,
                                   metricsOn ? &sink : nullptr, &t);
                    }
                    callS.push_back(t);
                    if (!metricsOn) {
                        if (firstOff[i].empty())
                            firstOff[i] = r.rows;
                        out.check(r.rows == firstOff[i],
                                  kSuite[i] + " repeat (metrics off)");
                        continue;
                    }
                    const bool same = r.rows == first[i].rows &&
                                      sink.text == first[i].metrics;
                    out.check(same,
                              kSuite[i] + " repeat " + std::to_string(pass));
                    ok = ok && same;
                    pInstr += lastAllCounter(sink.text, "core.instructions");
                    pHandlers += lastAllCounter(sink.text, "core.handlers");
                    pActive += lastAllCounter(sink.text, "core.active_ticks");
                    pBytes += sink.text.size();
                    pDead += deaths(r.result);
                    pAir.add(r.result);
                } catch (const std::exception &e) {
                    out.error(kSuite[i] + " run", e);
                    ok = false;
                }
            }
        }
        setup.poll(a, since(phase), tr);
        if (!ok)
            continue;
        if (kind != 2)
            (kind == 0 ? rates.measured : rates.untraced).add(callS);
        if (kind == 0) {
            rates.instructions = double(pInstr);
            instr = pInstr;
            handlers = pHandlers;
            active = pActive;
            bytes = pBytes;
            dead = pDead;
            air = pAir;
        }
    }

    setup.fill(a, tr);

    if (!a.trace)
        return reportEndToEnd(a, out, rates, setup.samples);

    // Per-layer: setup spans per suite build, run spans per call,
    // counts per suite pass.
    const double builds = setup.builds();
    out.set("scenario.parse_s", tracer.total("scenario.parse") / builds, "s");
    out.set("scenario.build_s", tracer.total("scenario.build") / builds, "s");
    out.set("asm.assemble_s", tracer.total("asm.assemble"), "s");
    double streamS = 0;
    for (const std::string &n : kSuite) {
        const double on = tracer.mean("scenario.run." + n);
        out.set("scenario.run_s." + n, on, "s");
        streamS += on - tracer.mean("scenario.run." + n + ".nometrics");
    }
    out.set("metrics.stream_s", streamS, "s");
    out.set("metrics.bytes", double(bytes), "count");
    out.set("core.instructions", double(instr), "count");
    out.set("core.handlers", double(handlers), "count");
    out.set("core.active_ticks", double(active), "count");
    out.set("energy.deaths", double(dead), "count");
    air.report(out);
    reportTraced(a, out, tracer, rates);
}

// ------------------------------------------------------------------
// field_2500: ParallelNetwork driven directly, 2,500 nodes in field mode.

/** 2,500 nodes (~120 MB) rather than 10,000 (~460 MB): at 10k the run is
 *  memory-bound, and its speed followed other load on the host's shared
 *  cache too closely for the regression bound (perfbench/README.md). */
constexpr std::size_t kFieldNodes = 2500;
constexpr sim::Tick kFieldRun = 200 * sim::kMillisecond;
/** runFor() is called once per slice of the run and each call timed on
 *  its own (barrier sets do not depend on how a run is split). */
constexpr sim::Tick kFieldSlice = 10 * sim::kMillisecond;
constexpr std::size_t kFieldSlices = kFieldRun / kFieldSlice;

/** What one field run must reproduce on every repetition. */
struct FieldPrint
{
    radio::Medium::Stats air{};
    std::uint64_t dropsLink = 0, dropsDead = 0, rxInRange = 0,
                  pendingRx = 0, events = 0, instructions = 0,
                  handlers = 0, activeTicks = 0;

    bool
    operator==(const FieldPrint &o) const
    {
        return air.wordsSent == o.air.wordsSent &&
               air.wordsDelivered == o.air.wordsDelivered &&
               air.collisions == o.air.collisions &&
               air.dropsMode == o.air.dropsMode &&
               air.dropsFifo == o.air.dropsFifo && dropsLink == o.dropsLink &&
               dropsDead == o.dropsDead && rxInRange == o.rxInRange &&
               pendingRx == o.pendingRx && events == o.events &&
               instructions == o.instructions && handlers == o.handlers &&
               activeTicks == o.activeTicks;
    }

    /** Per-opportunity accounting must close (docs/SIMULATOR.md). */
    bool
    reconciles() const
    {
        return rxInRange == air.wordsDelivered + air.collisions +
                               air.dropsMode + air.dropsFifo + dropsLink +
                               dropsDead + pendingRx;
    }
};

void
runField(const Args &a, Outcome &out)
{
    Tracer tracer;
    Tracer *tr = a.trace ? &tracer : nullptr;
    const std::string beaconSrc =
        readFile(a.root + "/perfbench/field_beacon.s");
    const std::string listenerSrc =
        readFile(a.root + "/perfbench/field_listener.s");
    constexpr std::uint64_t kShippedSeed = 0xf1e1d5ca1edbeef1ull;
    const std::uint64_t baseSeed =
        a.seed ? (sim::deriveSeed(kShippedSeed, a.seed) | 1) : kShippedSeed;
    const std::size_t side = static_cast<std::size_t>(
        std::ceil(std::sqrt(double(kFieldNodes))));

    std::vector<double> setup;
    Rates rates;
    rates.nodeSec =
        double(kFieldNodes) * double(kFieldRun) / double(sim::kSecond);
    std::optional<FieldPrint> first;
    double rssPerNodeKb = 0;
    Clock::time_point phase = Clock::now();
    // Op 0 is a warm-up (allocator growth, page faults) kept out of the
    // figures; its fingerprint is the reference. A traced run
    // alternates traced and untraced ops after it.
    const std::uint64_t minOps = a.trace ? 3 : 2;
    for (std::uint64_t op = 0; op < minOps || since(phase) < a.seconds; ++op) {
        const bool warm = op == 0;
        const bool traced = a.trace && op % 2 == 1;
        Tracer *ptr = traced ? tr : nullptr;
        tracer.setOp(op);
        try {
            const double rss0 = currentRssKb();
            Tracer::Scope ops(ptr, "op");
            const Clock::time_point t0 = Clock::now();
            std::unique_ptr<net::ParallelNetwork> net;
            {
                Tracer::Scope s(ptr, "setup");
                assembler::Program beacon, listener;
                {
                    Tracer::Scope s2(ptr, "asm.assemble");
                    beacon =
                        assembler::assembleSnap(beaconSrc, "field_beacon.s");
                    listener = assembler::assembleSnap(listenerSrc,
                                                       "field_listener.s");
                }
                net = std::make_unique<net::ParallelNetwork>(
                    1 * sim::kMicrosecond, 1);
                node::NodeConfig c;
                c.core.stopOnHalt = false;
                c.baseSeed = baseSeed;
                {
                    Tracer::Scope s2(ptr, "net.add_node");
                    for (std::size_t i = 0; i < kFieldNodes; ++i) {
                        c.name = "n" + std::to_string(i);
                        net->addNode(c, i % 16 == 0 ? beacon : listener);
                    }
                }
                {
                    Tracer::Scope s2(ptr, "net.place");
                    net->setField(radio::FieldConfig{});
                    for (std::size_t i = 0; i < kFieldNodes; ++i)
                        net->setNodePosition(i, 20.0 * double(i % side),
                                             20.0 * double(i / side));
                }
                Tracer::Scope s2(ptr, "net.start");
                net->start();
            }
            const double buildS = since(t0);
            const double rssBuilt = currentRssKb();
            std::vector<double> sliceS;
            for (std::size_t k = 0; k < kFieldSlices; ++k) {
                const Clock::time_point t1 = Clock::now();
                Tracer::Scope s(ptr, "net.run_for");
                net->runFor(kFieldSlice);
                sliceS.push_back(since(t1));
            }

            FieldPrint fp;
            fp.air = net->stats();
            fp.dropsLink = net->airDropsLink();
            fp.dropsDead = net->airDropsDead();
            fp.rxInRange = net->airRxInRange();
            fp.pendingRx = net->airPendingDeliveries();
            fp.events = net->eventsDispatched();
            for (std::size_t i = 0; i < kFieldNodes; ++i) {
                const auto &st = net->node(i).core().stats();
                fp.instructions += st.instructions;
                fp.handlers += st.handlers;
                fp.activeTicks += net->node(i).core().activeTimeNow();
            }
            if (warm) {
                phase = Clock::now();
                rssPerNodeKb = (rssBuilt - rss0) / double(kFieldNodes);
                first = fp;
                if (a.plantFault)
                    first->events += 1;
            }
            const bool ok = fp.reconciles() && first && fp == *first &&
                            fp.air.wordsDelivered > 0;
            out.check(ok, "field_2500 op " + std::to_string(op));
            if (!ok || warm)
                continue;
            if (!a.trace || traced)
                setup.push_back(buildS);
            rates.instructions = double(fp.instructions);
            (!a.trace || traced ? rates.measured : rates.untraced)
                .add(sliceS);
        } catch (const std::exception &e) {
            out.error("field_2500 op " + std::to_string(op), e);
        }
    }

    if (!a.trace)
        return reportEndToEnd(a, out, rates, setup);
    out.set("asm.assemble_s", tracer.mean("asm.assemble"), "s");
    out.set("net.add_node_s", tracer.mean("net.add_node"), "s");
    out.set("net.place_s", tracer.mean("net.place"), "s");
    out.set("net.start_s", tracer.mean("net.start"), "s");
    // Per 200 ms run: the summed runFor() slices of one operation.
    const double runForS =
        tracer.mean("net.run_for") * double(kFieldSlices);
    out.set("net.run_for_s", runForS, "s");
    out.set("net.events", double(first ? first->events : 0), "count");
    out.set("net.ns_per_event",
            first && first->events ? 1e9 * runForS / double(first->events)
                                   : 0.0,
            "ns");
    out.set("net.rss_per_node_kb", rssPerNodeKb, "KB");
    if (first) {
        out.set("core.instructions", double(first->instructions), "count");
        out.set("core.handlers", double(first->handlers), "count");
        out.set("core.active_ticks", double(first->activeTicks), "count");
        AirCounts air;
        air.sent = first->air.wordsSent;
        air.delivered = first->air.wordsDelivered;
        air.collisions = first->air.collisions;
        air.rxInRange = air.attempts = first->rxInRange;
        air.report(out);
    }
    reportTraced(a, out, tracer, rates);
}

// ------------------------------------------------------------------
// lifetime_metered: straight metered run with a mid-run snapshot, then
// a resume from that snapshot through encode/decode.

void
runLifetime(const Args &a, Outcome &out)
{
    Tracer tracer;
    Tracer *tr = a.trace ? &tracer : nullptr;
    const std::string path = a.root + "/perfbench/lifetime.scn";

    // One setup sample parses and builds the network 128 times (tens
    // of milliseconds).
    SetupSampler setup{{path}, 128, {}, 0};
    const scenario::Scenario sc = load(path, a.seedOverride());
    if (tr)
        assemblePrograms(sc, tr);
    const scenario::Checkpoint mid{sc.durationMs / 2, ""};

    // Untimed reference: the same run with one metrics sample at the
    // end, for the guest counters the rows do not carry.
    scenario::Scenario counted = sc;
    counted.metricsMs = sc.durationMs;
    MetricsSink sink;
    runOne(counted, std::nullopt, &sink);
    const std::string counters = sink.text;
    const std::uint64_t instrTotal =
        lastAllCounter(counters, "core.instructions");

    Rates rates;
    std::optional<std::string> firstRows;
    std::size_t snapBytes = 0, dead = 0;
    AirCounts air;
    const Clock::time_point phase = Clock::now();
    const std::uint64_t minOps = a.trace ? 2 : 1;
    for (std::uint64_t op = 0; op < minOps || since(phase) < a.seconds; ++op) {
        if (op > 0)
            setup.poll(a, since(phase), tr);
        const bool traced = a.trace && op % 2 == 0;
        Tracer *ptr = traced ? tr : nullptr;
        tracer.setOp(op);
        try {
            std::optional<snapshot::NetworkSnapshot> taken;
            std::string bytes;
            snapshot::NetworkSnapshot decoded;
            scenario::RunResult straight, resumed;
            std::vector<double> callS; // host seconds per timed call
            Clock::time_point t0 = Clock::now();
            const auto lap = [&] {
                callS.push_back(since(t0));
                t0 = Clock::now();
            };
            {
                Tracer::Scope ops(ptr, "op");
                {
                    scenario::RunOptions opt;
                    opt.checkpoints = {mid};
                    opt.onCheckpoint = [&](const snapshot::NetworkSnapshot &s,
                                           const scenario::Checkpoint &) {
                        taken = s;
                    };
                    Tracer::Scope s(ptr, "scenario.run.lifetime_metered");
                    straight = scenario::runScenario(sc, opt);
                }
                lap();
                if (!taken)
                    throw std::runtime_error("no mid-run snapshot taken");
                {
                    Tracer::Scope s(ptr, "snapshot.encode");
                    bytes = snapshot::encodeSnapshot(*taken);
                }
                lap();
                {
                    Tracer::Scope s(ptr, "snapshot.decode");
                    decoded = snapshot::decodeSnapshot(bytes);
                }
                lap();
                scenario::RunOptions opt;
                opt.restoreFrom = &decoded;
                Tracer::Scope s(ptr, "scenario.resume_run");
                resumed = scenario::runScenario(sc, opt);
            }
            lap();

            std::string rows = straight.rows();
            if (!firstRows) {
                firstRows = rows;
                if (a.plantFault)
                    plant(*firstRows);
            }
            std::uint64_t instrAtCk = 0;
            for (const snapshot::NodeState &n : decoded.nodes)
                instrAtCk += n.core.stats.instructions;
            const bool ok =
                rows == *firstRows &&
                resumed.rows() == rowsWithoutCheckpoints(*firstRows) &&
                snapshot::encodeSnapshot(decoded) == bytes;
            out.check(ok, "lifetime op " + std::to_string(op));
            if (!ok)
                continue;
            snapBytes = bytes.size();
            dead = deaths(straight);
            air = {};
            air.add(straight);
            rates.nodeSec = nodeSeconds(sc) + nodeSeconds(sc, mid.atMs);
            rates.instructions = double(2 * instrTotal - instrAtCk);
            (!a.trace || traced ? rates.measured : rates.untraced)
                .add(callS);
        } catch (const std::exception &e) {
            out.error("lifetime op " + std::to_string(op), e);
        }
    }
    setup.fill(a, tr);

    if (!a.trace)
        return reportEndToEnd(a, out, rates, setup.samples);
    const double builds = setup.builds();
    out.set("scenario.parse_s", tracer.total("scenario.parse") / builds, "s");
    out.set("scenario.build_s", tracer.total("scenario.build") / builds, "s");
    out.set("asm.assemble_s", tracer.total("asm.assemble"), "s");
    out.set("scenario.run_s.lifetime_metered",
            tracer.mean("scenario.run.lifetime_metered"), "s");
    out.set("scenario.resume_run_s", tracer.mean("scenario.resume_run"), "s");
    out.set("snapshot.encode_s", tracer.mean("snapshot.encode"), "s");
    out.set("snapshot.decode_s", tracer.mean("snapshot.decode"), "s");
    out.set("snapshot.bytes", double(snapBytes), "count");
    out.set("snapshot.bytes_per_node", double(snapBytes) / double(sc.nodes),
            "count");
    out.set("core.instructions", double(instrTotal), "count");
    out.set("core.handlers",
            double(lastAllCounter(counters, "core.handlers")), "count");
    out.set("core.active_ticks",
            double(lastAllCounter(counters, "core.active_ticks")), "count");
    out.set("energy.deaths", double(dead), "count");
    air.report(out);
    reportTraced(a, out, tracer, rates);
}

// ------------------------------------------------------------------

void
runWorkload(const Args &a, Outcome &out)
{
    if (a.workload == "scenarios_cycle")
        runSuite(a, out);
    else if (a.workload == "field_2500")
        runField(a, out);
    else if (a.workload == "lifetime_metered")
        runLifetime(a, out);
    else
        throw std::runtime_error("unknown workload '" + a.workload + "'");
}

/** Per-layer metrics the workload never reaches read 0. */
void
fillPerLayer(Outcome &out)
{
    for (const auto &[name, unit] : kPerLayer)
        if (!out.metrics.count(name))
            out.set(name, 0.0, unit);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::runtime_error("missing value for " + k);
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = value();
        else if (k == "--seed")
            a.seed = std::stoull(value());
        else if (k == "--seconds")
            a.seconds = std::stod(value());
        else if (k == "--trace")
            a.trace = value() != "0";
        else if (k == "--root")
            a.root = value();
        else if (k == "--spans-dir")
            a.spansDir = value();
        else if (k == "--plant-fault")
            a.plantFault = true;
        else
            throw std::runtime_error("unknown argument " + k);
    }
    return a;
}

void
printResult(const Outcome &out)
{
    std::ostringstream os;
    os << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed << ", \"metrics\": {";
    bool firstMetric = true;
    char buf[64];
    for (const auto &[name, m] : out.metrics) {
        const double v = std::isfinite(m.first) ? m.first : 0.0;
        std::snprintf(buf, sizeof buf, "%.17g", v);
        os << (firstMetric ? "" : ", ") << "\"" << name
           << "\": {\"value\": " << buf << ", \"unit\": \"" << m.second
           << "\"}";
        firstMetric = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args a = parseArgs(argc, argv);
        Outcome out;
        runWorkload(a, out);
        if (out.attempted == 0)
            throw std::runtime_error("no operation was attempted");
        if (a.trace)
            fillPerLayer(out);
        printResult(out);
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "snapbench: " << e.what() << "\n";
        return 2;
    }
}
