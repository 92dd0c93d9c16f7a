/**
 * @file
 * Tests for the structured tracing subsystem: sink semantics (scope
 * interning, hashing, record-free mode, rebinding), the trace hash's
 * mixer (known answer, bit flips, ordering), the Chrome trace_event JSON
 * exporter (syntactic well-formedness, required structure), the VCD
 * exporter (declared variables match the value-change section), and
 * the zero-impact guarantee when no sink is attached.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/apps.hh"
#include "asm/snap_backend.hh"
#include "core/machine.hh"
#include "sim/trace.hh"

namespace {

using namespace snaple;
using assembler::assembleSnap;

// ---------------------------------------------------------------------
// A minimal JSON syntax checker (no external dependency): validates
// the full grammar and fails on trailing garbage.
// ---------------------------------------------------------------------

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &s) : s_(s) {}

    bool
    valid()
    {
        pos_ = 0;
        if (!value())
            return false;
        ws();
        return pos_ == s_.size();
    }

  private:
    void
    ws()
    {
        while (pos_ < s_.size() && std::isspace(
                   static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool
    lit(const char *t)
    {
        std::size_t n = std::char_traits<char>::length(t);
        if (s_.compare(pos_, n, t) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    string()
    {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    value()
    {
        ws();
        if (pos_ >= s_.size())
            return false;
        char c = s_[pos_];
        if (c == '{') {
            ++pos_;
            ws();
            if (pos_ < s_.size() && s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            for (;;) {
                ws();
                if (!string())
                    return false;
                ws();
                if (pos_ >= s_.size() || s_[pos_] != ':')
                    return false;
                ++pos_;
                if (!value())
                    return false;
                ws();
                if (pos_ < s_.size() && s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                break;
            }
            if (pos_ >= s_.size() || s_[pos_] != '}')
                return false;
            ++pos_;
            return true;
        }
        if (c == '[') {
            ++pos_;
            ws();
            if (pos_ < s_.size() && s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            for (;;) {
                if (!value())
                    return false;
                ws();
                if (pos_ < s_.size() && s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                break;
            }
            if (pos_ >= s_.size() || s_[pos_] != ']')
                return false;
            ++pos_;
            return true;
        }
        if (c == '"')
            return string();
        if (c == 't')
            return lit("true");
        if (c == 'f')
            return lit("false");
        if (c == 'n')
            return lit("null");
        return number();
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Sink semantics.
// ---------------------------------------------------------------------

TEST(TraceSinkTest, ScopeInterningIsStable)
{
    sim::TraceSink sink;
    std::uint16_t a = sink.scope("alpha");
    std::uint16_t b = sink.scope("beta");
    EXPECT_NE(a, b);
    EXPECT_EQ(sink.scope("alpha"), a);
    EXPECT_EQ(sink.scope("beta"), b);
    ASSERT_EQ(sink.scopeNames().size(), 2u);
    EXPECT_EQ(sink.scopeNames()[a], "alpha");
    EXPECT_EQ(sink.scopeNames()[b], "beta");
}

TEST(TraceSinkTest, EveryEmitPerturbsTheHash)
{
    sim::TraceSink sink;
    std::uint16_t s = sink.scope("x");
    std::uint64_t h0 = sink.hash();
    sink.emit(100, s, sim::TraceEvent::CoreFetch, 1, 2);
    std::uint64_t h1 = sink.hash();
    sink.emit(100, s, sim::TraceEvent::CoreFetch, 1, 2);
    std::uint64_t h2 = sink.hash();
    EXPECT_NE(h0, h1);
    EXPECT_NE(h1, h2);
    EXPECT_EQ(sink.eventCount(), 2u);
}

TEST(TraceSinkTest, HashIsIndependentOfInterningOrder)
{
    // Two sinks intern the same scopes in opposite orders; the same
    // logical events must hash identically because the hash mixes the
    // scope *name*, not its table index.
    sim::TraceSink fwd, rev;
    std::uint16_t fa = fwd.scope("aa"), fb = fwd.scope("bb");
    std::uint16_t rb = rev.scope("bb"), ra = rev.scope("aa");
    fwd.emit(5, fa, sim::TraceEvent::FifoEnqueue, 1);
    fwd.emit(6, fb, sim::TraceEvent::FifoDequeue, 2);
    rev.emit(5, ra, sim::TraceEvent::FifoEnqueue, 1);
    rev.emit(6, rb, sim::TraceEvent::FifoDequeue, 2);
    EXPECT_EQ(fwd.hash(), rev.hash());
}

TEST(TraceSinkTest, RecordFreeModeHashesWithoutStoring)
{
    sim::TraceSink full(true), lean(false);
    std::uint16_t sf = full.scope("s"), sl = lean.scope("s");
    for (int i = 0; i < 10; ++i) {
        full.emit(i, sf, sim::TraceEvent::EnergyDebit, 0, 0, 1.5 * i);
        lean.emit(i, sl, sim::TraceEvent::EnergyDebit, 0, 0, 1.5 * i);
    }
    EXPECT_EQ(full.hash(), lean.hash());
    EXPECT_EQ(full.eventCount(), lean.eventCount());
    EXPECT_EQ(full.records().size(), 10u);
    EXPECT_TRUE(lean.records().empty());
}

TEST(TraceSinkTest, UnattachedKernelTracesNothing)
{
    // No sink on the kernel: scopes emit into the void, and the
    // simulation result is byte-identical to a traced run.
    auto run = [](sim::TraceSink *sink) {
        sim::Kernel kernel;
        if (sink)
            kernel.setTracer(sink);
        core::Machine m(kernel);
        m.load(assembleSnap(apps::blinkProgram()));
        m.start();
        kernel.runFor(20 * sim::kMillisecond);
        return std::make_pair(m.core().stats().instructions,
                              m.core().debugOut());
    };
    sim::TraceSink sink;
    auto traced = run(&sink);
    auto bare = run(nullptr);
    EXPECT_GT(sink.eventCount(), 0u);
    EXPECT_EQ(bare.first, traced.first);
    EXPECT_EQ(bare.second, traced.second);
}

TEST(TraceSinkTest, EventNamesAndCategoriesAreTotal)
{
    for (unsigned i = 0;
         i < static_cast<unsigned>(sim::TraceEvent::NumEvents); ++i) {
        auto e = static_cast<sim::TraceEvent>(i);
        EXPECT_FALSE(sim::traceEventName(e).empty());
        EXPECT_FALSE(sim::traceEventCategory(e).empty());
    }
}

TEST(TraceSinkTest, ScopeRebindsToANewSinkAtARecycledAddress)
{
    // A scope bound to one sink must re-intern when a different sink
    // is built at the same address; otherwise it would emit a stale
    // scope id into the new sink's empty scope table.
    sim::Kernel kernel;
    sim::TraceScope scope(kernel, "core.fetch");
    alignas(sim::TraceSink) unsigned char buf[sizeof(sim::TraceSink)];

    auto *first = new (buf) sim::TraceSink(false);
    first->scope("other"); // so "core.fetch" interns as id 1
    kernel.setTracer(first);
    scope.emit(sim::TraceEvent::CoreFetch, 1, 2);
    const std::uint64_t firstSerial = first->serial();
    first->~TraceSink();

    auto *second = new (buf) sim::TraceSink(false);
    ASSERT_EQ(static_cast<void *>(second), static_cast<void *>(first));
    EXPECT_NE(second->serial(), firstSerial);
    kernel.setTracer(second);
    scope.emit(sim::TraceEvent::CoreFetch, 1, 2);
    ASSERT_EQ(second->scopeNames().size(), 1u);
    EXPECT_EQ(second->scopeNames()[0], "core.fetch");
    EXPECT_EQ(second->eventCount(), 1u);

    sim::TraceSink fresh(false);
    fresh.emit(0, fresh.scope("core.fetch"), sim::TraceEvent::CoreFetch,
               1, 2);
    EXPECT_EQ(second->hash(), fresh.hash());
    kernel.setTracer(nullptr);
    second->~TraceSink();
}

// ---------------------------------------------------------------------
// The trace hash (sim/hash.hh hashRecord, one record per event).
// ---------------------------------------------------------------------

/** One event's fields, for building streams by value. */
struct Ev
{
    std::string scope;
    sim::TraceEvent type;
    sim::Tick ts;
    std::uint64_t a0, a1;
    double f;
};

/** Hash of @p evs emitted, in order, into a fresh hash-only sink. */
std::uint64_t
streamHash(const std::vector<Ev> &evs)
{
    sim::TraceSink sink(false);
    for (const Ev &e : evs)
        sink.emit(e.ts, sink.scope(e.scope), e.type, e.a0, e.a1, e.f);
    return sink.hash();
}

const std::vector<Ev> kThreeEvents = {
    {"core.fetch", sim::TraceEvent::CoreFetch, 100, 0x40, 0x1234, 0.0},
    {"timer", sim::TraceEvent::TimerSched, 2500, 3, 1000, 0.0},
    {"energy.core", sim::TraceEvent::EnergyDebit, 2500, 0, 0, 12.5},
};

TEST(TraceHashTest, KnownAnswerOnAFixedStream)
{
    // Pins the mixer, the seed, the field order and the scope-name
    // hash: any change to the fingerprint function fails here, not
    // only in the scenario goldens. (The value was computed by an
    // independent implementation of docs/TRACING.md's definition.)
    EXPECT_EQ(streamHash(kThreeEvents), 0x9d99a8c65d51094bull);
    EXPECT_EQ(streamHash({}), sim::kFnvOffset);
}

TEST(TraceHashTest, EverySingleBitFlipInEveryFieldChangesTheHash)
{
    const std::uint64_t base = streamHash(kThreeEvents);
    const auto flipped = [&](std::size_t ev, auto &&edit) {
        std::vector<Ev> evs = kThreeEvents;
        edit(evs[ev]);
        return streamHash(evs);
    };
    for (std::size_t ev = 0; ev < kThreeEvents.size(); ++ev) {
        for (unsigned bit = 0; bit < 64; ++bit) {
            const std::uint64_t m = std::uint64_t(1) << bit;
            EXPECT_NE(base, flipped(ev, [&](Ev &e) { e.ts ^= m; }))
                << "ts bit " << bit << " of event " << ev;
            EXPECT_NE(base, flipped(ev, [&](Ev &e) { e.a0 ^= m; }))
                << "a0 bit " << bit << " of event " << ev;
            EXPECT_NE(base, flipped(ev, [&](Ev &e) { e.a1 ^= m; }))
                << "a1 bit " << bit << " of event " << ev;
            EXPECT_NE(base, flipped(ev, [&](Ev &e) {
                e.f = std::bit_cast<double>(
                    std::bit_cast<std::uint64_t>(e.f) ^ m);
            })) << "f bit " << bit << " of event " << ev;
        }
        for (unsigned bit = 0; bit < 8; ++bit) {
            EXPECT_NE(base, flipped(ev, [&](Ev &e) {
                e.type = sim::TraceEvent(unsigned(e.type) ^ (1u << bit));
            })) << "type bit " << bit << " of event " << ev;
            for (std::size_t c = 0; c < kThreeEvents[ev].scope.size();
                 ++c)
                EXPECT_NE(base, flipped(ev, [&](Ev &e) {
                    e.scope[c] = char(e.scope[c] ^ (1 << bit));
                })) << "scope byte " << c << " bit " << bit
                    << " of event " << ev;
        }
    }
}

TEST(TraceHashTest, FieldAndEventOrderMatter)
{
    const std::uint64_t base = streamHash(kThreeEvents);
    std::vector<Ev> swappedArgs = kThreeEvents;
    std::swap(swappedArgs[0].a0, swappedArgs[0].a1);
    EXPECT_NE(base, streamHash(swappedArgs));
    std::vector<Ev> swappedEvents = kThreeEvents;
    std::swap(swappedEvents[1], swappedEvents[2]);
    EXPECT_NE(base, streamHash(swappedEvents));
    // Trading values between two fields must show too.
    std::vector<Ev> tsForA0 = kThreeEvents;
    std::swap(tsForA0[1].ts, tsForA0[1].a0);
    EXPECT_NE(base, streamHash(tsForA0));
}

// ---------------------------------------------------------------------
// Exporters, fed from a real Blink run.
// ---------------------------------------------------------------------

class TraceExportTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        kernel_.setTracer(&sink_);
        machine_ = std::make_unique<core::Machine>(kernel_);
        machine_->load(assembleSnap(apps::blinkProgram()));
        machine_->start();
        kernel_.runFor(20 * sim::kMillisecond);
        ASSERT_GT(sink_.eventCount(), 0u);
    }

    sim::Kernel kernel_;
    sim::TraceSink sink_;
    std::unique_ptr<core::Machine> machine_;
};

TEST_F(TraceExportTest, ChromeJsonIsWellFormed)
{
    std::ostringstream out;
    sink_.writeChromeJson(out);
    std::string json = out.str();
    EXPECT_TRUE(JsonChecker(json).valid()) << "invalid JSON";
    // Structure the Chrome/Perfetto loader needs.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos); // metadata
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos); // instants
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos); // counters
    // The acceptance triple: channel, event-queue and energy activity.
    EXPECT_NE(json.find(".tport"), std::string::npos);
    EXPECT_NE(json.find(".evq"), std::string::npos);
    EXPECT_NE(json.find("energy."), std::string::npos);
}

TEST_F(TraceExportTest, VcdVariablesMatchValueChanges)
{
    std::ostringstream out;
    sink_.writeVcd(out);
    std::istringstream in(out.str());

    std::vector<std::string> declared;
    bool in_defs = true;
    bool saw_timescale = false;
    long long last_ts = -1;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (in_defs) {
            if (line.rfind("$timescale", 0) == 0)
                saw_timescale = true;
            if (line.rfind("$var", 0) == 0) {
                // $var wire 8 <id> <name> $end
                std::istringstream ls(line);
                std::string var, kind, width, id;
                ls >> var >> kind >> width >> id;
                EXPECT_TRUE(kind == "wire" || kind == "real") << line;
                declared.push_back(id);
            }
            if (line.rfind("$enddefinitions", 0) == 0)
                in_defs = false;
            continue;
        }
        if (line[0] == '#') {
            long long ts = std::stoll(line.substr(1));
            EXPECT_GE(ts, last_ts) << "timestamps must not go back";
            last_ts = ts;
            continue;
        }
        if (line[0] == 'b' || line[0] == 'r') {
            // "b<bits> <id>" / "r<real> <id>"
            std::size_t sp = line.rfind(' ');
            ASSERT_NE(sp, std::string::npos) << line;
            std::string id = line.substr(sp + 1);
            bool known = false;
            for (const auto &d : declared)
                known |= (d == id);
            EXPECT_TRUE(known) << "undeclared VCD id: " << id;
        }
    }
    EXPECT_TRUE(saw_timescale);
    EXPECT_FALSE(declared.empty());
    EXPECT_GE(last_ts, 0) << "no value changes emitted";
}

TEST_F(TraceExportTest, ExportersAreDeterministic)
{
    std::ostringstream a, b;
    sink_.writeChromeJson(a);
    sink_.writeChromeJson(b);
    EXPECT_EQ(a.str(), b.str());
    std::ostringstream va, vb;
    sink_.writeVcd(va);
    sink_.writeVcd(vb);
    EXPECT_EQ(va.str(), vb.str());
}

} // namespace
