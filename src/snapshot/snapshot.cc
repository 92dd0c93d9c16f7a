#include "snapshot/snapshot.hh"

#include <fstream>
#include <sstream>

#include "sim/hash.hh"
#include "sim/logging.hh"
#include "snapshot/codec.hh"

namespace snaple::snapshot {

namespace {

// Every put/get pair below walks the same fields in the same order;
// fixed-size arrays travel without length prefixes (their sizes are
// schema constants — any change bumps kFormatVersion).

void
putInstruments(Writer &w,
               const std::vector<sim::MetricsRegistry::SavedInstrument> &v)
{
    w.u64(v.size());
    for (const auto &m : v) {
        w.str(m.name);
        w.u8(m.kind);
        w.u64(m.counter);
        w.f64(m.gaugeV);
        w.u8(m.gaugeMerge);
        w.u32(m.gaugeMergedN);
        w.u64(m.histCount);
        w.u64(m.histSum);
        w.u64(m.histMin);
        w.u64(m.histMax);
        for (std::uint64_t b : m.buckets)
            w.u64(b);
    }
}

std::vector<sim::MetricsRegistry::SavedInstrument>
getInstruments(Reader &r)
{
    std::uint64_t n = r.count(1);
    std::vector<sim::MetricsRegistry::SavedInstrument> v;
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        sim::MetricsRegistry::SavedInstrument m;
        m.name = r.str();
        m.kind = r.u8();
        m.counter = r.u64();
        m.gaugeV = r.f64();
        m.gaugeMerge = r.u8();
        m.gaugeMergedN = r.u32();
        m.histCount = r.u64();
        m.histSum = r.u64();
        m.histMin = r.u64();
        m.histMax = r.u64();
        for (std::uint64_t &b : m.buckets)
            b = r.u64();
        v.push_back(std::move(m));
    }
    return v;
}

void
putTag(Writer &w, const obs::FlowTag &t)
{
    w.u32(t.origin);
    w.u32(t.id);
    w.u32(t.src);
    w.u16(t.hop);
    w.b(t.valid);
}

obs::FlowTag
getTag(Reader &r)
{
    obs::FlowTag t;
    t.origin = r.u32();
    t.id = r.u32();
    t.src = r.u32();
    t.hop = r.u16();
    t.valid = r.b();
    return t;
}

void
putFifo(Writer &w, const FifoState &f)
{
    w.u16vec(f.words);
    w.u64(f.accepted);
    w.u64(f.dropped);
}

FifoState
getFifo(Reader &r)
{
    FifoState f;
    f.words = r.u16vec();
    f.accepted = r.u64();
    f.dropped = r.u64();
    return f;
}

void
putCore(Writer &w, const core::SnapCore::SavedState &c)
{
    for (std::uint16_t v : c.regs)
        w.u16(v);
    w.b(c.carry);
    w.u16(c.lfsr);
    for (std::uint16_t v : c.handlerTable)
        w.u16(v);
    w.b(c.halted);
    w.b(c.asleep);
    w.u8(c.currentEvent);
    w.u8(c.fidelity);
    w.u8(c.pendingFidelity);
    w.u16(c.fastPc);
    w.b(c.recordTimeline);
    w.u16vec(c.debugOut);
    w.u64(c.timeline.size());
    for (const auto &span : c.timeline) {
        w.u64(span.wake);
        w.u64(span.sleep);
        w.u8(span.firstEvent);
    }
    const auto &st = c.stats;
    w.u64(st.instructions);
    for (std::uint64_t v : st.perClass)
        w.u64(v);
    for (sim::Tick v : st.perClassTicks)
        w.u64(v);
    for (double v : st.perClassPj)
        w.f64(v);
    w.u64(st.wordsFetched);
    w.u64(st.handlers);
    w.u64(st.sleeps);
    w.u64(st.wakeups);
    w.u64(st.activeTime);
    w.u64(st.lastWake);
    w.u64(st.lastSleepStart);
    for (const auto &h : st.perEvent) {
        w.u64(h.activations);
        w.u64(h.instructions);
    }
    for (sim::Tick v : st.handlerTicks)
        w.u64(v);
}

core::SnapCore::SavedState
getCore(Reader &r)
{
    core::SnapCore::SavedState c;
    for (std::uint16_t &v : c.regs)
        v = r.u16();
    c.carry = r.b();
    c.lfsr = r.u16();
    for (std::uint16_t &v : c.handlerTable)
        v = r.u16();
    c.halted = r.b();
    c.asleep = r.b();
    c.currentEvent = r.u8();
    c.fidelity = r.u8();
    c.pendingFidelity = r.u8();
    c.fastPc = r.u16();
    c.recordTimeline = r.b();
    c.debugOut = r.u16vec();
    std::uint64_t spans = r.count(17);
    c.timeline.reserve(static_cast<std::size_t>(spans));
    for (std::uint64_t i = 0; i < spans; ++i) {
        core::SnapCore::ActivitySpan span;
        span.wake = r.u64();
        span.sleep = r.u64();
        span.firstEvent = r.u8();
        c.timeline.push_back(span);
    }
    auto &st = c.stats;
    st.instructions = r.u64();
    for (std::uint64_t &v : st.perClass)
        v = r.u64();
    for (sim::Tick &v : st.perClassTicks)
        v = r.u64();
    for (double &v : st.perClassPj)
        v = r.f64();
    st.wordsFetched = r.u64();
    st.handlers = r.u64();
    st.sleeps = r.u64();
    st.wakeups = r.u64();
    st.activeTime = r.u64();
    st.lastWake = r.u64();
    st.lastSleepStart = r.u64();
    for (auto &h : st.perEvent) {
        h.activations = r.u64();
        h.instructions = r.u64();
    }
    for (sim::Tick &v : st.handlerTicks)
        v = r.u64();
    return c;
}

void
putMedium(Writer &w, const radio::ShardMedium::SavedState &m)
{
    w.u32(m.txSeq);
    w.u64(m.ownEnds.size());
    for (const auto &e : m.ownEnds) {
        w.u64(e.end);
        w.u64(e.seq);
    }
    w.u64(m.remoteEnds.size());
    for (const auto &e : m.remoteEnds) {
        w.u64(e.end);
        w.u64(e.seq);
    }
    w.u64(m.offers.size());
    for (const auto &o : m.offers) {
        w.u64(o.at);
        w.u16(o.word);
        w.u16(o.rssi);
        w.u64(o.seq);
        putTag(w, o.tag);
    }
}

radio::ShardMedium::SavedState
getMedium(Reader &r)
{
    radio::ShardMedium::SavedState m;
    m.txSeq = r.u32();
    std::uint64_t n = r.count(16);
    m.ownEnds.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        radio::ShardMedium::CarrierEnd e;
        e.end = r.u64();
        e.seq = r.u64();
        m.ownEnds.push_back(e);
    }
    n = r.count(16);
    m.remoteEnds.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        radio::ShardMedium::CarrierEnd e;
        e.end = r.u64();
        e.seq = r.u64();
        m.remoteEnds.push_back(e);
    }
    n = r.count(20);
    m.offers.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        radio::ShardMedium::PendingOffer o;
        o.at = r.u64();
        o.word = r.u16();
        o.rssi = r.u16();
        o.seq = r.u64();
        o.tag = getTag(r);
        m.offers.push_back(o);
    }
    return m;
}

void
putAir(Writer &w, const radio::AirExchange::SavedState &a)
{
    w.u64(a.pending.size());
    for (const auto &f : a.pending) {
        w.u64(f.start);
        w.u64(f.end);
        w.u32(f.srcNode);
        w.u32(f.seq);
        w.u16(f.word);
        w.b(f.collided);
        w.b(f.resolved);
        putTag(w, f.tag);
    }
    w.u64(a.down.size());
    for (std::uint8_t d : a.down)
        w.u8(d);
    w.u64(a.downLinks.size());
    for (const auto &[lo, hi] : a.downLinks) {
        w.u32(lo);
        w.u32(hi);
    }
    w.u64(a.offersOutstanding);
    putInstruments(w, a.metrics);
}

radio::AirExchange::SavedState
getAir(Reader &r)
{
    radio::AirExchange::SavedState a;
    std::uint64_t n = r.count(28);
    a.pending.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        radio::AirFlight f{};
        f.start = r.u64();
        f.end = r.u64();
        f.srcNode = r.u32();
        f.seq = r.u32();
        f.word = r.u16();
        f.collided = r.b();
        f.resolved = r.b();
        f.tag = getTag(r);
        a.pending.push_back(f);
    }
    n = r.count(1);
    a.down.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i)
        a.down.push_back(r.u8());
    n = r.count(8);
    a.downLinks.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint32_t lo = r.u32();
        std::uint32_t hi = r.u32();
        a.downLinks.emplace_back(lo, hi);
    }
    a.offersOutstanding = r.u64();
    a.metrics = getInstruments(r);
    return a;
}

void
putNode(Writer &w, const NodeState &n)
{
    w.b(n.halted);
    w.b(n.dead);
    w.u64(n.deathAt);
    w.u64(n.kernelNow);
    w.u64(n.kernelDispatched);
    w.u64(n.traceHash);
    w.u64(n.traceCount);
    putCore(w, n.core);
    w.u16vec(n.imem);
    w.u16vec(n.dmem);
    w.u64(n.evq.tokens.size());
    for (const auto &t : n.evq.tokens) {
        w.u8(t.num);
        w.u64(t.at);
    }
    w.u64(n.evq.accepted);
    w.u64(n.evq.dropped);
    putFifo(w, n.msgIn);
    putFifo(w, n.msgOut);
    for (const auto &t : n.timers) {
        w.b(t.armed);
        w.u8(t.stagedHi);
        w.u64(t.generation);
    }
    w.u64(n.timerExpires.size());
    for (const auto &e : n.timerExpires) {
        w.u8(e.n);
        w.u64(e.generation);
        w.u64(e.deadline);
        w.u64(e.seq);
    }
    w.u8(n.msg.cmdPhase);
    w.u8(n.msg.rxPhase);
    w.u16(n.msg.pendingWord);
    w.u16(n.msg.rxWord);
    w.u64(n.msg.waitEnd);
    w.u64(n.msg.waitSeq);
    w.u8(n.msg.waitArg);
    w.u64(n.msg.cmdStamp);
    w.u64(n.msg.rxStamp);
    w.u64(n.msg.blockSeq);
    w.b(n.hasRadio);
    w.u8(n.radioMode);
    w.u16(n.radioLastRssi);
    w.u64(n.radioListenAccruedTo);
    putFifo(w, n.radioRx);
    putMedium(w, n.medium);
    for (double v : n.ledgerPj)
        w.f64(v);
    w.u64(n.leakAccruedTo);
    w.f64(n.chargedPj);
    for (double v : n.handlerPj)
        w.f64(v);
    w.u32(n.flow.nextId);
    w.u8(n.flow.ctxValid);
    w.u32(n.flow.ctxOrigin);
    w.u32(n.flow.ctxId);
    w.u32(n.flow.ctxSrc);
    w.u16(n.flow.ctxHop);
    w.u64(n.flow.ctxAt);
    w.u8(n.flow.explicitOpen);
    w.u32(n.flow.explicitId);
    for (sim::Tick v : n.energest.ticks)
        w.u64(v);
    for (double v : n.energest.pj)
        w.f64(v);
    w.u8(n.energest.onMask);
    putInstruments(w, n.metrics);
}

NodeState
getNode(Reader &r)
{
    NodeState n;
    n.halted = r.b();
    n.dead = r.b();
    n.deathAt = r.u64();
    n.kernelNow = r.u64();
    n.kernelDispatched = r.u64();
    n.traceHash = r.u64();
    n.traceCount = r.u64();
    n.core = getCore(r);
    n.imem = r.u16vec();
    n.dmem = r.u16vec();
    std::uint64_t tokens = r.count(9);
    n.evq.tokens.reserve(static_cast<std::size_t>(tokens));
    for (std::uint64_t i = 0; i < tokens; ++i) {
        EventTokenRec t;
        t.num = r.u8();
        t.at = r.u64();
        n.evq.tokens.push_back(t);
    }
    n.evq.accepted = r.u64();
    n.evq.dropped = r.u64();
    n.msgIn = getFifo(r);
    n.msgOut = getFifo(r);
    for (auto &t : n.timers) {
        t.armed = r.b();
        t.stagedHi = r.u8();
        t.generation = r.u64();
    }
    std::uint64_t expires = r.count(25);
    n.timerExpires.reserve(static_cast<std::size_t>(expires));
    for (std::uint64_t i = 0; i < expires; ++i) {
        coproc::TimerCoproc::ExpireRec e;
        e.n = r.u8();
        e.generation = r.u64();
        e.deadline = r.u64();
        e.seq = r.u64();
        n.timerExpires.push_back(e);
    }
    n.msg.cmdPhase = r.u8();
    n.msg.rxPhase = r.u8();
    n.msg.pendingWord = r.u16();
    n.msg.rxWord = r.u16();
    n.msg.waitEnd = r.u64();
    n.msg.waitSeq = r.u64();
    n.msg.waitArg = r.u8();
    n.msg.cmdStamp = r.u64();
    n.msg.rxStamp = r.u64();
    n.msg.blockSeq = r.u64();
    n.hasRadio = r.b();
    n.radioMode = r.u8();
    n.radioLastRssi = r.u16();
    n.radioListenAccruedTo = r.u64();
    n.radioRx = getFifo(r);
    n.medium = getMedium(r);
    for (double &v : n.ledgerPj)
        v = r.f64();
    n.leakAccruedTo = r.u64();
    n.chargedPj = r.f64();
    for (double &v : n.handlerPj)
        v = r.f64();
    n.flow.nextId = r.u32();
    n.flow.ctxValid = r.u8();
    n.flow.ctxOrigin = r.u32();
    n.flow.ctxId = r.u32();
    n.flow.ctxSrc = r.u32();
    n.flow.ctxHop = r.u16();
    n.flow.ctxAt = r.u64();
    n.flow.explicitOpen = r.u8();
    n.flow.explicitId = r.u32();
    for (sim::Tick &v : n.energest.ticks)
        v = r.u64();
    for (double &v : n.energest.pj)
        v = r.f64();
    n.energest.onMask = r.u8();
    n.metrics = getInstruments(r);
    return n;
}

} // namespace

std::string
encodeSnapshot(const NetworkSnapshot &snap)
{
    Writer w;
    w.u32(kMagic);
    w.u32(kFormatVersion);
    w.u64(snap.snapTick);
    w.u64(snap.window);
    putAir(w, snap.air);
    w.u64(snap.metricsNext);
    w.u64(snap.metricsLastAt);
    w.b(snap.metricsMetaWritten);
    w.u64(snap.nodes.size());
    for (const NodeState &n : snap.nodes)
        putNode(w, n);
    w.u64(snap.userRng.size());
    for (std::uint64_t v : snap.userRng)
        w.u64(v);
    std::string bytes = w.take();
    std::uint64_t sum = sim::fnv1a64(bytes.data(), bytes.size());
    Writer tail;
    tail.u64(sum);
    bytes += tail.bytes();
    return bytes;
}

NetworkSnapshot
decodeSnapshot(std::string_view bytes)
{
    sim::fatalIf(bytes.size() < 16,
                 "snapshot: input too short to be a snapshot (",
                 bytes.size(), " bytes)");
    const std::size_t payloadEnd = bytes.size() - 8;
    {
        Reader tail(bytes.substr(payloadEnd));
        std::uint64_t stored = tail.u64();
        std::uint64_t actual = sim::fnv1a64(bytes.data(), payloadEnd);
        sim::fatalIf(stored != actual,
                     "snapshot: checksum mismatch (corrupt file)");
    }
    Reader r(bytes.substr(0, payloadEnd));
    std::uint32_t magic = r.u32();
    sim::fatalIf(magic != kMagic, "snapshot: bad magic (not a snapshot)");
    std::uint32_t version = r.u32();
    sim::fatalIf(version != kFormatVersion,
                 "snapshot: unsupported format version ", version,
                 " (this build reads version ", kFormatVersion, ")");
    NetworkSnapshot snap;
    snap.snapTick = r.u64();
    snap.window = r.u64();
    snap.air = getAir(r);
    snap.metricsNext = r.u64();
    snap.metricsLastAt = r.u64();
    snap.metricsMetaWritten = r.b();
    std::uint64_t nodes = r.count(1);
    snap.nodes.reserve(static_cast<std::size_t>(nodes));
    for (std::uint64_t i = 0; i < nodes; ++i)
        snap.nodes.push_back(getNode(r));
    std::uint64_t rngs = r.count(8);
    snap.userRng.reserve(static_cast<std::size_t>(rngs));
    for (std::uint64_t i = 0; i < rngs; ++i)
        snap.userRng.push_back(r.u64());
    sim::fatalIf(r.remaining() != 0,
                 "snapshot: ", r.remaining(),
                 " trailing bytes after the payload");
    return snap;
}

void
writeSnapshotFile(const NetworkSnapshot &snap, const std::string &path)
{
    std::string bytes = encodeSnapshot(snap);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    sim::fatalIf(!out, "snapshot: cannot open ", path, " for writing");
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    sim::fatalIf(!out, "snapshot: short write to ", path);
}

NetworkSnapshot
readSnapshotFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    sim::fatalIf(!in, "snapshot: cannot open ", path);
    std::ostringstream ss;
    ss << in.rdbuf();
    sim::fatalIf(!in, "snapshot: read error on ", path);
    return decodeSnapshot(ss.str());
}

} // namespace snaple::snapshot
