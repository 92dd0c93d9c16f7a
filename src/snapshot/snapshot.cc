#include "snapshot/snapshot.hh"

#include <concepts>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "sim/hash.hh"
#include "sim/logging.hh"
#include "snapshot/codec.hh"

namespace snaple::snapshot {

namespace {

// Each record has one io() field list, walked by both archives below:
// Out encodes, In decodes. The list is the wire order. std::array
// travels without a prefix (its size is a schema constant — any change
// bumps kFormatVersion), std::vector as a u64 count then its elements,
// std::pair as its two fields.

template <class Ar, class... T>
void fields(Ar &ar, T &...xs);

template <class T>
std::size_t encodedSize();

template <class T>
concept Scalar = std::is_arithmetic_v<T> || std::same_as<T, std::string>;

/** Encoding archive. The walk never writes through its references. */
struct Out
{
    Writer &w;

    void val(std::uint8_t v) { w.u8(v); }
    void val(std::uint16_t v) { w.u16(v); }
    void val(std::uint32_t v) { w.u32(v); }
    void val(std::uint64_t v) { w.u64(v); }
    void val(bool v) { w.b(v); }
    void val(double v) { w.f64(v); }
    void val(const std::string &v) { w.str(v); }

    template <class T>
    void
    vec(std::vector<T> &v)
    {
        w.u64(v.size());
        for (T &e : v)
            fields(*this, e);
    }
};

/** Decoding archive. */
struct In
{
    Reader &r;

    void val(std::uint8_t &v) { v = r.u8(); }
    void val(std::uint16_t &v) { v = r.u16(); }
    void val(std::uint32_t &v) { v = r.u32(); }
    void val(std::uint64_t &v) { v = r.u64(); }
    void val(bool &v) { v = r.b(); }
    void val(double &v) { v = r.f64(); }
    void val(std::string &v) { v = r.str(); }

    /** The count must fit the bytes left at one default element's
     *  encoded size apiece, before anything is allocated. */
    template <class T>
    void
    vec(std::vector<T> &v)
    {
        v.resize(static_cast<std::size_t>(r.count(encodedSize<T>())));
        for (T &e : v)
            fields(*this, e);
    }
};

template <class Ar, Scalar T>
void
field(Ar &ar, T &v)
{
    ar.val(v);
}

template <class Ar, class T, std::size_t N>
void
field(Ar &ar, std::array<T, N> &a)
{
    for (T &e : a)
        fields(ar, e);
}

template <class Ar, class T>
void
field(Ar &ar, std::vector<T> &v)
{
    ar.vec(v);
}

template <class Ar, class A, class B>
void
field(Ar &ar, std::pair<A, B> &p)
{
    fields(ar, p.first, p.second);
}

/** A record: its io() list, found through the archive's namespace. */
template <class Ar, class T>
void
field(Ar &ar, T &rec)
{
    io(ar, rec);
}

template <class Ar, class... T>
void
fields(Ar &ar, T &...xs)
{
    (field(ar, xs), ...);
}

/** Bytes one default-constructed T encodes to: the smallest any T
 *  can be, hence In::vec's per-element length floor. */
template <class T>
std::size_t
encodedSize()
{
    static const std::size_t n = [] {
        T x{};
        Writer w;
        Out out{w};
        fields(out, x);
        return w.bytes().size();
    }();
    return n;
}

template <class Ar>
void
io(Ar &ar, sim::MetricsRegistry::SavedInstrument &m)
{
    fields(ar, m.name, m.kind, m.counter, m.gaugeV, m.gaugeMerge,
           m.histCount, m.histSum, m.histMin, m.histMax, m.buckets);
}

template <class Ar>
void
io(Ar &ar, obs::FlowTag &t)
{
    fields(ar, t.origin, t.id, t.src, t.hop, t.valid);
}

template <class Ar, class T>
void
io(Ar &ar, FifoState<T> &f)
{
    fields(ar, f.buffer, f.accepted, f.dropped);
}

template <class Ar>
void
io(Ar &ar, core::EventToken &t)
{
    fields(ar, t.num, t.at);
}

template <class Ar>
void
io(Ar &ar, core::SnapCore::ActivitySpan &s)
{
    fields(ar, s.wake, s.sleep, s.firstEvent);
}

template <class Ar>
void
io(Ar &ar, core::SnapCore::HandlerStats &h)
{
    fields(ar, h.activations, h.instructions);
}

template <class Ar>
void
io(Ar &ar, core::SnapCore::Stats &s)
{
    fields(ar, s.instructions, s.perClass, s.perClassTicks, s.perClassPj,
           s.wordsFetched, s.handlers, s.sleeps, s.wakeups, s.activeTime,
           s.lastWake, s.lastSleepStart, s.perEvent, s.handlerTicks);
}

template <class Ar>
void
io(Ar &ar, core::SnapCore::ProfileCell &p)
{
    fields(ar, p.pc, p.slot, p.count, p.ticks, p.pj);
}

template <class Ar>
void
io(Ar &ar, core::SnapCore::SavedState &c)
{
    fields(ar, c.regs, c.carry, c.lfsr, c.handlerTable, c.halted,
           c.asleep, c.currentEvent, c.fidelity, c.fastPc,
           c.recordTimeline, c.debugOut, c.timeline, c.stats, c.profiling,
           c.profile);
}

template <class Ar>
void
io(Ar &ar, radio::ShardMedium::CarrierEnd &e)
{
    fields(ar, e.end, e.seq);
}

template <class Ar>
void
io(Ar &ar, radio::ShardMedium::PendingOffer &o)
{
    fields(ar, o.at, o.word, o.rssi, o.seq, o.tag);
}

template <class Ar>
void
io(Ar &ar, radio::ShardMedium::SavedState &m)
{
    fields(ar, m.txSeq, m.ownEnds, m.remoteEnds, m.offers);
}

template <class Ar>
void
io(Ar &ar, radio::AirFlight &f)
{
    fields(ar, f.start, f.end, f.srcNode, f.seq, f.word, f.collided,
           f.resolved, f.tag);
}

template <class Ar>
void
io(Ar &ar, radio::AirExchange::SavedState &a)
{
    fields(ar, a.pending, a.down, a.downLinks, a.offersOutstanding,
           a.metrics);
}

template <class Ar>
void
io(Ar &ar, coproc::TimerCoproc::Timer &t)
{
    fields(ar, t.armed, t.stagedHi, t.generation);
}

template <class Ar>
void
io(Ar &ar, coproc::TimerCoproc::ExpireRec &e)
{
    fields(ar, e.n, e.generation, e.deadline, e.seq);
}

template <class Ar>
void
io(Ar &ar, coproc::MessageCoproc::SavedState &m)
{
    fields(ar, m.cmdPhase, m.rxPhase, m.pendingWord, m.rxWord, m.waitEnd,
           m.waitSeq, m.waitArg, m.cmdStamp, m.rxStamp, m.blockSeq);
}

template <class Ar>
void
io(Ar &ar, obs::FlowTracker::SavedState &f)
{
    fields(ar, f.nextId, f.ctxValid, f.ctxOrigin, f.ctxId, f.ctxSrc,
           f.ctxHop, f.ctxAt, f.explicitOpen, f.explicitId);
}

template <class Ar>
void
io(Ar &ar, obs::Energest::SavedState &e)
{
    fields(ar, e.ticks, e.pj, e.onMask);
}

template <class Ar>
void
io(Ar &ar, NodeState &n)
{
    fields(ar, n.halted, n.dead, n.deathAt, n.kernelNow,
           n.kernelDispatched, n.traceHash, n.traceCount, n.core, n.volts,
           n.imem, n.dmem, n.evq, n.msgIn, n.msgOut,
           n.timers, n.timerExpires, n.msg, n.hasRadio, n.radioMode,
           n.radioLastRssi, n.radioRx, n.medium, n.ledgerPj, n.chargedPj,
           n.handlerPj, n.flow, n.energest, n.metrics);
}

/** The payload after the magic and version words. */
template <class Ar>
void
io(Ar &ar, NetworkSnapshot &s)
{
    fields(ar, s.snapTick, s.window, s.air, s.metricsNext,
           s.metricsLastAt, s.metricsMetaWritten, s.nodes, s.userRng);
}

} // namespace

std::string
encodeSnapshot(const NetworkSnapshot &snap)
{
    Writer w;
    w.u32(kMagic);
    w.u32(kFormatVersion);
    Out out{w};
    fields(out, const_cast<NetworkSnapshot &>(snap));
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
    In in{r};
    fields(in, snap);
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
