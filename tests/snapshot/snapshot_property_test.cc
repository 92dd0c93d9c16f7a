/**
 * @file
 * Snapshot format properties on fuzzed NetworkSnapshot values:
 * serialize∘parse is a byte fixed point, every truncated prefix and
 * every corrupted byte is rejected with sim::FatalError (never UB —
 * this suite runs under ASan/UBSan in CI), and a version bump with a
 * recomputed checksum is refused as unsupported.
 */

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/hash.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "snapshot/snapshot.hh"

namespace {

using namespace snaple;
using snapshot::NetworkSnapshot;
using snapshot::NodeState;

/** Every element of @p a from @p gen. */
template <class T, std::size_t N, class Gen>
void
fill(std::array<T, N> &a, Gen gen)
{
    for (T &e : a)
        e = gen();
}

/** Zero to @p max - 1 elements from @p gen. */
template <class T, class Gen>
std::vector<T>
some(sim::Rng &rng, int max, Gen gen)
{
    std::vector<T> v;
    for (int i = 0, n = int(rng.next() % std::uint64_t(max)); i < n; ++i)
        v.push_back(gen());
    return v;
}

sim::MetricsRegistry::SavedInstrument
fuzzInstrument(sim::Rng &rng, int i)
{
    sim::MetricsRegistry::SavedInstrument m;
    m.name = "m" + std::to_string(i) + ".fuzz";
    m.kind = std::uint8_t(rng.next() % 3);
    m.counter = rng.next();
    m.gaugeV = rng.uniform01() * 1e9;
    m.gaugeMerge = std::uint8_t(rng.next() % 4);
    m.histCount = rng.next();
    m.histSum = rng.next();
    m.histMin = rng.next();
    m.histMax = rng.next();
    m.buckets = some<std::pair<std::uint64_t, std::uint64_t>>(
        rng, 6, [&] { return std::pair(rng.next() % 65, rng.next()); });
    return m;
}

obs::FlowTag
fuzzTag(sim::Rng &rng)
{
    return obs::FlowTag{std::uint32_t(rng.next()),
                        std::uint32_t(rng.next()),
                        std::uint32_t(rng.next()), rng.uniform16(),
                        rng.chance(0.5)};
}

snapshot::FifoState<std::uint16_t>
fuzzFifo(sim::Rng &rng)
{
    snapshot::FifoState<std::uint16_t> f;
    f.buffer = some<std::uint16_t>(rng, 5, [&] { return rng.uniform16(); });
    f.accepted = rng.next();
    f.dropped = rng.next();
    return f;
}

/** A NodeState with every field set — a field dropped from the
 *  encode and decode walks alike then fails the whole-record
 *  comparison in DecodedFieldsSurviveExactly. */
NodeState
fuzzNode(sim::Rng &rng)
{
    const auto u64 = [&] { return rng.next(); };
    const auto u16 = [&] { return rng.uniform16(); };
    const auto tick = [&] { return rng.next() % (1u << 30); };
    const auto pj = [&] { return rng.uniform01() * 1e12; };

    NodeState ns;
    ns.halted = rng.chance(0.3);
    ns.dead = ns.halted && rng.chance(0.5);
    ns.deathAt = tick();
    ns.kernelNow = tick();
    ns.kernelDispatched = u64();
    ns.traceHash = u64();
    ns.traceCount = u64();

    auto &c = ns.core;
    fill(c.regs, u16);
    c.carry = rng.chance(0.5);
    c.lfsr = u16();
    fill(c.handlerTable, u16);
    c.halted = ns.halted;
    c.asleep = !ns.halted;
    c.currentEvent = std::uint8_t(rng.next());
    c.fidelity = std::uint8_t(rng.next() % 2);
    c.fastPc = u16();
    c.recordTimeline = rng.chance(0.5);
    c.debugOut = some<std::uint16_t>(rng, 9, u16);
    c.timeline = some<core::SnapCore::ActivitySpan>(rng, 4, [&] {
        return core::SnapCore::ActivitySpan{tick(), tick(),
                                            std::uint8_t(rng.next())};
    });
    auto &st = c.stats;
    st.instructions = u64();
    fill(st.perClass, u64);
    fill(st.perClassTicks, tick);
    fill(st.perClassPj, pj);
    st.wordsFetched = u64();
    st.handlers = u64();
    st.sleeps = u64();
    st.wakeups = u64();
    st.activeTime = tick();
    st.lastWake = tick();
    st.lastSleepStart = tick();
    fill(st.perEvent, [&] {
        return core::SnapCore::HandlerStats{u64(), u64()};
    });
    fill(st.handlerTicks, tick);
    c.profiling = rng.chance(0.5);
    if (c.profiling)
        c.profile = some<core::SnapCore::ProfileCell>(rng, 5, [&] {
            return core::SnapCore::ProfileCell{
                u16(), std::uint8_t(rng.next()), u64(), tick(), pj()};
        });
    ns.volts = pj();

    for (int i = 0, n = 16 + int(rng.next() % 64); i < n; ++i) {
        ns.imem.push_back(u16());
        ns.dmem.push_back(u16());
    }
    ns.evq.buffer = some<core::EventToken>(rng, 5, [&] {
        return core::EventToken{std::uint8_t(rng.next() % 7), tick()};
    });
    ns.evq.accepted = u64();
    ns.evq.dropped = u64();
    ns.msgIn = fuzzFifo(rng);
    ns.msgOut = fuzzFifo(rng);

    fill(ns.timers, [&] {
        return coproc::TimerCoproc::Timer{
            rng.chance(0.5), std::uint8_t(rng.next()), u64()};
    });
    ns.timerExpires = some<coproc::TimerCoproc::ExpireRec>(rng, 4, [&] {
        return coproc::TimerCoproc::ExpireRec{
            std::uint8_t(rng.next() % 3), u64(), tick(), u64()};
    });
    ns.msg = coproc::MessageCoproc::SavedState{
        std::uint8_t(rng.next() % 3), std::uint8_t(rng.next() % 2),
        u16(), u16(), tick(), u64(), std::uint8_t(rng.next()), u64(),
        u64(), u64()};

    ns.hasRadio = rng.chance(0.8);
    ns.radioMode = std::uint8_t(rng.next() % 3);
    ns.radioLastRssi = u16();
    ns.radioRx = fuzzFifo(rng);
    ns.medium.txSeq = std::uint32_t(rng.next());
    const auto end = [&] {
        return radio::ShardMedium::CarrierEnd{tick(), u64()};
    };
    ns.medium.ownEnds = some<radio::ShardMedium::CarrierEnd>(rng, 3, end);
    ns.medium.remoteEnds =
        some<radio::ShardMedium::CarrierEnd>(rng, 3, end);
    ns.medium.offers = some<radio::ShardMedium::PendingOffer>(rng, 3, [&] {
        return radio::ShardMedium::PendingOffer{tick(), u16(), u16(),
                                                u64(), fuzzTag(rng)};
    });

    fill(ns.ledgerPj, pj);
    ns.chargedPj = pj();
    fill(ns.handlerPj, pj);
    ns.flow = obs::FlowTracker::SavedState{
        std::uint32_t(rng.next()), std::uint8_t(rng.next() % 2),
        std::uint32_t(rng.next()), std::uint32_t(rng.next()),
        std::uint32_t(rng.next()), u16(), tick(),
        std::uint8_t(rng.next() % 2), std::uint32_t(rng.next())};
    fill(ns.energest.ticks, tick);
    fill(ns.energest.pj, pj);
    ns.energest.onMask = std::uint8_t(rng.next());
    for (int i = 0, n = int(rng.next() % 6); i < n; ++i)
        ns.metrics.push_back(fuzzInstrument(rng, i));
    return ns;
}

NetworkSnapshot
fuzzSnapshot(sim::Rng &rng)
{
    NetworkSnapshot snap;
    snap.snapTick = rng.next() % (1u << 30);
    snap.window = 1 + rng.next() % (1u << 20);
    snap.air.pending = some<radio::AirFlight>(rng, 4, [&] {
        radio::AirFlight f{};
        f.start = rng.next() % (1u << 30);
        f.end = f.start + 1 + rng.next() % 1000;
        f.srcNode = std::uint32_t(rng.next() % 8);
        f.seq = std::uint32_t(rng.next());
        f.word = rng.uniform16();
        f.collided = rng.chance(0.3);
        f.resolved = rng.chance(0.3);
        f.tag = fuzzTag(rng);
        return f;
    });
    for (int i = 0, n = int(rng.next() % 3); i < n; ++i) {
        snap.air.down.push_back(std::uint8_t(rng.next() % 2));
        snap.air.downLinks.emplace_back(std::uint32_t(rng.next() % 8),
                                        std::uint32_t(rng.next() % 8));
    }
    snap.air.offersOutstanding = rng.next();
    for (int i = 0, n = int(rng.next() % 4); i < n; ++i)
        snap.air.metrics.push_back(fuzzInstrument(rng, 100 + i));
    snap.metricsNext = rng.next() % (1u << 30);
    snap.metricsLastAt = rng.next() % (1u << 30);
    snap.metricsMetaWritten = rng.chance(0.5);
    const int nodes = 1 + int(rng.next() % 4);
    for (int i = 0; i < nodes; ++i) {
        snap.nodes.push_back(fuzzNode(rng));
        snap.userRng.push_back(rng.chance(0.5) ? rng.next() : 0);
    }
    return snap;
}

TEST(SnapshotProperty, SerializeParseIsAByteFixedPoint)
{
    sim::Rng rng(0x5eed);
    for (int iter = 0; iter < 50; ++iter) {
        const NetworkSnapshot snap = fuzzSnapshot(rng);
        const std::string enc = snapshot::encodeSnapshot(snap);
        const NetworkSnapshot dec = snapshot::decodeSnapshot(enc);
        const std::string enc2 = snapshot::encodeSnapshot(dec);
        ASSERT_EQ(enc, enc2) << "iteration " << iter;
    }
}

TEST(SnapshotProperty, DecodedFieldsSurviveExactly)
{
    // Whole-record equality over fuzzers that set every field: a
    // field the walk loses, or decodes into the wrong slot, differs.
    sim::Rng rng(0xfee1);
    for (int iter = 0; iter < 20; ++iter) {
        const NetworkSnapshot snap = fuzzSnapshot(rng);
        const NetworkSnapshot dec =
            snapshot::decodeSnapshot(snapshot::encodeSnapshot(snap));
        ASSERT_EQ(dec.nodes.size(), snap.nodes.size());
        for (std::size_t i = 0; i < snap.nodes.size(); ++i)
            EXPECT_TRUE(dec.nodes[i] == snap.nodes[i])
                << "iteration " << iter << " node " << i;
        EXPECT_TRUE(dec == snap) << "iteration " << iter;
    }
}

TEST(SnapshotProperty, EveryTruncatedPrefixIsRejected)
{
    sim::Rng rng(0x7213);
    NetworkSnapshot snap = fuzzSnapshot(rng);
    snap.nodes.resize(1); // keep the prefix sweep fast
    snap.userRng.resize(1);
    const std::string enc = snapshot::encodeSnapshot(snap);
    for (std::size_t len = 0; len < enc.size(); ++len)
        EXPECT_THROW(
            snapshot::decodeSnapshot(
                std::string_view(enc.data(), len)),
            sim::FatalError)
            << "prefix length " << len << " of " << enc.size();
}

TEST(SnapshotProperty, EveryCorruptedByteIsRejected)
{
    // The trailing FNV-1a checksum covers every payload byte, so any
    // single-byte flip anywhere — header, payload or the checksum
    // itself — must throw cleanly.
    sim::Rng rng(0xbadb);
    NetworkSnapshot snap = fuzzSnapshot(rng);
    snap.nodes.resize(1);
    snap.userRng.resize(1);
    const std::string enc = snapshot::encodeSnapshot(snap);
    for (std::size_t i = 0; i < enc.size(); ++i) {
        std::string bad = enc;
        bad[i] = char(bad[i] ^ 0x41);
        EXPECT_THROW(snapshot::decodeSnapshot(bad), sim::FatalError)
            << "flipped byte " << i;
    }
}

TEST(SnapshotProperty, TrailingGarbageIsRejected)
{
    sim::Rng rng(0x9999);
    const std::string enc =
        snapshot::encodeSnapshot(fuzzSnapshot(rng));
    EXPECT_THROW(snapshot::decodeSnapshot(enc + std::string(1, '\0')),
                 sim::FatalError);
}

/** Recompute the trailing checksum of an edited encoding, so only
 *  the header checks can reject it. */
std::string
reseal(std::string enc)
{
    const std::uint64_t sum = sim::fnv1a64(enc.data(), enc.size() - 8);
    for (int i = 0; i < 8; ++i)
        enc[enc.size() - 8 + std::size_t(i)] =
            char((sum >> (8 * i)) & 0xff);
    return enc;
}

/** @p enc with its format version set to @p version, resealed. */
std::string
restampVersion(std::string enc, std::uint32_t version)
{
    for (int i = 0; i < 4; ++i) // little-endian u32 after the magic
        enc[4 + std::size_t(i)] = char((version >> (8 * i)) & 0xff);
    return reseal(std::move(enc));
}

/** Decode must throw a FatalError that names the version. */
void
expectVersionRejected(const std::string &enc, const char *what)
{
    try {
        snapshot::decodeSnapshot(enc);
        FAIL() << what << " accepted";
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SnapshotProperty, VersionBumpWithValidChecksumIsRejected)
{
    // A future-versioned file with a perfectly valid checksum must be
    // refused as unsupported, not misparsed.
    sim::Rng rng(0x0505);
    const std::string enc = snapshot::encodeSnapshot(fuzzSnapshot(rng));
    ASSERT_GT(enc.size(), 16u);
    expectVersionRejected(
        restampVersion(enc, snapshot::kFormatVersion + 1),
        "future version");
}

/** A past format version, restamped onto a current encoding. */
class SnapshotOldVersion : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(SnapshotOldVersion, IsRejected)
{
    // v2 trace hashes are FNV-1a: resuming one would splice two hash
    // functions into one ladder. v3 carries a pending-fidelity byte
    // per node that v4 dropped. v4 carries leakage and listen cursors
    // where v5 records the supply volts and class-cal digest: the
    // same size, so nothing but the version word tells them apart.
    // v5 has no profiling flag or profile cells. v6 carries the
    // class-cal digest per node that v7 dropped. v7 saves 65 dense
    // bucket counts and a gauge merge count per instrument where v8
    // saves the non-zero bucket pairs. Restamped onto a current
    // encoding, only the version word can refuse them.
    const std::uint32_t version = GetParam();
    ASSERT_LT(version, snapshot::kFormatVersion);
    sim::Rng rng(0x0202);
    const std::string enc = snapshot::encodeSnapshot(fuzzSnapshot(rng));
    ASSERT_GT(enc.size(), 16u);
    ASSERT_NO_THROW(snapshot::decodeSnapshot(enc));
    const std::string what = "v" + std::to_string(version) + " snapshot";
    expectVersionRejected(restampVersion(enc, version), what.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Past, SnapshotOldVersion, ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u),
    [](const ::testing::TestParamInfo<std::uint32_t> &info) {
        return "v" + std::to_string(info.param);
    });

TEST(SnapshotProperty, AbsurdNodeCountIsRejectedBeforeAllocation)
{
    // A validly sealed snapshot whose node-count prefix claims 2^61
    // nodes must throw from Reader::count's floor, not attempt the
    // allocation (which would surface as bad_alloc or length_error).
    sim::Rng rng(0xab5d);
    NetworkSnapshot snap = fuzzSnapshot(rng);
    snap.nodes.clear();
    snap.userRng.clear();
    std::string enc = snapshot::encodeSnapshot(snap);
    // Tail: node count, userRng count, checksum — eight bytes each.
    const std::size_t at = enc.size() - 24;
    const std::uint64_t absurd = std::uint64_t(1) << 61;
    for (int i = 0; i < 8; ++i)
        enc[at + std::size_t(i)] = char((absurd >> (8 * i)) & 0xff);
    EXPECT_THROW(snapshot::decodeSnapshot(reseal(enc)), sim::FatalError);
}

TEST(SnapshotProperty, BadMagicIsRejected)
{
    sim::Rng rng(0x1111);
    std::string enc = snapshot::encodeSnapshot(fuzzSnapshot(rng));
    enc[0] = 'X';
    EXPECT_THROW(snapshot::decodeSnapshot(reseal(enc)), sim::FatalError);
}

} // namespace
