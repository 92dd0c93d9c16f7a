/**
 * @file
 * Snapshot codec: the little-endian Writer/Reader pair is an exact
 * inverse on every field type, and the Reader rejects truncation and
 * absurd length prefixes with sim::FatalError instead of overrunning.
 */

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/hash.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "snapshot/codec.hh"

namespace {

using namespace snaple;
using snapshot::Reader;
using snapshot::Writer;

TEST(CodecTest, ScalarRoundTrip)
{
    Writer w;
    w.u8(0xab);
    w.u16(0xbeef);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.b(true);
    w.b(false);
    w.f64(-1234.5678e-9);
    w.f64(0.0);

    Reader r(w.bytes());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0xbeef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    EXPECT_EQ(r.f64(), -1234.5678e-9);
    EXPECT_EQ(r.f64(), 0.0);
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(CodecTest, LittleEndianLayout)
{
    Writer w;
    w.u32(0x04030201u);
    const std::string &b = w.bytes();
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(b[0], 0x01);
    EXPECT_EQ(b[1], 0x02);
    EXPECT_EQ(b[2], 0x03);
    EXPECT_EQ(b[3], 0x04);
}

TEST(CodecTest, DoubleBitsSurviveExactly)
{
    // Bit patterns that decimal round trips mangle: denormals, -0,
    // infinities, and an irrational-ish accumulated ledger value.
    const double values[] = {
        std::numeric_limits<double>::denorm_min(),
        -0.0,
        std::numeric_limits<double>::infinity(),
        1.0 / 3.0 * 194778.9839170189,
        std::numeric_limits<double>::max(),
    };
    Writer w;
    for (double v : values)
        w.f64(v);
    Reader r(w.bytes());
    for (double v : values) {
        const double got = r.f64();
        EXPECT_EQ(std::memcmp(&got, &v, sizeof v), 0);
    }
}

TEST(CodecTest, StringRoundTrip)
{
    // Container round trips live with the snapshot walk that encodes
    // them (snapshot_property_test).
    std::string s("embedded\0nul and bytes \xff\x80", 24);
    Writer w;
    w.str(s);
    w.str("");

    Reader r(w.bytes());
    EXPECT_EQ(r.str(), s);
    EXPECT_EQ(r.str(), "");
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(CodecTest, FuzzedSequenceRoundTrip)
{
    // Random interleavings of every field type must replay exactly.
    sim::Rng rng(0xc0dec);
    for (int iter = 0; iter < 200; ++iter) {
        Writer w;
        std::vector<std::uint64_t> script;
        const int n = 1 + int(rng.next() % 40);
        for (int i = 0; i < n; ++i) {
            const std::uint64_t kind = rng.next() % 6;
            const std::uint64_t val = rng.next();
            script.push_back(kind);
            script.push_back(val);
            switch (kind) {
              case 0: w.u8(std::uint8_t(val)); break;
              case 1: w.u16(std::uint16_t(val)); break;
              case 2: w.u32(std::uint32_t(val)); break;
              case 3: w.u64(val); break;
              case 4: w.b(val & 1); break;
              default: w.f64(double(val) * 1e-3); break;
            }
        }
        Reader r(w.bytes());
        for (std::size_t i = 0; i < script.size(); i += 2) {
            const std::uint64_t kind = script[i];
            const std::uint64_t val = script[i + 1];
            switch (kind) {
              case 0: EXPECT_EQ(r.u8(), std::uint8_t(val)); break;
              case 1: EXPECT_EQ(r.u16(), std::uint16_t(val)); break;
              case 2: EXPECT_EQ(r.u32(), std::uint32_t(val)); break;
              case 3: EXPECT_EQ(r.u64(), val); break;
              case 4: EXPECT_EQ(r.b(), bool(val & 1)); break;
              default: EXPECT_EQ(r.f64(), double(val) * 1e-3); break;
            }
        }
        EXPECT_EQ(r.remaining(), 0u);
    }
}

TEST(CodecTest, TruncatedReadThrows)
{
    Writer w;
    w.u64(1);
    w.str("hello");
    const std::string full = w.bytes();
    for (std::size_t len = 0; len < full.size(); ++len) {
        // Reader keeps a view: the prefix must outlive it.
        const std::string prefix = full.substr(0, len);
        Reader r(prefix);
        EXPECT_THROW(
            {
                r.u64();
                r.str();
            },
            sim::FatalError)
            << "prefix length " << len;
    }
}

TEST(CodecTest, AbsurdLengthPrefixRejectedBeforeAllocation)
{
    // A string claiming 2^64-1 bytes must throw from the count()
    // ceiling, not attempt an allocation. (Container prefixes:
    // SnapshotProperty.AbsurdNodeCountIsRejectedBeforeAllocation.)
    Writer w;
    w.u64(0xffffffffffffffffull);
    Reader r(w.bytes());
    EXPECT_THROW(r.str(), sim::FatalError);
}

TEST(CodecTest, ChecksumPrimitivesMatchReference)
{
    // FNV-1a 64 test vectors (public-domain reference values).
    EXPECT_EQ(sim::fnv1a64("", 0), sim::kFnvOffset);
    EXPECT_EQ(sim::fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(sim::fnv1a64("foobar", 6), 0x85944171f73967e8ull);
}

} // namespace
