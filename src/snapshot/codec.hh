/**
 * @file
 * Byte-stable little-endian codec for snapshot serialization.
 *
 * The format must be identical across platforms and runs: fields are
 * written in a fixed declaration order, integers as explicit-width
 * little-endian bytes, doubles as their IEEE-754 bit patterns.
 * Strings are length-prefixed, and so are the containers snapshot.cc
 * walks. Reader is fully bounds-checked and throws sim::FatalError on
 * any truncation or overrun — corrupt input can reject, never crash
 * (tests/snapshot runs it under ASan/UBSan).
 */

#ifndef SNAPLE_SNAPSHOT_CODEC_HH
#define SNAPLE_SNAPSHOT_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace snaple::snapshot {

/** Append-only little-endian encoder. */
class Writer
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

    void
    u16(std::uint16_t v)
    {
        u8(static_cast<std::uint8_t>(v));
        u8(static_cast<std::uint8_t>(v >> 8));
    }

    void
    u32(std::uint32_t v)
    {
        u16(static_cast<std::uint16_t>(v));
        u16(static_cast<std::uint16_t>(v >> 16));
    }

    void
    u64(std::uint64_t v)
    {
        u32(static_cast<std::uint32_t>(v));
        u32(static_cast<std::uint32_t>(v >> 32));
    }

    void b(bool v) { u8(v ? 1 : 0); }

    /** Doubles travel as raw IEEE-754 bits: bit-stable, including the
     *  exact ledger values the picojoule-equality tests pin. */
    void f64(double v);

    void str(std::string_view s);

    const std::string &bytes() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/** Bounds-checked decoder; throws sim::FatalError on overrun. */
class Reader
{
  public:
    explicit Reader(std::string_view data) : data_(data) {}

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    bool b();
    double f64();
    std::string str();

    /** Remaining unread bytes (0 at a clean end of payload). */
    std::size_t remaining() const { return data_.size() - pos_; }

    /**
     * A sanity ceiling for length prefixes: any count must fit in the
     * bytes actually present, with at least @p elemBytes per element.
     * Rejects absurd counts before an allocation can OOM.
     */
    std::uint64_t count(std::size_t elemBytes);

  private:
    void need(std::size_t n);

    std::string_view data_;
    std::size_t pos_ = 0;
};

} // namespace snaple::snapshot

#endif // SNAPLE_SNAPSHOT_CODEC_HH
