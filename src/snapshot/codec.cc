#include "snapshot/codec.hh"

#include <cstring>

#include "sim/logging.hh"

namespace snaple::snapshot {

void
Writer::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
Writer::str(std::string_view s)
{
    u64(s.size());
    buf_.append(s.data(), s.size());
}

void
Reader::need(std::size_t n)
{
    sim::fatalIf(n > data_.size() - pos_,
                 "snapshot: truncated input (wanted ", n, " bytes, ",
                 data_.size() - pos_, " left)");
}

std::uint8_t
Reader::u8()
{
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint16_t
Reader::u16()
{
    std::uint16_t lo = u8();
    return static_cast<std::uint16_t>(lo | (std::uint16_t(u8()) << 8));
}

std::uint32_t
Reader::u32()
{
    std::uint32_t lo = u16();
    return lo | (std::uint32_t(u16()) << 16);
}

std::uint64_t
Reader::u64()
{
    std::uint64_t lo = u32();
    return lo | (std::uint64_t(u32()) << 32);
}

bool
Reader::b()
{
    std::uint8_t v = u8();
    sim::fatalIf(v > 1, "snapshot: bad boolean byte ", unsigned(v));
    return v != 0;
}

double
Reader::f64()
{
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::uint64_t
Reader::count(std::size_t elemBytes)
{
    std::uint64_t n = u64();
    sim::fatalIf(elemBytes != 0 && n > remaining() / elemBytes,
                 "snapshot: length prefix ", n,
                 " exceeds remaining input");
    return n;
}

std::string
Reader::str()
{
    std::uint64_t n = count(1);
    need(static_cast<std::size_t>(n));
    std::string s(data_.substr(pos_, static_cast<std::size_t>(n)));
    pos_ += static_cast<std::size_t>(n);
    return s;
}

} // namespace snaple::snapshot
