/**
 * @file
 * Simulation time base.
 *
 * All simulated time in snaple is expressed in integer picoseconds. A
 * picosecond base is fine enough to resolve single gate delays at 1.8 V
 * (~139 ps) and coarse enough that a 64-bit tick counter spans ~213 days
 * of simulated time, far beyond any experiment in the paper.
 */

#ifndef SNAPLE_SIM_TICKS_HH
#define SNAPLE_SIM_TICKS_HH

#include <cstdint>
#include <limits>

namespace snaple::sim {

/** Simulated time, in picoseconds. */
using Tick = std::uint64_t;

/** One picosecond. */
inline constexpr Tick kPicosecond = 1;
/** One nanosecond. */
inline constexpr Tick kNanosecond = 1000;
/** One microsecond. */
inline constexpr Tick kMicrosecond = 1000 * kNanosecond;
/** One millisecond. */
inline constexpr Tick kMillisecond = 1000 * kMicrosecond;
/** One second. */
inline constexpr Tick kSecond = 1000 * kMillisecond;

/** Sentinel for "run forever". */
inline constexpr Tick kMaxTick = std::numeric_limits<Tick>::max();

/**
 * Longest span a run length or a scheduled time may name: half the
 * tick range, so `now + span` cannot overflow. `snap-run --ms` and
 * every time field of a scenario file are bounded by it.
 */
inline constexpr Tick kMaxSpan = kMaxTick / 2;

/** Convert a floating-point nanosecond count to ticks (rounds to nearest). */
constexpr Tick
fromNs(double ns)
{
    return static_cast<Tick>(ns * static_cast<double>(kNanosecond) + 0.5);
}

/** Convert a floating-point microsecond count to ticks. */
constexpr Tick
fromUs(double us)
{
    return static_cast<Tick>(us * static_cast<double>(kMicrosecond) + 0.5);
}

/** Convert a floating-point millisecond count to ticks. */
constexpr Tick
fromMs(double ms)
{
    return static_cast<Tick>(ms * static_cast<double>(kMillisecond) + 0.5);
}

/** Convert a floating-point second count to ticks. */
constexpr Tick
fromSec(double s)
{
    return static_cast<Tick>(s * static_cast<double>(kSecond) + 0.5);
}

/** Convert ticks to nanoseconds. */
constexpr double
toNs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kNanosecond);
}

/** Convert ticks to microseconds. */
constexpr double
toUs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kMicrosecond);
}

/** Convert ticks to milliseconds. */
constexpr double
toMs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kMillisecond);
}

/** Convert ticks to seconds. */
constexpr double
toSec(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kSecond);
}

} // namespace snaple::sim

#endif // SNAPLE_SIM_TICKS_HH
