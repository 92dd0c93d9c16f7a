/**
 * @file
 * Tokens and command words exchanged between the core, the
 * coprocessors, and the outside world.
 */

#ifndef SNAPLE_CORE_PORTS_HH
#define SNAPLE_CORE_PORTS_HH

#include <cstdint>

#include "isa/isa.hh"
#include "sim/channel.hh"
#include "sim/ticks.hh"

namespace snaple::core {

/** A token in the hardware event queue. */
struct EventToken
{
    std::uint8_t num = 0; ///< isa::EventNum value

    /**
     * Tick at which the producer enqueued the token; the fetch
     * process measures now() - at on dispatch into the event-queue
     * wait-latency histograms. Purely observational — no model
     * behavior depends on it (host code pushing raw tokens may leave
     * it zero and only skews its own metrics).
     */
    sim::Tick at = 0;

    isa::EventNum
    event() const
    {
        return static_cast<isa::EventNum>(num);
    }

    bool operator==(const EventToken &) const = default;
};

/** A command from the core's timer-interface unit to the coprocessor. */
struct TimerCmd
{
    isa::TimerFn fn = isa::TimerFn::SchedHi;
    std::uint8_t timer = 0;   ///< timer register number, 0..2
    std::uint16_t value = 0;  ///< schedhi: hi 8 bits; schedlo: lo 16 bits
};

/**
 * Message-coprocessor command words, written to r15 by software
 * (section 3.3: RX / TX / Query commands). Data words must have bit 15
 * clear or be preceded by a TX command; the apps' MAC layer guarantees
 * this by escaping at a higher level.
 */
namespace msgcmd {

inline constexpr std::uint16_t kCmdMask = 0xf000;
inline constexpr std::uint16_t kIdle = 0x8000;  ///< radio off
inline constexpr std::uint16_t kRx = 0x8001;    ///< radio to receive mode
inline constexpr std::uint16_t kTx = 0x8002;    ///< next word is TX data
inline constexpr std::uint16_t kCarrier = 0x8003; ///< carrier sense:
                                                  ///< reply 0/1 in r15
inline constexpr std::uint16_t kRssi = 0x8004;  ///< last-word RSSI:
                                                ///< reply rssi word in r15
inline constexpr std::uint16_t kFlow = 0x8005;  ///< toggle explicit flow
                                                ///< (src/obs/flow.hh):
                                                ///< reply flow id / 0xffff
inline constexpr std::uint16_t kQuery = 0x9000; ///< | sensor id (lo 4 bits)

/** True if @p w is a Query command. */
constexpr bool
isQuery(std::uint16_t w)
{
    return (w & kCmdMask) == kQuery;
}

constexpr std::uint8_t
querySensor(std::uint16_t w)
{
    return static_cast<std::uint8_t>(w & 0x000f);
}

} // namespace msgcmd

/** FIFO types connecting core and coprocessors. */
using EventQueue = sim::Fifo<EventToken>;
using WordFifo = sim::Fifo<std::uint16_t>;
using TimerPort = sim::Channel<TimerCmd>;

} // namespace snaple::core

#endif // SNAPLE_CORE_PORTS_HH
