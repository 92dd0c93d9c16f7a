/**
 * @file
 * Abstract interfaces between the message coprocessor and the node's
 * radio and sensors. Concrete models live in src/radio and src/sensor;
 * tests substitute scripted fakes.
 */

#ifndef SNAPLE_COPROC_IO_PORTS_HH
#define SNAPLE_COPROC_IO_PORTS_HH

#include <cstdint>

#include "sim/channel.hh"
#include "sim/task.hh"
#include "sim/ticks.hh"

namespace snaple::coproc {

/** Radio transceiver operating mode (TR1000-style control pins). */
enum class RadioMode
{
    Idle,
    Rx,
    Tx,
};

/** What the message coprocessor needs from a radio transceiver. */
class RadioPort
{
  public:
    virtual ~RadioPort() = default;

    /** Select the transceiver mode. */
    virtual void setMode(RadioMode mode) = 0;

    /**
     * Begin serializing one 16-bit word onto the air and return the
     * absolute tick at which the word will have left the transmitter
     * (at 19.2 kbps ~833 us later, which is why the interface is
     * word-level and event-driven, section 3.3). Non-blocking: the
     * message coprocessor owns the wait until the returned tick, so
     * the parked transmit state has no hidden coroutine frame and
     * stays checkpointable (src/snapshot/).
     */
    virtual sim::Tick transmitStart(std::uint16_t word) = 0;

    /** Words assembled from the receive bitstream. */
    virtual sim::Fifo<std::uint16_t> &rxWords() = 0;

    /** Carrier detect: is any transmission on the air right now? */
    virtual bool channelBusy() const = 0;

    /**
     * Received signal strength of the last word the receiver accepted,
     * as the monotone half-dB encoding rssiWord = (dBm + 120) * 2
     * clamped to [0, 65535] (so -120 dBm -> 0, -85 dBm -> 70). The
     * single-cell channel has no signal-strength model and reports 0
     * ("unknown"); field mode (radio::AirExchange::setField) fills it
     * per receiver.
     */
    virtual std::uint16_t lastRssi() const { return 0; }

    /**
     * Explicit-flow command (msgcmd::kFlow): toggle the node's
     * explicit flow open/closed in the side-band flow tracker
     * (src/obs/flow.hh) and return the reply word — the new flow id's
     * low 16 bits on open, 0xffff on close. Pure observability: a
     * radio (or test fake) without a tracker replies 0.
     */
    virtual std::uint16_t flowCommand() { return 0; }
};

/** What the message coprocessor needs from a sensor. */
class SensorPort
{
  public:
    virtual ~SensorPort() = default;

    /** Sample the sensor's data pins (a Query command). */
    virtual std::uint16_t query(sim::Tick now) = 0;
};

} // namespace snaple::coproc

#endif // SNAPLE_COPROC_IO_PORTS_HH
