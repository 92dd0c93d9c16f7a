/**
 * @file
 * The radio channel as the transceiver sees it.
 *
 * The paper's nodes use an RFM TR1000-class transceiver on a single
 * shared channel. One channel model implements it:
 * radio::AirExchange, with a radio::ShardMedium per node as the
 * transceiver-facing end (radio/air_exchange.hh). Medium is the
 * stateless interface between the two: a transceiver attaches, senses
 * the carrier and puts words on the air; everything else — collision
 * resolution, delivery, accounting — happens in the exchange.
 *
 * Delivery accounting distinguishes *offered* words from *accepted*
 * ones: "air.words_delivered" counts only words the receiver actually
 * took (radio in Rx mode, RX FIFO not full); words the channel offered
 * but the transceiver dropped count in "air.drops_mode" /
 * "air.drops_fifo". Per receiver the channel arithmetic closes:
 * every clean offered word is exactly one of delivered / drops_mode /
 * drops_fifo, a fault drop, or an offer still pending.
 */

#ifndef SNAPLE_RADIO_MEDIUM_HH
#define SNAPLE_RADIO_MEDIUM_HH

#include <cstdint>

#include "sim/ticks.hh"

namespace snaple::radio {

class Transceiver;

/** What a receiver did with an offered word (Transceiver::deliver). */
enum class DeliverStatus
{
    Accepted,    ///< word pushed into the RX FIFO
    DroppedMode, ///< radio was not in Rx mode
    DroppedFifo, ///< RX FIFO was full
};

/**
 * Transceiver-facing channel interface. Virtual so the transceiver
 * model does not depend on the exchange; the calls happen at radio
 * word rate — microseconds apart, never on the event hot path — so
 * the indirect call costs nothing measurable.
 */
class Medium
{
  public:
    /** Snapshot view of the registry-native counters ("air.*"). */
    struct Stats
    {
        std::uint64_t wordsSent = 0;
        std::uint64_t wordsDelivered = 0; ///< accepted by a receiver
        std::uint64_t collisions = 0; ///< transmissions lost to overlap
        std::uint64_t dropsMode = 0;  ///< offered, radio not in Rx
        std::uint64_t dropsFifo = 0;  ///< offered, RX FIFO full
    };

    Medium() = default;
    Medium(const Medium &) = delete;
    Medium &operator=(const Medium &) = delete;
    virtual ~Medium() = default;

    /** Register the transceiver that transmits and receives here. */
    virtual void attach(Transceiver *t) = 0;

    /** CSMA sense from @p rx's point of view (own word included). */
    virtual bool busyFor(const Transceiver *rx) const = 0;

    /** Put @p word from @p src on the air for @p airtime. */
    virtual void beginTransmit(Transceiver *src, std::uint16_t word,
                               sim::Tick airtime) = 0;
};

} // namespace snaple::radio

#endif // SNAPLE_RADIO_MEDIUM_HH
