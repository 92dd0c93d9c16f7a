/**
 * @file
 * The shared radio channel: the simulator's one channel model.
 *
 * Every node of a net::ParallelNetwork runs on its own kernel and
 * timeline, so the channel is split in two:
 *
 *  - ShardMedium: a per-shard proxy implementing the Medium interface
 *    the transceiver model speaks. beginTransmit() only records the
 *    word in a shard-local outbox (and raises the local carrier);
 *    busyFor() answers CSMA sense from local state.
 *  - AirExchange: the coordinator. At every conservative sync window
 *    barrier — when all shard kernels are paused at the same tick —
 *    it drains the outboxes in deterministic (start tick, source id,
 *    sequence) order, resolves collisions (overlapping airtimes
 *    garble each other), and injects carrier and delivery events into
 *    the destination shards' kernels.
 *
 * The lookahead contract this implements (docs/SIMULATOR.md has the
 * derivation):
 *  - a word transmitted at tick t inside window (B-W, B] becomes
 *    visible to other shards at the barrier B: their carrier sense
 *    turns busy over [B, t+airtime) — truncated, never early;
 *  - its collision status is final at the first barrier >= t+airtime
 *    (every transmission that can overlap it has started by then);
 *  - it is delivered at max(t + airtime + propagation, that barrier).
 * None of these rules mention shard assignment or worker count, which
 * is what makes per-node traces bit-identical for any --jobs=K.
 *
 * Field mode (setField + per-node positions) swaps the single-cell
 * channel rules for the spatial ones of radio/field_medium.hh —
 * log-distance path loss, per-receiver RSSI, capture-threshold
 * resolution — and shards the air by spatial cells: each node is
 * binned into a cell_m-sized grid cell, and a flight's carrier,
 * delivery and interference work touches only nodes in cells within
 * the radio range of its transmitter. The cells live in a flat index
 * built once by finalizeField() (node ids sorted by cell, searched
 * column by column), and a receiver's interferers come from one
 * in-order walk of the flights overlapping the word, filtered by cell
 * distance. That is the node-count unlock: barrier cost is
 * flights x in-range receivers x overlapping flights, not the network
 * size, and no barrier looks at an empty cell, so cell_m sets only
 * the index's granularity — it changes neither a result nor, beyond
 * the cells' occupancy, the cost. Every field rule is still a pure
 * function of barrier ticks, node ids and (fixed) positions, so
 * jobs-independence holds unchanged.
 *
 * Delivery acceptance in both modes is counted when the receiver
 * takes the word, not when the exchange offers it: the injected
 * delivery callback records the outcome (accepted / wrong mode / FIFO
 * full) in plain per-shard counters, which the coordinator drains
 * into the "air.*" registry at the next barrier. Offers not yet
 * resolved are visible as pendingDeliveries().
 *
 * Thread safety: ShardMedium members are touched only by the thread
 * currently running that shard's kernel; AirExchange methods run only
 * on the coordinator between windows, while every shard kernel is
 * paused. The WorkerPool handoff provides the happens-before edges.
 */

#ifndef SNAPLE_RADIO_AIR_EXCHANGE_HH
#define SNAPLE_RADIO_AIR_EXCHANGE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "obs/flow.hh"
#include "radio/field_medium.hh"
#include "radio/medium.hh"
#include "sim/kernel.hh"
#include "sim/metrics.hh"
#include "sim/ticks.hh"

namespace snaple::radio {

class ShardMedium;

/** One on-air word, as the exchange resolves it. */
struct AirFlight
{
    sim::Tick start;       ///< first bit leaves the antenna
    sim::Tick end;         ///< airtime interval is [start, end)
    std::uint32_t srcNode; ///< registration index of the transmitter
    std::uint32_t seq;     ///< per-source transmission sequence
    std::uint16_t word;
    bool collided;
    /** Field mode: outcome decided, record retained only while an
     *  unresolved flight might still overlap it (interference). */
    bool resolved = false;
    obs::FlowTag tag; ///< side-band flow metadata (src/obs/flow.hh)

    bool operator==(const AirFlight &) const = default;
};

/**
 * Inter-shard mailbox coordinator: collision resolution, delivery
 * injection, carrier propagation and global air statistics.
 */
class AirExchange
{
  public:
    /** Connectivity predicate over registration indices. */
    using LinkFilter =
        std::function<bool(std::size_t src, std::size_t dst)>;

    /** Observer of every resolved flight (air tracing). @p deliverAt
     *  is start + airtime + propagation, the delivery instant before
     *  quantisation to the barrier grid. */
    using Sniffer =
        std::function<void(const AirFlight &f, sim::Tick deliverAt)>;

    explicit AirExchange(sim::Tick propagation)
        : propagation_(propagation),
          wordsSent_(&registry_.counter("air.words_sent")),
          wordsDelivered_(&registry_.counter("air.words_delivered")),
          collisions_(&registry_.counter("air.collisions")),
          dropsLink_(&registry_.counter("air.drops_link")),
          dropsDead_(&registry_.counter("air.drops_dead")),
          dropsMode_(&registry_.counter("air.drops_mode")),
          dropsFifo_(&registry_.counter("air.drops_fifo")),
          rxInRange_(&registry_.counter("air.rx_in_range"))
    {}

    AirExchange(const AirExchange &) = delete;
    AirExchange &operator=(const AirExchange &) = delete;

    /** Register a shard; call order defines node ids. */
    void addShard(ShardMedium *m);

    void setLinkFilter(LinkFilter f) { linkFilter_ = std::move(f); }
    void setSniffer(Sniffer s) { sniffer_ = std::move(s); }

    /**
     * @name Spatial field mode
     *
     * setField() switches the channel rules to the spatial model
     * (radio/field_medium.hh); every node then needs a setPosition()
     * call, and finalizeField() — after the last addShard — bins the
     * nodes into cell_m-sized grid cells. All three are
     * coordinator-side setup calls, before the first exchange.
     */
    ///@{
    void setField(const FieldConfig &cfg) { field_ = cfg; }
    bool fieldMode() const { return field_.has_value(); }

    /** Place node @p id at (@p xM, @p yM) meters. */
    void setPosition(std::size_t id, double xM, double yM);

    /** Receiver-side signal strength of @p src heard at @p dst. */
    double rssiDbm(std::size_t src, std::size_t dst) const;

    /** Bin nodes into cells; required before the first exchange in
     *  field mode (no-op otherwise). */
    void finalizeField();
    ///@}

    /**
     * Fault injection: mark a node down (dead) or back up. A node
     * going down truncates its own in-flight words — they are marked
     * collided (a transmitter dying mid-word garbles the word), and
     * words still sitting in its outbox resolve the same way. A down
     * node receives neither carrier nor deliveries; suppressed
     * deliveries count in "air.drops_dead". Coordinator only (between
     * windows, shards paused), so the effect is defined purely by the
     * barrier tick at which it is applied.
     */
    void setNodeDown(std::size_t id, bool down);

    /**
     * Fault injection: take the (undirected) link between @p a and
     * @p b down or back up. Independent of the static LinkFilter: the
     * filter describes topology (out-of-range pairs — suppressed
     * deliveries are not counted), link state describes faults on
     * otherwise-connected pairs (counted in "air.drops_link"). A word
     * is delivered iff the link is up at the barrier where its flight
     * resolves — a flap during a word's airtime drops the word.
     */
    void setLinkUp(std::size_t a, std::size_t b, bool up);

    /** True unless setLinkUp(a, b, false) is in effect. */
    bool
    linkUp(std::size_t a, std::size_t b) const
    {
        return downLinks_.find(orderedPair(a, b)) == downLinks_.end();
    }

    /** Deliveries suppressed by a downed link ("air.drops_link"). */
    std::uint64_t dropsLink() const { return dropsLink_->value(); }

    /** Deliveries suppressed by a dead receiver ("air.drops_dead"). */
    std::uint64_t dropsDead() const { return dropsDead_->value(); }

    /** Field mode: (flight, in-range receiver) opportunities. */
    std::uint64_t rxInRange() const { return rxInRange_->value(); }

    /**
     * Flights currently awaiting resolution (fault tests pin that
     * faults leak no flight slots: this returns to 0 once the air
     * clears). Coordinator only.
     */
    std::size_t pendingFlights() const;

    /**
     * Delivery offers injected into shard kernels whose outcome has
     * not yet been drained back — at a barrier, exactly the offers
     * scheduled at or past it. The channel arithmetic closes once
     * these are added: every resolved clean flight is, per reachable
     * receiver, a delivery, a drop (mode / fifo / link / dead), or an
     * offer still pending here. Coordinator only.
     */
    std::uint64_t
    pendingDeliveries() const
    {
        return offersOutstanding_;
    }

    sim::Tick propagation() const { return propagation_; }

    /** Counters live in metrics(); this assembles a snapshot. */
    Medium::Stats
    stats() const
    {
        return Medium::Stats{wordsSent_->value(),
                             wordsDelivered_->value(),
                             collisions_->value(), dropsMode_->value(),
                             dropsFifo_->value()};
    }

    /** Network-scoped metrics registry (the "air.*" counters). */
    const sim::MetricsRegistry &metrics() const { return registry_; }

    /**
     * True when no flight awaits resolution and no outbox holds an
     * unexchanged word — i.e. the next exchange would be a no-op, so
     * windows with no kernel events may be fast-forwarded.
     * Coordinator only (shards paused).
     */
    bool quiet() const;

    /**
     * Fold the per-shard delivery-outcome counters (written by the
     * injected callbacks in shard context) into the air registry.
     * Runs first in every exchangeAt(); call directly before reading
     * stats()/metrics() between runs. Coordinator only.
     */
    void drainOutcomes();

    /**
     * Run one barrier exchange. Coordinator only; every shard kernel
     * must be paused with now() == @p barrier.
     */
    void exchangeAt(sim::Tick barrier);

    /** @name Snapshot support (src/snapshot/)
     * Coordinator-side air state, saved at a barrier right after
     * exchangeAt() (outboxes drained, outcomes folded). Field
     * geometry, the link filter and the sniffer are reconstructed
     * from the scenario, not serialized. */
    ///@{
    struct SavedState
    {
        std::vector<AirFlight> pending;
        std::vector<std::uint8_t> down;
        std::vector<std::pair<std::uint32_t, std::uint32_t>> downLinks;
        std::uint64_t offersOutstanding = 0;
        std::vector<sim::MetricsRegistry::SavedInstrument> metrics;

        bool operator==(const SavedState &) const = default;
    };
    SavedState saveState() const;
    void restoreState(const SavedState &s);
    ///@}

  private:
    /** Canonical (lo, hi) key for the undirected link state set. */
    static std::pair<std::uint32_t, std::uint32_t>
    orderedPair(std::size_t a, std::size_t b)
    {
        const auto x = static_cast<std::uint32_t>(a);
        const auto y = static_cast<std::uint32_t>(b);
        return x < y ? std::make_pair(x, y) : std::make_pair(y, x);
    }

    /** Drain outboxes into pending_ in (start, src, seq) order;
     *  returns the index of the first fresh flight. */
    std::size_t drainOutboxes();

    void exchangeSingleCell(sim::Tick barrier, std::size_t firstFresh);
    void exchangeField(sim::Tick barrier, std::size_t firstFresh);

    /** Field mode: node ids in cells within cellReach_ of @p node's
     *  cell on both axes, in (cell x, cell y, id) order, written to
     *  @p out (scratch; cleared first). A few binary searches per
     *  occupied column in reach: the cost follows the occupied cells,
     *  not the (2 * cellReach_ + 1)^2 cells of the neighborhood. */
    void fieldCandidates(std::uint32_t node,
                         std::vector<std::uint32_t> &out) const;

    sim::Tick propagation_;
    std::vector<ShardMedium *> shards_;
    std::vector<AirFlight> pending_; ///< sorted by (start, src, seq)
    std::vector<bool> down_;         ///< per-node dead flag (faults)
    /** Links taken down by fault injection, as (lo, hi) node pairs. */
    std::set<std::pair<std::uint32_t, std::uint32_t>> downLinks_;
    /** Network-scoped registry, mutated only at barriers. */
    sim::MetricsRegistry registry_;
    sim::MetricCounter *wordsSent_;
    sim::MetricCounter *wordsDelivered_;
    sim::MetricCounter *collisions_;
    sim::MetricCounter *dropsLink_;
    sim::MetricCounter *dropsDead_;
    sim::MetricCounter *dropsMode_;
    sim::MetricCounter *dropsFifo_;
    sim::MetricCounter *rxInRange_;
    std::uint64_t offersOutstanding_ = 0;
    LinkFilter linkFilter_;
    Sniffer sniffer_;

    // Field mode (spatial cell sharding).
    std::optional<FieldConfig> field_;
    std::vector<std::pair<double, double>> pos_; ///< meters, by node id
    std::vector<std::pair<std::int32_t, std::int32_t>> cellOf_;
    /** One node of the flat cell index: its cell and its id. */
    struct CellEntry
    {
        std::int32_t x, y;
        std::uint32_t id;
    };
    /** Flat cell index, built once by finalizeField(): every node,
     *  sorted by (cell x, cell y, id). Geometry only, so it is
     *  rebuilt from the scenario, never saved. */
    std::vector<CellEntry> byCell_;
    std::int32_t cellReach_ = 1; ///< neighborhood radius, in cells
    /** Interference radius, in cells: beyond it a transmitter is out
     *  of noise-floor range of the receiver, so its flight cannot
     *  contribute to the capture sum. >= cellReach_ (the noise floor
     *  lies below the decode sensitivity). */
    std::int32_t interfReach_ = 1;
    bool fieldFinal_ = false;
    std::vector<std::uint32_t> candScratch_;
    /** Per resolved flight: indices into pending_ of the flights
     *  whose airtime overlaps it, ascending — i.e. (start, src, seq)
     *  order, the order the capture rule sums interferers in.
     *  Scratch, refilled for every resolved flight. */
    std::vector<std::size_t> overlapScratch_;
};

/**
 * One shard's end of the shared channel. Implements the Medium
 * interface the Transceiver uses; everything cross-shard goes through
 * the AirExchange at window barriers.
 */
class ShardMedium : public Medium
{
  public:
    ShardMedium(sim::Kernel &kernel, AirExchange &exchange)
        : kernel_(kernel)
    {
        exchange.addShard(this);
    }

    /** The shard's transceiver (one node per shard). */
    void
    attach(Transceiver *t) override
    {
        sim::panicIf(local_ != nullptr && local_ != t,
                     "shard medium already has a transceiver");
        local_ = t;
    }

    /**
     * CSMA sense: own transmission, or a remote carrier learned at a
     * window barrier. A remote word that started mid-window is sensed
     * only from the barrier on — the documented lookahead contract.
     * In field mode the exchange raises the remote carrier only in
     * shards within sensing range, so this stays a local test.
     */
    bool
    busyFor(const Transceiver *) const override
    {
        return ownActive_ > 0 || remoteCarrier_ > 0;
    }

    /** Out of line: reads the transceiver's side-band flow tag, and
     *  Transceiver is incomplete here. */
    void beginTransmit(Transceiver *src, std::uint16_t word,
                       sim::Tick airtime) override;

    /** @name Snapshot support (src/snapshot/)
     * Every kernel event this medium schedules — own-carrier ends,
     * remote-carrier ends, delivery offers — is mirrored with the
     * kernel sequence number it got at schedule time. A checkpoint
     * serializes the mirrors; restore re-arms them in ascending saved
     * seq across the whole node, reproducing same-tick dispatch order
     * (docs/CHECKPOINT.md). Mirror entries are erased when their
     * event fires, so the mirrors always equal the pending events. */
    ///@{
    struct CarrierEnd
    {
        sim::Tick end = 0;
        std::uint64_t seq = 0;

        bool operator==(const CarrierEnd &) const = default;
    };
    struct PendingOffer
    {
        sim::Tick at = 0;
        std::uint16_t word = 0;
        std::uint16_t rssi = 0;
        std::uint64_t seq = 0;
        obs::FlowTag tag; ///< re-delivered with the word on restore

        bool operator==(const PendingOffer &) const = default;
    };
    struct SavedState
    {
        std::uint32_t txSeq = 0;
        std::vector<CarrierEnd> ownEnds;
        std::vector<CarrierEnd> remoteEnds;
        std::vector<PendingOffer> offers;

        bool operator==(const SavedState &) const = default;
    };

    /** Kernel events this medium owns right now (checkpoint
     *  eligibility accounting). */
    std::size_t
    pendingKernelEvents() const
    {
        return ownEnds_.size() + remoteEnds_.size() + offers_.size();
    }

    /** Serialize; fatal if the outbox or outcome counters are not
     *  empty (the barrier's exchange must have run). */
    SavedState saveState() const;
    /** Poke mirrors back; carrier counts are the mirror sizes. */
    void restoreState(const SavedState &s);

    /** Schedule the kernel event of mirror entry @p i and store its
     *  seq: the live paths call these after appending the entry, and
     *  restore re-arms every saved entry through them (ascending
     *  saved-seq order). */
    void scheduleOwnEnd(std::size_t i)
    {
        scheduleEnd(ownEnds_, ownActive_, i);
    }
    void scheduleRemoteEnd(std::size_t i)
    {
        scheduleEnd(remoteEnds_, remoteCarrier_, i);
    }
    void scheduleOffer(std::size_t i);

    const std::vector<CarrierEnd> &ownEnds() const { return ownEnds_; }
    const std::vector<CarrierEnd> &remoteEnds() const
    {
        return remoteEnds_;
    }
    const std::vector<PendingOffer> &offers() const { return offers_; }
    ///@}

  private:
    friend class AirExchange;

    struct PendingTx
    {
        sim::Tick start;
        sim::Tick airtime;
        std::uint16_t word;
        std::uint32_t seq;
        obs::FlowTag tag; ///< side-band flow metadata (src/obs/flow.hh)
    };

    /** Delivery outcomes counted by the shard (its thread), drained
     *  by the coordinator at barriers. Plain integers: the two sides
     *  are ordered by the worker-pool barrier handoff. */
    struct Outcomes
    {
        std::uint64_t accepted = 0;
        std::uint64_t dropsMode = 0;
        std::uint64_t dropsFifo = 0;
    };

    /** Barrier-time injection: a remote carrier busy until @p end. */
    void remoteCarrierUntil(sim::Tick end);

    /** Barrier-time injection: a word arriving at @p at with
     *  receiver-side signal strength @p rssi (0 = unknown) and its
     *  side-band flow tag. */
    void injectDelivery(sim::Tick at, std::uint16_t word,
                        std::uint16_t rssi, const obs::FlowTag &tag);

    /** The one carrier-end event: when it fires it erases its
     *  mirror entry and lowers @p active. */
    void scheduleEnd(std::vector<CarrierEnd> &mirror, unsigned &active,
                     std::size_t i);

    sim::Kernel &kernel_;
    Transceiver *local_ = nullptr;
    std::uint32_t nodeId_ = 0; ///< assigned by AirExchange::addShard
    std::uint32_t txSeq_ = 0;
    unsigned ownActive_ = 0;
    unsigned remoteCarrier_ = 0;
    std::vector<PendingTx> outbox_;
    Outcomes outcomes_;
    std::vector<CarrierEnd> ownEnds_;
    std::vector<CarrierEnd> remoteEnds_;
    std::vector<PendingOffer> offers_;
};

} // namespace snaple::radio

#endif // SNAPLE_RADIO_AIR_EXCHANGE_HH
