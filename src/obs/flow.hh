/**
 * @file
 * Causal cross-node flow tracing (ROADMAP item 5 groundwork).
 *
 * Every radio transmission carries a side-band FlowTag — (origin node,
 * flow id, hop, sender) — through the medium alongside the 16-bit data
 * word. The tag is invisible to the guest ISA: it never appears in a
 * FIFO, register, or RSSI word, so enabling or disabling flow capture
 * cannot perturb a run. On an *accepted* delivery the receiving
 * transceiver latches the tag as the node's incoming flow context; a
 * transmission the node makes within the causality window of that
 * latch is linked to the flow at hop+1, otherwise the node originates
 * a fresh flow (hop 0). Guest software can pin the attribution
 * explicitly: message-coprocessor command 0x8005 (msgcmd::kFlow)
 * toggles an explicit flow open/closed, and while one is open every
 * transmission is tagged as hop 0 of that flow regardless of received
 * context.
 *
 * Span records are appended per node (single shard thread, no locks)
 * and drained by net::ParallelNetwork at sync barriers in node-id
 * order, then sorted by (tx tick, node). A transmission's record tick
 * always exceeds the previous reached barrier, and the set of reached
 * barriers depends only on shard state (never lane count or
 * checkpoint segmentation), so the concatenated JSONL stream is
 * byte-identical for any --jobs and across save/restore splits.
 *
 * The tracker schedules no kernel events — the causality window is
 * evaluated lazily by tick comparison — so it cannot perturb
 * checkpoint eligibility (docs/CHECKPOINT.md).
 */

#ifndef SNAPLE_OBS_FLOW_HH
#define SNAPLE_OBS_FLOW_HH

#include <cstdint>
#include <ostream>
#include <vector>

#include "sim/metrics.hh"
#include "sim/ticks.hh"

namespace snaple::obs {

/** No-parent sentinel for origin spans' parent/rx fields. */
inline constexpr std::uint32_t kNoNode = 0xffffffffu;

/** Side-band flow metadata riding one transmitted word. */
struct FlowTag
{
    std::uint32_t origin = 0; ///< node that originated the flow
    std::uint32_t id = 0;     ///< per-origin flow counter
    std::uint32_t src = 0;    ///< node that transmitted this word
    std::uint16_t hop = 0;    ///< hops from the origin (origin tx = 0)
    bool valid = false;

    bool operator==(const FlowTag &) const = default;
};

/** One node's participation in a flow: latch-to-transmit. */
struct SpanRecord
{
    std::uint32_t origin = 0;
    std::uint32_t id = 0;
    std::uint32_t node = 0;
    std::uint32_t parent = kNoNode; ///< sender latched from (kNoNode at hop 0)
    std::uint16_t hop = 0;
    std::uint16_t word = 0;
    sim::Tick rxTick = 0; ///< context latch tick (0 at hop 0)
    sim::Tick txTick = 0; ///< transmitStart tick
    double pj = 0;        ///< attributed transmit energy
};

/**
 * Per-node flow state machine. Owned by node::SnapNode; the
 * transceiver consults it at transmitStart/deliver, the message
 * coprocessor drives the explicit 0x8005 command through
 * radio::Transceiver::flowCommand().
 */
class FlowTracker
{
  public:
    /** Architectural state (snapshot support). */
    struct SavedState
    {
        std::uint32_t nextId = 0;
        std::uint8_t ctxValid = 0;
        std::uint32_t ctxOrigin = 0;
        std::uint32_t ctxId = 0;
        std::uint32_t ctxSrc = 0;
        std::uint16_t ctxHop = 0;
        sim::Tick ctxAt = 0;
        std::uint8_t explicitOpen = 0;
        std::uint32_t explicitId = 0;

        bool operator==(const SavedState &) const = default;
    };

    explicit FlowTracker(std::uint32_t node) : node_(node) {}

    /**
     * Causality window in ticks: a received context older than this
     * no longer links subsequent transmissions. 0 disables causal
     * linking (every transmission originates a new flow).
     */
    void setWindow(sim::Tick w) { window_ = w; }
    sim::Tick window() const { return window_; }

    /** Buffer span records for the barrier drain. Off by default. */
    void setRecording(bool on) { recording_ = on; }

    /** Latch the incoming context of an accepted delivery. */
    void
    onReceive(const FlowTag &tag, sim::Tick now)
    {
        if (!tag.valid)
            return;
        ctx_ = tag;
        ctxAt_ = now;
    }

    /**
     * Tag an outgoing transmission and (when recording) append its
     * span record. @p pj is the transmit energy attributed to the
     * word.
     */
    FlowTag
    onTransmit(std::uint16_t word, sim::Tick now, double pj)
    {
        FlowTag out;
        out.valid = true;
        out.src = node_;
        SpanRecord rec;
        if (explicitOpen_) {
            out.origin = node_;
            out.id = explicitId_;
            out.hop = 0;
        } else if (ctx_.valid && window_ != 0 &&
                   now - ctxAt_ <= window_) {
            out.origin = ctx_.origin;
            out.id = ctx_.id;
            out.hop = ctx_.hop == 0xffff
                          ? ctx_.hop
                          : static_cast<std::uint16_t>(ctx_.hop + 1);
            rec.parent = ctx_.src;
            rec.rxTick = ctxAt_;
        } else {
            out.origin = node_;
            out.id = nextId_++;
            out.hop = 0;
        }
        if (recording_) {
            rec.origin = out.origin;
            rec.id = out.id;
            rec.node = node_;
            rec.hop = out.hop;
            rec.word = word;
            rec.txTick = now;
            rec.pj = pj;
            spans_.push_back(rec);
        }
        return out;
    }

    /**
     * Explicit-flow command (msgcmd::kFlow). Toggles: when no
     * explicit flow is open, opens one and returns its id's low 16
     * bits; when one is open, closes it and returns 0xffff.
     */
    std::uint16_t
    command()
    {
        if (explicitOpen_) {
            explicitOpen_ = false;
            return 0xffff;
        }
        explicitOpen_ = true;
        explicitId_ = nextId_++;
        return static_cast<std::uint16_t>(explicitId_ & 0xffff);
    }

    /** Move the buffered spans out (barrier drain). */
    void
    drainSpans(std::vector<SpanRecord> &out)
    {
        out.insert(out.end(), spans_.begin(), spans_.end());
        spans_.clear();
    }

    bool spansPending() const { return !spans_.empty(); }

    /** @name Snapshot support (src/snapshot/) */
    ///@{
    SavedState
    saveState() const
    {
        SavedState s;
        s.nextId = nextId_;
        s.ctxValid = ctx_.valid ? 1 : 0;
        s.ctxOrigin = ctx_.origin;
        s.ctxId = ctx_.id;
        s.ctxSrc = ctx_.src;
        s.ctxHop = ctx_.hop;
        s.ctxAt = ctxAt_;
        s.explicitOpen = explicitOpen_ ? 1 : 0;
        s.explicitId = explicitId_;
        return s;
    }

    void
    restoreState(const SavedState &s)
    {
        nextId_ = s.nextId;
        ctx_.valid = s.ctxValid != 0;
        ctx_.origin = s.ctxOrigin;
        ctx_.id = s.ctxId;
        ctx_.src = s.ctxSrc;
        ctx_.hop = s.ctxHop;
        ctxAt_ = s.ctxAt;
        explicitOpen_ = s.explicitOpen != 0;
        explicitId_ = s.explicitId;
    }
    ///@}

  private:
    std::uint32_t node_;
    sim::Tick window_ = 0;
    bool recording_ = false;
    FlowTag ctx_;           ///< last accepted delivery's tag
    sim::Tick ctxAt_ = 0;   ///< latch tick of ctx_
    std::uint32_t nextId_ = 0;
    bool explicitOpen_ = false;
    std::uint32_t explicitId_ = 0;
    std::vector<SpanRecord> spans_;
};

/**
 * Write one span record as canonical JSONL. Field order is fixed and
 * doubles use sim::formatDouble (shortest round-trip), so the bytes
 * are part of the determinism contract (tests/obs/).
 */
inline void
writeSpanJsonl(std::ostream &out, const SpanRecord &r)
{
    out << "{\"type\":\"span\",\"origin\":" << r.origin
        << ",\"id\":" << r.id << ",\"node\":" << r.node << ",\"parent\":";
    if (r.parent == kNoNode)
        out << -1;
    else
        out << r.parent;
    out << ",\"hop\":" << r.hop << ",\"word\":" << r.word
        << ",\"rx_tick\":" << r.rxTick << ",\"tx_tick\":" << r.txTick
        << ",\"pj\":" << sim::formatDouble(r.pj) << "}\n";
}

} // namespace snaple::obs

#endif // SNAPLE_OBS_FLOW_HH
