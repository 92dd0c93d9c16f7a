/**
 * @file
 * ParallelNetwork checkpoint/restore (the out-of-line members declared
 * in net/parallel_network.hh; the snapshot schema lives in
 * snapshot/snapshot.hh and the contract in docs/CHECKPOINT.md).
 *
 * Capture is plain-state reads: at an eligible barrier every live
 * shard is parked in its event wait and every pending kernel event is
 * a mirrored coprocessor/radio deadline, so the whole network is a
 * value. Restore rebuilds the dynamic half in three steps per shard:
 * poke the architectural state back, respawn the hardware processes
 * and run the kernel zero simulated time so they park themselves
 * against the restored FIFOs (tracer detached — the original park was
 * already hashed), then re-schedule the mirrored deadlines in saved
 * kernel-sequence order so same-tick events dispatch exactly as they
 * would have in the uninterrupted run.
 */

#include <algorithm>
#include <ios>
#include <type_traits>

#include "net/parallel_network.hh"
#include "radio/transceiver.hh"
#include "snapshot/snapshot.hh"

namespace snaple::net {

namespace {

template <class T>
snapshot::FifoState<T>
captureFifo(const sim::Fifo<T> &f)
{
    return {f.bufferState(), f.accepted(), f.dropped()};
}

template <class T>
void
restoreFifo(sim::Fifo<T> &f, const snapshot::FifoState<T> &st)
{
    f.restoreState(st.buffer, st.accepted, st.dropped);
}

std::vector<std::uint16_t>
captureSram(mem::Sram &m)
{
    std::vector<std::uint16_t> words(m.words());
    for (std::size_t a = 0; a < words.size(); ++a)
        words[a] = m.peek(static_cast<std::uint16_t>(a));
    return words;
}

/** Which schedule call re-arms a mirrored deadline. */
enum class Rearm : std::uint8_t { Timer, MsgGate, OwnEnd, RemoteEnd, Offer };

/** One mirrored kernel deadline of a saved node: where its saved
 *  kernel seq lives, and how to re-arm entry @p idx of its kind. */
template <class Seq>
struct Deadline
{
    Seq *seq;
    Rearm kind;
    std::size_t idx;
};

/**
 * The one list of a node's mirrored deadlines — every kernel event a
 * checkpoint may leave pending — sorted by saved seq. @p msgGated
 * says whether the message gate's event is still pending.
 */
template <class NS>
auto
mirroredDeadlines(NS &ns, bool msgGated)
{
    using D = Deadline<std::remove_reference_t<decltype((ns.msg.waitSeq))>>;
    std::vector<D> d;
    for (std::size_t i = 0; i < ns.timerExpires.size(); ++i)
        d.push_back({&ns.timerExpires[i].seq, Rearm::Timer, i});
    if (msgGated)
        d.push_back({&ns.msg.waitSeq, Rearm::MsgGate, 0});
    for (std::size_t i = 0; i < ns.medium.ownEnds.size(); ++i)
        d.push_back({&ns.medium.ownEnds[i].seq, Rearm::OwnEnd, i});
    for (std::size_t i = 0; i < ns.medium.remoteEnds.size(); ++i)
        d.push_back({&ns.medium.remoteEnds[i].seq, Rearm::RemoteEnd, i});
    for (std::size_t i = 0; i < ns.medium.offers.size(); ++i)
        d.push_back({&ns.medium.offers[i].seq, Rearm::Offer, i});
    std::stable_sort(d.begin(), d.end(), [](const D &a, const D &b) {
        return *a.seq < *b.seq;
    });
    return d;
}

/**
 * Rewrite the saved kernel sequence numbers to their rank (0, 1, ...)
 * across the node's mirrored deadlines. Restore only ever uses these
 * for relative ordering, and absolute kernel seqs are an artifact of
 * run history — a restored run allocates different ones — so ranks
 * are what make a re-checkpoint byte-identical to the uninterrupted
 * run's snapshot at the same barrier.
 */
void
canonicalizeSeqs(snapshot::NodeState &ns, bool msgGated)
{
    if (!msgGated)
        ns.msg.waitSeq = 0; // stale once the gate closed
    const auto order = mirroredDeadlines(ns, msgGated);
    for (std::size_t rank = 0; rank < order.size(); ++rank)
        *order[rank].seq = rank;
}

/**
 * Refuse a snapshot whose host knobs differ from the restoring
 * node's configuration. Each changes results after the restore, so a
 * silent mismatch would continue some other run (docs/CHECKPOINT.md).
 */
void
checkKnobs(const node::SnapNode &n, const snapshot::NodeState &ns)
{
    const auto name = [](unsigned f) {
        return f == 0 ? "cycle" : f == 1 ? "fast" : "invalid";
    };
    const auto want = static_cast<std::uint8_t>(n.fidelity());
    sim::fatalIf(ns.core.fidelity != want, "snapshot node ", n.name(),
                 ": fidelity ", name(ns.core.fidelity),
                 " != this network's ", name(want),
                 " (restore with the saving run's knobs)");
    const core::CoreConfig &cfg = n.ctx().cfg;
    sim::fatalIf(ns.volts != cfg.volts, "snapshot node ", n.name(),
                 ": volts ", sim::formatDouble(ns.volts),
                 " != this network's ", sim::formatDouble(cfg.volts),
                 " (restore with the saving run's knobs)");
    const auto onOff = [](bool on) { return on ? "on" : "off"; };
    const bool profiling = n.core().profileEnabled();
    sim::fatalIf(ns.core.profiling != profiling, "snapshot node ",
                 n.name(), ": profiling ", onOff(ns.core.profiling),
                 " != this network's ", onOff(profiling),
                 " (restore with the saving run's knobs)");
}

} // namespace

bool
ParallelNetwork::checkpointEligible() const
{
    if (!started_)
        return false;
    for (const auto &sp : shards_) {
        Shard &s = *sp;
        if (s.halted)
            continue; // frozen shards never run again; always safe
        const core::SnapCore &c = s.node.core();
        if (!c.halted() && !c.asleep())
            return false;
        if (s.node.msgCoproc().cmdPhase() ==
            coproc::MessageCoproc::CmdPhase::Busy)
            return false;
        // Every pending kernel event must be one of the mirrored,
        // re-armable deadlines. Anything else (a FIFO wake-up, a
        // coprocessor micro-delay) means machinery is mid-step in a
        // coroutine frame — defer to the next barrier.
        const std::size_t mirrored =
            s.node.timer().pendingExpires().size() +
            s.node.msgCoproc().pendingKernelEvents() +
            s.medium.pendingKernelEvents();
        if (s.kernel.pendingEvents() != mirrored)
            return false;
    }
    return true;
}

snapshot::NodeState
ParallelNetwork::captureShard(Shard &s) const
{
    sim::panicIf(!s.halted && s.kernel.now() != now_,
                 "checkpoint: live shard not at the barrier");
    snapshot::NodeState ns;
    ns.halted = s.halted;
    ns.dead = s.dead;
    ns.deathAt = s.deathAt;
    ns.kernelNow = s.kernel.now();
    ns.kernelDispatched = s.kernel.eventsDispatched();
    if (s.sink) {
        ns.traceHash = s.sink->hash();
        ns.traceCount = s.sink->eventCount();
    }
    node::SnapNode &n = s.node;
    ns.core = n.core().saveState(s.halted);
    ns.volts = n.ctx().cfg.volts;
    ns.imem = captureSram(n.imem());
    ns.dmem = captureSram(n.dmem());
    ns.evq = captureFifo(n.eventQueue());
    ns.msgIn = captureFifo(n.msgIn());
    ns.msgOut = captureFifo(n.msgOut());
    ns.timers = n.timer().timerState();
    ns.timerExpires = n.timer().pendingExpires();
    ns.msg = n.msgCoproc().saveState(s.halted);
    if (radio::Transceiver *t = n.transceiver()) {
        ns.hasRadio = true;
        ns.radioMode = static_cast<std::uint8_t>(t->mode());
        ns.radioLastRssi = t->lastRssi();
        ns.radioRx = captureFifo(t->rxWords());
    }
    ns.medium = s.medium.saveState();
    for (std::size_t c = 0; c < energy::kNumCats; ++c)
        ns.ledgerPj[c] =
            n.ctx().ledger.pj(static_cast<energy::Cat>(c));
    ns.chargedPj = n.ctx().chargedPj();
    ns.handlerPj = n.ctx().handlerPjAll();
    // Both saveState calls are side-effect-free; the energest ledger
    // folds its open intervals at the shard's own clock (the freeze
    // tick for halted shards, the barrier for live ones).
    ns.flow = n.flowTracker().saveState();
    ns.energest = n.ctx().energest.saveState(s.kernel.now());
    ns.metrics = n.ctx().metrics.saveState();
    canonicalizeSeqs(ns, n.msgCoproc().pendingKernelEvents() != 0);
    return ns;
}

snapshot::NetworkSnapshot
ParallelNetwork::checkpoint()
{
    sim::fatalIf(!started_, "checkpoint() before start()");
    exchange_.drainOutcomes(); // idempotent after exchangeAt()
    sim::fatalIf(!checkpointEligible(),
                 "checkpoint() at an ineligible barrier: poll "
                 "checkpointEligible() and defer (docs/CHECKPOINT.md)");
    snapshot::NetworkSnapshot snap;
    snap.snapTick = now_;
    snap.window = window_;
    snap.air = exchange_.saveState();
    snap.metricsNext = metricsNext_;
    snap.metricsLastAt = metricsLastAt_;
    snap.metricsMetaWritten = metricsMetaWritten_;
    snap.nodes.reserve(shards_.size());
    for (auto &sp : shards_)
        snap.nodes.push_back(captureShard(*sp));
    snap.userRng.assign(shards_.size(), 0);
    return snap;
}

void
ParallelNetwork::restoreShard(Shard &s, const snapshot::NodeState &ns,
                              sim::Tick snapTick)
{
    s.halted = ns.halted;
    s.dead = ns.dead;
    s.deathAt = ns.deathAt;
    const bool live = !ns.halted;
    sim::fatalIf(live && ns.kernelNow != snapTick,
                 "snapshot: live shard clock disagrees with the "
                 "barrier tick (corrupt or hand-edited snapshot)");
    s.kernel.warpTo(ns.kernelNow, ns.kernelDispatched);

    node::SnapNode &n = s.node;
    n.imem().load(ns.imem);
    n.dmem().load(ns.dmem);
    restoreFifo(n.eventQueue(), ns.evq);
    restoreFifo(n.msgIn(), ns.msgIn);
    restoreFifo(n.msgOut(), ns.msgOut);
    n.core().restoreState(ns.core);
    n.timer().restoreTimerState(ns.timers);
    if (live)
        n.msgCoproc().restoreState(ns.msg);
    radio::Transceiver *t = n.transceiver();
    sim::fatalIf((t != nullptr) != ns.hasRadio,
                 "snapshot: radio configuration mismatch (rebuild the "
                 "network exactly as at save time)");
    if (t) {
        t->restoreState(static_cast<coproc::RadioMode>(ns.radioMode),
                        ns.radioLastRssi);
        restoreFifo(t->rxWords(), ns.radioRx);
    }
    s.medium.restoreState(ns.medium);
    for (std::size_t c = 0; c < energy::kNumCats; ++c)
        n.ctx().ledger.setPj(static_cast<energy::Cat>(c),
                             ns.ledgerPj[c]);

    // Respawn and park with the tracer detached: the original parks
    // were hashed when they first happened; the continuation hash is
    // poked back afterwards.
    sim::TraceSink *sink = s.kernel.tracer();
    s.kernel.setTracer(nullptr);
    if (live) {
        n.startRestored();
        s.kernel.run(ns.kernelNow);
        sim::panicIf(s.kernel.pendingEvents() != 0,
                     "restore: park run left events pending");
        // The park run dispatched the respawn bookkeeping events,
        // which the uninterrupted run never sees — pin the dispatch
        // counter back so profiling (and the next snapshot's bytes)
        // match the straight run exactly.
        s.kernel.warpTo(ns.kernelNow, ns.kernelDispatched);

        // Re-schedule the mirrored deadlines in the order the
        // original kernel scheduled them (ascending saved seq), so
        // fresh monotonic seqs reproduce same-tick dispatch order.
        const bool msgGated = n.msgCoproc().pendingKernelEvents() != 0;
        for (const auto &d : mirroredDeadlines(ns, msgGated)) {
            switch (d.kind) {
            case Rearm::Timer: {
                const auto &e = ns.timerExpires[d.idx];
                n.timer().scheduleExpire(e.n, e.generation, e.deadline);
                break;
            }
            case Rearm::MsgGate:
                n.msgCoproc().scheduleWait();
                break;
            case Rearm::OwnEnd:
                s.medium.scheduleOwnEnd(d.idx);
                break;
            case Rearm::RemoteEnd:
                s.medium.scheduleRemoteEnd(d.idx);
                break;
            case Rearm::Offer:
                s.medium.scheduleOffer(d.idx);
                break;
            }
        }
    }
    if (sink) {
        sink->restoreHash(ns.traceHash, ns.traceCount);
        s.kernel.setTracer(sink);
    }

    // Accounting last: the respawn/re-arm machinery above charges
    // nothing, but restoring the registries after everything else
    // makes that an invariant rather than an accident. The energest
    // restore in particular must follow the respawn — the parked
    // processes' entry paths touch the duty state machine, and the
    // saved mask/totals overwrite that bookkeeping wholesale.
    n.ctx().restoreAccounting(ns.chargedPj, ns.handlerPj);
    n.flowTracker().restoreState(ns.flow);
    n.ctx().energest.restoreState(ns.energest, ns.kernelNow);
    n.ctx().metrics.restoreState(ns.metrics);
}

void
ParallelNetwork::restore(const snapshot::NetworkSnapshot &snap)
{
    sim::fatalIf(started_, "restore() after start()");
    sim::fatalIf(now_ != 0, "restore() after the run started");
    sim::fatalIf(snap.nodes.size() != shards_.size(),
                 "snapshot has ", snap.nodes.size(),
                 " nodes, this network has ", shards_.size());
    if (windowOverride_ == 0)
        window_ = deriveWindow();
    sim::fatalIf(window_ != snap.window,
                 "snapshot sync window ", snap.window,
                 " != this network's ", window_,
                 " (rebuild the network exactly as at save time)");
    for (std::size_t i = 0; i < shards_.size(); ++i)
        checkKnobs(shards_[i]->node, snap.nodes[i]);
    exchange_.finalizeField(); // no-op outside field mode
    exchange_.restoreState(snap.air);
    for (std::size_t i = 0; i < shards_.size(); ++i)
        restoreShard(*shards_[i], snap.nodes[i], snap.snapTick);
    now_ = snap.snapTick;
    metricsNext_ = snap.metricsNext;
    metricsLastAt_ = snap.metricsLastAt;
    metricsMetaWritten_ = snap.metricsMetaWritten;
    started_ = true;
    setJobs(jobs_);
}

} // namespace snaple::net
