/**
 * @file
 * Structured, deterministic simulation tracing.
 *
 * The paper's evaluation is built on *observing* a switch-level
 * simulation; this is the equivalent observability layer for the CHP
 * coroutine simulator. Model components emit typed events (channel
 * handshakes, event-queue activity, pipeline-stage activity, timer
 * operations, energy debits) into a TraceSink attached to the kernel.
 * The sink maintains a running 64-bit hash over the canonical event
 * stream, one sim::hashRecord() per event — two runs are behaviorally
 * identical iff their hashes match — and can export the recorded
 * stream as Chrome `trace_event` JSON (chrome://tracing, Perfetto) or
 * as a VCD waveform (GTKWave).
 *
 * Cost model:
 *  - no sink attached (the default): one pointer load and branch per
 *    instrumentation point.
 *  - hash-only sink attached: inline, no call — a serial-number
 *    compare, one scope-hash load, six independent multiply-xorshift
 *    steps (one per field) and one more that chains the event onto
 *    the running hash.
 *  - recording sink: the same plus one out-of-line call that does a
 *    vector push_back.
 */

#ifndef SNAPLE_SIM_TRACE_HH
#define SNAPLE_SIM_TRACE_HH

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hash.hh"
#include "kernel.hh"
#include "ticks.hh"

namespace snaple::sim {

/** Every kind of event a model component can trace. */
enum class TraceEvent : std::uint8_t
{
    // CHP rendezvous channels.
    ChanHandshake,  ///< send and recv met; both sides resume
    ChanBlockSend,  ///< sender suspended waiting for a receiver
    ChanBlockRecv,  ///< receiver suspended waiting for a sender
    // Buffered FIFOs (the hardware event queue, message FIFOs, ...).
    FifoEnqueue,    ///< a0 = occupancy after the push
    FifoDequeue,    ///< a0 = occupancy after the pop
    FifoDrop,       ///< producer push rejected, buffer full
    FifoWakeup,     ///< value handed straight to a blocked receiver
    FifoBlockSend,  ///< sender suspended, buffer full
    FifoBlockRecv,  ///< receiver suspended, buffer empty
    // Core pipeline stages.
    CoreFetch,      ///< a0 = pc, a1 = fetched word
    CoreExec,       ///< a0 = canonical first word, a1 = InstrClass
    CoreSleep,      ///< event queue empty at `done`: core quiescent
    CoreWake,       ///< event token ended the sleep state
    CoreHandler,    ///< handler dispatch; a0 = event number
    // Timer coprocessor.
    TimerSched,     ///< a0 = timer number, a1 = duration in timer ticks
    TimerCancel,    ///< a0 = timer number
    TimerExpire,    ///< a0 = timer number
    // Message coprocessor.
    MsgCommand,     ///< a0 = command word from the incoming FIFO
    MsgTx,          ///< a0 = word handed to the radio
    MsgRx,          ///< a0 = word delivered from the radio
    // Energy ledger.
    EnergyDebit,    ///< f = picojoules charged (scope names the category)
    // Coprocessor event-token delivery. (Appended after EnergyDebit so
    // earlier events keep their numeric values and exported traces stay
    // comparable across versions.)
    TokenDrop,      ///< hardware event queue full: a0 = event/timer
                    ///< number, a1 = the emitter's total drops so far
    NumEvents,
};

/** Short event name (used by both exporters). */
std::string_view traceEventName(TraceEvent e);

/** Coarse category ("chan", "fifo", "core", "timer", "msg", "energy",
 *  "coproc"). */
std::string_view traceEventCategory(TraceEvent e);

/** One recorded event. */
struct TraceRecord
{
    Tick ts;
    std::uint64_t a0;
    std::uint64_t a1;
    double f;
    std::uint16_t scope;
    TraceEvent type;
};

/**
 * Collects the event stream of one kernel.
 *
 * Attach with Kernel::setTracer(). A sink constructed with
 * @p record == false keeps only the running hash and event count —
 * what the determinism tests need — without storing the stream.
 */
class TraceSink
{
  public:
    explicit TraceSink(bool record = true);

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /** Intern a scope (component) name; stable for the sink's life. */
    std::uint16_t scope(const std::string &name);

    /** Append one event (usually via TraceScope::emit). */
    void
    emit(Tick ts, std::uint16_t scope_id, TraceEvent type,
         std::uint64_t a0 = 0, std::uint64_t a1 = 0, double f = 0.0)
    {
        ++count_;
        // Canonical stream: (scope-name hash, type, timestamp, args).
        // The scope *name* hash — not the interned id — keeps the
        // stream hash independent of interning order.
        hash_ = hashRecord(hash_, scopeHashes_[scope_id],
                           static_cast<std::uint64_t>(type), ts, a0, a1,
                           std::bit_cast<std::uint64_t>(f));
        if (record_) [[unlikely]]
            store(TraceRecord{ts, a0, a1, f, scope_id, type});
    }

    /**
     * Hash of the canonical event stream: each event is one
     * hashRecord() of its six fields, in order. Identical across two
     * runs iff every traced event (type, time, scope, arguments) is
     * identical; independent of whether events were recorded.
     */
    std::uint64_t hash() const { return hash_; }

    /** Number of events emitted so far. */
    std::uint64_t eventCount() const { return count_; }

    /**
     * Seed the running hash and count (checkpoint restore: a restored
     * run's sink continues the saved stream's hash ladder so the final
     * hash equals the straight run's). Records are not restored —
     * restored sinks are hash-only continuations.
     */
    void
    restoreHash(std::uint64_t hash, std::uint64_t count)
    {
        hash_ = hash;
        count_ = count;
    }

    /** Process-unique id of this sink; never reused, never 0. */
    std::uint64_t serial() const { return serial_; }

    /** True if the sink stores events (needed by the exporters). */
    bool recording() const { return record_; }

    const std::vector<TraceRecord> &records() const { return records_; }
    const std::vector<std::string> &scopeNames() const
    {
        return scopeNames_;
    }

    /** Chrome trace_event JSON (load in chrome://tracing or Perfetto). */
    void writeChromeJson(std::ostream &os) const;

    /** Value-change dump for waveform viewers (GTKWave et al.). */
    void writeVcd(std::ostream &os) const;

  private:
    /** Recording sinks only: append @p r (kept out of line so the
     *  inline hash-only path stays small at every emit site). */
    void store(const TraceRecord &r);

    bool record_;
    const std::uint64_t serial_;
    std::uint64_t hash_ = kFnvOffset;
    std::uint64_t count_ = 0;
    std::vector<TraceRecord> records_;
    std::vector<std::string> scopeNames_;
    std::vector<std::uint64_t> scopeHashes_;
    std::unordered_map<std::string, std::uint16_t> scopeIds_;
};

/**
 * A component's lazily-bound handle into the kernel's sink.
 *
 * Holding one is free; emit() resolves the kernel's current tracer and
 * re-interns the scope name only when the sink changes. The binding is
 * keyed on the sink's serial(), not its address: a new sink built
 * where a destroyed one lived must not inherit the old scope id.
 */
class TraceScope
{
  public:
    TraceScope(Kernel &kernel, std::string name)
        : kernel_(kernel), name_(std::move(name))
    {}

    const std::string &name() const { return name_; }

    void
    emit(TraceEvent type, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
         double f = 0.0)
    {
        TraceSink *sink = kernel_.tracer();
        if (!sink)
            return;
        if (sink->serial() != boundSerial_) {
            id_ = sink->scope(name_);
            boundSerial_ = sink->serial();
        }
        sink->emit(kernel_.now(), id_, type, a0, a1, f);
    }

  private:
    Kernel &kernel_;
    std::string name_;
    std::uint64_t boundSerial_ = 0; ///< 0: no sink bound yet
    std::uint16_t id_ = 0;
};

} // namespace snaple::sim

#endif // SNAPLE_SIM_TRACE_HH
