/**
 * @file
 * Scenario execution on the sharded parallel network.
 *
 * runScenario() turns a parsed Scenario into a ParallelNetwork run:
 * assemble each node's program with its `.equ`-injected parameters,
 * wire topology, sensors and per-node seeds, quantize the fault
 * schedule to the window barrier grid, and drive runFor() segment by
 * segment. All work at a barrier happens between runFor() calls, in
 * one order: battery-depletion kills (when any node is metered, every
 * grid point ends a segment), then faults, then checkpoints. Every
 * observable in the RunResult —
 * per-node trace hashes, air counters, energy totals, the metrics
 * stream — is byte-identical for any RunOptions::jobs, because every
 * cross-shard effect (faults included) is defined purely by barrier
 * ticks and node ids (docs/SIMULATOR.md).
 *
 * Checkpoints ride the same barrier grid: scenario `checkpoint`
 * stanzas plus any RunOptions::checkpoints are quantized like faults
 * (faults apply first at a shared barrier), deferred window by window
 * while the network is checkpoint-ineligible, and recorded as
 * RunResult::checkpoints rows. RunOptions::restoreFrom resumes a run
 * from a snapshot instead of t=0; the continuation is byte-identical
 * to the uninterrupted run (docs/CHECKPOINT.md).
 */

#ifndef SNAPLE_SCENARIO_RUNNER_HH
#define SNAPLE_SCENARIO_RUNNER_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "radio/medium.hh"
#include "scenario/scenario.hh"
#include "sim/ticks.hh"

namespace snaple::node {
struct NodeConfig;
}
namespace snaple::snapshot {
struct NetworkSnapshot;
}

namespace snaple::scenario {

/** Host-side knobs for one run (not part of the scenario). */
struct RunOptions
{
    /** Worker lanes; results are identical for any value. */
    unsigned jobs = 1;

    /** Stream periodic metrics here (cadence = Scenario::metricsMs;
     *  no stream when null or the cadence is 0). */
    std::ostream *metricsOut = nullptr;
    bool metricsCsv = false; ///< CSV instead of JSONL

    /**
     * Stream flow-span JSONL here (`snap-run --flows`, src/obs/
     * flow.hh). Null = no stream. Orthogonal to the scenario's
     * `flow_window_ms`: the window shapes flow attribution either
     * way; this only taps the records.
     */
    std::ostream *flowsOut = nullptr;

    /**
     * Host-side fidelity override (`snap-run --fidelity`): when set,
     * every node runs at this fidelity regardless of the scenario's
     * per-node `fidelity` stanzas (true = fast tier).
     */
    std::optional<bool> fidelityFast;

    /** Per-PC flat profiling on every node (`snap-run --profile`):
     *  its rows close the metrics stream. */
    bool profile = false;

    /**
     * Program-source loader, given the path as written in the
     * scenario. Defaults to reading the file relative to
     * Scenario::baseDir; tests inject sources directly.
     */
    std::function<std::string(const std::string &path)> loadSource;

    /**
     * Extra checkpoints (`snap-run --save-at/--save`), merged with the
     * scenario's own `checkpoint` stanzas before scheduling.
     */
    std::vector<Checkpoint> checkpoints;

    /**
     * Resume from this snapshot instead of starting at t=0. The
     * network must be rebuilt exactly as at save time (same scenario
     * and fidelity; a node whose fidelity, volts or profiling differ
     * is a FatalError); the runner restores every node —
     * sensor RNG streams included — and only replays the schedule
     * tail past the snapshot barrier. Borrowed for the call.
     */
    const snapshot::NetworkSnapshot *restoreFrom = nullptr;

    /**
     * Called with every snapshot the run takes, after the trace row is
     * recorded and the file (if Checkpoint::path is non-empty) is
     * written. Tests capture snapshots in memory through this.
     */
    std::function<void(const snapshot::NetworkSnapshot &snap,
                       const Checkpoint &ck)>
        onCheckpoint;
};

/** What one node ended the run with. */
struct NodeOutcome
{
    std::string name;
    std::uint64_t traceHash = 0; ///< frozen at death for dead nodes
    bool dead = false;           ///< killed (fault or battery)
    sim::Tick deathAt = 0;       ///< kill barrier; 0 when alive
    double energyPj = 0;         ///< whole-ledger total
    std::vector<std::uint16_t> dbgOut; ///< `dbgout` values, in order
    std::uint64_t instructions = 0;    ///< retired by the core
};

/** One checkpoint the run actually took. */
struct CheckpointRow
{
    double requestedMs = 0;  ///< the schedule time as written
    sim::Tick at = 0;        ///< barrier tick it resolved to
    std::uint64_t trace = 0; ///< combined trace hash at that barrier
    std::string path;        ///< snapshot file written; may be empty
};

/** Everything a scenario run reports. */
struct RunResult
{
    std::string scenario;
    std::size_t nodes = 0;
    std::string topology;
    std::uint64_t seed = 0;
    double durationMs = 0;

    std::vector<NodeOutcome> outcomes; ///< registration order
    radio::Medium::Stats air{}; ///< incl. drops_mode / drops_fifo
    std::uint64_t dropsLink = 0; ///< deliveries lost to downed links
    std::uint64_t dropsDead = 0; ///< deliveries lost to dead nodes
    std::uint64_t rxInRange = 0; ///< field mode: rx opportunities
    std::size_t pendingFlights = 0; ///< unresolved flights at the end
    /** Delivery offers still scheduled past the final barrier. */
    std::uint64_t pendingDeliveries = 0;
    std::uint64_t eventsDispatched = 0; ///< kernel events, all shards
    sim::Tick window = 0; ///< the conservative sync window

    /** sim::hashWord() fold of the per-node trace hashes in id
     *  order: one 64-bit witness for the whole run. */
    std::uint64_t combinedTraceHash = 0;

    /** Checkpoints taken, in barrier order (only those past the
     *  restore point when resuming). */
    std::vector<CheckpointRow> checkpoints;

    /** The one-line experiment row (golden-file format). */
    std::string row() const;

    /** row() plus one `node=` line per node and one `checkpoint=`
     *  line per snapshot taken — the full canonical report the
     *  golden .row files pin. */
    std::string rows() const;
};

/**
 * The NodeConfig runScenario() builds node @p i of @p sc from: name
 * `n<i>`, the scenario seed, the node's volts and fidelity, and the
 * host overrides in @p opt.
 */
node::NodeConfig nodeConfig(const Scenario &sc, std::size_t i,
                            const RunOptions &opt);

/** Execute @p sc; throws sim::FatalError on bad programs/config. */
RunResult runScenario(const Scenario &sc, const RunOptions &opt = {});

} // namespace snaple::scenario

#endif // SNAPLE_SCENARIO_RUNNER_HH
