/**
 * @file
 * Declarative scenario descriptions (docs/SCENARIOS.md).
 *
 * A scenario captures one reproducible network experiment: topology,
 * per-node program and heterogeneity (supply voltage, sensors, battery
 * capacity, program parameters), run length, seed, and a fault
 * schedule (node death, link flaps; battery depletion is a per-node
 * capacity resolved against the energy ledger at run time). The
 * format is a line-oriented text file — `snap-run --scenario=x.scn`
 * — parsed here and executed by scenario::runScenario() on the
 * sharded parallel network, where every observable is byte-identical
 * for any --jobs count.
 *
 * serializeScenario() emits the canonical form: fixed directive
 * order, node overrides in id order, parameters sorted by name,
 * faults sorted by (time, kind, endpoints), checkpoints by (time,
 * path). parse∘serialize is a fixed point — the property the parser
 * round-trip test pins.
 */

#ifndef SNAPLE_SCENARIO_SCENARIO_HH
#define SNAPLE_SCENARIO_SCENARIO_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "radio/field_medium.hh" // radio::FieldConfig (field stanzas)

namespace snaple::scenario {

/**
 * Per-node knobs. Every field is optional: a node's effective
 * settings are the scenario-wide defaults (the `node *` lines)
 * overlaid with its own `node <id>` lines (params merge by name).
 */
struct NodeSettings
{
    /** Assembly source path, relative to the scenario file. */
    std::optional<std::string> program;

    /** Supply voltage (the paper's 1.8 / 0.9 / 0.6 V sweep axis). */
    std::optional<double> volts;

    /**
     * Battery capacity in microjoules; 0 or unset = unlimited. The
     * runner checks the node's whole-node energy (radio, idle
     * listening and leakage included; NodeContext::energy()) at every
     * window barrier and kills the node at the first barrier where
     * the capacity is spent.
     */
    std::optional<double> batteryUj;

    /** Attach a TemperatureSensor under Query id 0. */
    std::optional<bool> sensor;

    /**
     * Execution fidelity (`fidelity fast|cycle`): true selects the
     * predecoded fast tier (core::FidelityMode::Fast), false the CHP
     * cycle tier. Unset = cycle.
     */
    std::optional<bool> fidelityFast;

    /**
     * Assembly-time parameters, injected as `.equ NAME, value` ahead
     * of the program source. Programs reference these symbols and must
     * not define them (duplicate `.equ` is a fatal assembler error).
     */
    std::map<std::string, std::int32_t> params;

    /**
     * Field-mode placement, meters (may be negative). Required for
     * every node when the scenario has `field` stanzas; rejected
     * otherwise (a position without a field model is dead weight).
     */
    std::optional<std::pair<double, double>> position;

    bool operator==(const NodeSettings &) const = default;

    /** Overlay @p over on top of *this (params merge by name). */
    NodeSettings overlaid(const NodeSettings &over) const;
};

/** One scheduled fault. Times are quantized to the runner's window
 *  barrier grid, so fault effects are jobs-invariant. */
struct Fault
{
    enum class Kind
    {
        Kill,     ///< node `a` dies (irreversible; shard freezes)
        LinkDown, ///< undirected link a-b starts dropping words
        LinkUp,   ///< undirected link a-b restored
    };

    Kind kind;
    double atMs;     ///< schedule time in milliseconds
    std::uint32_t a; ///< node id (Kill) or first endpoint
    std::uint32_t b; ///< second endpoint; unused for Kill

    bool operator==(const Fault &) const = default;
};

/**
 * One scheduled checkpoint (`checkpoint at_ms <t> [<path>]`). The
 * runner quantizes the time to the window-barrier grid like a fault,
 * defers to the next barrier while the network is checkpoint-
 * ineligible (docs/CHECKPOINT.md), then records the combined trace
 * hash at the barrier — the row golden files pin — and, when @p path
 * is non-empty, writes the snapshot file (relative paths resolve
 * against the invoker's working directory).
 */
struct Checkpoint
{
    double atMs = 0;
    std::string path; ///< empty = record the trace row only

    bool operator==(const Checkpoint &) const = default;
};

/** One parsed scenario. */
struct Scenario
{
    std::string name = "unnamed";
    std::size_t nodes = 0;
    std::string topology = "full"; ///< full | line | ring
    std::uint64_t seed = 1;        ///< NodeConfig::baseSeed for all
    double durationMs = 0;
    double metricsMs = 0;     ///< metrics cadence; 0 = no stream
    double propagationUs = 1; ///< air propagation delay
    double windowUs = 0;      ///< sync-window override; 0 = derive

    /**
     * Flow-tracing causality window (`flow_window_ms`): a node's
     * transmission within this many milliseconds of its last accepted
     * delivery is linked to the incoming flow at hop+1 (src/obs/
     * flow.hh, docs/TRACING.md). 0 (the default) disables causal
     * linking. The window is tracker state — and therefore snapshot
     * content — whether or not a span stream is attached, so it lives
     * in the scenario, not in RunOptions.
     */
    double flowWindowMs = 0;

    /**
     * Spatial field model (the `field <key> <value>` stanzas):
     * log-distance path loss, per-receiver RSSI and capture-threshold
     * collision resolution on the sharded network. Requires topology
     * "full" (connectivity comes from positions and path loss, not a
     * link filter) and a position for every node.
     */
    std::optional<radio::FieldConfig> field;

    NodeSettings defaults; ///< the `node *` lines
    std::map<std::uint32_t, NodeSettings> overrides;
    std::vector<Fault> faults;
    std::vector<Checkpoint> checkpoints;

    /**
     * Directory of the file this came from (loadScenario only); the
     * runner resolves relative program paths against it. Not part of
     * the serialized form.
     */
    std::string baseDir;

    /** Effective settings of node @p i (defaults + overrides). */
    NodeSettings resolved(std::size_t i) const;
};

/**
 * Parse a scenario from @p text. @p origin names the source in
 * errors; every rejection throws sim::FatalError with an
 * "origin:line:" prefix. The result is validated: positive node
 * count and duration, known topology, every node resolves a program,
 * fault endpoints in range and distinct.
 */
Scenario parseScenario(const std::string &text,
                       const std::string &origin = "<scenario>");

/** Read and parse @p path; fills Scenario::baseDir. */
Scenario loadScenario(const std::string &path);

/** Canonical text form (see file comment). */
std::string serializeScenario(const Scenario &sc);

} // namespace snaple::scenario

#endif // SNAPLE_SCENARIO_SCENARIO_HH
