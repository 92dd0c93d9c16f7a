/**
 * @file
 * Energest-style per-component duty accounting (Contiki's energest,
 * via PAPERS.md; the explicit follow-on from ROADMAP item 4).
 *
 * Each node owns one Energest ledger: a per-component on/off state
 * machine that accrues ticks (and, where the driving model reports
 * it, picojoules) per component state. Components map onto existing
 * model state — the radio's mode transitions, the timer coprocessor's
 * armed registers, the message coprocessor's command/sensor phases —
 * so the ledger adds no kernel events and no guest-visible behavior.
 * Core active/sleep time is not tracked here: the core already
 * accounts it exactly (core::SnapCore stats), and the node publishes
 * it under the same energest.* gauge namespace at sample time.
 *
 * Accrual is lazy: a component accrues `now - since` on transition
 * and the effective total is computed on demand, so sampling and
 * checkpointing are side-effect-free and a restored run continues
 * the gauges bit-exactly (docs/CHECKPOINT.md). The RadioListen ticks
 * also price idle listening (core::NodeContext::staticPj()).
 */

#ifndef SNAPLE_OBS_ENERGEST_HH
#define SNAPLE_OBS_ENERGEST_HH

#include <array>
#include <cstdint>

#include "sim/ticks.hh"

namespace snaple::obs {

/** Tracked component states (core active/sleep is core-stats-owned). */
enum class Comp : std::uint8_t
{
    RadioTx = 0,  ///< transceiver in Tx mode
    RadioListen,  ///< transceiver in Rx mode (idle listening included)
    RadioOff,     ///< transceiver in Idle mode
    Timer,        ///< any of the three timer registers counting down
    Sensor,       ///< a sensor conversion (Query) in progress
    Msg,          ///< message coprocessor processing a command
};

inline constexpr std::size_t kNumComps = 6;

/** Canonical gauge-name stem for a component. */
constexpr const char *
compName(Comp c)
{
    switch (c) {
      case Comp::RadioTx: return "radio_tx";
      case Comp::RadioListen: return "radio_listen";
      case Comp::RadioOff: return "radio_off";
      case Comp::Timer: return "timer";
      case Comp::Sensor: return "sensor";
      case Comp::Msg: return "msg";
    }
    return "?";
}

/** Per-node duty ledger. */
class Energest
{
  public:
    /** Architectural state (snapshot support). */
    struct SavedState
    {
        std::array<sim::Tick, kNumComps> ticks{};
        std::array<double, kNumComps> pj{};
        std::uint8_t onMask = 0;

        bool operator==(const SavedState &) const = default;
    };

    /** Flip component @p c at @p now; redundant sets are no-ops. */
    void
    set(Comp c, bool on, sim::Tick now)
    {
        const auto i = static_cast<std::size_t>(c);
        if (on_[i] == on)
            return;
        if (on_[i])
            ticks_[i] += now - since_[i];
        on_[i] = on;
        since_[i] = now;
    }

    /** Attribute @p pj picojoules to component @p c's current state. */
    void
    addPj(Comp c, double pj)
    {
        pj_[static_cast<std::size_t>(c)] += pj;
    }

    /** Effective accrued ticks for @p c as of @p now. */
    sim::Tick
    ticks(Comp c, sim::Tick now) const
    {
        const auto i = static_cast<std::size_t>(c);
        return ticks_[i] + (on_[i] ? now - since_[i] : 0);
    }

    double pj(Comp c) const { return pj_[static_cast<std::size_t>(c)]; }

    /** @name Snapshot support (src/snapshot/) */
    ///@{
    SavedState
    saveState(sim::Tick now) const
    {
        SavedState s;
        for (std::size_t i = 0; i < kNumComps; ++i) {
            s.ticks[i] = ticks(static_cast<Comp>(i), now);
            s.pj[i] = pj_[i];
            if (on_[i])
                s.onMask |= static_cast<std::uint8_t>(1u << i);
        }
        return s;
    }

    void
    restoreState(const SavedState &s, sim::Tick now)
    {
        for (std::size_t i = 0; i < kNumComps; ++i) {
            ticks_[i] = s.ticks[i];
            pj_[i] = s.pj[i];
            on_[i] = (s.onMask >> i) & 1;
            since_[i] = now;
        }
    }
    ///@}

  private:
    std::array<sim::Tick, kNumComps> ticks_{};
    std::array<double, kNumComps> pj_{};
    std::array<sim::Tick, kNumComps> since_{};
    std::array<bool, kNumComps> on_{};
};

} // namespace snaple::obs

#endif // SNAPLE_OBS_ENERGEST_HH
