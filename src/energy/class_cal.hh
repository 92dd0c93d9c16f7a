/**
 * @file
 * Per-instruction-class timing/energy coefficients for the fast tier.
 *
 * The cycle tier charges energy operation by operation as the CHP
 * processes execute (core/core.cc). The fast tier replaces that with a
 * statistical model: each retired instruction costs its class's gate
 * delays and nominal-voltage picojoules, split across the same ledger
 * categories, so `snap-report` tables, energy gauges and scenario
 * metrics streams keep working unchanged.
 *
 * Two sources of coefficients:
 *
 *  - analytic(): computed from the EnergyCal/TimingCal tables by
 *    summing exactly the charges the cycle core makes for a
 *    representative member of each class (fetch per word, decode,
 *    operand reads, two bus transfers, the unit op, the memory
 *    access, write-back). This is the built-in default.
 *
 *  - a calibration table generated by `snap-report --calibrate` from a
 *    metrics run: measured per-class wall time and energy divided by
 *    retirement counts. serializeClassCal()/parseClassCal() define
 *    the line-oriented text format; parse starts from the analytic
 *    defaults so a partial table (a run that never executed some
 *    class) stays sane.
 *
 * Everything is in nominal units — gate delays and 1.8 V picojoules —
 * so NodeContext::gd()/charge() apply voltage and sizing scaling the
 * same way they do for the cycle tier.
 */

#ifndef SNAPLE_ENERGY_CLASS_CAL_HH
#define SNAPLE_ENERGY_CLASS_CAL_HH

#include <array>
#include <memory>
#include <string>
#include <string_view>

#include "energy/calibration.hh"
#include "energy/ledger.hh"
#include "isa/isa.hh"

namespace snaple::energy {

/** Cost of one retired instruction of a class. */
struct ClassCost
{
    double gd = 0; ///< pipeline occupancy, gate delays
    /** Dynamic energy by ledger category, nominal (1.8 V) pJ. */
    std::array<double, kNumCats> pj{};

    double
    pjTotal() const
    {
        double t = 0;
        for (double v : pj)
            t += v;
        return t;
    }
};

/** The full per-class table. */
struct ClassCal
{
    std::array<ClassCost, isa::kNumClasses> cost{};

    const ClassCost &
    of(isa::InstrClass c) const
    {
        return cost[static_cast<std::size_t>(c)];
    }

    /** Coefficients derived from the cycle tier's charge sequence. */
    static ClassCal analytic(const EnergyCal &e = {},
                             const TimingCal &t = {});

    /**
     * analytic() with the default calibration, built once per process
     * and shared, read-only, by every configuration that does not
     * load its own table.
     */
    static const std::shared_ptr<const ClassCal> &analyticShared();
};

/** Render @p cal as the calibration-table text format. */
std::string serializeClassCal(const ClassCal &cal);

/**
 * Parse a calibration table; classes the text does not mention keep
 * their analytic defaults. sim::fatal on malformed input.
 */
ClassCal parseClassCal(std::string_view text);

} // namespace snaple::energy

#endif // SNAPLE_ENERGY_CLASS_CAL_HH
