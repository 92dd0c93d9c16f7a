/**
 * @file
 * Energy accounting.
 *
 * Every model component charges the picojoules it spends to a category
 * of an EnergyLedger. The categories mirror the breakdown the paper
 * reports in section 4.4 (datapath / fetch / decode / memory interface /
 * miscellaneous for the core, plus the two memory banks), with extra
 * categories for the coprocessors and the radio so whole-node energy can
 * be accounted.
 */

#ifndef SNAPLE_ENERGY_LEDGER_HH
#define SNAPLE_ENERGY_LEDGER_HH

#include <array>
#include <cstddef>
#include <string_view>

namespace snaple::energy {

/** Where a unit of energy was spent. */
enum class Cat : std::size_t
{
    Datapath,   ///< execution units, busses, register file
    Fetch,      ///< instruction fetch and event dispatch logic
    Decode,     ///< instruction decode and issue
    MemIf,      ///< core-side memory interface
    Misc,       ///< decoupling buffers, control, event queue
    Imem,       ///< instruction memory bank
    Dmem,       ///< data memory bank
    Coproc,     ///< timer + message coprocessors
    Radio,      ///< radio transceiver (off-chip in the paper)
    Leakage,    ///< static (idle) power × time, filled in at read time
    NumCats,
};

inline constexpr std::size_t kNumCats =
    static_cast<std::size_t>(Cat::NumCats);

/** Human-readable category name. */
constexpr std::string_view
catName(Cat c)
{
    switch (c) {
      case Cat::Datapath: return "datapath";
      case Cat::Fetch: return "fetch";
      case Cat::Decode: return "decode";
      case Cat::MemIf: return "mem-if";
      case Cat::Misc: return "misc";
      case Cat::Imem: return "imem";
      case Cat::Dmem: return "dmem";
      case Cat::Coproc: return "coproc";
      case Cat::Radio: return "radio";
      case Cat::Leakage: return "leakage";
      default: return "?";
    }
}

/** Accumulated energy per category, in picojoules. */
class EnergyLedger
{
  public:
    void
    add(Cat c, double pj)
    {
        pj_[static_cast<std::size_t>(c)] += pj;
    }

    double pj(Cat c) const { return pj_[static_cast<std::size_t>(c)]; }

    /** Core-only energy: the five section-4.4 categories. */
    double
    corePj() const
    {
        return pj(Cat::Datapath) + pj(Cat::Fetch) + pj(Cat::Decode) +
               pj(Cat::MemIf) + pj(Cat::Misc);
    }

    /** On-chip memory energy. */
    double memPj() const { return pj(Cat::Imem) + pj(Cat::Dmem); }

    /** Processor dynamic energy: core + memories + coprocessors. */
    double
    processorPj() const
    {
        return corePj() + memPj() + pj(Cat::Coproc);
    }

    /** Everything, radio included. */
    double
    totalPj() const
    {
        double t = 0.0;
        for (double v : pj_)
            t += v;
        return t;
    }

    void
    reset()
    {
        pj_.fill(0.0);
    }

    /** Overwrite one category (snapshot restore pokes totals back). */
    void
    setPj(Cat c, double pj)
    {
        pj_[static_cast<std::size_t>(c)] = pj;
    }

    /** Difference against an earlier snapshot (per category). */
    EnergyLedger
    since(const EnergyLedger &earlier) const
    {
        EnergyLedger d;
        for (std::size_t i = 0; i < kNumCats; ++i)
            d.pj_[i] = pj_[i] - earlier.pj_[i];
        return d;
    }

  private:
    std::array<double, kNumCats> pj_{};
};

} // namespace snaple::energy

#endif // SNAPLE_ENERGY_LEDGER_HH
