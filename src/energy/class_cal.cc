#include "energy/class_cal.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "sim/logging.hh"

namespace snaple::energy {

namespace {

/** Unit cost split out of EnergyCal/TimingCal for one execution unit. */
struct UnitCost
{
    double gd = 0;
    double pj = 0;
};

UnitCost
unitCost(const EnergyCal &e, const TimingCal &t, isa::Unit u)
{
    switch (u) {
      case isa::Unit::Adder: return {t.adderGd, e.adderPj};
      case isa::Unit::Logic: return {t.logicGd, e.logicPj};
      case isa::Unit::Shifter: return {t.shifterGd, e.shifterPj};
      case isa::Unit::LdStD:
      case isa::Unit::LdStI: return {t.ldstGd, e.ldstPj};
      case isa::Unit::Lfsr: return {t.lfsrGd, e.lfsrPj};
      case isa::Unit::Branch: return {t.branchGd, e.branchPj};
      case isa::Unit::TimerIf: return {t.timerIfGd, e.timerIfPj};
      default: return {};
    }
}

/** What the representative instruction of a class touches. */
struct Shape
{
    int words = 1;      ///< instruction words fetched
    int reads = 0;      ///< register-file operand reads
    int writes = 0;     ///< register-file result writes
    bool hasUnit = false;
    isa::Unit unit = isa::Unit::Adder;
    enum Mem { None, DRead, DWrite, IRead, IWrite } mem = None;
    double extraGd = 0; ///< e.g. timer-channel rendezvous
};

Shape
shapeOf(isa::InstrClass c)
{
    using U = isa::Unit;
    using IC = isa::InstrClass;
    Shape s;
    switch (c) {
      // ALU register forms are two-address: rd <- rd op rs.
      case IC::ArithReg: s = {1, 2, 1, true, U::Adder}; break;
      case IC::LogicalReg: s = {1, 2, 1, true, U::Logic}; break;
      case IC::Shift: s = {1, 2, 1, true, U::Shifter}; break;
      case IC::ArithImm: s = {2, 1, 1, true, U::Adder}; break;
      case IC::LogicalImm: s = {2, 1, 1, true, U::Logic}; break;
      case IC::ShiftImm: s = {2, 1, 1, true, U::Shifter}; break;
      case IC::Load:
        s = {2, 1, 1, true, U::LdStD, Shape::DRead};
        break;
      case IC::Store:
        s = {2, 2, 0, true, U::LdStD, Shape::DWrite};
        break;
      case IC::LoadI:
        s = {2, 1, 1, true, U::LdStI, Shape::IRead};
        break;
      case IC::StoreI:
        s = {2, 2, 0, true, U::LdStI, Shape::IWrite};
        break;
      case IC::Branch: s = {1, 1, 0, true, U::Branch}; break;
      case IC::Jump: s = {2, 0, 0, true, U::Branch}; break;
      // bfs runs on the logic unit's merge network.
      case IC::BitField: s = {2, 2, 1, true, U::Logic}; break;
      case IC::Rand: s = {1, 0, 1, true, U::Lfsr}; break;
      // sched rd, rs plus the rendezvous with the timer coprocessor.
      case IC::Timer:
        s = {1, 2, 0, true, U::TimerIf, Shape::None, 4.0};
        break;
      // done: no execution unit, dispatch is charged separately.
      case IC::EventCtl: s = {1, 0, 0}; break;
      case IC::Sys: s = {1, 0, 0}; break;
      default: break;
    }
    return s;
}

std::size_t
catIdx(Cat c)
{
    return static_cast<std::size_t>(c);
}

Cat
catByName(std::string_view name)
{
    for (std::size_t i = 0; i < kNumCats; ++i)
        if (catName(static_cast<Cat>(i)) == name)
            return static_cast<Cat>(i);
    return Cat::NumCats;
}

} // namespace

const std::shared_ptr<const ClassCal> &
ClassCal::analyticShared()
{
    static const std::shared_ptr<const ClassCal> cal =
        std::make_shared<const ClassCal>(analytic());
    return cal;
}

ClassCal
ClassCal::analytic(const EnergyCal &e, const TimingCal &t)
{
    ClassCal cal;
    for (std::size_t ci = 0; ci < isa::kNumClasses; ++ci) {
        const Shape s = shapeOf(static_cast<isa::InstrClass>(ci));
        ClassCost &c = cal.cost[ci];

        // Fetch path: per word, the fetch logic plus an IMEM read.
        c.gd = s.words * (t.fetchCycleGd + t.imemReadGd) + t.decodeGd +
               s.reads * t.regReadGd + s.writes * t.regWriteGd +
               s.extraGd;
        c.pj[catIdx(Cat::Imem)] = s.words * e.imemReadPj;
        c.pj[catIdx(Cat::Fetch)] = s.words * e.fetchPerWordPj;
        c.pj[catIdx(Cat::MemIf)] = s.words * e.memIfPerWordPj;
        c.pj[catIdx(Cat::Decode)] = e.decodePj;
        c.pj[catIdx(Cat::Misc)] = e.miscPj;
        c.pj[catIdx(Cat::Datapath)] =
            s.reads * e.regReadPj + s.writes * e.regWritePj;

        // Two bus transfers (to the unit and back) plus the unit op.
        // Analytic coefficients assume the default split fast/slow
        // busses; flat-bus configs should use a measured table.
        if (s.hasUnit) {
            const UnitCost u = unitCost(e, t, s.unit);
            const bool fast = isa::onFastBus(s.unit);
            const double busGd =
                fast ? t.busFastGd : t.busFastGd + t.busSlowGd;
            const double busPj =
                fast ? e.busFastPj : e.busFastPj + e.busSlowPj;
            c.gd += 2 * busGd + u.gd;
            c.pj[catIdx(Cat::Datapath)] += 2 * busPj + u.pj;
        }

        switch (s.mem) {
          case Shape::DRead:
            c.gd += t.dmemReadGd;
            c.pj[catIdx(Cat::Dmem)] += e.dmemReadPj;
            break;
          case Shape::DWrite:
            c.gd += t.dmemWriteGd;
            c.pj[catIdx(Cat::Dmem)] += e.dmemWritePj;
            break;
          case Shape::IRead:
            c.gd += t.imemReadGd;
            c.pj[catIdx(Cat::Imem)] += e.imemReadPj;
            break;
          case Shape::IWrite:
            c.gd += t.imemWriteGd;
            c.pj[catIdx(Cat::Imem)] += e.imemWritePj;
            break;
          case Shape::None:
            break;
        }
    }
    return cal;
}

std::string
serializeClassCal(const ClassCal &cal)
{
    std::string out;
    out += "# snaple per-class calibration table\n";
    out += "# class <slug> gd <gate-delays> <category>:<pJ at 1.8 V> ...\n";
    char buf[64];
    for (std::size_t ci = 0; ci < isa::kNumClasses; ++ci) {
        const auto cls = static_cast<isa::InstrClass>(ci);
        const ClassCost &c = cal.cost[ci];
        out += "class ";
        out += isa::classSlug(cls);
        std::snprintf(buf, sizeof buf, " gd %.6g", c.gd);
        out += buf;
        for (std::size_t k = 0; k < kNumCats; ++k) {
            if (c.pj[k] == 0)
                continue;
            std::snprintf(buf, sizeof buf, " %.*s:%.6g",
                          static_cast<int>(
                              catName(static_cast<Cat>(k)).size()),
                          catName(static_cast<Cat>(k)).data(),
                          c.pj[k]);
            out += buf;
        }
        out += '\n';
    }
    return out;
}

ClassCal
parseClassCal(std::string_view text)
{
    ClassCal cal = ClassCal::analytic();
    std::istringstream in{std::string(text)};
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ls{line};
        std::string tok;
        if (!(ls >> tok))
            continue;
        sim::fatalIf(tok != "class", "calibration table line ", lineNo,
                     ": expected 'class', got '", tok, "'");
        std::string slug;
        sim::fatalIf(!(ls >> slug), "calibration table line ", lineNo,
                     ": missing class slug");
        const isa::InstrClass cls = isa::classBySlug(slug);
        sim::fatalIf(cls == isa::InstrClass::NumClasses,
                     "calibration table line ", lineNo,
                     ": unknown instruction class '", slug, "'");
        ClassCost c; // replace, not merge: a listed class is complete
        sim::fatalIf(!(ls >> tok) || tok != "gd",
                     "calibration table line ", lineNo, ": expected 'gd'");
        sim::fatalIf(!(ls >> c.gd), "calibration table line ", lineNo,
                     ": bad gd value");
        while (ls >> tok) {
            const auto colon = tok.find(':');
            sim::fatalIf(colon == std::string::npos,
                         "calibration table line ", lineNo,
                         ": expected <category>:<pJ>, got '", tok, "'");
            const Cat cat = catByName(tok.substr(0, colon));
            sim::fatalIf(cat == Cat::NumCats, "calibration table line ",
                         lineNo, ": unknown category '",
                         tok.substr(0, colon), "'");
            char *end = nullptr;
            const std::string num = tok.substr(colon + 1);
            const double v = std::strtod(num.c_str(), &end);
            sim::fatalIf(end == num.c_str() || *end != '\0',
                         "calibration table line ", lineNo,
                         ": bad pJ value '", num, "'");
            c.pj[static_cast<std::size_t>(cat)] = v;
        }
        cal.cost[static_cast<std::size_t>(cls)] = c;
    }
    return cal;
}

} // namespace snaple::energy
