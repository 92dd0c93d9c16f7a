/**
 * @file
 * Cycle-accurate AVR-class MCU model: the baseline platform.
 *
 * Models an ATmega128L-style microcontroller at 4 MHz / 3 V with the
 * datasheet per-instruction cycle costs, a two-level interrupt system
 * (global I flag + per-source pending bits, 4-cycle interrupt
 * response), an idle sleep mode, and the peripherals the TinyOS
 * comparison apps need: a compare-match timer, an ADC, an SPI port
 * (the mote's radio interface) and an LED port.
 *
 * Energy: active cycles cost ~3.75 nJ each (ATmega128L at 3 V, 4 MHz
 * draws ~5.5 mA => ~16.5 mW => 4.1 nJ/cycle; we use 3.75 which also
 * reproduces the paper's 1960 nJ per TinyOS blink iteration).
 *
 * The model attributes every cycle to the program-counter value that
 * spent it, which is how the Figure 5 "useful vs. overhead" split is
 * measured (the authors did the same with AVR Studio).
 */

#ifndef SNAPLE_BASELINE_AVR_CORE_HH
#define SNAPLE_BASELINE_AVR_CORE_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "asm/program.hh"
#include "baseline/avr_isa.hh"
#include "coproc/io_ports.hh"
#include "sim/channel.hh"
#include "sim/kernel.hh"

namespace snaple::baseline {

/** The baseline microcontroller. */
class AvrMcu
{
  public:
    struct Config
    {
        double clockMhz = 4.0;
        double activeNjPerCycle = 3.75; ///< 3 V, 4 MHz operating point
        double idleNw = 6.0e6;          ///< idle-mode power, nanowatts
        std::size_t sramBytes = 4096;
        bool stopOnHalt = true;
        sim::Tick adcConversionTime = 104 * sim::kMicrosecond;
        double spiBitrateBps = 19200.0; ///< mote radio serial rate
    };

    struct Stats
    {
        std::uint64_t instructions = 0;
        std::uint64_t cyclesActive = 0;
        std::uint64_t cyclesSleep = 0;
        std::uint64_t interrupts = 0;
        std::uint64_t timerFires = 0;
        std::uint64_t adcConversions = 0;
        std::uint64_t spiBytes = 0;
    };

    AvrMcu(sim::Kernel &kernel, const Config &cfg,
           const assembler::Program &prog);

    AvrMcu(const AvrMcu &) = delete;
    AvrMcu &operator=(const AvrMcu &) = delete;

    /** Attach the ADC's input (sensor). */
    void attachSensor(coproc::SensorPort &s) { sensor_ = &s; }

    /** Spawn the core process. */
    void start();

    // Host-side observability ----------------------------------------
    std::uint8_t reg(unsigned i) const { return regs_[i]; }
    void setReg(unsigned i, std::uint8_t v) { regs_[i] = v; }
    bool halted() const { return halted_; }
    bool sleeping() const { return sleeping_; }
    const Stats &stats() const { return stats_; }

    /** Bytes written to the debug port. */
    const std::vector<std::uint8_t> &debugOut() const
    {
        return debugOut_;
    }

    /** LED port writes with their timestamps. */
    const std::vector<std::pair<sim::Tick, std::uint8_t>> &
    ledTrace() const
    {
        return ledTrace_;
    }

    /** Bytes pushed out of the SPI (the radio interface). */
    const std::vector<std::uint8_t> &spiOut() const { return spiOut_; }

    /** Cycles attributed to flash word addresses in [lo, hi). */
    std::uint64_t cyclesInRange(std::uint16_t lo, std::uint16_t hi) const;

    /** Active-mode energy so far, in nanojoules. */
    double
    activeEnergyNj() const
    {
        return stats_.cyclesActive * cfg_.activeNjPerCycle;
    }

    /** One CPU cycle, in ticks. */
    sim::Tick
    cycleTime() const
    {
        return sim::fromUs(1.0 / cfg_.clockMhz);
    }

  private:
    sim::Co<void> run();

    /** Execute one instruction; returns its cycle cost. */
    unsigned step();

    void raiseIrq(AvrIrq irq);
    bool irqPending() const { return (pending_ & 0x0e) != 0; }
    void ioWrite(std::uint8_t port, std::uint8_t v);
    std::uint8_t ioRead(std::uint8_t port);
    void scheduleTimer();
    void push8(std::uint8_t v);
    std::uint8_t pop8();

    sim::Kernel &kernel_;
    Config cfg_;
    std::vector<std::uint16_t> flash_;
    std::vector<std::uint8_t> sram_;
    std::array<std::uint8_t, 32> regs_{};
    std::uint16_t pc_ = 0;
    std::uint16_t sp_;
    bool flagC_ = false;
    bool flagZ_ = false;
    bool flagN_ = false;
    bool iflag_ = false;
    bool seiShadow_ = false;
    bool sleeping_ = false;
    bool halted_ = false;
    std::uint8_t pending_ = 0; ///< bit per AvrIrq

    sim::Fifo<std::uint8_t> wake_;

    // Peripheral state.
    bool timerEnabled_ = false;
    std::uint32_t timerPeriod_ = 0; ///< in CPU cycles
    std::uint64_t timerGeneration_ = 0;
    std::uint16_t adcValue_ = 0;
    coproc::SensorPort *sensor_ = nullptr;

    std::vector<std::uint8_t> debugOut_;
    std::vector<std::pair<sim::Tick, std::uint8_t>> ledTrace_;
    std::vector<std::uint8_t> spiOut_;
    std::vector<std::uint64_t> cyclesByPc_;
    Stats stats_;
};

} // namespace snaple::baseline

#endif // SNAPLE_BASELINE_AVR_CORE_HH
