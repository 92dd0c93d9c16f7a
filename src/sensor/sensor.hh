/**
 * @file
 * Sensor device models.
 *
 * Sensors implement the coprocessor's SensorPort (active polling via
 * Query commands). Passive, interrupt-driven sensing is modeled by
 * host code or scenario scripts calling
 * MessageCoproc::raiseSensorInterrupt().
 */

#ifndef SNAPLE_SENSOR_SENSOR_HH
#define SNAPLE_SENSOR_SENSOR_HH

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "coproc/io_ports.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/ticks.hh"

namespace snaple::sensor {

/** A sensor computed from an arbitrary host function of time. */
class FunctionSensor : public coproc::SensorPort
{
  public:
    using Fn = std::function<std::uint16_t(sim::Tick)>;

    explicit FunctionSensor(Fn fn) : fn_(std::move(fn)) {}

    std::uint16_t query(sim::Tick now) override { return fn_(now); }

  private:
    Fn fn_;
};

/**
 * A temperature sensor producing 10-bit ADC-style readings: a slow
 * sinusoidal diurnal swing around a base code plus uniform noise.
 * This is the kind of signal the paper's Temperature application and
 * habitat-monitoring deployments [29] sample.
 */
class TemperatureSensor : public coproc::SensorPort
{
  public:
    static constexpr double kBaseCode = 512.0;  ///< mid-scale of a 10-bit ADC
    static constexpr double kAmplitude = 120.0; ///< swing in ADC codes
    static constexpr double kNoiseCodes = 4.0;  ///< +/- uniform noise

    struct Config
    {
        sim::Tick period = 60 * sim::kSecond; ///< one full swing
        std::uint64_t seed = 1;
    };

    TemperatureSensor() : TemperatureSensor(Config()) {}

    explicit TemperatureSensor(const Config &cfg)
        : cfg_(cfg), rng_(cfg.seed)
    {}

    std::uint16_t
    query(sim::Tick now) override
    {
        double phase = 2.0 * M_PI * (double(now % cfg_.period) /
                                     double(cfg_.period));
        double v = kBaseCode + kAmplitude * std::sin(phase) +
                   (rng_.uniform01() * 2.0 - 1.0) * kNoiseCodes;
        if (v < 0)
            v = 0;
        if (v > 1023)
            v = 1023;
        return static_cast<std::uint16_t>(v);
    }

    /** @name Snapshot support (src/snapshot/)
     * The reading is a pure function of (now, rng state), so the RNG
     * word is the only state a checkpoint has to carry. */
    ///@{
    std::uint64_t rngState() const { return rng_.state(); }
    void setRngState(std::uint64_t s) { rng_.setState(s); }
    ///@}

  private:
    Config cfg_;
    sim::Rng rng_;
};

/** A sensor that replays a scripted sequence (cycling); for tests. */
class ScriptedSensor : public coproc::SensorPort
{
  public:
    explicit ScriptedSensor(std::vector<std::uint16_t> values)
        : values_(std::move(values))
    {
        sim::fatalIf(values_.empty(), "scripted sensor needs values");
    }

    std::uint16_t
    query(sim::Tick) override
    {
        std::uint16_t v = values_[next_];
        next_ = (next_ + 1) % values_.size();
        return v;
    }

  private:
    std::vector<std::uint16_t> values_;
    std::size_t next_ = 0;
};

} // namespace snaple::sensor

#endif // SNAPLE_SENSOR_SENSOR_HH
