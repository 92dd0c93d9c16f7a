/**
 * @file
 * Spatial channel parameters and math: 2D node positions, log-distance
 * path loss, per-receiver RSSI and capture-threshold collision
 * resolution.
 *
 * The paper's motes are scattered across a physical field, not wired
 * to one serial bus: whether a word is heard — and whether overlapping
 * words garble each other — depends on where transmitter and receiver
 * stand. radio::AirExchange's field mode (setField) models the
 * standard log-distance channel with these helpers:
 *
 *     PL(d) = pl0_db + 10 * exponent * log10(max(d, ref_m) / ref_m)
 *     RSSI(src -> dst) = tx_dbm - PL(distance(src, dst))
 *
 * A receiver is *in range* of a transmission when its RSSI clears the
 * receiver sensitivity; carrier sense uses the same threshold.
 * Overlapping transmissions are resolved per receiver by the capture
 * rule: the word is decoded iff its received power clears
 * the sum of the noise floor and every overlapping transmission's
 * received power by the capture margin,
 *
 *     P_signal >= 10^(capture_db / 10) * (P_noise + sum P_interferer)
 *
 * (exactly at the threshold still decodes). Otherwise the word is
 * garbled *at that receiver* — a strong frame can survive near its
 * transmitter while the same overlap garbles it farther out, which is
 * what makes spatial reuse (and RSSI-based clusterhead election) work.
 * Signals below the noise floor neither deliver nor interfere.
 *
 * Accounting: "air.words_sent" counts flights; "air.rx_in_range"
 * counts (flight, in-range receiver) opportunities, each of which
 * resolves as exactly one of "air.words_delivered", "air.collisions"
 * (garbled at that receiver), "air.drops_mode" or "air.drops_fifo" —
 * note "air.collisions" is per receiver here, unlike the single-cell
 * channel where it is per flight. Out-of-range receivers are not
 * counted (distance is topology, not a fault).
 */

#ifndef SNAPLE_RADIO_FIELD_MEDIUM_HH
#define SNAPLE_RADIO_FIELD_MEDIUM_HH

#include <cmath>
#include <cstdint>

namespace snaple::radio {

/** Log-distance path-loss field parameters. */
struct FieldConfig
{
    /**
     * Spatial index cell size, meters. Only the granularity of
     * AirExchange's cell index: the ranges below decide who hears
     * whom, so no cell_m changes a result.
     */
    double cellM = 30.0;

    double txDbm = 0.0;     ///< transmit power (TR1000-class: ~0 dBm)
    double pl0Db = 40.0;    ///< path loss at the reference distance
    double refM = 1.0;      ///< reference distance d0
    double exponent = 2.7;  ///< path-loss exponent n (2 free space,
                            ///< 2.7-4 outdoor foliage/ground)
    double noiseDbm = -100.0; ///< noise floor; weaker signals vanish
    double sensitivityDbm = -85.0; ///< decode + carrier-sense cutoff
    double captureDb = 10.0; ///< capture margin over noise+interference

    bool operator==(const FieldConfig &) const = default;
};

namespace field {

/** dBm to absolute power (milliwatts). */
inline double
dbmToMw(double dbm)
{
    return std::pow(10.0, dbm / 10.0);
}

/** A ratio in dB as a linear factor. */
inline double
dbFactor(double db)
{
    return std::pow(10.0, db / 10.0);
}

/** Log-distance path loss at @p distM meters. */
inline double
pathLossDb(const FieldConfig &cfg, double distM)
{
    const double d = distM > cfg.refM ? distM : cfg.refM;
    return cfg.pl0Db + 10.0 * cfg.exponent * std::log10(d / cfg.refM);
}

/** Receiver-side signal strength over @p dxM, @p dyM meters. */
inline double
rssiDbm(const FieldConfig &cfg, double dxM, double dyM)
{
    return cfg.txDbm -
           pathLossDb(cfg, std::sqrt(dxM * dxM + dyM * dyM));
}

/** The guest-visible RSSI word: half-dB steps above -120 dBm,
 *  clamped to [0, 65535] (coproc::RadioPort::lastRssi). */
inline std::uint16_t
rssiToWord(double dbm)
{
    const double w = (dbm + 120.0) * 2.0;
    if (w <= 0.0)
        return 0;
    if (w >= 65535.0)
        return 65535;
    return static_cast<std::uint16_t>(std::lround(w));
}

/** Distance at which RSSI drops to @p floorDbm (range cutoffs). */
inline double
rangeM(const FieldConfig &cfg, double floorDbm)
{
    // Invert PL: d = ref * 10^((tx - floor - pl0) / (10 n)).
    return cfg.refM * std::pow(10.0, (cfg.txDbm - floorDbm - cfg.pl0Db) /
                                         (10.0 * cfg.exponent));
}

} // namespace field

} // namespace snaple::radio

#endif // SNAPLE_RADIO_FIELD_MEDIUM_HH
