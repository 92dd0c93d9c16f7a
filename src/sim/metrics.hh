/**
 * @file
 * Node-scoped metrics registry: counters, gauges and deterministic
 * log2-bucketed histograms, sampled on a simulated-time cadence into
 * JSONL or CSV snapshots.
 *
 * The registry is the reporting layer every experiment goes through
 * (ROADMAP: paper-style tables come from snap-report over a metrics
 * file, not from ad-hoc printf blocks). Design constraints, in order:
 *
 *  - *Determinism*. A metrics file from a seeded run must be
 *    byte-identical across hosts and across `--jobs` counts in the
 *    parallel harness. Histograms therefore bucket by bit width (no
 *    floating-point bucket boundaries), percentile interpolation uses
 *    a fixed integer bucket walk, registries write in canonical name
 *    order, and doubles are printed with std::to_chars shortest
 *    round-trip form — never printf %g, whose output is locale- and
 *    libc-dependent.
 *
 *  - *No hot-path cost*. Model components keep their plain counter
 *    structs on the hot path where they have them; publish*() methods
 *    mirror them into the registry at sample time (Counter::set)
 *    through instrument pointers looked up once. Components off the
 *    hot path (coprocessors, radio) count directly in registry
 *    counters — one pointer indirection per event.
 *
 *  - *Mergeability*. The parallel harness folds per-node registries
 *    into an aggregate in node-id order at barrier ticks. Counters
 *    and histograms add; each gauge declares its merge policy (Sum
 *    for energies, Mean for ratios like duty cycle, Skip for modes).
 *
 * docs/METRICS.md documents the JSONL schema and cadence semantics.
 */

#ifndef SNAPLE_SIM_METRICS_HH
#define SNAPLE_SIM_METRICS_HH

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/ticks.hh"

namespace snaple::sim {

/** A monotone event count. */
class MetricCounter
{
  public:
    void inc(std::uint64_t n = 1) { v_ += n; }
    /** Mirror a hot-path struct counter at sample time. */
    void set(std::uint64_t v) { v_ = v; }
    std::uint64_t value() const { return v_; }
    void reset() { v_ = 0; }

  private:
    std::uint64_t v_ = 0;
};

/** How an aggregate combines one gauge across nodes. */
enum class GaugeMerge : std::uint8_t
{
    Sum,  ///< totals (energy, occupancy)
    Mean, ///< ratios (duty cycle)
    Skip, ///< per-node-only values (modes, voltages)
};

/** A point-in-time value, re-set at every sample. */
class MetricGauge
{
  public:
    void set(double v) { v_ = v; }
    double value() const { return mergedN_ > 1 ? v_ / mergedN_ : v_; }
    GaugeMerge merge() const { return merge_; }
    void reset()
    {
        v_ = 0.0;
        mergedN_ = 0;
    }

  private:
    friend class MetricsRegistry;
    double v_ = 0.0;
    GaugeMerge merge_ = GaugeMerge::Sum;
    /** Contributions folded in by mergeFrom (Mean normalization). */
    std::uint32_t mergedN_ = 0;
};

/**
 * Deterministic log2-bucketed histogram of non-negative integer
 * samples (latencies in ticks, sizes in words).
 *
 * Bucket b holds values whose bit width is b: bucket 0 is exactly
 * {0}, bucket b >= 1 spans [2^(b-1), 2^b - 1]. 65 buckets cover the
 * whole uint64 range. Bucketing is integer-only, so two runs that
 * record the same samples produce identical bucket vectors on any
 * host.
 *
 * The bucket array is allocated by the first record(), mergeFrom()
 * or restore() that brings a sample in: most nodes register
 * histograms they never record into, and an unallocated histogram
 * reads as all zeros everywhere.
 */
class MetricHistogram
{
  public:
    static constexpr std::size_t kNumBuckets = 65;

    /**
     * The non-zero buckets as ascending (index, count) pairs: the one
     * bucket encoding outside a live histogram, written to the JSONL
     * stream's `buckets` field and to snapshots.
     */
    using Sparse = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

    /**
     * FatalError naming histogram @p name unless @p buckets is a valid
     * Sparse list for @p count samples: every index below kNumBuckets
     * and above the one before it, no zero count, and the counts
     * summing to @p count. Snapshot restore and snap-report read their
     * bucket lists through this check.
     */
    static void checkBuckets(std::string_view name, std::uint64_t count,
                             const Sparse &buckets);

    static constexpr std::size_t
    bucketOf(std::uint64_t v)
    {
        return static_cast<std::size_t>(std::bit_width(v));
    }

    /** Smallest value landing in bucket @p b. */
    static constexpr std::uint64_t
    bucketLo(std::size_t b)
    {
        return b <= 1 ? b : (std::uint64_t{1} << (b - 1));
    }

    /** Largest value landing in bucket @p b. */
    static constexpr std::uint64_t
    bucketHi(std::size_t b)
    {
        if (b == 0)
            return 0;
        if (b >= 64)
            return ~std::uint64_t{0};
        return (std::uint64_t{1} << b) - 1;
    }

    void
    record(std::uint64_t v)
    {
        ++ensureBuckets()[bucketOf(v)];
        ++count_;
        sum_ += v;
        if (count_ == 1) {
            min_ = max_ = v;
        } else {
            if (v < min_)
                min_ = v;
            if (v > max_)
                max_ = v;
        }
    }

    /** Fold another histogram in (aggregation across nodes). */
    void
    mergeFrom(const MetricHistogram &o)
    {
        if (o.count_ == 0)
            return;
        if (o.buckets_) {
            Buckets &mine = ensureBuckets();
            for (std::size_t b = 0; b < kNumBuckets; ++b)
                mine[b] += (*o.buckets_)[b];
        }
        if (count_ == 0) {
            min_ = o.min_;
            max_ = o.max_;
        } else {
            if (o.min_ < min_)
                min_ = o.min_;
            if (o.max_ > max_)
                max_ = o.max_;
        }
        count_ += o.count_;
        sum_ += o.sum_;
    }

    /**
     * Reconstruct from serialized fields (checkpoint restore, and
     * snap-report rebuilding histograms from JSONL sample lines to
     * compute percentiles with exactly this estimator). @p buckets
     * must have passed checkBuckets().
     */
    void
    restore(std::uint64_t count, std::uint64_t sum, std::uint64_t min,
            std::uint64_t max, const Sparse &buckets)
    {
        reset();
        count_ = count;
        sum_ = sum;
        min_ = min;
        max_ = max;
        for (const auto &[b, n] : buckets)
            ensureBuckets().at(b) = n;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    std::uint64_t
    bucket(std::size_t b) const
    {
        return buckets_ ? (*buckets_)[b] : 0;
    }

    double
    mean() const
    {
        return count_ ? double(sum_) / double(count_) : 0.0;
    }

    /**
     * Percentile estimate for @p p in [0, 100]: an integer bucket
     * walk to the bucket holding the target rank, then linear
     * interpolation across that bucket's value span, clamped to the
     * recorded min/max. Deterministic: same samples, same result,
     * monotone in p.
     */
    double percentile(double p) const;

    /** Zero every value; an allocated bucket array is kept. */
    void
    reset()
    {
        if (buckets_)
            buckets_->fill(0);
        count_ = sum_ = min_ = max_ = 0;
    }

  private:
    using Buckets = std::array<std::uint64_t, kNumBuckets>;

    /** The bucket array, allocated zeroed on first use. */
    Buckets &
    ensureBuckets()
    {
        if (!buckets_)
            buckets_ = std::make_unique<Buckets>();
        return *buckets_;
    }

    std::unique_ptr<Buckets> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/** One row of the per-PC flat profile (see SnapCore::profileRows). */
struct ProfileRow
{
    std::string_view handler; ///< event name or "boot"
    std::uint16_t pc = 0;
    std::uint64_t count = 0; ///< retirements at this pc
    Tick ticks = 0;          ///< simulated time attributed here
    double pj = 0.0;         ///< dynamic energy attributed here
};

/**
 * A named bag of instruments with stable references and canonical
 * (name-sorted) output order.
 *
 * Each kind lives in its own std::deque, so a reference returned by
 * counter()/gauge()/histogram() stays valid for the registry's life:
 * that reference is the instrument's handle, and publishers look it up
 * once and keep it. Names are looked up only to register, merge-plan
 * and snapshot. A name-sorted vector holds every instrument with its
 * constant JSONL and CSV text rendered at creation, so a writer
 * copies bytes and formats only the values, and the "all" aggregate
 * merges through a per-source MergeTable rebuilt only when the source
 * gains instruments (its generation moves).
 */
class MetricsRegistry
{
  public:
    /** The counter named @p name, created on first use. */
    MetricCounter &counter(std::string_view name);

    /**
     * The gauge named @p name, created on first use with merge policy
     * @p merge (the policy sticks from the creating call).
     */
    MetricGauge &gauge(std::string_view name,
                       GaugeMerge merge = GaugeMerge::Sum);

    /** The histogram named @p name, created on first use. */
    MetricHistogram &histogram(std::string_view name);

    /**
     * One source registry's instruments mapped to their slots in one
     * destination registry. Built on first use and rebuilt whenever
     * the source gains instruments; keep one per (source, destination)
     * pair across samples so a merge does no name lookups.
     */
    class MergeTable
    {
        friend class MetricsRegistry;
        const MetricsRegistry *src_ = nullptr;
        const MetricsRegistry *dst_ = nullptr;
        std::size_t srcGeneration_ = 0;
        std::vector<MetricCounter *> counters_;
        std::vector<MetricGauge *> gauges_;
        std::vector<MetricHistogram *> hists_;
    };

    /**
     * Fold @p src into this registry: counters and histogram buckets
     * add, gauges follow the source gauge's merge policy (instruments
     * are created here as needed, with matching kinds). Used by the
     * parallel harness to build the "all" aggregate in node-id order;
     * call resetValues() first when rebuilding from scratch each
     * sample.
     */
    void mergeFrom(const MetricsRegistry &src, MergeTable &table);

    /** mergeFrom() through a one-off table (tests, rare callers). */
    void
    mergeFrom(const MetricsRegistry &src)
    {
        MergeTable table;
        mergeFrom(src, table);
    }

    /** Zero every instrument's value (names and kinds survive). */
    void resetValues();

    bool empty() const { return names_.empty(); }

    /**
     * Append one JSONL sample line per instrument to @p out, in name
     * order. The writers append to a caller-owned buffer so a whole
     * sample reaches its stream in one write.
     */
    void writeJsonl(std::string &out, Tick t, std::string_view node) const;

    /** One CSV row per instrument, in name order (lossy: histograms
     *  reduce to count/sum/min/max/p50/p99). */
    void writeCsv(std::string &out, Tick t, std::string_view node) const;

    static void writeCsvHeader(std::string &out);

    /** The run-description meta line heading a node's JSONL stream. */
    static void writeMetaJsonl(std::string &out, std::string_view node,
                               double volts, Tick interval);

    /** One flat-profile JSONL line (end of run). */
    static void writeProfileJsonl(std::string &out,
                                  std::string_view node,
                                  const ProfileRow &row);

    /**
     * Full value dump of one instrument (snapshot support). Fields
     * irrelevant to the instrument's kind stay at their defaults, so
     * the serialized form is canonical. A gauge's merge count is not
     * saved: only the parallel harness's aggregates are merged into,
     * and they are rebuilt at every sample, never saved.
     */
    struct SavedInstrument
    {
        std::string name;
        std::uint8_t kind = 0;  ///< 0 counter, 1 gauge, 2 histogram
        std::uint64_t counter = 0;
        double gaugeV = 0.0;
        std::uint8_t gaugeMerge = 0;
        std::uint64_t histCount = 0;
        std::uint64_t histSum = 0;
        std::uint64_t histMin = 0;
        std::uint64_t histMax = 0;
        MetricHistogram::Sparse buckets;

        bool operator==(const SavedInstrument &) const = default;
    };

    /** Every instrument's current value, in canonical name order. */
    std::vector<SavedInstrument> saveState() const;

    /**
     * Recreate instruments from @p saved (checkpoint restore). Existing
     * instruments keep their addresses — components cache references —
     * and take the saved values; instruments only present in @p saved
     * are created. A record whose kind or gauge merge policy is out of
     * range, whose kind disagrees with the live instrument of the same
     * name, or whose buckets fail MetricHistogram::checkBuckets() is a
     * FatalError naming the instrument.
     */
    void restoreState(const std::vector<SavedInstrument> &saved);

  private:
    enum class Kind : std::uint8_t
    {
        Counter,
        Gauge,
        Histogram,
    };

    /**
     * One named instrument. names_ keeps these sorted by name, so the
     * one vector is both the registration map and the writers' index.
     * The entry's bytes sit in text_ from @c at: the name, then the
     * rest of its CSV fragment (`name,counter,`, csvLen bytes in all),
     * then its JSONL fragment (`,"name":"…","type":"counter","v":`,
     * jsonLen bytes), rendered once when the instrument is created.
     */
    struct Entry
    {
        std::uint32_t at = 0;
        std::uint32_t nameLen = 0;
        std::uint32_t csvLen = 0;
        std::uint32_t jsonLen = 0;
        Kind kind = Kind::Counter;
        std::uint32_t idx = 0; ///< position in its kind's deque
    };

    std::string_view
    nameOf(const Entry &e) const
    {
        return {text_.data() + e.at, e.nameLen};
    }

    /** First entry whose name is not less than @p name. */
    std::size_t lowerBound(std::string_view name) const;
    /** Create an instrument named @p name at names_[pos]. The entry
     *  references insert() and find() return last until the next
     *  insert. */
    const Entry &insert(std::size_t pos, std::string_view name, Kind kind,
                        GaugeMerge merge);
    /** The entry named @p name, created on first use. */
    const Entry &find(std::string_view name, Kind kind,
                      GaugeMerge merge = {});
    /** Instruments ever created; names are never removed. */
    std::size_t generation() const { return names_.size(); }

    std::deque<MetricCounter> counters_;
    std::deque<MetricGauge> gauges_;
    std::deque<MetricHistogram> hists_;
    std::vector<Entry> names_;
    std::string text_; ///< names and fragments, append-only
};

/**
 * Builds instrument names in one reused buffer, for publishers that
 * look up many instruments at once:
 * `m.counter(name("core.class.", slug, ".ticks"))`. The view is valid
 * until the next call.
 */
class MetricName
{
  public:
    template <typename... Parts>
    std::string_view
    operator()(const Parts &...parts)
    {
        buf_.clear();
        (buf_ += ... += parts);
        return buf_;
    }

  private:
    std::string buf_;
};

/**
 * Format @p v in shortest round-trip form (std::to_chars): the only
 * double-to-text path in metrics output, so files are byte-identical
 * wherever the same values were computed.
 */
std::string formatDouble(double v);

} // namespace snaple::sim

#endif // SNAPLE_SIM_METRICS_HH
