#include "net/parallel_network.hh"

#include <algorithm>
#include <ostream>

#include "radio/transceiver.hh"

namespace snaple::net {

node::SnapNode &
ParallelNetwork::addNode(const node::NodeConfig &cfg,
                         const assembler::Program &prog)
{
    sim::fatalIf(started_, "addNode() after start()");
    node::NodeConfig shardCfg = cfg;
    if (shardCfg.nodeId == 0)
        shardCfg.nodeId = static_cast<std::uint32_t>(shards_.size());
    shards_.push_back(
        std::make_unique<Shard>(exchange_, shardCfg, prog));
    Shard &s = *shards_.back();
    s.node.flowTracker().setWindow(flowWindow_);
    if (flowsOut_)
        s.node.flowTracker().setRecording(true);
    if (tracing_) {
        s.sink = std::make_unique<sim::TraceSink>(traceRecord_);
        s.kernel.setTracer(s.sink.get());
    }
    return s.node;
}

sim::Tick
ParallelNetwork::deriveWindow() const
{
    // Lookahead: the earliest a word transmitted in one shard can
    // matter in another is one word airtime plus the propagation
    // delay. No radios means no cross-shard traffic at all; any
    // positive window works, so pick a coarse one.
    for (const auto &s : shards_)
        if (s->node.transceiver())
            return radio::Transceiver::wordAirtime() +
                   exchange_.propagation();
    if (exchange_.propagation() != 0)
        return exchange_.propagation();
    return sim::kMillisecond;
}

void
ParallelNetwork::start()
{
    sim::fatalIf(started_, "start() called twice");
    if (windowOverride_ == 0)
        window_ = deriveWindow();
    sim::fatalIf(window_ == 0, "sync window must be positive");
    exchange_.finalizeField(); // no-op outside field mode
    for (auto &s : shards_)
        s->node.start();
    started_ = true;
    setJobs(jobs_);
}

void
ParallelNetwork::enableAirTrace(std::size_t capacity)
{
    trace_ = AirTraceRing(capacity);
    exchange_.setSniffer([this](const radio::AirFlight &f,
                                sim::Tick deliverAt) {
        trace_.push(AirWord{deliverAt,
                            shards_.at(f.srcNode)->node.name(), f.word,
                            f.collided});
    });
}

void
ParallelNetwork::enableTracing(bool record)
{
    tracing_ = true;
    traceRecord_ = record;
    for (auto &s : shards_) {
        if (!s->sink)
            s->sink = std::make_unique<sim::TraceSink>(record);
        s->kernel.setTracer(s->sink.get());
    }
}

void
ParallelNetwork::enableMetrics(std::ostream &out, sim::Tick interval,
                               bool csv)
{
    sim::fatalIf(now_ != 0, "enableMetrics() after the run started");
    sim::fatalIf(interval == 0, "metrics interval must be positive");
    metricsOut_ = &out;
    metricsInterval_ = interval;
    metricsNext_ = interval;
    metricsCsv_ = csv;
}

void
ParallelNetwork::sampleMetricsNow()
{
    // One sample is formatted into metricsBuf_ and reaches the stream
    // in one write.
    std::string &buf = metricsBuf_;
    buf.clear();
    if (!metricsMetaWritten_) {
        if (metricsCsv_) {
            sim::MetricsRegistry::writeCsvHeader(buf);
        } else {
            for (const auto &s : shards_)
                sim::MetricsRegistry::writeMetaJsonl(
                    buf, s->node.name(), s->node.ctx().cfg.volts,
                    metricsInterval_);
        }
        metricsMetaWritten_ = true;
    }

    // Per-node rows in registration order. sampleMetrics() refreshes
    // each node's published values to the barrier instant first; the
    // barrier grid is jobs-invariant, so so is everything below.
    for (const auto &s : shards_) {
        s->node.sampleMetrics();
        const sim::MetricsRegistry &r = s->node.ctx().metrics;
        if (metricsCsv_)
            r.writeCsv(buf, now_, s->node.name());
        else
            r.writeJsonl(buf, now_, s->node.name());
    }

    // "all": the per-node registries folded in node-id order, each
    // through its own merge table.
    mergeTables_.resize(shards_.size());
    aggregate_.resetValues();
    for (std::size_t i = 0; i < shards_.size(); ++i)
        aggregate_.mergeFrom(shards_[i]->node.ctx().metrics,
                             mergeTables_[i]);
    if (metricsCsv_)
        aggregate_.writeCsv(buf, now_, "all");
    else
        aggregate_.writeJsonl(buf, now_, "all");

    // "net": the shared-channel counters plus the sniffer-ring loss
    // (words the bounded air-trace ring overwrote).
    netScratch_.resetValues();
    netScratch_.mergeFrom(exchange_.metrics(), netMergeTable_);
    if (!sniffOverwrites_)
        sniffOverwrites_ = &netScratch_.counter("air.sniff_overwrites");
    sniffOverwrites_->set(trace_.overwrites());
    if (metricsCsv_)
        netScratch_.writeCsv(buf, now_, "net");
    else
        netScratch_.writeJsonl(buf, now_, "net");

    metricsOut_->write(buf.data(),
                       static_cast<std::streamsize>(buf.size()));
    metricsLastAt_ = now_;
}

void
ParallelNetwork::finishMetrics()
{
    if (!metricsOut_)
        return;
    if (metricsLastAt_ != now_)
        sampleMetricsNow();
    if (!metricsCsv_) {
        std::string &buf = metricsBuf_;
        buf.clear();
        for (const auto &s : shards_)
            for (const sim::ProfileRow &row :
                 s->node.core().profileRows())
                sim::MetricsRegistry::writeProfileJsonl(
                    buf, s->node.name(), row);
        metricsOut_->write(buf.data(),
                           static_cast<std::streamsize>(buf.size()));
    }
    metricsOut_->flush();
}

void
ParallelNetwork::enableFlows(std::ostream &out)
{
    sim::fatalIf(now_ != 0, "enableFlows() after the run started");
    flowsOut_ = &out;
    for (auto &s : shards_)
        s->node.flowTracker().setRecording(true);
}

void
ParallelNetwork::setFlowWindow(sim::Tick w)
{
    sim::fatalIf(now_ != 0, "setFlowWindow() after the run started");
    flowWindow_ = w;
    for (auto &s : shards_)
        s->node.flowTracker().setWindow(w);
}

void
ParallelNetwork::drainFlowsNow()
{
    spanScratch_.clear();
    for (const auto &s : shards_)
        s->node.flowTracker().drainSpans(spanScratch_);
    if (spanScratch_.empty())
        return;
    // (tx_tick, node) is unique — the TX serial interface is busy for
    // a full word airtime — so this sort is a total order and the
    // drain's byte image is independent of shard iteration order.
    std::stable_sort(
        spanScratch_.begin(), spanScratch_.end(),
        [](const obs::SpanRecord &a, const obs::SpanRecord &b) {
            return a.txTick != b.txTick ? a.txTick < b.txTick
                                        : a.node < b.node;
        });
    for (const obs::SpanRecord &r : spanScratch_)
        obs::writeSpanJsonl(*flowsOut_, r);
}

void
ParallelNetwork::finishFlows()
{
    if (!flowsOut_)
        return;
    drainFlowsNow();
    flowsOut_->flush();
}

void
ParallelNetwork::killNode(std::size_t i)
{
    sim::fatalIf(!started_, "killNode() before start()");
    Shard &s = *shards_.at(i);
    if (s.dead)
        return;
    // Freeze the shard exactly like an early kernel stop: its clock
    // stops tracking the barrier grid, so its trace hash and its
    // energy(), static energy included, keep their values at the kill
    // barrier. The exchange side
    // truncates in-flight words and suppresses future deliveries.
    s.dead = true;
    s.halted = true;
    s.deathAt = now_;
    exchange_.setNodeDown(i, true);
}

void
ParallelNetwork::stepShard(Shard &s, sim::Tick horizon)
{
    if (s.halted)
        return;
    s.kernel.run(horizon);
    // run() pins now() to the horizon unless stop() cut it short (a
    // halted core with stopOnHalt, or a model calling stop()). Freeze
    // such a shard: its time can no longer track the barrier grid.
    if (s.kernel.now() < horizon)
        s.halted = true;
}

void
ParallelNetwork::runWindow(sim::Tick horizon)
{
    const unsigned lanes = jobs_;
    if (lanes <= 1) {
        for (auto &s : shards_)
            stepShard(*s, horizon);
        return;
    }
    if (!pool_ || pool_->lanes() != lanes)
        pool_ = std::make_unique<sim::WorkerPool>(lanes - 1);
    pool_->dispatch([this, horizon, lanes](unsigned lane) {
        for (std::size_t i = lane; i < shards_.size(); i += lanes)
            stepShard(*shards_[i], horizon);
    });
}

void
ParallelNetwork::runFor(sim::Tick t)
{
    sim::fatalIf(!started_, "runFor() before start()");
    const sim::Tick target = now_ + t;
    while (now_ < target) {
        // One window rule: a window ends at the next grid point or at
        // the target. On a quiet air it stretches to the grid point
        // covering the earliest shard event or metrics deadline, but
        // always past now: an event left on the barrier tick itself
        // (a delivery quantized there) runs in the next window, as it
        // does when the air is busy. The rule reads only shard state
        // and the grid, never the lane count (docs/CHECKPOINT.md,
        // "Invariance fine print").
        sim::Tick horizon = std::min(target, gridNext(now_));
        if (horizon < target && exchange_.quiet()) {
            sim::Tick next = metricsOut_ ? metricsNext_ : sim::kMaxTick;
            for (const auto &s : shards_)
                if (!s->halted)
                    next = std::min(next, s->kernel.nextEventAt());
            horizon = next >= target
                          ? target
                          : std::min(target,
                                     std::max(horizon, gridCeil(next)));
        }
        runWindow(horizon);
        exchange_.exchangeAt(horizon);
        now_ = horizon;
        if (flowsOut_)
            drainFlowsNow();
        if (metricsOut_ && now_ >= metricsNext_) {
            sampleMetricsNow();
            while (metricsNext_ <= now_)
                metricsNext_ += metricsInterval_;
        }
    }
}

} // namespace snaple::net
