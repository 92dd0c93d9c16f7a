/**
 * @file
 * Host-driven transceivers on the network harness, for channel tests.
 *
 * Each radio gets its own shard of a net::ParallelNetwork: the shard's
 * node runs an idle guest with no radio of its own, and the test
 * attaches a host-owned Transceiver to the shard's medium instead. So
 * words travel through the real AirExchange, but land in a receive
 * FIFO that no message coprocessor drains, and the test drives
 * transmissions from the shard kernels.
 */

#ifndef SNAPLE_TESTS_RADIO_HOST_RADIOS_HH
#define SNAPLE_TESTS_RADIO_HOST_RADIOS_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "asm/snap_backend.hh"
#include "core/context.hh"
#include "net/parallel_network.hh"
#include "radio/transceiver.hh"

namespace snaple::test {

/** Transmit @p words back to back, starting @p at ticks from now. */
inline sim::Co<void>
txWords(radio::Transceiver &t, std::vector<std::uint16_t> words,
        sim::Tick at = 0)
{
    co_await t.kernel().delay(at);
    for (auto w : words) {
        sim::Tick end = t.transmitStart(w);
        co_await t.kernel().delay(end - t.kernel().now());
    }
}

/** Non-blocking pop for test assertions (plain context). */
inline std::optional<std::uint16_t>
popWord(sim::Fifo<std::uint16_t> &f)
{
    auto aw = f.recv();
    if (!aw.await_ready())
        return std::nullopt;
    return aw.slot;
}

/** One shard per radio; radio i is node i of the network. */
class HostRadios
{
  public:
    static constexpr sim::Tick kPropagation = 1 * sim::kMicrosecond;

    HostRadios() : net(kPropagation) {}

    /** Add a radio; in field mode also place it at (xM, yM). */
    radio::Transceiver &
    add(const radio::RadioConfig &rc = {}, double xM = 0, double yM = 0)
    {
        node::NodeConfig cfg;
        cfg.name = "r" + std::to_string(net.size());
        cfg.attachRadio = false;
        cfg.core.stopOnHalt = false;
        const std::size_t i = net.size();
        net.addNode(cfg, assembler::assembleSnap("boot:\n    done\n"));
        if (net.fieldMode())
            net.setNodePosition(i, xM, yM);
        ctxs_.push_back(
            std::make_unique<core::NodeContext>(net.shardKernel(i)));
        radios_.push_back(std::make_unique<radio::Transceiver>(
            *ctxs_.back(), net.shardMedium(i), rc));
        return *radios_.back();
    }

    /** Field mode: add a default radio at (xM, yM). */
    radio::Transceiver &at(double xM, double yM) { return add({}, xM, yM); }

    /**
     * Start the network. The sync window defaults to the one start()
     * derives when the nodes own their radios: one word airtime plus
     * the propagation delay.
     */
    void
    start(sim::Tick window = 0)
    {
        net.setWindow(window ? window
                             : radios_.front()->wordAirtime() +
                                   kPropagation);
        net.start();
    }

    /** Run @p words out of radio @p i, @p at ticks from its now. */
    void
    transmit(std::size_t i, std::vector<std::uint16_t> words,
             sim::Tick at = 0)
    {
        net.shardKernel(i).spawn(txWords(radio(i), std::move(words), at));
    }

    radio::Transceiver &radio(std::size_t i) { return *radios_.at(i); }
    core::NodeContext &ctx(std::size_t i) { return *ctxs_.at(i); }

    net::ParallelNetwork net;

  private:
    std::vector<std::unique_ptr<core::NodeContext>> ctxs_;
    std::vector<std::unique_ptr<radio::Transceiver>> radios_;
};

} // namespace snaple::test

#endif // SNAPLE_TESTS_RADIO_HOST_RADIOS_HH
