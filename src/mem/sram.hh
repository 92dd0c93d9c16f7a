/**
 * @file
 * On-chip asynchronous SRAM bank model.
 *
 * SNAP/LE has two 4 KB banks (IMEM and DMEM) and no caches. The model
 * charges per-access energy and delay; an idle bank has no switching
 * activity, consistent with the QDI design style (the paper cites an
 * asynchronous on-chip memory design [18]).
 *
 * Timed accesses (read/write) are custom awaitables rather than Co<T>
 * coroutines: an SRAM access is the single hottest timed operation in
 * the tree (every instruction fetch is one), and a custom awaiter
 * charges energy and schedules (or takes inline) the resume without
 * materializing a coroutine frame. peek/poke/load are zero-cost
 * host-side accessors for loaders and tests.
 */

#ifndef SNAPLE_MEM_SRAM_HH
#define SNAPLE_MEM_SRAM_HH

#include <coroutine>
#include <cstdint>
#include <vector>

#include "core/context.hh"
#include "isa/isa.hh"
#include "sim/task.hh"

namespace snaple::mem {

/** Which bank a Sram instance models (selects calibration values). */
enum class Bank
{
    Imem,
    Dmem,
};

/** One word-addressed on-chip SRAM bank. */
class Sram
{
  public:
    Sram(core::NodeContext &ctx, Bank bank,
         std::size_t words = isa::kMemWords)
        : ctx_(ctx), bank_(bank), data_(words, 0)
    {}

    std::size_t words() const { return data_.size(); }

    /** Awaitable timed read (frame-free; see file header). */
    struct ReadOp
    {
        Sram &sram;
        std::uint16_t addr;

        bool await_ready() const noexcept { return false; }

        bool
        await_suspend(std::coroutine_handle<> h) const
        {
            return sram.wakeAfterAccess(/*is_read=*/true, h);
        }

        std::uint16_t await_resume() const { return sram.data_[addr]; }
    };

    /** Awaitable timed write. */
    struct WriteOp
    {
        Sram &sram;
        std::uint16_t addr;
        std::uint16_t value;

        bool await_ready() const noexcept { return false; }

        bool
        await_suspend(std::coroutine_handle<> h) const
        {
            return sram.wakeAfterAccess(/*is_read=*/false, h);
        }

        void await_resume() const { sram.data_[addr] = value; }
    };

    /** Timed read: access delay plus per-access energy. */
    ReadOp
    read(std::uint16_t addr)
    {
        check(addr);
        return ReadOp{*this, addr};
    }

    /** Timed write. */
    WriteOp
    write(std::uint16_t addr, std::uint16_t value)
    {
        check(addr);
        return WriteOp{*this, addr, value};
    }

    /** Raw backing store, for the fast fidelity tier's interpreter
     *  (which prices whole instructions: core/instr_cost.hh). */
    std::uint16_t *data() { return data_.data(); }

    /** Host-side read without cost (loaders, tests, benches). */
    std::uint16_t
    peek(std::uint16_t addr) const
    {
        check(addr);
        return data_[addr];
    }

    /** Host-side write without cost. */
    void
    poke(std::uint16_t addr, std::uint16_t value)
    {
        check(addr);
        data_[addr] = value;
    }

    /** Load an image starting at address 0 (program loader). */
    void
    load(const std::vector<std::uint16_t> &image)
    {
        sim::fatalIf(image.size() > data_.size(),
                     "program image (", image.size(),
                     " words) exceeds memory bank (", data_.size(), ")");
        for (std::size_t i = 0; i < image.size(); ++i)
            data_[i] = image[i];
    }

  private:
    /** Charge one access and return its delay in ticks. */
    sim::Tick
    chargeAccess(bool is_read)
    {
        if (bank_ == Bank::Imem) {
            ctx_.charge(energy::Cat::Imem, is_read ? ctx_.ecal.imemReadPj
                                                   : ctx_.ecal.imemWritePj);
            return ctx_.gd(is_read ? ctx_.tcal.imemReadGd
                                   : ctx_.tcal.imemWriteGd);
        }
        ctx_.charge(energy::Cat::Dmem, is_read ? ctx_.ecal.dmemReadPj
                                               : ctx_.ecal.dmemWritePj);
        return ctx_.gd(is_read ? ctx_.tcal.dmemReadGd
                               : ctx_.tcal.dmemWriteGd);
    }

    /** Charge one access, then wake @p h after its delay (inline when
     *  that is the kernel's next event; see Kernel::suspendUntil). */
    bool
    wakeAfterAccess(bool is_read, std::coroutine_handle<> h)
    {
        const sim::Tick d = chargeAccess(is_read);
        return ctx_.kernel.suspendUntil(ctx_.kernel.now() + d, h);
    }

    void
    check(std::uint16_t addr) const
    {
        sim::fatalIf(addr >= data_.size(),
                     bank_ == Bank::Imem ? "IMEM" : "DMEM",
                     " address out of range: ", addr);
    }

    core::NodeContext &ctx_;
    Bank bank_;
    std::vector<std::uint16_t> data_;
};

} // namespace snaple::mem

#endif // SNAPLE_MEM_SRAM_HH
