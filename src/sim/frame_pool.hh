/**
 * @file
 * Pooled allocator for coroutine frames.
 *
 * Every timed sub-call in the model (an SRAM access, a bus transfer, a
 * functional-unit operation) is a Co<T> coroutine, so the simulator
 * creates and destroys a coroutine frame per call — with the default
 * promise allocator that is a malloc/free pair on the hottest path in
 * the tree. This pool recycles frames through size-class free lists:
 * after a short warm-up every frame size in the working set hits the
 * free list and the allocator is never touched again (the steady-state
 * no-allocation invariant the kernel's event arena also maintains).
 *
 * Single-threaded by design (each shard kernel is single-threaded);
 * the pool is thread-local so independent kernels on different threads
 * do not contend. The *main* thread's pool is intentionally leaked at
 * process exit so coroutine frames owned by objects with static
 * storage duration can still be released safely during program
 * teardown. Short-lived worker threads (sim/worker_pool.hh) must not
 * leak one pool per thread, so they call releaseThreadFramePool() on
 * their way out; frames they allocated that are still live simply
 * migrate to whichever thread's pool eventually releases them (blocks
 * are freed by size class, never returned to a specific owner).
 */

#ifndef SNAPLE_SIM_FRAME_POOL_HH
#define SNAPLE_SIM_FRAME_POOL_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace snaple::sim::detail {

/** Size-class free-list pool for coroutine frames. */
class FramePool
{
  public:
    FramePool() = default;
    FramePool(const FramePool &) = delete;
    FramePool &operator=(const FramePool &) = delete;

    ~FramePool()
    {
        for (auto &list : lists_)
            for (void *p : list)
                ::operator delete(p);
    }

    void *
    allocate(std::size_t bytes)
    {
        const std::size_t cls = sizeClass(bytes);
        if (cls < kClasses && !lists_[cls].empty()) {
            void *p = lists_[cls].back();
            lists_[cls].pop_back();
            return p;
        }
        return ::operator new(classBytes(cls));
    }

    void
    release(void *p, std::size_t bytes) noexcept
    {
        const std::size_t cls = sizeClass(bytes);
        if (cls < kClasses) {
            // push_back can in principle throw; trade that corner for
            // determinism by reserving in chunks ahead of need.
            auto &list = lists_[cls];
            if (list.size() == list.capacity())
                list.reserve(list.empty() ? 16 : 2 * list.capacity());
            list.push_back(p);
        } else {
            ::operator delete(p);
        }
    }

  private:
    /// Frames are rounded up to 64-byte classes; frames above 2 KB
    /// (none exist in the tree today) fall back to the host allocator.
    static constexpr std::size_t kGranule = 64;
    static constexpr std::size_t kClasses = 32;

    static std::size_t
    sizeClass(std::size_t bytes)
    {
        return (bytes + kGranule - 1) / kGranule;
    }

    static std::size_t
    classBytes(std::size_t cls)
    {
        return cls * kGranule;
    }

    std::vector<void *> lists_[kClasses];
};

inline FramePool *&
framePoolSlot()
{
    thread_local FramePool *pool = nullptr;
    return pool;
}

/** The calling thread's frame pool (see the file header for when it
 *  is — deliberately — never destroyed). */
inline FramePool &
framePool()
{
    FramePool *&slot = framePoolSlot();
    if (!slot)
        slot = new FramePool;
    return *slot;
}

/**
 * Free the calling thread's pool and every frame cached in it. For
 * worker threads about to exit; never call it on a thread that may
 * still run simulation code afterwards without re-entering through
 * framePool().
 */
inline void
releaseThreadFramePool()
{
    FramePool *&slot = framePoolSlot();
    delete slot;
    slot = nullptr;
}

} // namespace snaple::sim::detail

#endif // SNAPLE_SIM_FRAME_POOL_HH
