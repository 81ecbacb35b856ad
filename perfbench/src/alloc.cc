/**
 * @file
 * A counting global allocator linked into the benchmark binary. It
 * counts bytes requested through operator new only while switched on,
 * which the traced run does around op::explore (the
 * operational.heap_bytes_per_state metric). Switched off — always in an
 * untraced run — it costs one relaxed load per allocation.
 */

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "bench.hh"

namespace {

std::atomic<bool> gCounting{false};
std::atomic<std::uint64_t> gBytes{0};

void *
allocate(std::size_t size, std::size_t align = 0)
{
    if (gCounting.load(std::memory_order_relaxed))
        gBytes.fetch_add(size, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    void *p = nullptr;
    if (align > alignof(std::max_align_t)) {
        if (posix_memalign(&p, align, size) != 0)
            p = nullptr;
    } else {
        p = std::malloc(size);
    }
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

namespace perfbench {

void
setAllocCounting(bool on)
{
    gCounting.store(on, std::memory_order_relaxed);
}

std::uint64_t
allocatedBytes()
{
    return gBytes.load(std::memory_order_relaxed);
}

} // namespace perfbench

void *operator new(std::size_t size) { return allocate(size); }
void *operator new[](std::size_t size) { return allocate(size); }

void *
operator new(std::size_t size, std::align_val_t align)
{
    return allocate(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return allocate(size, static_cast<std::size_t>(align));
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return allocate(size);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return allocate(size);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
