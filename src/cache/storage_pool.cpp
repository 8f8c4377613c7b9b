#include "cache/storage_pool.hpp"

#include <new>

namespace pearl {
namespace cache {
namespace {

/** Make `bytes` at `p` unreadable (AddressSanitizer builds only). */
void
poisonStorage(const void *p, std::size_t bytes)
{
#if defined(__SANITIZE_ADDRESS__)
    ASAN_POISON_MEMORY_REGION(p, bytes);
#else
    (void)p;
    (void)bytes;
#endif
}

} // namespace

StoragePool::~StoragePool()
{
    for (const Pooled &pooled : pooled_)
        release(pooled);
}

StoragePool &
StoragePool::shared()
{
    static StoragePool pool;
    return pool;
}

void *
StoragePool::take(std::size_t bytes)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = pooled_.end(); it != pooled_.begin();) {
        if ((--it)->bytes == bytes) {
            void *const block = it->block;
            pooled_.erase(it);
            return block;
        }
    }
    // No block of this size: free the oldest until at least `bytes` have
    // been released, before allocating, so the allocator can reuse them.
    auto kept = pooled_.begin();
    for (std::size_t released = 0;
         kept != pooled_.end() && released < bytes; ++kept) {
        released += kept->bytes;
        release(*kept);
    }
    pooled_.erase(pooled_.begin(), kept);
    void *const block = ::operator new(bytes);
    poisonStorage(block, bytes);
    return block;
}

void
StoragePool::give(void *block, std::size_t bytes)
{
    poisonStorage(block, bytes);
    const std::lock_guard<std::mutex> lock(mutex_);
    pooled_.push_back(Pooled{bytes, block});
}

std::size_t
StoragePool::pooledBytes() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::size_t bytes = 0;
    for (const Pooled &pooled : pooled_)
        bytes += pooled.bytes;
    return bytes;
}

void
StoragePool::release(const Pooled &pooled)
{
    unpoisonStorage(pooled.block, pooled.bytes);
    ::operator delete(pooled.block, pooled.bytes);
}

} // namespace cache
} // namespace pearl
