/**
 * @file
 * Process-wide recycling of CacheArray storage.
 *
 * A sweep builds and destroys one chip per job, each with about 17 MB
 * of cache lines and shadow tags (DESIGN.md "Hot path").  Handed back
 * to glibc, that storage is trimmed out of the worker threads' arenas,
 * and the next job faults every page of it back in, zeroed.  The pool
 * keeps a destroyed array's block instead and hands it to the next
 * array that asks for the same byte size, whose first touches then
 * land on pages that are already resident.
 *
 * Bound: when no pooled block has the requested size, the pool first
 * frees pooled blocks, oldest first, until at least the requested size
 * has been released.  Pooled plus live bytes therefore never exceed
 * the peak of live bytes, with no cap to configure.
 *
 * Under AddressSanitizer every block the pool hands out is poisoned
 * whole, and every block given back is poisoned again; the user
 * unpoisons what it constructs.  A read of a pooled block, or of a part
 * its user never built, fails the run with `use-after-poison`.
 *
 * Private to the cache layer: CacheArray is its only user.
 */

#ifndef PEARL_CACHE_STORAGE_POOL_HPP
#define PEARL_CACHE_STORAGE_POOL_HPP

#include <cstddef>
#include <mutex>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace pearl {
namespace cache {

/** Make `bytes` at `p` readable again (AddressSanitizer builds only). */
inline void
unpoisonStorage(const void *p, std::size_t bytes)
{
#if defined(__SANITIZE_ADDRESS__)
    ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#else
    (void)p;
    (void)bytes;
#endif
}

/** Blocks of raw storage, recycled by byte size; thread-safe. */
class StoragePool
{
  public:
    StoragePool() = default;
    StoragePool(const StoragePool &) = delete;
    StoragePool &operator=(const StoragePool &) = delete;

    /** Frees every pooled block (blocks still handed out stay with
     *  their holders). */
    ~StoragePool();

    /**
     * The pool every CacheArray uses.  It is built by the first array's
     * constructor, so it is destroyed after every array, static ones
     * included: an object's destructor runs after those of every object
     * whose construction completed later.
     */
    static StoragePool &shared();

    /**
     * A poisoned block of `bytes` (> 0), aligned as `operator new`
     * aligns: the block given back most recently with this size, or a
     * new one.
     */
    void *take(std::size_t bytes);

    /** Pool `block`, which take(`bytes`) returned. */
    void give(void *block, std::size_t bytes);

    /** Bytes held in pooled blocks (tests). */
    std::size_t pooledBytes() const;

  private:
    struct Pooled
    {
        std::size_t bytes;
        void *block;
    };

    /** Unpoison and free a block. */
    static void release(const Pooled &pooled);

    mutable std::mutex mutex_;
    /** Pooled blocks, oldest first. */
    std::vector<Pooled> pooled_;
};

} // namespace cache
} // namespace pearl

#endif // PEARL_CACHE_STORAGE_POOL_HPP
