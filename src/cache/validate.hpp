/**
 * @file
 * Validation of the cache-hierarchy configuration (DESIGN.md
 * "Resilience").
 *
 * `validate(HierarchyConfig)` checks every user-settable size, depth
 * and latency; `validateArrayGeometry` is the shared check behind each
 * CacheArray construction (capacity/ways divisibility), so a malformed
 * cache size surfaces as a ConfigError with the array's name instead
 * of an assert (or a zero-set array and division weirdness).
 */

#ifndef PEARL_CACHE_VALIDATE_HPP
#define PEARL_CACHE_VALIDATE_HPP

#include <cstdint>

#include "cache/config.hpp"
#include "common/expected.hpp"

namespace pearl {
namespace cache {

/** Geometry constraints every set-associative array shares.  `what`
 *  names the array in the message (e.g. "cpuL2"). */
inline Validation
validateArrayGeometry(const char *what, std::uint64_t total_lines,
                      int ways)
{
    if (ways <= 0)
        return configError(what, ": associativity must be > 0 ways, "
                           "got ", ways);
    if (ways > 64)
        return configError(what, ": associativity must be <= 64 ways "
                           "(victim scan bound), got ", ways);
    if (total_lines == 0)
        return configError(what, ": capacity must be > 0 lines");
    if (total_lines % static_cast<std::uint64_t>(ways) != 0)
        return configError(what, ": capacity (", total_lines,
                           " lines) must be divisible by the ",
                           ways, "-way associativity");
    return {};
}

/** Validate the full Table I cache-hierarchy configuration. */
inline Validation
validate(const HierarchyConfig &cfg)
{
    if (cfg.cpuCoresPerCluster <= 0 || cfg.gpuCusPerCluster <= 0)
        return configError("cluster composition must be > 0, got "
                           "cpuCoresPerCluster=", cfg.cpuCoresPerCluster,
                           " gpuCusPerCluster=", cfg.gpuCusPerCluster);
    // A cluster has 2*cpu + gpu L1s, and L2 lines record which of them
    // hold a copy in an 8-bit mask: a 9th L1 would alias bit 0, so its
    // copy would survive the eviction or probe meant to drop it.
    const std::int64_t l1s =
        std::int64_t{2} * cfg.cpuCoresPerCluster + cfg.gpuCusPerCluster;
    if (l1s > 8)
        return configError("cluster composition needs 2*cpuCoresPerCluster"
                           " + gpuCusPerCluster <= 8 L1s (the L2's 8-bit "
                           "L1 mask), got cpuCoresPerCluster=",
                           cfg.cpuCoresPerCluster, " gpuCusPerCluster=",
                           cfg.gpuCusPerCluster);

    struct ArraySpec
    {
        const char *name;
        std::uint64_t lines;
        int ways;
    };
    const ArraySpec arrays[] = {
        {"cpuL1I", cfg.cpuL1ILines, cfg.l1Ways},
        {"cpuL1D", cfg.cpuL1DLines, cfg.l1Ways},
        {"gpuL1", cfg.gpuL1Lines, cfg.l1Ways},
        {"cpuL2", cfg.cpuL2Lines, cfg.l2Ways},
        {"gpuL2", cfg.gpuL2Lines, cfg.l2Ways},
        {"l3", cfg.l3Lines, cfg.l3Ways},
    };
    for (const ArraySpec &a : arrays) {
        if (Validation v = validateArrayGeometry(a.name, a.lines, a.ways);
            !v)
            return v;
    }

    if (cfg.l2AccessCycles == 0 || cfg.l3AccessCycles == 0 ||
        cfg.memoryCycles == 0)
        return configError("access latencies must be > 0 cycles, got "
                           "l2=", cfg.l2AccessCycles, " l3=",
                           cfg.l3AccessCycles, " memory=",
                           cfg.memoryCycles);
    if (cfg.cpuL2MshrEntries <= 0 || cfg.gpuL2MshrEntries <= 0)
        return configError("MSHR entries must be > 0, got cpu=",
                           cfg.cpuL2MshrEntries, " gpu=",
                           cfg.gpuL2MshrEntries);
    if (cfg.cpuCoreMaxOutstanding <= 0 || cfg.gpuCoreMaxOutstanding <= 0)
        return configError("core outstanding-miss limits must be > 0, "
                           "got cpu=", cfg.cpuCoreMaxOutstanding,
                           " gpu=", cfg.gpuCoreMaxOutstanding);
    return {};
}

} // namespace cache
} // namespace pearl

#endif // PEARL_CACHE_VALIDATE_HPP
