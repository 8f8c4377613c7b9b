/**
 * @file
 * Validation of the CMESH baseline configuration (DESIGN.md
 * "Resilience").  Checks every user-settable field before a
 * CmeshNetwork is built, so a bad sweep spec becomes a ConfigError
 * with the offending field named instead of an assert in the
 * constructor.
 */

#ifndef PEARL_ELECTRICAL_VALIDATE_HPP
#define PEARL_ELECTRICAL_VALIDATE_HPP

#include "common/expected.hpp"
#include "electrical/cmesh.hpp"

namespace pearl {
namespace electrical {

/** Validate a CMESH baseline configuration. */
inline Validation
validate(const CmeshConfig &cfg)
{
    if (cfg.meshX <= 0 || cfg.meshY <= 0)
        return configError("cmesh mesh dimensions must be > 0, got ",
                           cfg.meshX, "x", cfg.meshY);
    if (cfg.numVcs < 2 || cfg.numVcs % 2 != 0)
        return configError("cmesh.numVcs must be even and >= 2 (the "
                           "halves carry request/response classes), "
                           "got ", cfg.numVcs);
    if (cfg.numVcs > CmeshNetwork::kMaxVcs)
        return configError("cmesh.numVcs must be <= ",
                           CmeshNetwork::kMaxVcs, " (the MC router's ",
                           CmeshNetwork::kMaxPorts,
                           " ports x numVcs input VCs must fit one 64-bit "
                           "mask), got ", cfg.numVcs);
    if (cfg.vcDepthFlits <= 0)
        return configError("cmesh.vcDepthFlits must be > 0, got ",
                           cfg.vcDepthFlits);
    if (cfg.l3Router < 0 || cfg.l3Router >= cfg.meshX * cfg.meshY)
        return configError("cmesh.l3Router must be a router id in [0, ",
                           cfg.meshX * cfg.meshY - 1, "], got ",
                           cfg.l3Router);
    if (cfg.injectionQueueDepth <= 0)
        return configError("cmesh.injectionQueueDepth must be > 0, "
                           "got ", cfg.injectionQueueDepth);
    if (cfg.clusterLocalFlitsPerCycle <= 0 ||
        cfg.mcLocalFlitsPerCycle <= 0)
        return configError("cmesh local interface widths must be > 0 "
                           "flits/cycle, got cluster=",
                           cfg.clusterLocalFlitsPerCycle, " mc=",
                           cfg.mcLocalFlitsPerCycle);
    if (cfg.linkCyclesPerFlit <= 0)
        return configError("cmesh.linkCyclesPerFlit must be > 0, got ",
                           cfg.linkCyclesPerFlit);
    return {};
}

} // namespace electrical
} // namespace pearl

#endif // PEARL_ELECTRICAL_VALIDATE_HPP
