/**
 * @file
 * Layer probes: host time of one public call into one layer, each on a
 * fresh prototype.
 *
 * Every probe repeats blocks of calls and reports the median over blocks
 * of host nanoseconds per call. The cache probes time
 * CoherentSystem::access at one service level each and confirm from the
 * returned ServiceLevel that every timed call landed there.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench
{

struct Probe
{
    std::string name; ///< Per-layer metric name.
    double ns = 0;    ///< Median host ns per call.
    /** Every timed call was serviced where the probe's name says. */
    bool landed = true;
};

/** Runs every probe with @p blocks blocks each. */
std::vector<Probe> runProbes(Spans &spans, std::uint32_t blocks);

/** The cache probes alone (cache.access_ns.*). */
std::vector<Probe> runCacheProbes(Spans &spans, std::uint32_t blocks);

} // namespace perfbench
