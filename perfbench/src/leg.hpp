/**
 * @file
 * Bookkeeping shared by every workload: the operation tally and one
 * leg's measurements.
 *
 * A leg is one timed call (runIntSort or runCores) on a fresh prototype,
 * so the modelled caches start empty. Every leg and every check of its
 * outputs is one operation of the tally.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "platform/prototype.hpp"

namespace perfbench
{

using namespace smappic;

/** Operations attempted and failed in one run. */
class Tally
{
  public:
    /** Counts one operation; a failure is reported on stderr and makes
     *  the run incorrect. @return @p ok. */
    bool record(bool ok, const std::string &what);

    /**
     * Counts one operation that a known, named fault of the simulator
     * makes fail. It counts as failed but leaves the run correct, since
     * correctness speaks of the operations that did not fail. A pass is
     * reported, as it means the fault did not show.
     */
    bool recordKnown(bool ok, const std::string &what,
                     const std::string &fault);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool correct() const { return correct_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool correct_ = true;
};

/** One leg's host times and the program's own counts after it. */
struct Leg
{
    std::string name; ///< numa_on, numa_off, default, w1 or w2.
    double buildS = 0; ///< Prototype construction.
    double loadS = 0;  ///< Program assembly and load.
    double guestS = 0; ///< Guest-OS creation.
    double runS = 0;   ///< The timed call.
    /** Memory-system accesses, from the cs.* counters. */
    std::uint64_t accesses = 0;
    /** Retired RV64 instructions (summed over harts). */
    std::uint64_t instret = 0;
    /** Simulated cycles: the sort's elapsed virtual time, or the last
     *  hart's cycle count. */
    std::uint64_t simCycles = 0;
    /** Phased engine only: final barrier cycle / quantum. */
    std::uint64_t epochs = 0;
    /** Per-layer counts read from the program, keyed by metric name. */
    std::map<std::string, std::uint64_t> counts;

    double setupS() const { return buildS + loadS + guestS; }
};

/** Fills @p leg's accesses, instret and per-layer counts from @p proto. */
void readCounts(platform::Prototype &proto, Leg &leg);

} // namespace perfbench
