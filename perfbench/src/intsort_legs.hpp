/**
 * @file
 * The NUMA study: workload::runIntSort on 4x1x12 with 12 threads spread
 * over the 4 nodes and Fig 9's scaled-down LLC slice, once with the guest
 * kernel's NUMA mode on and once with it off, each on a fresh prototype.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "leg.hpp"
#include "spans.hpp"
#include "workload/intsort.hpp"

namespace perfbench
{

/** The paper's band for NUMA-off / NUMA-on runtime (Figs 8-9). */
inline constexpr double kNumaRatioLow = 1.6;
inline constexpr double kNumaRatioHigh = 2.8;

/** The sort's inputs. */
struct NumaSort
{
    std::string spec = "4x1x12";
    std::uint64_t llcSliceBytes = 8 << 10; ///< Fig 9's scale-down.
    std::vector<GlobalTileId> tiles;       ///< Thread i on node i % 4.
    workload::IntSortConfig sort;          ///< Keys come from sort.seed.
    std::uint64_t guestSeed = 1; ///< NUMA-off page placement stream.
};

NumaSort makeNumaSort(std::uint64_t seed, std::uint64_t keys,
                      std::uint32_t buckets);

/** One sort leg's measurements and the sort's own result. */
struct SortLegResult
{
    Leg leg;
    workload::IntSortResult result;
};

/**
 * Builds a fresh prototype and guest in @p mode and runs the sort. The
 * leg, the sort's own `sorted` flag and the benchmark's permutation check
 * (the output holds exactly the input keys) count in @p tally.
 */
SortLegResult runSortLeg(const NumaSort &in, os::NumaMode mode,
                         Spans &spans, Tally &tally);

/**
 * True when the sort's output array, found in @p guest after runIntSort
 * returned, holds exactly the keys @p in generates; otherwise false with
 * the reason in @p why.
 */
bool outputIsPermutation(os::GuestSystem &guest, const NumaSort &in,
                         std::string &why);

/** NUMA-off / NUMA-on simulated cycles. */
double numaRatio(const SortLegResult &on, const SortLegResult &off);

/**
 * Checks a NUMA on/off pair: the cycle ratio lies in the paper's band and
 * NUMA off services a larger fraction of misses remotely. Two operations.
 */
void checkNumaPair(const SortLegResult &on, const SortLegResult &off,
                   Tally &tally);

} // namespace perfbench
