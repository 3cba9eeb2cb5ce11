/**
 * @file
 * The RV64 workloads: one loop kernel replicated on every hart of a
 * 4x1x4 prototype, with golden values computed in C++ from the loop's
 * definition.
 *
 * Every hart reads its parameters (multiplier, addend, iteration count,
 * own data address, peer address, checksum address) from a table the
 * benchmark writes after loading, then repeats x = x * mult + add over
 * its own data, summing each new x into a checksum that it stores before
 * exiting 0. The program text never depends on the seed, so the retired
 * instruction count is a pure function of the iteration count.
 *
 *   - Node-local: each hart updates 64 private dwords (one 512-byte
 *     region in its own node's program replica) per iteration; every
 *     access is an L1 hit once the region is warm.
 *   - False sharing: each hart updates its own 8-byte slot in one of two
 *     cache lines shared with harts on the other nodes, and loads one
 *     slot owned by a hart on the next node every iteration. Each slot
 *     has a single writer, so the final image does not depend on the
 *     schedule; the value of the peer load is discarded.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "leg.hpp"
#include "spans.hpp"

namespace perfbench
{

enum class LoopKind
{
    kNodeLocal,
    kFalseShare,
};

/** Which engine runCores() uses for a leg. */
enum class Engine
{
    kDefault, ///< Whatever a default PrototypeConfig runs.
    kPhased1, ///< Phased engine, 1 worker, PCIe lookahead quantum.
    kPhased2, ///< Phased engine, 2 workers (fewer if the host has fewer).
};

/** A loop kernel and its seeded inputs. */
struct RvLoop
{
    LoopKind kind = LoopKind::kNodeLocal;
    std::string spec = "4x1x4";
    std::uint64_t iterations = 0;
    std::vector<std::uint64_t> mult;   ///< Per hart, odd.
    std::vector<std::uint64_t> addend; ///< Per hart.
    /** Initial data, wordsPerHart() words per hart. */
    std::vector<std::uint64_t> init;

    std::uint32_t harts() const
    {
        return static_cast<std::uint32_t>(mult.size());
    }
    std::uint32_t wordsPerHart() const
    {
        return kind == LoopKind::kNodeLocal ? 64 : 1;
    }
};

/** Words per hart of the node-local kernel's private region. */
inline constexpr std::uint32_t kNodeLocalWords = 64;

RvLoop makeNodeLocal(std::uint64_t seed, std::uint64_t iterations);
RvLoop makeFalseShare(std::uint64_t seed, std::uint64_t iterations);

/** What a correct run leaves behind, computed without the simulator. */
struct Golden
{
    std::vector<std::uint64_t> data;     ///< Final words, per hart.
    std::vector<std::uint64_t> checksum; ///< Per hart.
    std::uint64_t instretPerHart = 0;
};

Golden goldenOf(const RvLoop &loop);

/** Retired instructions per hart implied by the loop's definition. */
std::uint64_t instretPerHart(LoopKind kind, std::uint64_t iterations);

/** Leg name of an engine: default, w1 or w2. */
const char *engineLeg(Engine e);

/** One leg's measurements plus its stat dump. */
struct RvLegResult
{
    Leg leg;
    std::string statDump;
};

/**
 * Builds a fresh prototype for @p e, loads @p loop, runs every hart with
 * runCores() and checks exits, data, checksums and retired instructions
 * against @p golden. The leg and each check count in @p tally.
 * @param workers Worker threads of the kPhased2 leg.
 */
RvLegResult runRvLeg(const RvLoop &loop, Engine e, std::uint32_t workers,
                     const Golden &golden, Spans &spans, Tally &tally);

} // namespace perfbench
