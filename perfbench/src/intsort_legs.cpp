#include "intsort_legs.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "sim/random.hpp"

namespace perfbench
{

namespace
{

constexpr std::uint64_t kPage = os::GuestSystem::kPageBytes;

/** Virtual span one vmAlloc of @p bytes consumes: its pages plus the
 *  guard page GuestSystem leaves after every range. */
std::uint64_t
vmSpan(std::uint64_t bytes)
{
    return ((bytes + kPage - 1) / kPage + 1) * kPage;
}

} // namespace

// The keys are regenerated here from the sort's seed, and the output
// array is found from runIntSort's allocation order (keys, staging,
// output, histograms, bases), each range followed by an untouched guard
// page; the guard pages around the output confirm it.
bool
outputIsPermutation(os::GuestSystem &guest, const NumaSort &in,
                    std::string &why)
{
    const workload::IntSortConfig &cfg = in.sort;
    const std::uint64_t n = cfg.keys;
    const auto workers = static_cast<std::uint32_t>(in.tiles.size());

    Addr next = guest.vmAlloc(1);
    Addr out = next - vmSpan(cfg.buckets * 8) -
               vmSpan(static_cast<std::uint64_t>(workers) * cfg.buckets * 8) -
               vmSpan(n * 8);
    Addr after = out + vmSpan(n * 8) - kPage;
    if (guest.pageNode(out - kPage) != -1 || guest.pageNode(out) < 0 ||
        guest.pageNode(after) != -1) {
        why = "output array not found where runIntSort allocates it";
        return false;
    }

    std::vector<std::uint32_t> expect(cfg.maxKey, 0);
    const std::uint64_t chunk = (n + workers - 1) / workers;
    for (std::uint32_t w = 0; w < workers; ++w) {
        sim::Xoroshiro rng(cfg.seed + w);
        std::uint64_t end = std::min(n, (w + 1) * chunk);
        for (std::uint64_t i = w * chunk; i < end; ++i)
            ++expect[rng.below(cfg.maxKey)];
    }
    mem::MainMemory &mem = guest.memorySystem().memory();
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t key = mem.load(guest.translate(out + i * 8, 0), 8);
        if (key >= cfg.maxKey || expect[key]-- == 0) {
            why = "output holds a key the input does not";
            return false;
        }
    }
    return true;
}

NumaSort
makeNumaSort(std::uint64_t seed, std::uint64_t keys, std::uint32_t buckets)
{
    NumaSort in;
    platform::PrototypeConfig cfg =
        platform::PrototypeConfig::parse(in.spec);
    const std::uint32_t threads = 12;
    for (std::uint32_t i = 0; i < threads; ++i) {
        in.tiles.push_back((i % cfg.totalNodes()) * cfg.tilesPerNode +
                           i / cfg.totalNodes());
    }
    in.sort.keys = keys;
    in.sort.buckets = buckets;
    in.sort.seed = seed;
    in.guestSeed = seed;
    return in;
}

SortLegResult
runSortLeg(const NumaSort &in, os::NumaMode mode, Spans &spans, Tally &tally)
{
    SortLegResult res;
    Leg &leg = res.leg;
    leg.name = mode == os::NumaMode::kOn ? "numa_on" : "numa_off";

    platform::PrototypeConfig cfg =
        platform::PrototypeConfig::parse(in.spec);
    cfg.llcSliceBytes = in.llcSliceBytes;

    std::unique_ptr<platform::Prototype> proto;
    std::unique_ptr<os::GuestSystem> guest;
    bool ran = true;
    spans.time("leg." + leg.name, leg.name, [&] {
        leg.buildS = spans.time("platform.build", leg.name, [&] {
            proto = std::make_unique<platform::Prototype>(cfg);
        });
        leg.guestS = spans.time("os.make_guest", leg.name, [&] {
            guest = proto->makeGuest(mode, in.guestSeed);
        });
        try {
            leg.runS = spans.time("workload.intsort", leg.name, [&] {
                res.result = workload::runIntSort(*guest, in.tiles, in.sort);
            });
        } catch (const std::exception &ex) {
            std::fprintf(stderr, "%s leg threw: %s\n", leg.name.c_str(),
                         ex.what());
            ran = false;
        }
    });
    readCounts(*proto, leg);
    leg.simCycles = res.result.cycles;
    leg.counts["sim.cycles"] = leg.simCycles;

    const std::string tag = leg.name + " leg";
    tally.record(ran, tag + " runs to its end");
    tally.record(ran && res.result.sorted, tag + ": runIntSort reports sorted");
    std::string why;
    bool perm = ran && outputIsPermutation(*guest, in, why);
    tally.record(perm, tag + ": output is a permutation of the input (" +
                           why + ")");
    return res;
}

double
numaRatio(const SortLegResult &on, const SortLegResult &off)
{
    return on.result.cycles
               ? static_cast<double>(off.result.cycles) /
                     static_cast<double>(on.result.cycles)
               : 0.0;
}

void
checkNumaPair(const SortLegResult &on, const SortLegResult &off,
              Tally &tally)
{
    double ratio = numaRatio(on, off);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "NUMA off/on cycles %.3fx lies in [%.1f, %.1f]", ratio,
                  kNumaRatioLow, kNumaRatioHigh);
    tally.record(ratio >= kNumaRatioLow && ratio <= kNumaRatioHigh, buf);
    std::snprintf(buf, sizeof buf,
                  "NUMA-off remote fraction %.4f exceeds NUMA-on %.4f",
                  off.result.remoteFraction, on.result.remoteFraction);
    tally.record(off.result.remoteFraction > on.result.remoteFraction, buf);
}

} // namespace perfbench
