#include "probes.hpp"

#include <algorithm>
#include <functional>

#include "platform/prototype.hpp"

namespace perfbench
{

using namespace smappic;

namespace
{

using cache::AccessType;
using cache::ServiceLevel;

constexpr const char *kSpec = "4x1x4";
constexpr std::uint32_t kLinesPerBlock = 64;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/**
 * Median over @p blocks of host ns per call of @p body, which runs
 * @p calls times per block after an untimed @p setup.
 */
double
blockNs(std::uint32_t blocks, std::uint32_t calls,
        const std::function<void(std::uint32_t)> &setup,
        const std::function<void(std::uint32_t, std::uint32_t)> &body)
{
    std::vector<double> per_call;
    for (std::uint32_t b = 0; b < blocks; ++b) {
        setup(b);
        Clock::time_point t0 = Clock::now();
        for (std::uint32_t i = 0; i < calls; ++i)
            body(b, i);
        per_call.push_back(secondsSince(t0) * 1e9 / calls);
    }
    return median(per_call);
}

/** A fresh prototype whose memory system is driven directly. */
class CacheRig
{
  public:
    CacheRig()
        : proto_(platform::PrototypeConfig::parse(kSpec)),
          cs_(proto_.memorySystem())
    {
    }

    cache::CoherentSystem &cs() { return cs_; }
    std::uint32_t tilesPerNode() const
    {
        return proto_.config().tilesPerNode;
    }

    /** @p count consecutive lines homed on @p node, from the first line
     *  addressHomedAt returns for the node's tile 1 onwards. */
    std::vector<Addr>
    linesOn(NodeId node, std::uint32_t count)
    {
        std::vector<Addr> lines;
        Addr a = proto_.addressHomedAt(node * tilesPerNode() + 1);
        for (; lines.size() < count; a += 64) {
            if (cs_.homeOf(a).first == node)
                lines.push_back(a);
        }
        return lines;
    }

    /** One access at a fresh virtual time, far enough from the last
     *  that no modelled queue is still busy. */
    ServiceLevel
    access(GlobalTileId gid, Addr addr, AccessType type)
    {
        now_ += 100'000;
        return cs_.access(gid, addr, type, 8, now_).level;
    }

  private:
    platform::Prototype proto_;
    cache::CoherentSystem &cs_;
    Cycles now_ = 0;
};

/** Runs @p fn on a fresh rig inside a span; @p fn returns ns per call
 *  and clears its flag when a timed call misses its level. */
Probe
cacheProbe(Spans &spans, const std::string &name,
           const std::function<double(CacheRig &, bool &)> &fn)
{
    Probe p;
    p.name = name;
    spans.time(name, "probe", [&] {
        CacheRig rig;
        p.ns = fn(rig, p.landed);
    });
    return p;
}

/** Probe body for loads (or fetch-warmed loads) that must all land at
 *  @p want; @p warm runs untimed before every block. */
double
loadsAt(CacheRig &rig, bool &landed, std::uint32_t blocks,
        const std::vector<Addr> &lines, ServiceLevel want,
        const std::function<void(std::uint32_t)> &warm)
{
    return blockNs(blocks, static_cast<std::uint32_t>(lines.size()), warm,
                   [&](std::uint32_t, std::uint32_t i) {
                       landed = landed && rig.access(0, lines[i],
                                                     AccessType::kLoad) ==
                                              want;
                   });
}

} // namespace

std::vector<Probe>
runCacheProbes(Spans &spans, std::uint32_t blocks)
{
    std::vector<Probe> out;

    out.push_back(cacheProbe(
        spans, "cache.access_ns.l1", [&](CacheRig &rig, bool &ok) {
            std::vector<Addr> line = rig.linesOn(0, 1);
            rig.access(0, line[0], AccessType::kLoad);
            std::vector<Addr> same(kLinesPerBlock, line[0]);
            return loadsAt(rig, ok, blocks, same, ServiceLevel::kL1,
                           [](std::uint32_t) {});
        }));

    // A fetch fills the L1I and the BPC; the load then misses the L1D
    // and hits the BPC.
    out.push_back(cacheProbe(
        spans, "cache.access_ns.bpc", [&](CacheRig &rig, bool &ok) {
            std::vector<Addr> lines = rig.linesOn(0, kLinesPerBlock);
            return loadsAt(rig, ok, blocks, lines, ServiceLevel::kPrivate,
                           [&](std::uint32_t) {
                               rig.cs().flushPrivate(0);
                               for (Addr a : lines)
                                   rig.access(0, a, AccessType::kFetch);
                           });
        }));

    // The LLC stays warm; tile 0's private caches are dropped before
    // every block.
    auto llc = [&](const char *name, NodeId node, ServiceLevel want) {
        return cacheProbe(spans, name, [&](CacheRig &rig, bool &ok) {
            std::vector<Addr> lines = rig.linesOn(node, kLinesPerBlock);
            for (Addr a : lines)
                rig.access(0, a, AccessType::kLoad);
            return loadsAt(rig, ok, blocks, lines, want, [&](std::uint32_t) {
                rig.cs().flushPrivate(0);
            });
        });
    };
    out.push_back(llc("cache.access_ns.llc_local", 0, ServiceLevel::kLlcLocal));
    out.push_back(
        llc("cache.access_ns.llc_remote", 1, ServiceLevel::kLlcRemote));

    // Every timed load touches a line no one has touched before.
    auto dram = [&](const char *name, NodeId node, ServiceLevel want) {
        return cacheProbe(spans, name, [&](CacheRig &rig, bool &ok) {
            std::vector<Addr> lines =
                rig.linesOn(node, blocks * kLinesPerBlock);
            return blockNs(
                blocks, kLinesPerBlock,
                [&](std::uint32_t) { rig.cs().flushPrivate(0); },
                [&](std::uint32_t b, std::uint32_t i) {
                    Addr a = lines[b * kLinesPerBlock + i];
                    ok = ok && rig.access(0, a, AccessType::kLoad) == want;
                });
        });
    };
    out.push_back(
        dram("cache.access_ns.dram_local", 0, ServiceLevel::kDramLocal));
    out.push_back(
        dram("cache.access_ns.dram_remote", 1, ServiceLevel::kDramRemote));

    // Tile 0 stores to lines a tile on node 1 has just loaded: each
    // store is a home-node transaction that invalidates that copy. Only
    // the stores are timed, one call at a time.
    out.push_back(cacheProbe(
        spans, "cache.access_ns.store_inval",
        [&](CacheRig &rig, bool &ok) {
            std::vector<Addr> lines = rig.linesOn(0, kLinesPerBlock);
            const GlobalTileId peer = rig.tilesPerNode();
            sim::StatRegistry &st = rig.cs().stats();
            std::vector<double> per_call;
            for (std::uint32_t b = 0; b < blocks; ++b) {
                double ns = 0;
                for (Addr a : lines) {
                    rig.access(peer, a, AccessType::kLoad);
                    std::uint64_t inv =
                        st.counterValue("cs.dir.invalidations");
                    Clock::time_point t0 = Clock::now();
                    ServiceLevel lv = rig.access(0, a, AccessType::kStore);
                    ns += secondsSince(t0) * 1e9;
                    ok = ok && lv == ServiceLevel::kLlcLocal &&
                         st.counterValue("cs.dir.invalidations") == inv + 1;
                }
                per_call.push_back(ns / kLinesPerBlock);
            }
            return median(per_call);
        }));
    return out;
}

std::vector<Probe>
runProbes(Spans &spans, std::uint32_t blocks)
{
    std::vector<Probe> out = runCacheProbes(spans, blocks);
    const auto spec = platform::PrototypeConfig::parse(kSpec);
    const std::uint64_t kPage = os::GuestSystem::kPageBytes;
    constexpr std::uint32_t kPages = 256;
    volatile std::uint64_t sink = 0;

    // Page translation on a NUMA-on guest: the first touch of a page
    // binds a frame on the toucher's node; later touches hit the table.
    Probe first{"os.translate_ns.first_touch"};
    Probe hit{"os.translate_ns.hit"};
    spans.time("os.translate", "probe", [&] {
        platform::Prototype proto(spec);
        auto guest = proto.makeGuest(os::NumaMode::kOn);
        const NodeId nodes = spec.totalNodes();
        Addr base = 0;
        first.ns = blockNs(
            blocks, kPages,
            [&](std::uint32_t) { base = guest->vmAlloc(kPages * kPage); },
            [&](std::uint32_t, std::uint32_t i) {
                sink = sink + guest->translate(base + i * kPage, i % nodes);
            });
        hit.ns = blockNs(blocks, kPages, [](std::uint32_t) {},
                         [&](std::uint32_t, std::uint32_t i) {
                             sink = sink + guest->translate(
                                               base + i * kPage + 8,
                                               i % nodes);
                         });
    });
    out.push_back(first);
    out.push_back(hit);

    // A by-name counter lookup, as every miss-path event makes one.
    Probe lookup{"sim.stat_lookup_ns"};
    spans.time("sim.stat_lookup", "probe", [&] {
        platform::Prototype proto(spec);
        sim::StatRegistry &st = proto.stats();
        const std::string name = "cs.bpc.misses";
        st.counter(name);
        lookup.ns = blockNs(blocks, 1024, [](std::uint32_t) {},
                            [&](std::uint32_t, std::uint32_t) {
                                sink = sink + st.counter(name).value();
                            });
    });
    out.push_back(lookup);

    // Functional memory on already-allocated pages.
    Probe load{"mem.load_ns"};
    Probe store{"mem.store_ns"};
    spans.time("mem.main_memory", "probe", [&] {
        platform::Prototype proto(spec);
        mem::MainMemory &mem = proto.memory();
        const Addr base = platform::kDramBase + (64ULL << 20);
        constexpr std::uint32_t kWords = 8192; // 64 KiB.
        for (std::uint32_t i = 0; i < kWords; ++i)
            mem.store(base + i * 8, 8, i);
        auto at = [&](std::uint32_t b, std::uint32_t i) {
            return base + ((b * 1024 + i) * 8 * 9) % (kWords * 8);
        };
        store.ns = blockNs(blocks, 1024, [](std::uint32_t) {},
                           [&](std::uint32_t b, std::uint32_t i) {
                               mem.store(at(b, i), 8, i);
                           });
        load.ns = blockNs(blocks, 1024, [](std::uint32_t) {},
                          [&](std::uint32_t b, std::uint32_t i) {
                              sink = sink + mem.load(at(b, i), 8);
                          });
    });
    out.push_back(load);
    out.push_back(store);
    return out;
}

} // namespace perfbench
