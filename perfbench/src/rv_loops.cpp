#include "rv_loops.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

#include "seed.hpp"

namespace perfbench
{

namespace
{

/** Shared prologue and epilogue; @BODY@ is the kernel's loop. Registers:
 *  s3 mult, s4 addend, s5 iterations, s0 own data, s7 peer slot, s8
 *  checksum address, s6 checksum. Parameters sit 64 bytes per hart. */
constexpr const char *kProgram = R"(
_start:
    csrr s1, 0xf14
    la t0, params
    slli t1, s1, 6
    add t0, t0, t1
    ld s3, 0(t0)
    ld s4, 8(t0)
    ld s5, 16(t0)
    ld s0, 24(t0)
    ld s7, 32(t0)
    ld s8, 40(t0)
    li s6, 0
@BODY@
    sd s6, 0(s8)
    li a0, 0
    li a7, 93
    ecall

.data
.align 6
params: .space 1024
regions: .space 4096
sums: .space 1024
)";

constexpr const char *kNodeLocalBody = R"(
outer:
    mv t2, s0
    addi t3, s0, 512
inner:
    ld t4, 0(t2)
    mul t4, t4, s3
    add t4, t4, s4
    sd t4, 0(t2)
    add s6, s6, t4
    addi t2, t2, 8
    bne t2, t3, inner
    addi s5, s5, -1
    bnez s5, outer
)";

constexpr const char *kFalseShareBody = R"(
loop:
    ld t4, 0(s0)
    mul t4, t4, s3
    add t4, t4, s4
    sd t4, 0(s0)
    add s6, s6, t4
    ld t5, 0(s7)
    addi s5, s5, -1
    bnez s5, loop
)";

// Instruction counts of the program above ("la" assembles to two).
constexpr std::uint64_t kPrologue = 12;
constexpr std::uint64_t kEpilogue = 4; // The exit ecall retires.
constexpr std::uint64_t kNodeLocalPerIter = 2 + 7 * kNodeLocalWords + 2;
constexpr std::uint64_t kFalseSharePerIter = 8;

constexpr std::uint32_t kHartBytes = 1024; ///< Node-local region stride.
constexpr std::uint32_t kParamBytes = 64;

std::string
programSource(LoopKind kind)
{
    std::string src = kProgram;
    const std::string token = "@BODY@";
    src.replace(src.find(token), token.size(),
                kind == LoopKind::kNodeLocal ? kNodeLocalBody
                                             : kFalseShareBody);
    return src;
}

RvLoop
makeLoop(LoopKind kind, std::uint64_t seed, std::uint64_t iterations)
{
    RvLoop loop;
    loop.kind = kind;
    loop.iterations = iterations;
    SplitMix rng(seed ^ (kind == LoopKind::kNodeLocal ? 0x6e6c : 0x6673));
    platform::PrototypeConfig cfg =
        platform::PrototypeConfig::parse(loop.spec);
    for (std::uint32_t h = 0; h < cfg.totalTiles(); ++h) {
        loop.mult.push_back(rng.next() | 1);
        loop.addend.push_back(rng.next());
        for (std::uint32_t w = 0; w < loop.wordsPerHart(); ++w)
            loop.init.push_back(rng.next());
    }
    return loop;
}

/** Per-hart addresses of the data, the peer slot and the checksum. */
struct HartAddrs
{
    Addr own = 0;
    Addr peer = 0;
    Addr sum = 0;
};

std::vector<HartAddrs>
layout(const RvLoop &loop, platform::Prototype &proto,
       const riscv::Program &prog)
{
    const platform::PrototypeConfig &cfg = proto.config();
    const std::uint32_t tiles = cfg.tilesPerNode;
    const std::uint32_t nodes = cfg.totalNodes();
    // The two shared lines, homed on node 0 and node 2.
    const Addr lines[2] = {proto.addressHomedAt(0),
                           proto.addressHomedAt(2 * tiles + 1)};
    auto slot = [&](std::uint32_t n, std::uint32_t t) {
        return lines[t / 2] + 8 * (2 * n + t % 2);
    };

    std::vector<HartAddrs> out(loop.harts());
    for (std::uint32_t h = 0; h < loop.harts(); ++h) {
        std::uint32_t n = h / tiles;
        std::uint32_t t = h % tiles;
        Addr replica = static_cast<Addr>(n) * cfg.memPerNode;
        if (loop.kind == LoopKind::kNodeLocal) {
            out[h].own = prog.symbol("regions") + replica + t * kHartBytes;
            out[h].sum = out[h].own + 8 * kNodeLocalWords;
        } else {
            out[h].own = slot(n, t);
            out[h].peer = slot((n + 1) % nodes, t);
            out[h].sum = prog.symbol("sums") + replica + t * 64;
        }
    }
    return out;
}

} // namespace

RvLoop
makeNodeLocal(std::uint64_t seed, std::uint64_t iterations)
{
    return makeLoop(LoopKind::kNodeLocal, seed, iterations);
}

RvLoop
makeFalseShare(std::uint64_t seed, std::uint64_t iterations)
{
    return makeLoop(LoopKind::kFalseShare, seed, iterations);
}

std::uint64_t
instretPerHart(LoopKind kind, std::uint64_t iterations)
{
    std::uint64_t per = kind == LoopKind::kNodeLocal ? kNodeLocalPerIter
                                                     : kFalseSharePerIter;
    return kPrologue + iterations * per + kEpilogue;
}

Golden
goldenOf(const RvLoop &loop)
{
    Golden g;
    g.data = loop.init;
    g.checksum.assign(loop.harts(), 0);
    g.instretPerHart = instretPerHart(loop.kind, loop.iterations);
    const std::uint32_t words = loop.wordsPerHart();
    for (std::uint32_t h = 0; h < loop.harts(); ++h) {
        std::uint64_t *x = &g.data[static_cast<std::size_t>(h) * words];
        std::uint64_t sum = 0;
        for (std::uint64_t it = 0; it < loop.iterations; ++it) {
            for (std::uint32_t w = 0; w < words; ++w) {
                x[w] = x[w] * loop.mult[h] + loop.addend[h];
                sum += x[w];
            }
        }
        g.checksum[h] = sum;
    }
    return g;
}

const char *
engineLeg(Engine e)
{
    switch (e) {
    case Engine::kDefault:
        return "default";
    case Engine::kPhased1:
        return "w1";
    case Engine::kPhased2:
        return "w2";
    }
    return "?";
}

RvLegResult
runRvLeg(const RvLoop &loop, Engine e, std::uint32_t workers,
         const Golden &golden, Spans &spans, Tally &tally)
{
    RvLegResult res;
    Leg &leg = res.leg;
    leg.name = engineLeg(e);

    platform::PrototypeConfig cfg =
        platform::PrototypeConfig::parse(loop.spec);
    if (e != Engine::kDefault) {
        cfg.parallel.threads = e == Engine::kPhased1 ? 1 : workers;
        cfg.parallel.quantum = cfg.timing.pcieOneWay();
    }

    std::unique_ptr<platform::Prototype> proto;
    std::vector<HartAddrs> addrs;
    std::vector<GlobalTileId> gids;
    bool ran = true;
    spans.time("leg." + leg.name, leg.name, [&] {
        leg.buildS = spans.time("platform.build", leg.name, [&] {
            proto = std::make_unique<platform::Prototype>(cfg);
        });
        leg.loadS = spans.time("platform.load", leg.name, [&] {
            riscv::Program prog =
                proto->loadSourceReplicated(programSource(loop.kind));
            addrs = layout(loop, *proto, prog);
            mem::MainMemory &mem = proto->memory();
            const std::uint32_t words = loop.wordsPerHart();
            for (NodeId n = 0; n < cfg.totalNodes(); ++n) {
                Addr table = prog.symbol("params") +
                             static_cast<Addr>(n) * cfg.memPerNode;
                for (std::uint32_t h = 0; h < loop.harts(); ++h) {
                    Addr p = table + static_cast<Addr>(h) * kParamBytes;
                    mem.store(p, 8, loop.mult[h]);
                    mem.store(p + 8, 8, loop.addend[h]);
                    mem.store(p + 16, 8, loop.iterations);
                    mem.store(p + 24, 8, addrs[h].own);
                    mem.store(p + 32, 8, addrs[h].peer);
                    mem.store(p + 40, 8, addrs[h].sum);
                }
            }
            for (std::uint32_t h = 0; h < loop.harts(); ++h) {
                for (std::uint32_t w = 0; w < words; ++w)
                    mem.store(addrs[h].own + 8 * w, 8,
                              loop.init[static_cast<std::size_t>(h) * words +
                                        w]);
                gids.push_back(h);
            }
        });
        try {
            leg.runS = spans.time("sim.run", leg.name, [&] {
                proto->runCores(gids, 2 * golden.instretPerHart + 1000);
            });
        } catch (const std::exception &ex) {
            std::fprintf(stderr, "%s leg threw: %s\n", leg.name.c_str(),
                         ex.what());
            ran = false;
        }
    });
    const std::string tag = leg.name + " leg";
    tally.record(ran, tag + " runs to its end");

    readCounts(*proto, leg);
    for (GlobalTileId g : gids)
        leg.simCycles = std::max<std::uint64_t>(leg.simCycles,
                                                proto->core(g).cycles());
    // The phased engine leaves the device clock at its final barrier.
    if (e != Engine::kDefault)
        leg.epochs = proto->eventQueue().now() / cfg.parallel.quantum;
    leg.counts["sim.cycles"] = leg.simCycles;

    bool exits = true;
    bool data = true;
    bool instret = true;
    const std::uint32_t words = loop.wordsPerHart();
    mem::MainMemory &mem = proto->memory();
    for (std::uint32_t h = 0; h < loop.harts(); ++h) {
        const riscv::RvCore &core = proto->core(h);
        exits = exits && core.exited() && core.exitCode() == 0;
        instret = instret && core.instret() == golden.instretPerHart;
        for (std::uint32_t w = 0; w < words; ++w) {
            data = data &&
                   mem.load(addrs[h].own + 8 * w, 8) ==
                       golden.data[static_cast<std::size_t>(h) * words + w];
        }
        data = data && mem.load(addrs[h].sum, 8) == golden.checksum[h];
    }
    tally.record(exits, tag + ": every hart exits 0");
    tally.record(data, tag + ": data and checksums equal the golden replay");
    tally.record(instret, tag + ": retired instructions equal " +
                              std::to_string(golden.instretPerHart) +
                              " per hart");

    std::ostringstream dump;
    proto->stats().dump(dump);
    res.statDump = dump.str();
    return res;
}

} // namespace perfbench
