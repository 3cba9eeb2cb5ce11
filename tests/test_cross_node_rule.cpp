/**
 * @file
 * Tests of the phased engine's cross-node rule: a node phase never
 * performs a transaction that would touch another node's state; the
 * requesting core stops before the instruction retires, and the next
 * quantum barrier finishes the core's chunk, starting with that access.
 *
 * Covers the three layers the rule spans:
 *  - CoherentSystem::crossesNode() is sound: on random traffic under
 *    every homing policy, an access it calls node-local leaves every
 *    other node's caches, directory entries, DRAM channel and bridge
 *    untouched;
 *  - the core's stop contract (MemPort::stopped): a stopped step
 *    retires nothing and performs nothing; the next step retires the
 *    instruction exactly once, or takes a pending interrupt first;
 *  - the platform: cross-node false sharing with code fetched across
 *    nodes gives byte-identical stats at 1, 2 and 4 workers, and a run
 *    resumed from any of its checkpoints ends exactly like the
 *    uninterrupted run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cache/coherent_system.hpp"
#include "check/torture.hpp"
#include "platform/prototype.hpp"
#include "riscv/assembler.hpp"
#include "snap/snapshot.hpp"
#include "support/flat_port.hpp"

namespace smappic
{
namespace
{

using cache::AccessType;
using cache::CoherentSystem;

// ------------------------------------------------ CoherentSystem verdict

cache::Geometry
tinyTwoNodeGeometry()
{
    // Small arrays so random traffic keeps evicting at every level.
    cache::Geometry geo;
    geo.nodes = 2;
    geo.tilesPerNode = 2;
    geo.memPerNode = 1 << 20;
    geo.l1iBytes = 256;
    geo.l1iWays = 1;
    geo.l1dBytes = 256;
    geo.l1dWays = 2;
    geo.bpcBytes = 512;
    geo.bpcWays = 2;
    geo.llcSliceBytes = 512;
    geo.llcWays = 2;
    return geo;
}

/** Everything in @p cs that belongs to a node other than @p mine: other
 *  tiles' private copies, directory entries and slice contents homed
 *  elsewhere, other DRAM channels, and inter-node bridge traffic. */
std::string
foreignState(CoherentSystem &cs, NodeId mine)
{
    const std::uint32_t tiles = cs.geometry().tilesPerNode;
    std::ostringstream os;
    cs.forEachKnownLine([&](Addr line) {
        cache::LineView v = cs.inspectLine(line);
        std::ostringstream part;
        if (v.homeNode != mine && (v.hasDirEntry || v.homeSliceHolds))
            part << "dir" << v.sharers << ',' << v.owner << ',' << v.inLlc
                 << v.dirty << v.homeSliceHolds;
        for (std::uint32_t g = 0; g < v.tiles.size(); ++g) {
            const cache::TileLineView &t = v.tiles[g];
            if (g / tiles != mine && (t.inL1d || t.inL1i || t.inBpc))
                part << " t" << g << ':' << t.inL1d << t.inL1i << t.inBpc
                     << t.bpcState;
        }
        if (!part.str().empty())
            os << std::hex << line << std::dec << part.str() << ';';
    });
    for (NodeId n = 0; n < cs.geometry().nodes; ++n) {
        if (n != mine)
            os << " dram" << n << '=' << cs.dramRequests(n);
    }
    os << " bridge=" << cs.stats().counterValue("cs.bridge.crossings");
    return os.str();
}

TEST(CrossNodeRule, NodeLocalVerdictsTouchOnlyTheRequestersNode)
{
    const AccessType kTypes[] = {AccessType::kLoad, AccessType::kStore,
                                 AccessType::kFetch, AccessType::kAtomic};
    for (cache::HomingPolicy homing :
         {cache::HomingPolicy::kAddressNode, cache::HomingPolicy::kGlobalHash,
          cache::HomingPolicy::kNode0,
          cache::HomingPolicy::kCoherenceDomains}) {
        cache::Geometry geo = tinyTwoNodeGeometry();
        CoherentSystem cs(geo, cache::TimingParams{}, homing);
        std::mt19937_64 rng(7 + static_cast<unsigned>(homing));
        // 24 lines per node, so every slice and private array overflows.
        std::vector<Addr> lines;
        for (NodeId n = 0; n < geo.nodes; ++n) {
            for (Addr i = 0; i < 24; ++i)
                lines.push_back(n * geo.memPerNode + i * kCacheLineBytes);
        }

        std::uint64_t local = 0;
        std::uint64_t crossing = 0;
        Cycles now = 0;
        for (int i = 0; i < 6000; ++i) {
            auto gid = static_cast<GlobalTileId>(rng() % geo.totalTiles());
            Addr addr = lines[rng() % lines.size()] + 8 * (rng() % 8);
            AccessType type = kTypes[rng() % 4];
            NodeId mine = gid / geo.tilesPerNode;

            bool crosses = cs.crossesNode(gid, addr, type);
            std::string before = crosses ? "" : foreignState(cs, mine);
            cs.access(gid, addr, type, 8, now);
            now += 40;
            if (crosses) {
                ++crossing;
                continue;
            }
            ++local;
            ASSERT_EQ(foreignState(cs, mine), before)
                << "homing " << static_cast<int>(homing) << ", access " << i
                << ": tile " << gid << " type "
                << static_cast<int>(type) << " at 0x" << std::hex << addr
                << " was called node-local but touched another node";
        }
        EXPECT_TRUE(cs.checkDirectory());
        // Both verdicts must be common, or the property says little.
        EXPECT_GT(local, 600u) << "homing " << static_cast<int>(homing);
        EXPECT_GT(crossing, 600u) << "homing " << static_cast<int>(homing);
    }
}

/** Device stub: answers loads with a constant. */
class ConstDevice : public cache::NcDevice
{
  public:
    std::uint64_t
    ncLoad(Addr, std::uint32_t, Cycles, Cycles &service) override
    {
        service = 1;
        return 42;
    }
    void
    ncStore(Addr, std::uint32_t, std::uint64_t, Cycles,
            Cycles &service) override
    {
        service = 1;
    }
};

TEST(CrossNodeRule, DeviceAndNcTargetsFollowTheirNode)
{
    cache::Geometry geo = tinyTwoNodeGeometry();
    geo.dramBase = 0x1000'0000;
    CoherentSystem cs(geo, cache::TimingParams{},
                      cache::HomingPolicy::kAddressNode);
    ConstDevice dev;
    cs.addDevice(0x100, 0x100, 1, &dev); // Tile 1 of node 0.

    EXPECT_FALSE(cs.crossesNode(0, 0x108, AccessType::kLoad));
    EXPECT_FALSE(cs.crossesNode(1, 0x108, AccessType::kStore));
    EXPECT_TRUE(cs.crossesNode(2, 0x108, AccessType::kLoad));
    EXPECT_TRUE(cs.crossesNode(3, 0x108, AccessType::kNcStore));

    Addr node1 = geo.dramBase + geo.memPerNode;
    EXPECT_FALSE(cs.crossesNode(0, geo.dramBase, AccessType::kNcLoad));
    EXPECT_TRUE(cs.crossesNode(0, node1, AccessType::kNcLoad));
    EXPECT_FALSE(cs.crossesNode(2, node1, AccessType::kNcStore));

    // Cold cacheable lines: the home decides.
    EXPECT_FALSE(cs.crossesNode(0, geo.dramBase, AccessType::kLoad));
    EXPECT_TRUE(cs.crossesNode(0, node1, AccessType::kLoad));
    EXPECT_TRUE(cs.crossesNode(2, geo.dramBase, AccessType::kStore));

    // A node-0 sharer makes node 1's store to its own line cross; node
    // 1's load of it stays local (sharers are not touched by a load).
    cs.access(0, node1, AccessType::kLoad, 8, 0);
    EXPECT_TRUE(cs.crossesNode(2, node1, AccessType::kStore));
    EXPECT_FALSE(cs.crossesNode(2, node1, AccessType::kLoad));
    // ...and node 0's own hit never crosses.
    EXPECT_FALSE(cs.crossesNode(0, node1, AccessType::kLoad));
}

// ------------------------------------------------- core stop and retry

/**
 * FlatPort that declines every access to one address while closed, as
 * the platform port does with a cross-node access inside a node phase,
 * and performs it like any other once opened (the quantum barrier).
 */
class GatedPort : public test::FlatPort
{
  public:
    explicit GatedPort(Addr target) : FlatPort(kLatency), target_(target)
    {
    }

    std::uint64_t
    load(Addr addr, std::uint32_t bytes, Cycles now, Cycles &lat) override
    {
        if (decline(addr))
            return 0;
        return FlatPort::load(addr, bytes, now, lat);
    }

    void
    store(Addr addr, std::uint32_t bytes, std::uint64_t value, Cycles now,
          Cycles &lat) override
    {
        if (!decline(addr))
            FlatPort::store(addr, bytes, value, now, lat);
    }

    std::uint64_t
    atomic(Addr addr, std::uint32_t bytes,
           const std::function<std::uint64_t(std::uint64_t)> &rmw,
           Cycles now, Cycles &lat) override
    {
        if (decline(addr))
            return 0;
        return FlatPort::atomic(addr, bytes, rmw, now, lat);
    }

    // Keep every data access on the slow path, where the gate lives.
    bool
    loadFastHit(Addr, std::uint32_t, Cycles, Cycles &,
                std::uint64_t &) override
    {
        return false;
    }
    bool
    storeFastHit(Addr, std::uint32_t, std::uint64_t, Cycles,
                 Cycles &) override
    {
        return false;
    }

    static constexpr Cycles kLatency = 250;
    bool open = false;
    std::uint64_t declined = 0;

  private:
    bool
    decline(Addr addr)
    {
        if (open || addr != target_)
            return false;
        ++declined;
        stopped_ = true;
        return true;
    }

    Addr target_;
};

constexpr Addr kTarget = 0x9000'0000;
constexpr Addr kHandler = 0x8000'1000;

struct BareCore
{
    explicit BareCore(const std::string &src) : port(kTarget)
    {
        riscv::Assembler as;
        riscv::Program prog = as.assemble(src);
        test::loadProgram(port.memory, prog);
        riscv::CoreConfig cfg;
        cfg.resetPc = prog.entry;
        core = std::make_unique<riscv::RvCore>(cfg, port);
        test::installExitHandler(*core);
        core->setCommitFn(
            [this](riscv::RvCore &, const riscv::CommitRecord &) {
                ++commits;
            });
    }

    /** Runs until the gate stops the core; checks nothing retired. */
    void
    runToStop()
    {
        ASSERT_EQ(core->run(100), riscv::HaltReason::kMemWait);
        Addr pc = core->pc();
        std::uint64_t instret = core->instret();
        Cycles cycles = core->cycles();
        std::uint64_t seen = commits;
        EXPECT_FALSE(port.stopped()) << "the core acknowledges the stop";
        // Still closed: every attempt stops again, retiring nothing.
        EXPECT_EQ(core->step(), 0u);
        EXPECT_EQ(core->pc(), pc);
        EXPECT_EQ(core->instret(), instret);
        EXPECT_EQ(core->cycles(), cycles);
        EXPECT_EQ(commits, seen);
        EXPECT_EQ(port.declined, 2u);
    }

    GatedPort port;
    std::unique_ptr<riscv::RvCore> core;
    std::uint64_t commits = 0;
};

TEST(CoreStop, StoppedLoadRetiresNothingThenRetiresOnce)
{
    BareCore b(R"(
_start:
    li t0, 0x90000000
    ld a0, 0(t0)
    addi a0, a0, 1
    li a7, 93
    ecall
)");
    b.port.memory.store(kTarget, 8, 41);
    riscv::RvCore &c = *b.core;
    b.runToStop();
    EXPECT_EQ(c.reg(10), 0u);
    Addr pc = c.pc();
    std::uint64_t instret = c.instret();
    Cycles cycles = c.cycles();
    std::uint64_t commits = b.commits;

    b.port.open = true;
    c.step();
    EXPECT_EQ(c.pc(), pc + 4);
    EXPECT_EQ(c.instret(), instret + 1);
    EXPECT_EQ(b.commits, commits + 1);
    EXPECT_EQ(c.reg(10), 41u);
    EXPECT_GE(c.cycles(), cycles + GatedPort::kLatency);
    EXPECT_EQ(c.run(100), riscv::HaltReason::kExited);
    EXPECT_EQ(c.exitCode(), 42);
}

TEST(CoreStop, InterruptBeforeTheRetryLeavesTheStoreUnperformed)
{
    BareCore b(R"(
_start:
    li t0, 0x90000000
    li t1, 7
    sd t1, 0(t0)
    li a7, 93
    ecall
)");
    riscv::RvCore &c = *b.core;
    c.setCsr(riscv::kCsrMtvec, kHandler);
    b.runToStop();
    Addr store_pc = c.pc();
    std::uint64_t instret = c.instret();

    c.setCsr(riscv::kCsrMie, 1ULL << riscv::kIrqMsi);
    c.setCsr(riscv::kCsrMstatus, riscv::kMstatusMie);
    c.setIrqLine(riscv::kIrqMsi, true);
    b.port.open = true;
    c.step();
    EXPECT_EQ(c.pc(), kHandler) << "the interrupt comes first";
    EXPECT_EQ(c.csr(riscv::kCsrMepc), store_pc) << "the store reruns";
    EXPECT_EQ(c.instret(), instret);
    EXPECT_EQ(b.port.memory.load(kTarget, 8), 0u) << "not performed";
}

TEST(CoreStop, StoppedAmoAppliesExactlyOnce)
{
    BareCore b(R"(
_start:
    li t0, 0x90000000
    li a1, 5
    amoadd.d a0, a1, (t0)
    li a7, 93
    ecall
)");
    b.port.memory.store(kTarget, 8, 10);
    riscv::RvCore &c = *b.core;
    b.runToStop();
    EXPECT_EQ(b.port.memory.load(kTarget, 8), 10u) << "nothing performed";

    b.port.open = true;
    EXPECT_EQ(c.run(100), riscv::HaltReason::kExited);
    EXPECT_EQ(c.reg(10), 10u);
    EXPECT_EQ(b.port.memory.load(kTarget, 8), 15u) << "applied once";
}

// ------------------------------------------------------------ platform

/** Four harts (2x1x2) bump their own slot of one shared line and read a
 *  peer's slot, then add into a shared counter with an AMO. Loaded with
 *  loadSource, so node 1 also fetches its code across nodes. */
constexpr const char *kFalseShareSource = R"(
_start:
    csrr t0, 0xf14
    la t1, slots
    slli t2, t0, 3
    add t1, t1, t2
    la t3, slots
    addi t4, t0, 1
    andi t4, t4, 3
    slli t4, t4, 3
    add t3, t3, t4
    li t5, 150
    li a0, 0
loop:
    ld t6, 0(t1)
    addi t6, t6, 1
    sd t6, 0(t1)
    ld a1, 0(t3)
    add a0, a0, t6
    addi t5, t5, -1
    bnez t5, loop
    la t2, counter
    li t4, 1
    amoadd.d zero, t4, (t2)
    li a7, 93
    ecall

.data
.align 6
slots: .dword 0, 0, 0, 0
.align 6
counter: .dword 0
)";

struct FalseShareRun
{
    std::vector<std::int64_t> exits;
    std::vector<std::uint64_t> slots;
    std::uint64_t counter = 0;
    std::uint64_t deferred = 0;
    std::string dump;
};

FalseShareRun
runFalseShare(std::uint32_t threads)
{
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse("2x1x2");
    if (threads > 0) {
        cfg.parallel.threads = threads;
        cfg.parallel.quantum = 63;
    }
    platform::Prototype proto(cfg);
    riscv::Program prog = proto.loadSource(kFalseShareSource);
    proto.runCores({0, 1, 2, 3}, 100'000);

    FalseShareRun out;
    for (GlobalTileId g = 0; g < 4; ++g) {
        EXPECT_TRUE(proto.core(g).exited()) << "hart " << g;
        out.exits.push_back(proto.core(g).exitCode());
        out.slots.push_back(
            proto.memory().load(prog.symbol("slots") + 8 * g, 8));
    }
    out.counter = proto.memory().load(prog.symbol("counter"), 8);
    out.deferred = proto.stats().counterValue("platform.accessesDeferred");
    std::ostringstream os;
    proto.stats().dump(os);
    out.dump = os.str();
    return out;
}

TEST(PhasedSharing, FalseSharingIsWorkerCountInvariant)
{
    const std::int64_t sum = 150 * 151 / 2;
    FalseShareRun seq = runFalseShare(0);
    EXPECT_EQ(seq.exits, (std::vector<std::int64_t>(4, sum)));
    EXPECT_EQ(seq.deferred, 0u) << "the sequential engine defers nothing";

    FalseShareRun ref = runFalseShare(1);
    EXPECT_EQ(ref.exits, seq.exits);
    EXPECT_EQ(ref.slots, (std::vector<std::uint64_t>(4, 150)));
    EXPECT_EQ(ref.counter, 4u);
    EXPECT_GT(ref.deferred, 10u) << "cross-node misses must defer";
    for (std::uint32_t threads : {2u, 4u}) {
        FalseShareRun got = runFalseShare(threads);
        EXPECT_EQ(got.exits, ref.exits) << threads << " workers";
        EXPECT_EQ(got.slots, ref.slots) << threads << " workers";
        EXPECT_EQ(got.counter, ref.counter) << threads << " workers";
        EXPECT_EQ(got.dump, ref.dump)
            << "stat dump diverged at " << threads << " workers";
    }
}

namespace fs = std::filesystem;

std::string
slurp(const fs::path &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

platform::PrototypeConfig
checkpointingConfig(std::uint32_t threads, const fs::path &dir)
{
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse("2x1x2");
    cfg.seed = 5;
    cfg.parallel.threads = threads;
    cfg.parallel.quantum = 63;
    cfg.snapshot.interval = 1000;
    cfg.snapshot.dir = dir.string();
    cfg.snapshot.keep = 0;
    return cfg;
}

TEST(PhasedSharing, ResumeFromAnyCheckpointMatchesUninterruptedRun)
{
    // A checkpoint every 1000 cycles of a cross-node torture run: most
    // barriers follow a quantum with a deferred access, so many of the
    // files hold a core's barrier-performed result mid-instruction.
    check::TortureConfig tcfg;
    tcfg.seed = 5;
    tcfg.opsPerCore = 32;
    std::string source = check::generateTorture(tcfg).source;
    std::vector<GlobalTileId> gids = {0, 1, 2, 3};

    fs::path root = fs::path(::testing::TempDir()) / "cross_node_resume";
    fs::remove_all(root);
    platform::Prototype ref(checkpointingConfig(2, root / "ref"));
    ref.loadSource(source);
    ref.runCores(gids, 100'000);
    ref.checkpoint((root / "ref.smck").string());
    const std::string want = slurp(root / "ref.smck");

    auto mids = snap::listCheckpoints((root / "ref").string());
    ASSERT_GE(mids.size(), 4u) << "workload too short to checkpoint";
    for (std::size_t i = 0; i < mids.size(); ++i) {
        fs::path dir = root / ("resume" + std::to_string(i));
        platform::Prototype b(checkpointingConfig(i % 2 ? 1 : 4, dir));
        b.loadSource(source);
        b.restore(mids[i]);
        b.runCores(gids, 100'000);
        b.checkpoint((dir / "final.smck").string());
        EXPECT_EQ(slurp(dir / "final.smck"), want)
            << "resumed from " << mids[i];
    }
}

} // namespace
} // namespace smappic
