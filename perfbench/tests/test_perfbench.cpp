/**
 * @file
 * The benchmark's own tests: each correctness check passes on correct
 * outputs and reports a failure when handed a wrong expectation, and each
 * cache probe lands at the ServiceLevel it is named for.
 *
 * Build and run with: python3 perfbench/run.py --self-test
 */

#include <gtest/gtest.h>

#include "intsort_legs.hpp"
#include "probes.hpp"
#include "rv_loops.hpp"

using namespace perfbench;

namespace
{

constexpr std::uint64_t kSeed = 11;

/** Runs one leg and returns how many of its operations failed. */
std::uint64_t
failedOps(const RvLoop &loop, Engine e, const Golden &golden)
{
    Spans spans;
    Tally tally;
    runRvLeg(loop, e, 2, golden, spans, tally);
    EXPECT_EQ(tally.attempted(), 4u); // The leg, exits, data, instret.
    return tally.failed();
}

} // namespace

TEST(Tally, KnownFaultCountsFailedButStaysCorrect)
{
    Tally t;
    t.record(true, "pass");
    t.recordKnown(false, "known", "fault");
    EXPECT_EQ(t.attempted(), 2u);
    EXPECT_EQ(t.failed(), 1u);
    EXPECT_TRUE(t.correct());
    t.record(false, "real failure");
    EXPECT_FALSE(t.correct());
}

TEST(RvLoops, InstretFollowsTheLoopDefinition)
{
    EXPECT_EQ(instretPerHart(LoopKind::kNodeLocal, 0), 16u);
    EXPECT_EQ(instretPerHart(LoopKind::kNodeLocal, 2), 16u + 2 * 452);
    EXPECT_EQ(instretPerHart(LoopKind::kFalseShare, 3), 16u + 3 * 8);
}

TEST(RvLoops, NodeLocalPassesEveryCheckOnEveryEngine)
{
    RvLoop loop = makeNodeLocal(kSeed, 3);
    Golden golden = goldenOf(loop);
    for (Engine e : {Engine::kDefault, Engine::kPhased1, Engine::kPhased2})
        EXPECT_EQ(failedOps(loop, e, golden), 0u) << engineLeg(e);
}

TEST(RvLoops, FalseSharePassesEveryCheck)
{
    RvLoop loop = makeFalseShare(kSeed, 50);
    Golden golden = goldenOf(loop);
    EXPECT_EQ(failedOps(loop, Engine::kDefault, golden), 0u);
    EXPECT_EQ(failedOps(loop, Engine::kPhased1, golden), 0u);
}

TEST(RvLoops, WrongExpectedChecksumIsReported)
{
    RvLoop loop = makeFalseShare(kSeed, 20);
    Golden golden = goldenOf(loop);
    golden.checksum[5] ^= 1;
    EXPECT_EQ(failedOps(loop, Engine::kDefault, golden), 1u);
}

TEST(RvLoops, WrongExpectedDataIsReported)
{
    RvLoop loop = makeNodeLocal(kSeed, 2);
    Golden golden = goldenOf(loop);
    golden.data[64 * 9 + 17] += 1;
    EXPECT_EQ(failedOps(loop, Engine::kPhased1, golden), 1u);
}

TEST(RvLoops, WrongExpectedInstretIsReported)
{
    RvLoop loop = makeNodeLocal(kSeed, 2);
    Golden golden = goldenOf(loop);
    golden.instretPerHart += 1;
    EXPECT_EQ(failedOps(loop, Engine::kDefault, golden), 1u);
}

TEST(RvLoops, HartThatRunsOutOfBudgetFailsItsExitCheck)
{
    // A golden count far below the real one shrinks runCores' budget
    // (2x + 1000), so no hart reaches its exit.
    RvLoop loop = makeNodeLocal(kSeed, 10);
    Golden golden = goldenOf(loop);
    golden.instretPerHart = 100;
    Spans spans;
    Tally tally;
    runRvLeg(loop, Engine::kDefault, 1, golden, spans, tally);
    EXPECT_EQ(tally.failed(), 3u); // Exits, data and instret.
}

TEST(RvLoops, StatDumpsOfOneAndTwoWorkersMatchOnNodeLocalCode)
{
    RvLoop loop = makeNodeLocal(kSeed, 3);
    Golden golden = goldenOf(loop);
    Spans spans;
    Tally tally;
    RvLegResult w1 =
        runRvLeg(loop, Engine::kPhased1, 2, golden, spans, tally);
    RvLegResult w2 =
        runRvLeg(loop, Engine::kPhased2, 2, golden, spans, tally);
    EXPECT_EQ(w1.statDump, w2.statDump);
    EXPECT_GT(w1.leg.epochs, 0u);
}

namespace
{

SortLegResult
sortWithCycles(Cycles c, double remote)
{
    SortLegResult r;
    r.result.cycles = c;
    r.result.remoteFraction = remote;
    return r;
}

} // namespace

TEST(NumaSort, RatioOutsideTheBandIsReported)
{
    for (Cycles off : {1500u, 2900u}) {
        Tally t;
        checkNumaPair(sortWithCycles(1000, 0.1), sortWithCycles(off, 0.7), t);
        EXPECT_EQ(t.attempted(), 2u);
        EXPECT_EQ(t.failed(), 1u) << off;
    }
    Tally ok;
    checkNumaPair(sortWithCycles(1000, 0.1), sortWithCycles(1800, 0.7), ok);
    EXPECT_EQ(ok.failed(), 0u);
}

TEST(NumaSort, RemoteFractionOrderIsChecked)
{
    Tally t;
    checkNumaPair(sortWithCycles(1000, 0.7), sortWithCycles(1800, 0.7), t);
    EXPECT_EQ(t.failed(), 1u);
}

TEST(NumaSort, SmallSortPassesItsChecks)
{
    NumaSort in = makeNumaSort(kSeed, 1 << 12, 512);
    Spans spans;
    Tally t;
    SortLegResult on = runSortLeg(in, os::NumaMode::kOn, spans, t);
    EXPECT_EQ(t.attempted(), 3u); // The leg, sorted, permutation.
    EXPECT_EQ(t.failed(), 0u);
    EXPECT_GT(on.leg.accesses, 0u);
    EXPECT_GT(on.leg.simCycles, 0u);
}

TEST(NumaSort, PermutationCheckCatchesOtherKeys)
{
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse("4x1x12");
    platform::Prototype proto(cfg);
    auto guest = proto.makeGuest(os::NumaMode::kOn);
    NumaSort in = makeNumaSort(kSeed, 1 << 12, 512);
    workload::runIntSort(*guest, in.tiles, in.sort);

    NumaSort other = in;
    other.sort.seed = kSeed + 1;
    std::string why;
    EXPECT_FALSE(outputIsPermutation(*guest, other, why));
    EXPECT_FALSE(why.empty());
}

TEST(NumaSort, PermutationCheckFailsWithoutASort)
{
    platform::Prototype proto(platform::PrototypeConfig::parse("4x1x12"));
    auto guest = proto.makeGuest(os::NumaMode::kOn);
    std::string why;
    EXPECT_FALSE(outputIsPermutation(
        *guest, makeNumaSort(kSeed, 1 << 12, 512), why));
}

TEST(Probes, EveryCacheProbeLandsAtItsLevel)
{
    Spans spans;
    std::vector<Probe> probes = runCacheProbes(spans, 3);
    ASSERT_EQ(probes.size(), 7u);
    for (const Probe &p : probes) {
        EXPECT_TRUE(p.landed) << p.name;
        EXPECT_GT(p.ns, 0.0) << p.name;
    }
}

TEST(Spans, RecordParentsOnlyWhileRecording)
{
    Spans spans(true);
    spans.time("outer", "leg", [&] { spans.time("inner", "leg", [] {}); });
    spans.setRecording(false);
    spans.time("skipped", "leg", [] {});
    EXPECT_EQ(spans.size(), 2u);
}
