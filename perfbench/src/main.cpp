/**
 * @file
 * The simulator's benchmark: runs one named workload for a fixed host
 * time and prints its metrics.
 *
 *   perfbench --workload <numa_intsort|rv_nodelocal|rv_falseshare>
 *             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
 *
 * A run repeats whole rounds until the next round would end past
 * --seconds (at least one round; two when traced). A round runs every leg
 * of the workload, each on a fresh prototype, and checks the outputs.
 * Each metric is the median over rounds. The last line of standard output
 * is one JSON object: correct, attempted, failed and metrics — the
 * end-to-end metrics untraced, the per-layer metrics traced. The exit
 * code is 0 unless a check failed (a known fault's check excepted).
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "intsort_legs.hpp"
#include "probes.hpp"
#include "rv_loops.hpp"

using namespace perfbench;

namespace
{

// Workload sizes (see README.md for their make-up).
constexpr std::uint64_t kSortKeys = 1 << 16;
constexpr std::uint32_t kSortBuckets = 512;
constexpr std::uint64_t kNodeLocalIterations = 300;
constexpr std::uint64_t kFalseShareIterations = 6000;
constexpr std::uint32_t kProbeBlocks = 60;

const char *kFaultA =
    "fault (a): cross-node misses are served inline under a global "
    "mutex, so the 2-worker schedule leaks into the stats";

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<numa_intsort|rv_nodelocal|rv_falseshare> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            o.trace = v == "1";
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
        } else if (a == "--trace-out") {
            o.traceOut = v;
        } else {
            usage(("unknown flag " + a).c_str());
        }
        if (end && *end)
            usage(("bad number for " + a).c_str());
    }
    if (o.workload != "numa_intsort" && o.workload != "rv_nodelocal" &&
        o.workload != "rv_falseshare")
        usage("unknown or missing --workload");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

/** CPUs this process may run on. */
std::uint32_t
hostCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<std::uint32_t>(std::max(1, CPU_COUNT(&set)));
    return 1;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

const Leg *
findLeg(const std::vector<Leg> &legs, const std::string &name)
{
    for (const Leg &l : legs) {
        if (l.name == name)
            return &l;
    }
    return nullptr;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

using Metrics = std::map<std::string, double>;

/** End-to-end metrics of one round. Legs come first-leg first: numa_on,
 *  numa_off, or default, w1, w2. */
Metrics
endToEnd(const std::vector<Leg> &legs, bool rv)
{
    Metrics m;
    double setup = 0;
    double wall = 0;
    double accesses = 0;
    for (const Leg &l : legs) {
        setup += l.setupS();
        wall += l.runS;
        accesses += static_cast<double>(l.accesses);
    }
    m["setup_s"] = setup;
    m["wall_s"] = wall;
    m["mem_access_rate"] = ratio(accesses / 1e6, wall);
    // A guest instruction is a retired RV64 instruction, or on the sort
    // (which runs no interpreter) one memory operation of a sort thread.
    auto mips = [&](const Leg &l) {
        double work = static_cast<double>(rv ? l.instret : l.accesses);
        return ratio(work / 1e6, l.runS);
    };
    m["guest_mips"] = mips(legs.front());
    m["guest_mips_w2"] = mips(legs.back());
    return m;
}

/** Per-layer metrics of one round; 0 where the workload has no such leg. */
Metrics
perLayer(const std::vector<Leg> &legs)
{
    Metrics m;
    double build = 0;
    double load = 0;
    double guest = 0;
    for (const Leg &l : legs) {
        build += l.buildS;
        load += l.loadS;
        guest += l.guestS;
    }
    m["platform.build_ms"] = build * 1e3;
    m["platform.load_ms"] = load * 1e3;
    m["os.make_guest_ms"] = guest * 1e3;
    auto run_ms = [&](const char *leg) {
        const Leg *l = findLeg(legs, leg);
        return l ? l->runS * 1e3 : 0.0;
    };
    m["workload.intsort_ms.numa_on"] = run_ms("numa_on");
    m["workload.intsort_ms.numa_off"] = run_ms("numa_off");
    m["sim.run_ms.default"] = run_ms("default");
    m["sim.run_ms.w1"] = run_ms("w1");
    m["sim.run_ms.w2"] = run_ms("w2");

    // Counts come from the first leg, which is deterministic on every
    // workload; sim.epochs from the 1-worker phased leg.
    const Leg &first = legs.front();
    for (const auto &[name, v] : first.counts)
        m[name] = static_cast<double>(v);
    const Leg *w1 = findLeg(legs, "w1");
    const Leg *w2 = findLeg(legs, "w2");
    const Leg *def = findLeg(legs, "default");
    m["sim.epochs"] = w1 ? static_cast<double>(w1->epochs) : 0.0;

    auto c = [&](const char *name) { return m[name]; };
    m["cache.bpc_lookups"] = c("cache.bpc_hits") + c("cache.bpc_misses");
    m["cache.bpc_hit_ratio"] =
        ratio(c("cache.bpc_hits"), c("cache.bpc_lookups"));
    m["cache.serviced"] = c("cache.llc_local") + c("cache.llc_remote") +
                          c("cache.dram_local") + c("cache.dram_remote");
    m["cache.remote_fraction"] =
        ratio(c("cache.llc_remote") + c("cache.dram_remote"),
              c("cache.serviced"));
    m["riscv.decode_lookups"] =
        c("riscv.decode_hits") + c("riscv.decode_misses");
    m["riscv.decode_hit_ratio"] =
        ratio(c("riscv.decode_hits"), c("riscv.decode_lookups"));

    for (const char *leg : {"numa_on", "numa_off", "default", "w1", "w2"}) {
        const Leg *l = findLeg(legs, leg);
        m[std::string("cache.ns_per_access.") + leg] =
            l ? ratio(l->runS * 1e9, static_cast<double>(l->accesses)) : 0.0;
    }
    m["riscv.ns_per_instr"] =
        def ? ratio(def->runS * 1e9, static_cast<double>(def->instret))
            : 0.0;
    auto per_epoch = [&](const Leg *phased) {
        return def && phased ? ratio((phased->runS - def->runS) * 1e9,
                                     static_cast<double>(phased->epochs))
                             : 0.0;
    };
    m["sim.ns_per_epoch.w1"] = per_epoch(w1);
    m["sim.ns_per_epoch.w2"] = per_epoch(w2);
    return m;
}

const char *
unitOf(const std::string &name)
{
    static const std::map<std::string, const char *> fixed = {
        {"setup_s", "s"},
        {"wall_s", "s"},
        {"mem_access_rate", "M/s"},
        {"guest_mips", "MIPS"},
        {"guest_mips_w2", "MIPS"},
        {"peak_rss_mb", "MB"},
        {"trace.overhead_s", "s"},
    };
    auto it = fixed.find(name);
    if (it != fixed.end())
        return it->second;
    auto has = [&](const char *part) {
        return name.find(part) != std::string::npos;
    };
    if (has("_ms"))
        return "ms";
    if (has("_ns") || has(".ns_per_"))
        return "ns";
    if (has("ratio") || has("fraction"))
        return "ratio";
    return "count";
}

void
printResult(const Tally &tally, bool correct, const Metrics &m)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted()),
                static_cast<unsigned long long>(tally.failed()));
    bool first = true;
    for (const auto &[name, v] : m) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), v, unitOf(name));
        first = false;
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    const Clock::time_point t0 = Clock::now();
    const std::uint32_t workers = std::min<std::uint32_t>(2, hostCpus());

    Spans spans(false);
    Tally tally;
    bool probesLanded = true;
    std::vector<Probe> probes;
    if (opt.trace) {
        spans.setRecording(true);
        probes = runProbes(spans, kProbeBlocks);
        for (const Probe &p : probes) {
            if (!p.landed) {
                std::fprintf(stderr, "FAILED: probe %s missed its level\n",
                             p.name.c_str());
                probesLanded = false;
            }
        }
    }

    const bool rv = opt.workload != "numa_intsort";
    NumaSort sort;
    RvLoop loop;
    Golden golden;
    if (!rv) {
        sort = makeNumaSort(opt.seed, kSortKeys, kSortBuckets);
    } else {
        loop = opt.workload == "rv_nodelocal"
                   ? makeNodeLocal(opt.seed, kNodeLocalIterations)
                   : makeFalseShare(opt.seed, kFalseShareIterations);
        golden = goldenOf(loop);
    }

    auto round = [&]() {
        if (!rv) {
            SortLegResult on = runSortLeg(sort, os::NumaMode::kOn, spans, tally);
            SortLegResult off =
                runSortLeg(sort, os::NumaMode::kOff, spans, tally);
            checkNumaPair(on, off, tally);
            std::printf("round: numa off/on %.4fx, remote fraction on %.4f "
                        "off %.4f\n",
                        numaRatio(on, off), on.result.remoteFraction,
                        off.result.remoteFraction);
            return std::vector<Leg>{on.leg, off.leg};
        }
        RvLegResult d =
            runRvLeg(loop, Engine::kDefault, workers, golden, spans, tally);
        RvLegResult w1 =
            runRvLeg(loop, Engine::kPhased1, workers, golden, spans, tally);
        RvLegResult w2 =
            runRvLeg(loop, Engine::kPhased2, workers, golden, spans, tally);
        const char *what = "w1 and w2 stat dumps are byte-identical";
        if (loop.kind == LoopKind::kNodeLocal)
            tally.record(w1.statDump == w2.statDump, what);
        else
            tally.recordKnown(w1.statDump == w2.statDump, what, kFaultA);
        std::printf("round: %.1f %.1f %.1f MIPS (default, w1, w%u)\n",
                    ratio(d.leg.instret / 1e6, d.leg.runS),
                    ratio(w1.leg.instret / 1e6, w1.leg.runS),
                    ratio(w2.leg.instret / 1e6, w2.leg.runS), workers);
        return std::vector<Leg>{d.leg, w1.leg, w2.leg};
    };

    // Untraced runs time every round. Traced runs record spans on every
    // other round, so the rounds in between measure tracing's overhead.
    std::vector<Metrics> e2e;
    std::vector<Metrics> layers;
    std::vector<double> untracedWall;
    double last = 0;
    for (std::uint32_t r = 0;; ++r) {
        const bool traced = opt.trace && r % 2 == 0;
        spans.setRecording(traced);
        Clock::time_point rt = Clock::now();
        std::vector<Leg> legs;
        spans.time("round", "", [&] { legs = round(); });
        last = secondsSince(rt);
        Metrics m = endToEnd(legs, rv);
        if (!traced) {
            e2e.push_back(m);
            untracedWall.push_back(m["wall_s"]);
        }
        if (traced) {
            Metrics l = perLayer(legs);
            l["trace.wall_s"] = m["wall_s"];
            layers.push_back(l);
        }
        const bool enough = !opt.trace || (!layers.empty() && !e2e.empty());
        if (enough && secondsSince(t0) + last > opt.seconds)
            break;
    }

    Metrics out;
    auto fold = [&](const std::vector<Metrics> &rounds) {
        for (const auto &entry : rounds.front()) {
            const std::string &name = entry.first;
            std::vector<double> vals;
            for (const Metrics &m : rounds)
                vals.push_back(m.at(name));
            out[name] = median(vals);
        }
    };
    if (opt.trace) {
        fold(layers);
        out["trace.overhead_s"] = out["trace.wall_s"] - median(untracedWall);
        out.erase("trace.wall_s");
        for (const Probe &p : probes)
            out[p.name] = p.ns;
        std::string path = opt.traceOut.empty()
                               ? "perfbench-trace-" + opt.workload + ".json"
                               : opt.traceOut;
        std::ofstream f(path);
        spans.writeChrome(f);
        std::fprintf(stderr, "%s %zu spans to %s\n",
                     f ? "wrote" : "could not write", spans.size(),
                     path.c_str());
    } else {
        fold(e2e);
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        out["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
    }

    const bool correct = tally.correct() && probesLanded;
    printResult(tally, correct, out);
    return correct ? 0 : 1;
}
