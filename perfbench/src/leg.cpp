#include "leg.hpp"

#include <cstdio>

namespace perfbench
{

bool
Tally::record(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        correct_ = false;
        std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
    return ok;
}

bool
Tally::recordKnown(bool ok, const std::string &what,
                   const std::string &fault)
{
    ++attempted_;
    if (!ok)
        ++failed_;
    else
        std::fprintf(stderr, "note: %s passed; %s did not show\n",
                     what.c_str(), fault.c_str());
    return ok;
}

void
readCounts(platform::Prototype &proto, Leg &leg)
{
    const sim::StatRegistry &st = proto.stats();
    auto c = [&](const char *name) { return st.counterValue(name); };

    leg.counts["cache.l1_hits"] = c("cs.l1.hits");
    leg.counts["cache.l1_store_hits"] = c("cs.l1.storeHits");
    leg.counts["cache.bpc_hits"] = c("cs.bpc.hits");
    leg.counts["cache.bpc_misses"] = c("cs.bpc.misses");
    leg.counts["cache.llc_local"] = c("cs.serviced.llcLocal");
    leg.counts["cache.llc_remote"] = c("cs.serviced.llcRemote");
    leg.counts["cache.dram_local"] = c("cs.serviced.dramLocal");
    leg.counts["cache.dram_remote"] = c("cs.serviced.dramRemote");
    leg.counts["cache.dir_invalidations"] = c("cs.dir.invalidations");
    leg.counts["cache.dir_owner_recalls"] = c("cs.dir.ownerRecalls");
    leg.counts["cache.dir_downgrades"] = c("cs.dir.downgrades");
    leg.counts["cache.bridge_crossings"] = c("cs.bridge.crossings");
    leg.counts["pcie.transfers"] = proto.fabric().transfers();

    // Every access() call ends in exactly one of these counters; the
    // fast paths bump the same L1 counters as the walk they replace.
    leg.accesses = c("cs.l1.hits") + c("cs.l1.storeHits") +
                   c("cs.bpc.hits") + c("cs.bpc.misses") +
                   c("cs.nc.accesses") + c("cs.device.loads") +
                   c("cs.device.stores");

    std::uint64_t instret = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (GlobalTileId g = 0; g < proto.coreCount(); ++g) {
        const riscv::RvCore &core = proto.core(g);
        instret += core.instret();
        hits += core.decodeCache().stats().hits;
        misses += core.decodeCache().stats().misses;
    }
    leg.instret = instret;
    leg.counts["riscv.instret"] = instret;
    leg.counts["riscv.decode_hits"] = hits;
    leg.counts["riscv.decode_misses"] = misses;
}

} // namespace perfbench
