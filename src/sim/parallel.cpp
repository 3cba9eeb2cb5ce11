#include "sim/parallel.hpp"

#include <atomic>
#include <barrier>
#include <exception>
#include <mutex>
#include <thread>

#include "sim/log.hpp"

namespace smappic::sim
{

thread_local NodeId detail::tlsActingNode = kNoNode;

ActingNodeScope::ActingNodeScope(NodeId node)
    : prev_(detail::tlsActingNode)
{
    detail::tlsActingNode = node;
}

ActingNodeScope::~ActingNodeScope()
{
    detail::tlsActingNode = prev_;
}

void
MailboxRouter::configure(std::uint32_t nodes)
{
    lanes_.assign(nodes, {});
}

void
MailboxRouter::post(std::function<void()> fn)
{
    NodeId src = currentNode();
    panicIf(src == kNoNode,
            "MailboxRouter::post outside a node phase (serial-context "
            "interactions should run directly)");
    panicIf(src >= lanes_.size(), "MailboxRouter lane out of range");
    lanes_[src].push_back(std::move(fn));
}

std::uint64_t
MailboxRouter::drain()
{
    std::uint64_t ran = 0;
    // Ascending source node, then post order: independent of worker
    // interleaving because each lane has a single writer.
    for (auto &lane : lanes_) {
        for (auto &fn : lane) {
            fn();
            ++ran;
        }
        lane.clear();
    }
    delivered_ += ran;
    return ran;
}

void
MailboxRouter::discard()
{
    for (auto &lane : lanes_)
        lane.clear();
}

std::uint64_t
MailboxRouter::pending() const
{
    std::uint64_t n = 0;
    for (const auto &lane : lanes_)
        n += lane.size();
    return n;
}

ParallelExecutor::ParallelExecutor(std::uint32_t workers)
    : workers_(workers == 0 ? 1 : workers)
{
}

void
ParallelExecutor::run(std::uint32_t groups, const GroupFn &group_fn,
                      const BarrierFn &barrier)
{
    if (groups == 0)
        return;
    std::uint32_t workers = std::min(workers_, groups);

    if (workers <= 1) {
        std::uint64_t epoch = 0;
        for (;;) {
            for (std::uint32_t g = 0; g < groups; ++g)
                group_fn(g);
            if (!barrier(epoch++))
                return;
        }
    }

    std::uint64_t epoch = 0;
    std::atomic<bool> keep_going{true};
    std::exception_ptr error;
    std::mutex error_mu;

    auto stash = [&](std::exception_ptr e) {
        std::lock_guard<std::mutex> lk(error_mu);
        if (!error)
            error = e;
        keep_going.store(false, std::memory_order_relaxed);
    };

    // The completion callback runs on exactly one worker with every other
    // worker parked in arrive_and_wait: the serial section.
    std::barrier sync(workers, [&]() noexcept {
        if (!keep_going.load(std::memory_order_relaxed))
            return;
        try {
            if (!barrier(epoch++))
                keep_going.store(false, std::memory_order_relaxed);
        } catch (...) {
            stash(std::current_exception());
        }
    });

    auto worker = [&](std::uint32_t w) {
        for (;;) {
            if (keep_going.load(std::memory_order_relaxed)) {
                try {
                    for (std::uint32_t g = w; g < groups; g += workers)
                        group_fn(g);
                } catch (...) {
                    stash(std::current_exception());
                }
            }
            sync.arrive_and_wait();
            if (!keep_going.load(std::memory_order_relaxed))
                return;
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::uint32_t w = 0; w < workers; ++w)
        pool.emplace_back(worker, w);
    for (auto &t : pool)
        t.join();

    if (error)
        std::rethrow_exception(error);
}

} // namespace smappic::sim
