/**
 * @file
 * Host-time spans around the benchmark's calls into the simulator.
 *
 * Every timed call goes through Spans::time(), which returns the call's
 * host seconds. While recording is on, it also keeps a span (name, start,
 * end, parent, leg) in memory; writeChrome() emits them at the end as
 * Chrome trace_event JSON, which chrome://tracing or Perfetto opens.
 */

#pragma once

#include <chrono>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Spans
{
  public:
    explicit Spans(bool recording = false);

    void setRecording(bool on) { recording_ = on; }
    bool recording() const { return recording_; }

    /**
     * Runs @p fn and returns its host seconds. When recording, the call
     * becomes a span whose parent is the innermost span still open.
     */
    template <class Fn>
    double
    time(const std::string &name, const std::string &leg, Fn &&fn)
    {
        int id = open(name, leg);
        Clock::time_point t0 = Clock::now();
        try {
            std::forward<Fn>(fn)();
        } catch (...) {
            close(id);
            throw;
        }
        double s = secondsSince(t0);
        close(id);
        return s;
    }

    std::size_t size() const { return spans_.size(); }

    /** Writes every recorded span as Chrome trace_event JSON. */
    void writeChrome(std::ostream &os) const;

  private:
    struct Span
    {
        std::string name;
        std::string leg;
        double startUs = 0;
        double endUs = 0;
        int parent = -1;
    };

    /** @return The span's index, or -1 when not recording. */
    int open(const std::string &name, const std::string &leg);
    void close(int id);

    double nowUs() const;

    bool recording_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

} // namespace perfbench
