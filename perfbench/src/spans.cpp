#include "spans.hpp"

#include <cstdio>

namespace perfbench
{

Spans::Spans(bool recording) : recording_(recording), origin_(Clock::now())
{
}

double
Spans::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
}

int
Spans::open(const std::string &name, const std::string &leg)
{
    if (!recording_)
        return -1;
    Span s;
    s.name = name;
    s.leg = leg;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.startUs = nowUs();
    spans_.push_back(std::move(s));
    int id = static_cast<int>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
}

void
Spans::close(int id)
{
    if (id < 0)
        return;
    spans_[static_cast<std::size_t>(id)].endUs = nowUs();
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

void
Spans::writeChrome(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    char buf[96];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f", s.startUs,
                      s.endUs - s.startUs);
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
           << buf << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"leg\":\"" << s.leg << "\"}}";
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

} // namespace perfbench
