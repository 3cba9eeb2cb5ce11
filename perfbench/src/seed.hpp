/**
 * @file
 * The benchmark's own input generator (SplitMix64), kept apart from the
 * simulator's random streams.
 */

#pragma once

#include <cstdint>

namespace perfbench
{

class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state_;
};

} // namespace perfbench
