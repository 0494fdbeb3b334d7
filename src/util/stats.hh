/**
 * @file
 * Scalar statistics accumulators used by simulators and benches.
 */

#ifndef WHISPER_UTIL_STATS_HH
#define WHISPER_UTIL_STATS_HH

#include <cstdint>
#include <limits>

namespace whisper
{

/**
 * Accumulates a stream of doubles; reports count/mean/min/max/sum.
 */
class RunningStat
{
  public:
    void add(double x);

    uint64_t count() const { return n_; }
    double mean() const { return n_ ? sum_ / n_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return sum_; }

  private:
    uint64_t n_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Ratio counter: hits out of total, e.g. prediction accuracy or
 * cache hit rate. Guards against division by zero.
 */
class RatioStat
{
  public:
    void
    record(bool hit)
    {
        ++total_;
        if (hit)
            ++hits_;
    }

    void
    add(uint64_t hits, uint64_t total)
    {
        hits_ += hits;
        total_ += total;
    }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return total_ - hits_; }
    uint64_t total() const { return total_; }

    double
    ratio() const
    {
        return total_ ? static_cast<double>(hits_) / total_ : 0.0;
    }

  private:
    uint64_t hits_ = 0;
    uint64_t total_ = 0;
};

/** Speedup (%) implied by going from @p cyclesBase to @p cyclesNew. */
double speedupPercent(double cyclesBase, double cyclesNew);

} // namespace whisper

#endif // WHISPER_UTIL_STATS_HH
