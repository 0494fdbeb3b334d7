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
 * Accumulates a stream of doubles; reports count/mean/max/sum.
 */
class RunningStat
{
  public:
    void add(double x);

    uint64_t count() const { return n_; }
    double mean() const { return n_ ? sum_ / n_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return sum_; }

  private:
    uint64_t n_ = 0;
    double sum_ = 0.0;
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Speedup (%) implied by going from @p cyclesBase to @p cyclesNew. */
double speedupPercent(double cyclesBase, double cyclesNew);

} // namespace whisper

#endif // WHISPER_UTIL_STATS_HH
