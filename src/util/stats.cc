#include "util/stats.hh"

#include <cmath>

namespace whisper
{

void
RunningStat::add(double x)
{
    ++n_;
    sum_ += x;
    sumSq_ += x * x;
    if (x < min_)
        min_ = x;
    if (x > max_)
        max_ = x;
}

double
RunningStat::variance() const
{
    if (n_ == 0)
        return 0.0;
    double m = mean();
    double v = sumSq_ / n_ - m * m;
    return v > 0.0 ? v : 0.0;
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
speedupPercent(double cyclesBase, double cyclesNew)
{
    if (cyclesNew == 0.0)
        return 0.0;
    return 100.0 * (cyclesBase / cyclesNew - 1.0);
}

double
geoMean(const std::vector<double> &values)
{
    if (values.empty())
        return 1.0;
    double logSum = 0.0;
    for (double v : values)
        logSum += std::log(v);
    return std::exp(logSum / values.size());
}

} // namespace whisper
