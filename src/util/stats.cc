#include "util/stats.hh"

namespace whisper
{

void
RunningStat::add(double x)
{
    ++n_;
    sum_ += x;
    if (x > max_)
        max_ = x;
}

double
speedupPercent(double cyclesBase, double cyclesNew)
{
    if (cyclesNew == 0.0)
        return 0.0;
    return 100.0 * (cyclesBase / cyclesNew - 1.0);
}

} // namespace whisper
