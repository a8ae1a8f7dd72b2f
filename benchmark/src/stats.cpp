#include <algorithm>
#include <cmath>

#include "bench.hpp"

namespace dhisq::bench {

double
quantile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n == 1)
        return values[0];
    // Rank h = p(n+1), 1-based; clamping j to [1, n-1] and interpolating
    // with the unclamped h extrapolates at the ends exactly as Python does.
    const double h = p * double(n + 1);
    const std::size_t j =
        std::clamp<std::size_t>(std::size_t(std::floor(h)), 1, n - 1);
    const double frac = h - double(j);
    return values[j - 1] + (values[j] - values[j - 1]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
iqr(const std::vector<double> &values)
{
    return quantile(values, 0.75) - quantile(values, 0.25);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double h = p * double(values.size() - 1);
    const std::size_t j = std::min(std::size_t(h), values.size() - 1);
    if (j + 1 == values.size())
        return values[j];
    return values[j] + (values[j + 1] - values[j]) * (h - double(j));
}

} // namespace dhisq::bench
