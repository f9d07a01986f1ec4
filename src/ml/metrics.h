// Regression quality metrics.
#pragma once

#include <span>

namespace bfsx::ml {

/// Mean squared error. Throws on size mismatch or empty input.
[[nodiscard]] double mean_squared_error(std::span<const double> truth,
                                        std::span<const double> pred);

/// Coefficient of determination R^2 (1 = perfect; 0 = no better than
/// predicting the mean; can be negative).
[[nodiscard]] double r_squared(std::span<const double> truth,
                               std::span<const double> pred);

}  // namespace bfsx::ml
