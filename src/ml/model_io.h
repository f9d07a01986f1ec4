// Plain-text model persistence.
//
// Implements the paper's "generating a model ... is a one-time cost.
// Once we have a model, it can be used for different BFS traversals at
// runtime" (Section III-D): the offline trainer saves models here and
// the runtime predictor loads them back.
//
// Format: a tagged line-oriented text file, stable across versions:
//   bfsx-model v1 <kind>
//   <kind-specific sections>
#pragma once

#include <iosfwd>
#include <string>

#include "ml/svr.h"

namespace bfsx::ml {

void save_svr(std::ostream& os, const SvrModel& model);
[[nodiscard]] SvrModel load_svr(std::istream& is);

/// File-path conveniences; throw std::runtime_error on I/O failure.
void save_svr_file(const std::string& path, const SvrModel& model);
[[nodiscard]] SvrModel load_svr_file(const std::string& path);

}  // namespace bfsx::ml
