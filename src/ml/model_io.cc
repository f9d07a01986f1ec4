#include "ml/model_io.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace bfsx::ml {
namespace {

constexpr const char* kMagic = "bfsx-model";
constexpr const char* kVersion = "v1";

void write_vector(std::ostream& os, const std::vector<double>& v) {
  os << v.size();
  for (double x : v) os << ' ' << x;
  os << '\n';
}

std::vector<double> read_vector(std::istream& is) {
  std::size_t n = 0;
  if (!(is >> n)) throw std::runtime_error("model_io: truncated vector");
  std::vector<double> v(n);
  for (double& x : v) {
    if (!(is >> x)) throw std::runtime_error("model_io: truncated vector");
  }
  return v;
}

void expect_header(std::istream& is, const std::string& want_kind) {
  std::string magic;
  std::string version;
  std::string kind;
  if (!(is >> magic >> version >> kind) || magic != kMagic ||
      version != kVersion) {
    throw std::runtime_error("model_io: bad header");
  }
  if (kind != want_kind) {
    throw std::runtime_error("model_io: expected kind '" + want_kind +
                             "', found '" + kind + "'");
  }
}

}  // namespace

void save_svr(std::ostream& os, const SvrModel& model) {
  const SvrModel::Parts p = model.to_parts();
  os.precision(17);
  os << kMagic << ' ' << kVersion << " svr\n";
  os << (p.kernel.type == KernelType::kRbf ? "rbf" : "linear") << ' '
     << p.kernel.gamma << '\n';
  write_vector(os, p.feature_means);
  write_vector(os, p.feature_stddevs);
  os << p.y_mean << ' ' << p.y_scale << ' ' << p.bias << '\n';
  os << p.support_vectors.size() << '\n';
  for (std::size_t i = 0; i < p.support_vectors.size(); ++i) {
    os << p.coefficients[i];
    for (double x : p.support_vectors[i]) os << ' ' << x;
    os << '\n';
  }
  if (!os) throw std::runtime_error("save_svr: write failure");
}

SvrModel load_svr(std::istream& is) {
  expect_header(is, "svr");
  SvrModel::Parts p;
  std::string ktype;
  if (!(is >> ktype >> p.kernel.gamma)) {
    throw std::runtime_error("load_svr: bad kernel line");
  }
  if (ktype == "rbf") {
    p.kernel.type = KernelType::kRbf;
  } else if (ktype == "linear") {
    p.kernel.type = KernelType::kLinear;
  } else {
    throw std::runtime_error("load_svr: unknown kernel '" + ktype + "'");
  }
  p.feature_means = read_vector(is);
  p.feature_stddevs = read_vector(is);
  if (!(is >> p.y_mean >> p.y_scale >> p.bias)) {
    throw std::runtime_error("load_svr: bad target moments");
  }
  std::size_t nsv = 0;
  if (!(is >> nsv)) throw std::runtime_error("load_svr: bad SV count");
  const std::size_t dim = p.feature_means.size();
  p.coefficients.resize(nsv);
  p.support_vectors.assign(nsv, std::vector<double>(dim));
  for (std::size_t i = 0; i < nsv; ++i) {
    if (!(is >> p.coefficients[i])) {
      throw std::runtime_error("load_svr: truncated SV");
    }
    for (double& x : p.support_vectors[i]) {
      if (!(is >> x)) throw std::runtime_error("load_svr: truncated SV");
    }
  }
  return SvrModel::from_parts(std::move(p));
}

void save_svr_file(const std::string& path, const SvrModel& model) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_svr_file: cannot open " + path);
  save_svr(os, model);
}

SvrModel load_svr_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("load_svr_file: cannot open " + path);
  return load_svr(is);
}

}  // namespace bfsx::ml
