// Unit tests for model serialisation (text format round trips).
#include "ml/model_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/prng.h"

namespace bfsx::ml {
namespace {

Dataset quad_data(int n, std::uint64_t seed) {
  graph::Xoshiro256ss rng(seed);
  Dataset d;
  for (int i = 0; i < n; ++i) {
    const double x = rng.next_double() * 4 - 2;
    d.add({x, x * 0.5}, x * x + 1);
  }
  return d;
}

TEST(ModelIo, SvrRoundTripPredictsIdentically) {
  const SvrModel m = SvrModel::fit(quad_data(80, 3));
  std::stringstream ss;
  save_svr(ss, m);
  const SvrModel back = load_svr(ss);
  graph::Xoshiro256ss rng(5);
  for (int i = 0; i < 25; ++i) {
    const double x = rng.next_double() * 4 - 2;
    const std::vector<double> q = {x, x * 0.5};
    EXPECT_DOUBLE_EQ(m.predict(q), back.predict(q));
  }
}

TEST(ModelIo, LinearKernelRoundTrip) {
  SvrParams params;
  params.kernel.type = KernelType::kLinear;
  const SvrModel m = SvrModel::fit(quad_data(40, 8), params);
  std::stringstream ss;
  save_svr(ss, m);
  const SvrModel back = load_svr(ss);
  EXPECT_STREQ(back.kind(), "svr-linear");
  for (double x : {-1.5, 0.0, 0.75}) {
    const std::vector<double> q = {x, x * 0.5};
    EXPECT_DOUBLE_EQ(m.predict(q), back.predict(q));
  }
}

TEST(ModelIo, SaveLoadSaveIsByteIdentical) {
  // The format prints every double with 17 significant digits, so a
  // reloaded model writes the very same file: trained models can be
  // compared with cmp.
  std::stringstream first;
  save_svr(first, SvrModel::fit(quad_data(60, 9)));
  std::stringstream reread(first.str());
  std::stringstream second;
  save_svr(second, load_svr(reread));
  EXPECT_EQ(first.str(), second.str());
}

TEST(ModelIo, ConsecutiveModelsReadBackFromOneStream) {
  // A switching-point predictor stores its M and N models back to back.
  const SvrModel a = SvrModel::fit(quad_data(30, 10));
  const SvrModel b = SvrModel::fit(quad_data(35, 11));
  std::stringstream ss;
  save_svr(ss, a);
  save_svr(ss, b);
  const SvrModel a_back = load_svr(ss);
  const SvrModel b_back = load_svr(ss);
  const std::vector<double> q = {0.3, 0.15};
  EXPECT_DOUBLE_EQ(a.predict(q), a_back.predict(q));
  EXPECT_DOUBLE_EQ(b.predict(q), b_back.predict(q));
  EXPECT_THROW((void)load_svr(ss), std::runtime_error);
}

TEST(ModelIo, LoadRejectsWrongKind) {
  // A well-formed SVR body under another kind's header: only the kind
  // check can reject it.
  std::stringstream saved;
  save_svr(saved, SvrModel::fit(quad_data(20, 1)));
  const std::string text = saved.str();
  std::stringstream ss("bfsx-model v1 ridge" + text.substr(text.find('\n')));
  EXPECT_THROW(load_svr(ss), std::runtime_error);
}

TEST(ModelIo, LoadRejectsGarbageHeader) {
  std::stringstream ss("not-a-model at all");
  EXPECT_THROW(load_svr(ss), std::runtime_error);
}

TEST(ModelIo, LoadRejectsOtherVersionAndUnknownKernel) {
  std::stringstream saved;
  save_svr(saved, SvrModel::fit(quad_data(20, 12)));
  const std::string text = saved.str();
  const std::string body = text.substr(text.find('\n'));
  std::stringstream v2("bfsx-model v2 svr" + body);
  EXPECT_THROW((void)load_svr(v2), std::runtime_error);
  // The kernel line follows the header: "rbf <gamma>".
  std::string sigmoid = text;
  sigmoid.replace(sigmoid.find("\nrbf ") + 1, 3, "sigmoid");
  std::stringstream unknown(sigmoid);
  EXPECT_THROW((void)load_svr(unknown), std::runtime_error);
}

TEST(ModelIo, LoadRejectsTruncatedBody) {
  const SvrModel m = SvrModel::fit(quad_data(30, 2));
  std::stringstream full;
  save_svr(full, m);
  const std::string text = full.str();
  std::stringstream cut(text.substr(0, text.size() / 2));
  EXPECT_THROW(load_svr(cut), std::runtime_error);
}

TEST(ModelIo, FileHelpersRoundTrip) {
  const SvrModel m = SvrModel::fit(quad_data(40, 4));
  const std::string path = ::testing::TempDir() + "/bfsx_svr_model.txt";
  save_svr_file(path, m);
  const SvrModel back = load_svr_file(path);
  const std::vector<double> q = {0.5, 0.25};
  EXPECT_DOUBLE_EQ(m.predict(q), back.predict(q));
}

TEST(ModelIo, FileHelpersThrowOnBadPath) {
  const SvrModel m = SvrModel::fit(quad_data(20, 6));
  EXPECT_THROW(save_svr_file("/nonexistent-dir/x.txt", m),
               std::runtime_error);
  EXPECT_THROW(load_svr_file("/nonexistent-dir/x.txt"), std::runtime_error);
}

}  // namespace
}  // namespace bfsx::ml
