#include "core/trainer.h"

#include <cstdint>
#include <utility>

#include "graph/builder.h"
#include "graph/graph_stats.h"

namespace bfsx::core {

TrainerConfig default_trainer_config() {
  TrainerConfig cfg;

  struct Abcd {
    double a, b, c, d;
  };
  const Abcd kron_sets[] = {
      {0.57, 0.19, 0.19, 0.05},  // the paper's Graph 500 setting
      {0.45, 0.25, 0.20, 0.10},  // milder skew
  };
  for (int scale : {11, 12, 13}) {
    for (int ef : {8, 16, 32}) {
      for (const Abcd& k : kron_sets) {
        for (std::uint64_t seed : {11ULL, 29ULL}) {
          graph::RmatParams p;
          p.scale = scale;
          p.edgefactor = ef;
          p.a = k.a;
          p.b = k.b;
          p.c = k.c;
          p.d = k.d;
          p.seed = seed;
          cfg.graphs.push_back(p);
        }
      }
    }
  }

  const sim::ArchSpec cpu = sim::make_sandy_bridge_cpu();
  const sim::ArchSpec gpu = sim::make_kepler_gpu();
  const sim::ArchSpec mic = sim::make_knights_corner_mic();
  cfg.arch_pairs = {
      {cpu, cpu},  // CPUCB
      {gpu, gpu},  // GPUCB
      {mic, mic},  // MICCB
      {cpu, gpu},  // the cross-architecture handoff pair of Algorithm 3
      {cpu, mic},  // the MIC-accelerated variant (Fig. 9's comparison)
  };
  // 36 graphs x 5 pairs = 180 samples, a shade above the paper's
  // "N = 140" regime: the CPU+MIC cross pair is Fig. 9's comparison,
  // so the models see both (host, accelerator) pairings in training.
  return cfg;
}

TunedPolicy label_configuration(const LevelTrace& trace, const ArchPair& pair,
                                const sim::InterconnectSpec& link,
                                const SwitchCandidates& candidates) {
  if (!pair.is_cross()) {
    return pick_best(sweep_single(trace, pair.td, candidates), candidates);
  }
  // Cross pair: fix the accelerator-internal policy at its own optimum,
  // then search the handoff policy (Algorithm 3 tunes (M2, N2) with
  // (GI, GPUI, GPUI) and (M1, N1) with (GI, CPUI, GPUI)).
  const TunedPolicy inner =
      pick_best(sweep_single(trace, pair.bu, candidates), candidates);
  return pick_best(
      sweep_cross(trace, pair.td, pair.bu, link, candidates, inner.policy),
      candidates);
}

namespace {

/// One labelled (graph, arch-pair) sample before dataset insertion.
struct LabelledRow {
  std::vector<double> sample;
  double m = 0.0;
  double n = 0.0;
};

/// The per-graph unit of work: generate, build, trace once, then label
/// every architecture pair against that trace. Self-contained, so
/// graphs can be processed in any order (or concurrently) and the rows
/// reassembled deterministically by graph index.
std::vector<LabelledRow> label_graph(const graph::RmatParams& params,
                                     const TrainerConfig& cfg) {
  const graph::CsrGraph g = graph::build_csr(graph::generate_rmat(params));
  const std::vector<graph::vid_t> roots =
      graph::sample_roots(g, 1, cfg.root_seed);
  const LevelTrace trace = build_level_trace(g, roots.front());
  const GraphFeatures gf = features_from_rmat(params);

  std::vector<LabelledRow> rows;
  rows.reserve(cfg.arch_pairs.size());
  for (const ArchPair& pair : cfg.arch_pairs) {
    const TunedPolicy best =
        label_configuration(trace, pair, cfg.link, cfg.candidates);
    LabelledRow row;
    row.sample = build_sample(gf, pair.td, pair.bu);
    row.m = best.policy.m;
    row.n = best.policy.n;
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

TrainingData generate_training_data(const TrainerConfig& cfg) {
  const auto num_graphs = static_cast<std::int64_t>(cfg.graphs.size());
  std::vector<std::vector<LabelledRow>> per_graph(
      static_cast<std::size_t>(num_graphs));

  // Each iteration writes only its own slot; the graph build and the
  // kernels it calls parallelise internally, but nested regions
  // serialise under an active outer team, so the per-graph results —
  // deterministic by design at any thread count — are unchanged.
#ifdef _OPENMP
  // omp-lint: allow(shared-write) per_graph slots are disjoint per
  //           iteration (indexed by the loop variable)
#pragma omp parallel for schedule(dynamic, 1)
#endif
  for (std::int64_t gi = 0; gi < num_graphs; ++gi) {
    per_graph[static_cast<std::size_t>(gi)] =
        label_graph(cfg.graphs[static_cast<std::size_t>(gi)], cfg);
  }

  // Fold in (graph, arch-pair) order: the datasets are row-for-row
  // identical at every thread count regardless of completion order.
  TrainingData data;
  for (std::vector<LabelledRow>& rows : per_graph) {
    for (LabelledRow& row : rows) {
      data.m_data.add(row.sample, row.m);
      data.n_data.add(std::move(row.sample), row.n);
    }
  }
  return data;
}

SwitchPredictor train_predictor(const TrainingData& data) {
  ml::SvrModel m_model = ml::SvrModel::fit(data.m_data);
  ml::SvrModel n_model = ml::SvrModel::fit(data.n_data);
  return SwitchPredictor(std::move(m_model), std::move(n_model));
}

}  // namespace bfsx::core
