#include "serve/trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "graph/prng.h"
#include "serve/engine.h"

namespace bfsx::serve {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error("trace:" + std::to_string(line) + ": " + what);
}

graph::vid_t parse_vertex(const std::string& tok, std::size_t line) {
  std::size_t used = 0;
  long long value = 0;
  try {
    value = std::stoll(tok, &used);
  } catch (const std::exception&) {
    fail(line, "expected a vertex id, got '" + tok + "'");
  }
  if (used != tok.size() || value < 0 ||
      value > std::numeric_limits<graph::vid_t>::max()) {
    fail(line, "vertex id out of range: '" + tok + "'");
  }
  return static_cast<graph::vid_t>(value);
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

/// One FNV-1a step over a whole word.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  return (h ^ word) * 1099511628211ULL;
}

ReplayAnswer record_answer(const QueryResult& r) {
  ReplayAnswer a;
  a.ok = r.ok;
  a.kind = r.kind;
  a.epoch = r.epoch;
  if (!r.ok) return a;
  a.distance = r.distance;
  a.reachable = r.reachable;
  if (r.traversal != nullptr) {
    // Folds the level map: any cell differing between two replays
    // flips the checksum.
    a.bfs_checksum = kFnvOffset;
    for (const std::int32_t level : r.traversal->level) {
      a.bfs_checksum = fnv1a(
          a.bfs_checksum,
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(level)));
    }
  }
  return a;
}

/// Counts `r` into `summary` and records its answer.
void tally(ReplaySummary& summary, const QueryResult& r) {
  if (r.ok) {
    ++summary.served;
    if (r.cache_hit) ++summary.cache_hits;
    summary.latencies.push_back(r.latency_seconds);
  } else {
    ++summary.rejected;
  }
  summary.answers.push_back(record_answer(r));
}

}  // namespace

std::uint64_t answer_digest(const std::vector<ReplayAnswer>& answers) {
  std::uint64_t h = kFnvOffset;
  for (const ReplayAnswer& a : answers) {
    h = fnv1a(h, a.ok ? 1 : 0);
    h = fnv1a(h, static_cast<std::uint64_t>(a.kind));
    h = fnv1a(h, static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(a.distance)));
    h = fnv1a(h, a.reachable ? 1 : 0);
    h = fnv1a(h, a.epoch);
    h = fnv1a(h, a.bfs_checksum);
  }
  return h;
}

std::vector<TraceOp> load_trace(std::istream& in) {
  std::vector<TraceOp> ops;
  std::string text;
  std::size_t line = 0;
  while (std::getline(in, text)) {
    ++line;
    std::istringstream fields(text);
    std::string verb;
    if (!(fields >> verb) || verb.front() == '#') continue;

    TraceOp op;
    const auto take = [&](const char* what) {
      std::string tok;
      if (!(fields >> tok)) fail(line, std::string("missing ") + what);
      return tok;
    };
    const auto maybe_engine = [&] {
      std::string tok;
      if (fields >> tok) {
        if (tok.front() != '@' || tok.size() < 2) {
          fail(line, "expected @engine, got '" + tok + "'");
        }
        op.query.engine = tok.substr(1);
      }
    };

    if (verb == "bfs") {
      op.query.kind = QueryKind::kBfs;
      op.query.source = parse_vertex(take("source"), line);
      maybe_engine();
    } else if (verb == "dist" || verb == "reach") {
      op.query.kind =
          verb == "dist" ? QueryKind::kDistance : QueryKind::kReachability;
      op.query.source = parse_vertex(take("source"), line);
      op.query.target = parse_vertex(take("target"), line);
      maybe_engine();
    } else if (verb == "insert" || verb == "remove") {
      op.kind = verb == "insert" ? TraceOp::Kind::kInsert
                                 : TraceOp::Kind::kRemove;
      op.u = parse_vertex(take("u"), line);
      op.v = parse_vertex(take("v"), line);
    } else if (verb == "publish") {
      op.kind = TraceOp::Kind::kPublish;
    } else {
      fail(line, "unknown op '" + verb + "'");
    }
    std::string extra;
    if (fields >> extra) fail(line, "trailing token '" + extra + "'");
    ops.push_back(std::move(op));
  }
  return ops;
}

std::vector<TraceOp> load_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace: " + path);
  return load_trace(in);
}

void save_trace(const std::vector<TraceOp>& ops, std::ostream& out) {
  for (const TraceOp& op : ops) {
    switch (op.kind) {
      case TraceOp::Kind::kQuery:
        switch (op.query.kind) {
          case QueryKind::kBfs:
            out << "bfs " << op.query.source;
            break;
          case QueryKind::kDistance:
            out << "dist " << op.query.source << ' ' << op.query.target;
            break;
          case QueryKind::kReachability:
            out << "reach " << op.query.source << ' ' << op.query.target;
            break;
        }
        if (!op.query.engine.empty()) out << " @" << op.query.engine;
        out << '\n';
        break;
      case TraceOp::Kind::kInsert:
        out << "insert " << op.u << ' ' << op.v << '\n';
        break;
      case TraceOp::Kind::kRemove:
        out << "remove " << op.u << ' ' << op.v << '\n';
        break;
      case TraceOp::Kind::kPublish:
        out << "publish\n";
        break;
    }
  }
}

void save_trace_file(const std::vector<TraceOp>& ops,
                     const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace: " + path);
  save_trace(ops, out);
}

std::vector<TraceOp> generate_query_trace(const graph::CsrGraph& g,
                                          const TraceGenOptions& opts) {
  const graph::vid_t n = g.num_vertices();
  if (n <= 0) throw std::invalid_argument("generate_query_trace: empty graph");

  // The hot set mirrors the landmark cache's selection rule (top
  // out-degree, ties to the smaller id) so a hot-skewed trace actually
  // exercises the cache.
  std::vector<graph::vid_t> order(static_cast<std::size_t>(n));
  for (graph::vid_t v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  const std::size_t hot = std::min(
      static_cast<std::size_t>(std::max(opts.hot_set, 1)), order.size());
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(hot),
                    order.end(), [&g](graph::vid_t a, graph::vid_t b) {
                      const graph::eid_t da = g.out_degree(a);
                      const graph::eid_t db = g.out_degree(b);
                      return da != db ? da > db : a < b;
                    });

  graph::Xoshiro256ss rng(opts.seed);
  const auto any_vertex = [&] {
    return static_cast<graph::vid_t>(
        rng.next_bounded(static_cast<std::uint64_t>(n)));
  };
  const auto source_vertex = [&] {
    if (rng.next_double() < opts.hot_fraction) {
      return order[rng.next_bounded(hot)];
    }
    return any_vertex();
  };

  std::vector<TraceOp> ops;
  ops.reserve(static_cast<std::size_t>(opts.num_queries));
  for (std::int64_t i = 0; i < opts.num_queries; ++i) {
    TraceOp op;
    const double mix = rng.next_double();
    if (mix < opts.bfs_fraction) {
      op.query.kind = QueryKind::kBfs;
      op.query.source = source_vertex();
    } else if (mix < opts.bfs_fraction + opts.reach_fraction) {
      op.query.kind = QueryKind::kReachability;
      op.query.source = source_vertex();
      op.query.target = any_vertex();
    } else {
      op.query.kind = QueryKind::kDistance;
      op.query.source = source_vertex();
      op.query.target = any_vertex();
    }
    ops.push_back(std::move(op));

    if (opts.insert_every > 0 && (i + 1) % opts.insert_every == 0) {
      TraceOp ins;
      ins.kind = TraceOp::Kind::kInsert;
      ins.u = any_vertex();
      ins.v = any_vertex();
      ops.push_back(ins);
    }
    if (opts.remove_every > 0 && (i + 1) % opts.remove_every == 0) {
      // Remove a real edge of the base graph so the op has an effect;
      // a handful of draws finds a non-isolated vertex on any graph
      // with edges.
      graph::vid_t u = any_vertex();
      for (int tries = 0; g.out_degree(u) == 0 && tries < 64; ++tries) {
        u = any_vertex();
      }
      if (g.out_degree(u) > 0) {
        const std::span<const graph::vid_t> row = g.out_neighbors(u);
        TraceOp rem;
        rem.kind = TraceOp::Kind::kRemove;
        rem.u = u;
        rem.v = row[rng.next_bounded(row.size())];
        ops.push_back(rem);
      }
    }
    if (opts.publish_every > 0 && (i + 1) % opts.publish_every == 0) {
      TraceOp pub;
      pub.kind = TraceOp::Kind::kPublish;
      ops.push_back(pub);
    }
  }
  return ops;
}

ReplaySummary replay_trace(QueryEngine& engine,
                           const std::vector<TraceOp>& ops) {
  ReplaySummary summary;
  std::vector<std::future<QueryResult>> futures;
  const auto start = std::chrono::steady_clock::now();
  for (const TraceOp& op : ops) {
    switch (op.kind) {
      case TraceOp::Kind::kQuery:
        futures.push_back(engine.submit(op.query));
        ++summary.queries;
        break;
      case TraceOp::Kind::kInsert:
        engine.insert_edge(op.u, op.v);
        ++summary.inserts;
        break;
      case TraceOp::Kind::kRemove:
        engine.remove_edge(op.u, op.v);
        ++summary.removes;
        break;
      case TraceOp::Kind::kPublish: {
        const auto pub_start = std::chrono::steady_clock::now();
        engine.publish_inserts();
        summary.publish_wall_seconds +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          pub_start)
                .count();
        ++summary.publishes;
        break;
      }
    }
  }
  std::vector<QueryResult> results;
  results.reserve(futures.size());
  for (std::future<QueryResult>& f : futures) results.push_back(f.get());
  summary.wall_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  // Tallied once the clock stops: folding bfs level maps into checksums
  // is the client's bookkeeping, not serving time.
  for (const QueryResult& r : results) tally(summary, r);
  return summary;
}

ReplaySummary replay_trace_lockstep(QueryEngine& engine,
                                    const std::vector<TraceOp>& ops) {
  ReplaySummary summary;
  const auto start = std::chrono::steady_clock::now();
  for (const TraceOp& op : ops) {
    switch (op.kind) {
      case TraceOp::Kind::kQuery: {
        tally(summary, engine.submit(op.query).get());
        ++summary.queries;
        break;
      }
      case TraceOp::Kind::kInsert:
        engine.insert_edge(op.u, op.v);
        ++summary.inserts;
        break;
      case TraceOp::Kind::kRemove:
        engine.remove_edge(op.u, op.v);
        ++summary.removes;
        break;
      case TraceOp::Kind::kPublish: {
        const auto pub_start = std::chrono::steady_clock::now();
        engine.publish_inserts();
        summary.publish_wall_seconds +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          pub_start)
                .count();
        ++summary.publishes;
        break;
      }
    }
  }
  summary.wall_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return summary;
}

}  // namespace bfsx::serve
