// perfbench_driver — the measuring half of the repository benchmark
// (perfbench/run.py is the other half; perfbench/README.md explains the
// workloads and metrics).
//
//   perfbench_driver gen     --workload W --seed S --dir DIR
//   perfbench_driver machine [--ceiling 1]
//   perfbench_driver run     --workload W --dir DIR --seconds T --trace 0|1
//                            [--seed S]
//
// `gen` builds the workload's graph from the seed and writes it with
// graph::save_binary, so `run` only ever sees the graph as a file. `machine`
// fingerprints the host: cores, caches, a STREAM-style triad and, with
// --ceiling, the standalone min-plus row-kernel rate. `run` times calls into
// the library's public API from outside, checks every output, and prints an
// {"info": ...} line and then the result object as its last stdout line.
//
// With --trace 0 every stage is timed with tracing off (the end-to-end
// metrics). With --trace 1 iterations alternate untraced / traced (the
// obs::TraceRecorder and the counter registry on, driver-side ScopedSpans
// around each layer call); the per-layer metrics come from the traced
// iterations and the traced-vs-untraced difference is the tracing overhead.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <omp.h>

#include "parapsp/parapsp.hpp"

namespace {

using namespace parapsp;
namespace fs = std::filesystem;
using W = std::uint32_t;
using Clock = std::chrono::steady_clock;
using Pair = std::pair<VertexId, VertexId>;

// ---------------------------------------------------------------- workloads

constexpr int kBatch = 256;          // pairs per distances() call
constexpr double kZipfTheta = 0.99;  // apsp_loadgen's default source skew
constexpr int kClients = 3;          // closed-loop query threads per window
constexpr double kQueryWindowS = 1.0;  // per pipeline iteration
constexpr int kDistRanks = 3;
constexpr int kChurnReaders = 1;  // query threads beside the churn writer
constexpr int kChurnRounds = 8;
constexpr double kChurnProbeS = 4.0;

/// Solver threads, set explicitly (choose_substrate reads the OpenMP count).
int solver_threads() {
  return std::max(1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
}

bool known_workload(const std::string& name) {
  return name == "scalefree-pipeline" || name == "random-pipeline";
}

graph::Graph<W> make_graph(const std::string& workload, std::uint64_t seed) {
  if (workload == "scalefree-pipeline") return graph::barabasi_albert<W>(12000, 8, seed);
  return graph::erdos_renyi_gnm<W>(12000, 96000, seed);
}

/// The weighted road grid the traced random-pipeline run probes the dynamic,
/// rho-stepping and dist layers on.
graph::Graph<W> make_grid(std::uint64_t seed) {
  return graph::randomize_weights<W>(graph::grid_graph<W>(48, 48), 1, 9, seed);
}

// ---------------------------------------------------------------- helpers

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double peak_rss_mib() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);  // forked dist workers, when any
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) / 1024.0;
}

/// Unlinks `path` and flushes dirty pages, so a timed write starts from the
/// same page-cache state every iteration.
void drop_file(const fs::path& path) {
  std::error_code ec;
  fs::remove(path, ec);
  ::sync();
}

bool files_equal(const fs::path& a, const fs::path& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  std::vector<char> ba(1 << 20), bb(1 << 20);
  while (true) {
    fa.read(ba.data(), static_cast<std::streamsize>(ba.size()));
    fb.read(bb.data(), static_cast<std::streamsize>(bb.size()));
    if (fa.gcount() != fb.gcount()) return false;
    if (fa.gcount() == 0) return true;
    if (!std::equal(ba.begin(), ba.begin() + fa.gcount(), bb.begin())) return false;
  }
}

/// One JSON object: {"name": {"value": v, "unit": "u"}, ...}.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    entries_[name] = {value, unit};
  }
  [[nodiscard]] const auto& entries() const noexcept { return entries_; }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (const auto& [name, e] : entries_) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(e.first) ? e.first : 0.0);
      if (out.size() > 1) out += ", ";
      out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + e.second + "\"}";
    }
    return out + "}";
  }

 private:
  std::map<std::string, std::pair<double, std::string>> entries_;
};

/// Inverse-CDF Zipf sampler over vertex ids, as in apsp_loadgen: rank r has
/// weight 1/(r+1)^theta and rank r is vertex r (BA hubs have low ids).
class ZipfSampler {
 public:
  ZipfSampler(VertexId n, double theta) : cdf_(n) {
    double total = 0.0;
    for (VertexId i = 0; i < n; ++i) {
      total += std::pow(static_cast<double>(i) + 1.0, -theta);
      cdf_[i] = total;
    }
  }
  VertexId operator()(util::Xoshiro256& rng) const {
    const double u = rng.uniform() * cdf_.back();
    return static_cast<VertexId>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                                 cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct Answer {
  VertexId s, t;
  W d;
};

/// Closed-loop query traffic: `clients` threads, each sending batches of
/// kBatch pairs (Zipf sources, uniform targets) and waiting for the reply.
struct QueryLog {
  std::vector<std::uint32_t> batch_ns;
  std::vector<Answer> sample;  // answers kept for verification
  std::uint64_t queries = 0;
  std::uint64_t batches = 0;
  std::uint64_t failed_batches = 0;
  double seconds = 0;

  void merge(QueryLog&& o) {
    batch_ns.insert(batch_ns.end(), o.batch_ns.begin(), o.batch_ns.end());
    sample.insert(sample.end(), o.sample.begin(), o.sample.end());
    queries += o.queries;
    batches += o.batches;
    failed_batches += o.failed_batches;
    seconds += o.seconds;
  }
};

using DistancesFn = std::function<util::Status(std::span<const Pair>, std::span<W>)>;

/// Runs until `window_s` elapses or `*stop` is set.
QueryLog run_queries(const DistancesFn& distances, const ZipfSampler& zipf, VertexId n,
                     int clients, double window_s, std::uint64_t seed,
                     const std::atomic<bool>* stop = nullptr) {
  std::vector<QueryLog> logs(clients);
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(window_s));
  auto client = [&](int id) {
    QueryLog& log = logs[id];
    log.batch_ns.reserve(1 << 16);
    util::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(id) + 1);
    std::vector<Pair> pairs(kBatch);
    std::vector<W> out(kBatch);
    while (stop != nullptr ? !stop->load(std::memory_order_relaxed) : Clock::now() < end) {
      for (auto& p : pairs) p = {zipf(rng), static_cast<VertexId>(rng.bounded(n))};
      const auto b0 = Clock::now();
      const auto st = distances(pairs, out);
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - b0);
      ++log.batches;
      if (!st.is_ok()) {
        ++log.failed_batches;
        continue;
      }
      log.queries += kBatch;
      log.batch_ns.push_back(static_cast<std::uint32_t>(
          std::min<std::int64_t>(ns.count(), std::numeric_limits<std::uint32_t>::max())));
      if (log.batches % 64 == 1) {
        for (int i = 0; i < 2; ++i) log.sample.push_back({pairs[i].first, pairs[i].second, out[i]});
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (auto& t : threads) t.join();
  const double elapsed = seconds_since(t0);
  QueryLog all;
  for (auto& l : logs) all.merge(std::move(l));
  all.seconds = elapsed;
  return all;
}

/// Counts failed operations against attempted ones.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
  }
};

/// Sampled rows of a solved matrix must equal single-source Dijkstra.
void check_rows(const graph::Graph<W>& g, const std::function<const W*(VertexId)>& row,
                std::uint64_t seed, Tally& tally, const char* what) {
  const VertexId n = g.num_vertices();
  util::Xoshiro256 rng(seed ^ 0x5eedULL);
  std::vector<VertexId> sources = {0, n - 1};
  for (int i = 0; i < 4; ++i) sources.push_back(static_cast<VertexId>(rng.bounded(n)));
  for (const VertexId s : sources) {
    const auto ref = sssp::dijkstra(g, s);
    const W* got = row(s);
    tally.op(got != nullptr && std::equal(ref.begin(), ref.end(), got),
             std::string(what) + " row " + std::to_string(s) + " differs from dijkstra");
  }
}

/// Served answers must equal the exact distances (Dijkstra rows of `g`).
void check_answers(const graph::Graph<W>& g, const std::vector<Answer>& sample,
                   Tally& tally, std::size_t max_sources = 24) {
  std::map<VertexId, std::vector<Answer>> by_source;
  for (const auto& a : sample) {
    if (by_source.size() >= max_sources && !by_source.count(a.s)) continue;
    by_source[a.s].push_back(a);
  }
  std::uint64_t bad = 0, checked = 0;
  for (const auto& [s, answers] : by_source) {
    const auto ref = sssp::dijkstra(g, s);
    for (const auto& a : answers) {
      ++checked;
      if (ref[a.t] != a.d) ++bad;
    }
  }
  tally.op(checked > 0 && bad == 0,
           "served answers: " + std::to_string(bad) + " of " + std::to_string(checked) +
               " differ from dijkstra");
}

/// apsp::save_matrix with its failure as a Status.
util::Status save_matrix(const apsp::DistanceMatrix<W>& D, const fs::path& path) {
  try {
    apsp::save_matrix(D, path.string());
    return util::Status::ok();
  } catch (const std::exception& e) {
    return {util::ErrorCode::kIo, e.what()};
  }
}

/// Touches every page of every mapped row (the query window must not pay
/// first-touch faults).
std::uint64_t warm_rows(const serve::ShardStore<W>& store) {
  const auto snap = store.snapshot();
  std::uint64_t sum = 0;
  for (VertexId s = 0; s < snap->n; ++s) {
    const W* row = snap->row(s);
    if (row == nullptr) continue;
    for (VertexId i = 0; i < snap->n; i += 4096 / sizeof(W)) sum += row[i];
    sum += row[snap->n - 1];
  }
  return sum;
}

// ---------------------------------------------------------------- tracing

/// Sum of durations (seconds) of the recorded spans named `name`.
double span_s(const std::vector<obs::TraceEvent>& ev, const std::string& name) {
  std::int64_t us = 0;
  for (const auto& e : ev) {
    if (e.name == name) us += e.dur_us;
  }
  return static_cast<double>(us) * 1e-6;
}

/// Arms the trace recorder and the counter registry for one traced
/// iteration; the recorded spans are read back with events().
class TracedScope {
 public:
  explicit TracedScope(bool on) : on_(on), collection_(on) {
    if (on_) {
      obs::TraceRecorder::global().clear();
      obs::TraceRecorder::global().set_enabled(true);
    }
  }
  TracedScope(const TracedScope&) = delete;
  TracedScope& operator=(const TracedScope&) = delete;
  ~TracedScope() {
    if (on_) obs::TraceRecorder::global().set_enabled(false);
  }
  [[nodiscard]] std::vector<obs::TraceEvent> events() const {
    return obs::TraceRecorder::global().events();
  }

 private:
  bool on_;
  obs::Collection collection_;
};

/// Layer probes for a traced iteration: the calls the solve path makes
/// before its sweep, timed standalone under driver-side spans.
void probe_layers(const graph::Graph<W>& g, int threads) {
  {
    obs::ScopedSpan span("probe.signals", "layer");
    const auto sig = sssp::measure_signals(g);
    (void)sssp::choose_substrate(sig, threads, sssp::SweepContext::kFullSweep);
  }
  {
    obs::ScopedSpan span("probe.ordering", "layer");
    (void)order::multilists_order(g.degrees());
  }
  {
    obs::ScopedSpan span("probe.alloc_touch", "layer");
    apsp::DistanceMatrix<W> D(g.num_vertices());
  }
}

// ---------------------------------------------------------------- run context

struct Run {
  std::string workload;
  fs::path dir;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = solver_threads();

  graph::Graph<W> g;
  std::vector<double> load_s;
  std::uintmax_t graph_bytes = 0;
  Tally tally;
  Metrics out;
};

/// One burst of set-up samples: repeated loads of the graph file (setup_s is
/// the median over all bursts). The first burst keeps the graph.
void load_burst(Run& r, double burst_s = 0.05) {
  const fs::path path = r.dir / "graph.bin";
  r.graph_bytes = fs::file_size(path);
  const auto t0 = Clock::now();
  for (int i = 0; i < 5 || (seconds_since(t0) < burst_s && i < 2000); ++i) {
    obs::ScopedSpan span("graph.load", "layer");
    const auto l0 = Clock::now();
    auto g = graph::try_load_binary<W>(path.string());
    r.load_s.push_back(seconds_since(l0));
    r.tally.op(g.has_value(), "load " + path.string());
    if (!g) throw std::runtime_error(g.status().message());
    if (r.g.num_vertices() == 0) r.g = std::move(*g);
  }
}

core::SolverOptions solver_options(const Run& r, bool traced, int threads = 0) {
  core::SolverOptions o;
  o.threads = threads > 0 ? threads : r.threads;  // choose_substrate reads it
  o.collect_metrics = traced;
  return o;
}

struct LayerAcc {  // per-layer values from traced iterations
  std::map<std::string, std::vector<double>> v;
  void add(const std::string& k, double x) { v[k].push_back(x); }
  [[nodiscard]] double med(const std::string& k) const {
    const auto it = v.find(k);
    return it == v.end() ? 0.0 : median(it->second);
  }
};

void report_query_metrics(Run& r, const QueryLog& q) {
  std::vector<std::uint32_t> lat = q.batch_ns;
  std::sort(lat.begin(), lat.end());
  auto pct = [&](double p) {
    if (lat.empty()) return 0.0;
    return static_cast<double>(lat[static_cast<std::size_t>(p * double(lat.size() - 1))]) *
           1e-3;
  };
  r.tally.attempted += q.batches;
  r.tally.failed += q.failed_batches;
  if (r.trace) {
    // Batch latencies move with host noise more than any end-to-end bound
    // allows, so they are reported here; query_qps is the gated view.
    r.out.set("query_p50_us", pct(0.50), "us");
    r.out.set("query_p99_us", pct(0.99), "us");
    return;
  }
  r.out.set("query_qps", q.seconds > 0 ? double(q.queries) / q.seconds : 0.0, "1/s");
  std::fprintf(stderr, "perfbench: %llu batches, %.3f s of queries\n",
               static_cast<unsigned long long>(lat.size()), q.seconds);
}

void report_common(Run& r, const std::vector<double>& solve_s,
                   const std::vector<double>& write_s, double rss) {
  if (r.trace) {
    r.out.set("graph.load_s", median(r.load_s), "s");
    r.out.set("graph.load_mbps", double(r.graph_bytes) / 1e6 / median(r.load_s), "MB/s");
    return;
  }
  r.out.set("setup_s", median(r.load_s), "s");
  r.out.set("solve_s", median(solve_s), "s");
  r.out.set("write_s", median(write_s), "s");
  r.out.set("peak_rss_mib", rss, "MiB");
}

/// Zero-valued entries for the layers only the grid probes exercise, so
/// every traced record carries the full per-layer schema.
void report_absent_layers(Run& r) {
  struct Entry {
    const char* name;
    const char* unit;
  };
  static constexpr Entry kGridLayers[] = {
      {"dyn.increase_epoch_ms", "ms"},  {"dyn.decrease_epoch_ms", "ms"},
      {"dyn.increase_apply_ms", "ms"},  {"dyn.decrease_apply_ms", "ms"},
      {"dyn.publish_ms", "ms"},         {"dyn.rows_recomputed", "count"},
      {"dyn.rows_repaired", "count"},   {"dyn.rows_skipped", "count"},
      {"dyn.relax_ratio", "ratio"},     {"dist.supersteps", "count"},
      {"dist.messages", "count"},       {"dist.bytes_moved", "bytes"},
      {"dist.retries", "count"},        {"dist.stream_read_s", "s"},
      {"dist.prefetch_stall_s", "s"}};
  for (const auto& e : kGridLayers) r.out.set(e.name, 0.0, e.unit);
}

void report_probes(Run& r, const LayerAcc& acc) {
  r.out.set("sssp.signals_s", acc.med("probe.signals"), "s");
  r.out.set("order.ordering_s", acc.med("probe.ordering"), "s");
  r.out.set("apsp.alloc_touch_s", acc.med("probe.alloc_touch"), "s");
  r.out.set("io.open_s", acc.med("io.open"), "s");
  r.out.set("io.warm_s", acc.med("io.warm"), "s");
  r.out.set("io.write_gbps", acc.med("io.write_gbps"), "GB/s");
  r.out.set("serve.hit_rate", acc.med("serve.hit_rate"), "ratio");
  r.out.set("serve.fallback_rows", acc.med("serve.fallback_rows"), "count");
  r.out.set("serve.batch_mean_us", acc.med("serve.batch_mean_us"), "us");
}

/// Opens `path` as a Service, warms it and records io.open / io.warm.
std::optional<serve::Service<W>> open_and_warm(Run& r, const fs::path& path,
                                               std::vector<double>& open_s) {
  const auto t0 = Clock::now();
  std::optional<serve::Service<W>> svc;
  {
    obs::ScopedSpan span("io.open", "layer");
    auto s = serve::Service<W>::open_matrix(path.string());
    r.tally.op(s.has_value(), "open_matrix " + path.string() +
                                  (s ? "" : ": " + s.status().message()));
    if (s) svc.emplace(std::move(*s));
  }
  open_s.push_back(seconds_since(t0));
  if (svc) {
    obs::ScopedSpan span("io.warm", "layer");
    volatile std::uint64_t sink = warm_rows(*svc->store());
    (void)sink;
  }
  return svc;
}

void record_serve_layer(LayerAcc& acc, const serve::ServeStats& st) {
  acc.add("serve.hit_rate", st.hit_rate());
  acc.add("serve.fallback_rows", double(st.fallback_rows));
  acc.add("serve.batch_mean_us",
          st.batches ? double(st.batch_ns) / double(st.batches) * 1e-3 : 0.0);
}

// ------------------------------------------------------------- pipeline

/// Each iteration: Service::compute → export_matrix → open_matrix + warm →
/// closed-loop queries from the mapped rows.
void run_pipeline(Run& r) {
  const VertexId n = r.g.num_vertices();
  const ZipfSampler zipf(n, kZipfTheta);
  const fs::path out = r.dir / "out.padm";

  std::vector<double> solve_s, write_s, open_s, stage_untraced, stage_traced;
  QueryLog queries;
  LayerAcc acc;
  apsp::KernelStats kernel_total;
  double sweep_total = 0;

  // Starts an iteration only while it is expected to end inside the window.
  std::vector<double> iter_s;
  const auto window0 = Clock::now();
  for (int it = 0; it == 0 || (r.trace && it < 2) ||
                   seconds_since(window0) + median(iter_s) < r.seconds;
       ++it) {
    const auto iter0 = Clock::now();
    if (it > 0) load_burst(r);
    const bool traced = r.trace && it % 2 == 1;
    TracedScope scope(traced);
    if (traced) probe_layers(r.g, r.threads);

    const auto t0 = Clock::now();
    std::optional<serve::Service<W>> computed;
    {
      // ParAPSP; the auto substrate resolves to modified Dijkstra here.
      obs::ScopedSpan span("apsp.solve", "layer");
      auto s = serve::Service<W>::compute(r.g, solver_options(r, traced));
      r.tally.op(s.has_value() && s->solve_info().complete(),
                 "Service::compute" + (s ? "" : ": " + s.status().message()));
      if (!s) break;
      computed.emplace(std::move(*s));
    }
    const double solve = seconds_since(t0);
    const apsp::ApspResult<W>& si = computed->solve_info();
    const apsp::DistanceMatrix<W>* D = computed->matrix();
    check_rows(r.g, [&](VertexId s) { return D->row(s).data(); }, r.seed + it, r.tally,
               "solved");
    kernel_total += si.kernel;
    sweep_total += si.sweep_seconds;
    if (traced) {
      acc.add("apsp.sweep_s", si.sweep_seconds);
      acc.add("apsp.ordering_in_solve_s", si.ordering_seconds);
      acc.add("sssp.batch_pulls", double(si.report.total(obs::Counter::kSsspBatchPulls)));
      acc.add("sssp.stale_skipped", double(si.report.total(obs::Counter::kSsspStaleSkipped)));
      acc.add("apsp.solve_s", solve);
    }
    drop_file(out);
    const auto w0 = Clock::now();
    util::Status st;
    {
      obs::ScopedSpan span("io.write", "layer");
      st = computed->export_matrix(out.string());
    }
    const double write = seconds_since(w0);
    write_s.push_back(write);
    r.tally.op(st.is_ok(), "export_matrix: " + st.message());
    if (traced) acc.add("io.write_gbps", double(fs::file_size(out)) / write / 1e9);
    computed.reset();  // the served copy is the mapped file from here on
    std::optional<serve::Service<W>> served = open_and_warm(r, out, open_s);
    solve_s.push_back(solve);
    (traced ? stage_traced : stage_untraced).push_back(solve + write + open_s.back());
    if (!served) break;

    DistancesFn fn = [&](std::span<const Pair> p, std::span<W> o) {
      return served->distances(p, o);
    };
    QueryLog q;
    {
      obs::ScopedSpan span("serve.window", "layer");
      q = run_queries(fn, zipf, n, kClients, kQueryWindowS, r.seed * 131 + it);
    }
    check_answers(r.g, q.sample, r.tally);
    if (traced) {
      record_serve_layer(acc, served->stats());
      const auto ev = scope.events();
      for (const char* k : {"probe.signals", "probe.ordering", "probe.alloc_touch",
                            "io.open", "io.warm"}) {
        acc.add(k, span_s(ev, k));
      }
    }
    std::fprintf(stderr,
                 "perfbench: iteration %d%s solve %.4f s, write %.4f s, open %.4f s, "
                 "%llu queries\n",
                 it, traced ? " (traced)" : "", solve, write, open_s.back(),
                 static_cast<unsigned long long>(q.queries));
    q.sample.clear();
    queries.merge(std::move(q));
    iter_s.push_back(seconds_since(iter0));
  }
  const double rss = peak_rss_mib();

  report_common(r, solve_s, write_s, rss);
  report_query_metrics(r, queries);
  if (!r.trace) return;

  // ---- per-layer (traced run)
  report_probes(r, acc);
  r.out.set("trace.overhead_frac", median(stage_traced) / median(stage_untraced) - 1.0,
            "frac");
  report_absent_layers(r);
  const double iters = double(solve_s.size());
  const double cells = double(kernel_total.row_cells_scanned) / iters;
  const double sweep = sweep_total / iters;
  r.out.set("apsp.sweep_s", acc.med("apsp.sweep_s"), "s");
  r.out.set("apsp.unowned_s",
            acc.med("apsp.solve_s") - acc.med("apsp.ordering_in_solve_s") -
                acc.med("apsp.sweep_s") - acc.med("probe.alloc_touch") -
                acc.med("probe.signals"),
            "s");
  r.out.set("apsp.edge_relaxations", double(kernel_total.edge_relaxations) / iters, "count");
  r.out.set("apsp.row_reuses", double(kernel_total.row_reuses) / iters, "count");
  r.out.set("apsp.reuse_yield",
            cells > 0 ? double(kernel_total.reuse_improvements) / iters / cells : 0.0,
            "ratio");
  r.out.set("sssp.batch_pulls", acc.med("sssp.batch_pulls"), "count");
  r.out.set("sssp.stale_skipped", acc.med("sssp.stale_skipped"), "count");
  r.out.set("kernel.row_cells", cells, "count");
  // Computed bytes: each streamed cell reads one source and one target entry.
  r.out.set("kernel.row_gbps", sweep > 0 ? cells * 2 * sizeof(W) / sweep / 1e9 : 0.0,
            "GB/s");
  // Single-thread baseline of the same problem (auto substrate re-resolves
  // for one thread, as it would for a user).
  const auto t1 = Clock::now();
  {
    auto res = core::try_solve(r.g, solver_options(r, false, 1));
    r.tally.op(res.has_value() && res->complete(), "single-thread solve");
  }
  r.out.set("apsp.speedup_vs_1t", seconds_since(t1) / median(solve_s), "x");
}

// ------------------------------------------------------------- grid probes

/// rho-stepping and dist layers on the grid: one core::solve with the auto
/// substrate, which picks rho-stepping on this weighted high-diameter grid,
/// and one supervise_apsp run whose merged .padm must be byte-identical to
/// that in-process solve.
void probe_rho_and_dist(Run& r, const graph::Graph<W>& grid) {
  const fs::path ref = r.dir / "reference.padm";
  const fs::path merged = r.dir / "merged.padm";
  {
    TracedScope scope(true);
    auto res = core::try_solve(grid, solver_options(r, true));
    r.tally.op(res.has_value() && res->complete(), "core::solve (rho-stepping probe)");
    if (!res) return;
    r.out.set("sssp.batch_pulls", double(res->report.total(obs::Counter::kSsspBatchPulls)),
              "count");
    r.out.set("sssp.stale_skipped",
              double(res->report.total(obs::Counter::kSsspStaleSkipped)), "count");
    const auto st = save_matrix(res->distances, ref);
    r.tally.op(st.is_ok(), "save_matrix: " + st.message());
  }
  dist::ProcOptions po;
  po.ranks = kDistRanks;
  po.shard_dir = (r.dir / "shards").string();
  po.stream_merge = true;  // rows streamed straight into merged.padm
  po.stream_path = merged.string();
  TracedScope scope(true);
  const auto res = dist::supervise_apsp(grid, po);
  const bool ok = res && res->status.is_ok() && res->complete() && !res->degraded &&
                  res->faults.degraded_shards == 0;
  r.tally.op(ok, "supervise_apsp" + (res ? " " + res->fault.message()
                                         : ": " + res.status().message()));
  r.tally.op(files_equal(merged, ref), "merged .padm differs from core::solve");
  if (!res) return;
  r.out.set("dist.supersteps", double(res->comm.supersteps), "count");
  r.out.set("dist.messages", double(res->comm.messages), "count");
  r.out.set("dist.bytes_moved", double(res->comm.bytes), "bytes");
  r.out.set("dist.retries", double(res->faults.retries), "count");
  r.out.set("dist.stream_read_s", res->stream.prefetch_read_s, "s");
  r.out.set("dist.prefetch_stall_s", res->stream.prefetch_stall_s, "s");
}

/// Dynamic layer on the grid: rounds of churn as in bench/ext_dynamic,
/// alternating increase epochs (incident: remove + reinsert at 5x weight)
/// and decrease epochs (clearance), beside one closed-loop reader of the
/// published generation. The engine publishes through a hook that does what
/// DynamicService's does (copy + graph_fingerprint + publish_matrix) and
/// times it, so an epoch's apply is its time minus its own publish. Each
/// round ends with untimed checks of its last generation.
void probe_dynamic(Run& r, const graph::Graph<W>& grid) {
  const VertexId n = grid.num_vertices();
  const ZipfSampler zipf(n, kZipfTheta);
  // Writer OpenMP threads + reader threads stay within the core budget.
  const int writer_threads = std::max(1, r.threads - kChurnReaders);
  const fs::path out = r.dir / "generation.padm";
  util::Xoshiro256 rng(r.seed ^ 0xd1f7ULL);

  std::vector<double> inc_ms, dec_ms, inc_apply_ms, dec_apply_ms, publish_ms;
  double rows_recomputed = 0, rows_repaired = 0, rows_skipped = 0, relax = 0, nm = 0;
  TracedScope trace_scope(true);
  const auto window0 = Clock::now();
  for (int round = 0; round < kChurnRounds; ++round) {
    auto created = [&] {
      util::ThreadScope scope(r.threads);
      return apsp::DynamicEngine<W>::create(grid);
    }();
    r.tally.op(created.has_value(), "DynamicEngine::create");
    if (!created) return;
    apsp::DynamicEngine<W>& engine = *created;
    auto store = serve::ShardStore<W>::from_matrix(apsp::DistanceMatrix<W>(engine.matrix()),
                                                   apsp::graph_fingerprint(engine.graph()));
    serve::QueryEngine<W> query(store);
    double last_publish_ms = 0;
    engine.set_publisher([&](const apsp::DistanceMatrix<W>& D, const graph::Graph<W>& g,
                             std::uint64_t) {
      const auto t0 = Clock::now();
      auto st = store->publish_matrix(apsp::DistanceMatrix<W>(D), apsp::graph_fingerprint(g));
      last_publish_ms = seconds_since(t0) * 1e3;
      return st;
    });

    struct SimEdge {
      VertexId u, v;
      W base_w;
      bool incident = false;
    };
    std::vector<SimEdge> edges;
    for (VertexId u = 0; u < n; ++u) {
      const auto nb = grid.neighbors(u);
      const auto ws = grid.weights(u);
      for (std::size_t i = 0; i < nb.size(); ++i) {
        if (u < nb[i]) edges.push_back({u, nb[i], ws[i]});
      }
    }
    const std::size_t churn = std::max<std::size_t>(4, edges.size() / 200);

    std::atomic<bool> stop{false};
    QueryLog reads;
    std::thread reader([&] {
      DistancesFn fn = [&](std::span<const Pair> p, std::span<W> o) {
        return query.distances(p, o);
      };
      reads = run_queries(fn, zipf, n, kChurnReaders, 0, r.seed * 131 + round, &stop);
    });
    {
      util::ThreadScope scope(writer_threads);
      const double round_end = kChurnProbeS * (round + 1) / kChurnRounds;
      for (int epoch = 1;
           epoch % 2 == 0 || epoch <= 4 || seconds_since(window0) < round_end; ++epoch) {
        const bool increase = epoch % 2 == 1;
        std::vector<apsp::EdgeUpdate<W>> batch;
        if (increase) {
          for (std::size_t i = 0; i < churn; ++i) {
            auto& e = edges[rng.bounded(edges.size())];
            if (e.incident) continue;
            e.incident = true;
            batch.push_back(apsp::EdgeUpdate<W>::remove(e.u, e.v));
            batch.push_back(apsp::EdgeUpdate<W>::insert(e.u, e.v, e.base_w * 5));
          }
        } else {
          for (auto& e : edges) {
            if (!e.incident) continue;
            e.incident = false;
            batch.push_back(apsp::EdgeUpdate<W>::insert(e.u, e.v, e.base_w));
          }
        }
        const auto t0 = Clock::now();
        util::Expected<apsp::EpochStats> st = [&] {
          obs::ScopedSpan span(increase ? "dyn.increase" : "dyn.decrease", "layer");
          return engine.apply(batch);
        }();
        const double ms = seconds_since(t0) * 1e3;
        r.tally.op(st.has_value() && st->publish_status.is_ok(),
                   "epoch " + std::to_string(epoch) +
                       (st ? " " + st->publish_status.message()
                           : ": " + st.status().message()));
        if (!st) continue;
        (increase ? inc_ms : dec_ms).push_back(ms);
        (increase ? inc_apply_ms : dec_apply_ms).push_back(ms - last_publish_ms);
        publish_ms.push_back(last_publish_ms);
        rows_recomputed += double(st->rows_recomputed);
        rows_repaired += double(st->rows_repaired);
        rows_skipped += double(st->rows_skipped);
        relax += double(st->total_relaxations());
        nm += double(n) * double(engine.graph().num_stored_edges());
      }
    }
    stop.store(true);
    reader.join();
    r.tally.attempted += reads.batches;
    r.tally.failed += reads.failed_batches;

    // Untimed checks: the last published generation equals a full
    // recompute, and a batch served from it, persisted and reopened as a
    // file, equals Dijkstra on the final graph.
    const auto snap = store->snapshot();
    const apsp::DistanceMatrix<W>* last = snap->matrix();
    r.tally.op(last != nullptr && snap->generation > 0, "last generation published");
    if (last == nullptr) return;
    const auto& g_final = engine.graph();
    const auto ref = apsp::repeated_dijkstra_parallel(g_final);
    const auto diff = check::diff_matrices(*last, ref, check::Provenance{});
    r.tally.op(diff.has_value() && !diff->has_value(),
               "last generation differs from repeated_dijkstra_parallel");
    const auto saved = save_matrix(*last, out);
    r.tally.op(saved.is_ok(), "save_matrix: " + saved.message());
    auto served = serve::Service<W>::open_matrix(out.string());
    r.tally.op(served.has_value(), "open_matrix " + out.string());
    if (!served) return;
    std::vector<Pair> pairs(kBatch);
    std::vector<W> got(kBatch);
    for (auto& p : pairs) p = {zipf(rng), static_cast<VertexId>(rng.bounded(n))};
    const auto st = served->distances(pairs, got);
    r.tally.op(st.is_ok(), "query the written generation: " + st.message());
    std::vector<Answer> sample;
    for (int i = 0; i < kBatch; ++i) sample.push_back({pairs[i].first, pairs[i].second, got[i]});
    check_answers(g_final, sample, r.tally);
  }

  const double epochs = double(inc_ms.size() + dec_ms.size());
  const double per_epoch = epochs > 0 ? 1.0 / epochs : 0.0;
  r.out.set("dyn.increase_epoch_ms", median(inc_ms), "ms");
  r.out.set("dyn.decrease_epoch_ms", median(dec_ms), "ms");
  r.out.set("dyn.increase_apply_ms", median(inc_apply_ms), "ms");
  r.out.set("dyn.decrease_apply_ms", median(dec_apply_ms), "ms");
  r.out.set("dyn.publish_ms", median(publish_ms), "ms");
  r.out.set("dyn.rows_recomputed", rows_recomputed * per_epoch, "count");
  r.out.set("dyn.rows_repaired", rows_repaired * per_epoch, "count");
  r.out.set("dyn.rows_skipped", rows_skipped * per_epoch, "count");
  r.out.set("dyn.relax_ratio", nm > 0 ? relax / nm : 0.0, "ratio");
}

/// Traced random-pipeline run: the layers no gated workload runs (README.md
/// says why), probed on the seed's grid.bin.
void probe_grid_layers(Run& r) {
  const fs::path path = r.dir / "grid.bin";
  auto grid = graph::try_load_binary<W>(path.string());
  r.tally.op(grid.has_value(), "load " + path.string());
  if (!grid) return;
  probe_dynamic(r, *grid);
  probe_rho_and_dist(r, *grid);
}

// ---------------------------------------------------------------- machine

std::uint64_t llc_bytes() {
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return llc > 0 ? static_cast<std::uint64_t>(llc) : (32ULL << 20);
}

/// Host fingerprint and bandwidth ceilings, printed as one JSON object.
int cmd_machine(bool ceiling) {
  const int threads = solver_threads();
  omp_set_num_threads(threads);
  const std::uint64_t llc = llc_bytes();
  Metrics m;
  m.set("cores", std::thread::hardware_concurrency(), "count");
  m.set("threads", threads, "count");
  m.set("l1d_bytes", double(sysconf(_SC_LEVEL1_DCACHE_SIZE)), "bytes");
  m.set("l2_bytes", double(sysconf(_SC_LEVEL2_CACHE_SIZE)), "bytes");
  m.set("llc_bytes", double(llc), "bytes");

  // STREAM triad a = b + s*c; each array is at least 4x the LLC.
  {
    const std::size_t len = 4 * llc / sizeof(double) + 1024;
    std::vector<double> a(len), b(len), c(len);
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < len; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
    double best = 0;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      const double s = 3.0 + rep;
#pragma omp parallel for schedule(static)
      for (std::size_t i = 0; i < len; ++i) a[i] = b[i] + s * c[i];
      best = std::max(best, 3.0 * len * sizeof(double) / seconds_since(t0) / 1e9);
    }
    volatile double sink = a[len / 2];
    (void)sink;
    m.set("stream_gbps", best, "GB/s");
    m.set("stream_array_bytes", double(len * sizeof(double)), "bytes");
  }
  // Standalone min-plus row kernel over a matrix of at least 4x the LLC:
  // every row relaxed against a distant row, computed bytes as in the sweep.
  if (ceiling) {
    const auto n = static_cast<VertexId>(std::sqrt(4.0 * double(llc) / sizeof(W)) + 64);
    apsp::DistanceMatrix<W> D(n);
    util::Xoshiro256 rng(7);
    for (VertexId u = 0; u < n; ++u) {
      for (auto& x : D.row(u)) x = static_cast<W>(rng.bounded(1u << 20));
    }
    double best = 0;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      std::uint64_t improved = 0;
#pragma omp parallel for schedule(static) reduction(+ : improved)
      for (VertexId u = 0; u < n; ++u) {
        const VertexId k = static_cast<VertexId>((u + n / 2 + rep) % n);
        improved += kernel::relax_row<W>(W{1}, D.row(k).data(), D.row(u).data(), n);
      }
      best = std::max(best, 2.0 * double(n) * n * sizeof(W) / seconds_since(t0) / 1e9);
      volatile std::uint64_t sink = improved;
      (void)sink;
    }
    m.set("ceiling_gbps", best, "GB/s");
    m.set("ceiling_matrix_bytes", double(n) * n * sizeof(W), "bytes");
  }
  std::printf("%s\n", m.json().c_str());
  return 0;
}

// ---------------------------------------------------------------- commands

int cmd_gen(const std::string& workload, std::uint64_t seed, const fs::path& dir) {
  fs::create_directories(dir);
  graph::save_binary(make_graph(workload, seed), (dir / "graph.bin").string());
  if (workload == "random-pipeline") {
    graph::save_binary(make_grid(seed), (dir / "grid.bin").string());
  }
  return 0;
}

int cmd_run(Run& r) {
  // Fixed allocator thresholds: graph-sized blocks (under 1 MiB) come from
  // the heap, and freed heap pages stay mapped, so repeated graph loads time
  // the load, not whether glibc's adaptive thresholds happened to hand out
  // fresh pages. With glibc's defaults, random-pipeline's setup_s split
  // across runs between ~0.45 and ~1.1 ms. The matrix is mapped either way.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  omp_set_num_threads(r.threads);
  load_burst(r);
  run_pipeline(r);
  if (r.trace && r.workload == "random-pipeline") probe_grid_layers(r);
  std::printf("{\"info\": {\"n\": %u, \"stored_arcs\": %llu, \"threads\": %d}}\n",
              r.g.num_vertices(), static_cast<unsigned long long>(r.g.num_stored_edges()),
              r.threads);
  const bool correct = r.tally.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.tally.attempted),
              static_cast<unsigned long long>(r.tally.failed), r.out.json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::invalid_argument("usage: perfbench_driver gen|machine|run ...");
    const std::string cmd = argv[1];
    const util::Args args(argc - 1, argv + 1);
    const fs::path dir = args.get("dir", ".");
    if (cmd == "machine") {
      const bool ceiling = args.get_int("ceiling", 0) != 0;
      args.reject_unknown();
      return cmd_machine(ceiling);
    }
    const std::string workload = args.get("workload");
    if (!known_workload(workload)) {
      throw std::invalid_argument("unknown workload '" + workload + "'");
    }
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    if (cmd == "gen") {
      args.reject_unknown();
      return cmd_gen(workload, seed, dir);
    }
    if (cmd != "run") throw std::invalid_argument("unknown command '" + cmd + "'");
    Run r;
    r.workload = workload;
    r.dir = dir;
    r.seed = seed;
    r.seconds = args.get_double("seconds", 10.0);
    r.trace = args.get_int("trace", 0) != 0;
    args.reject_unknown();
    return cmd_run(r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: error: %s\n", e.what());
    return 1;
  }
}
