// psd_bench_trace: in-process traced replay of the benchmark's workloads.
//
//   psd_bench_trace calibrate
//   psd_bench_trace serve-hit|serve-plan --warm FILE --requests FILE --spans OUT
//   psd_bench_trace sweep --spec FILE [--spec FILE ...] --threads N --spans OUT
//
// `serve-*` replays protocol lines through the public calls a served plan
// request crosses: serve::parse_request, the per-request Planner that
// PlanService::solve_plan builds (select_algorithm, materialize, plan, the
// second instance build, PipelinedCostModel), serve::plan_response, and an
// in-process PlanService for submit/queue timings. The warm file is the
// daemon's warm-up (θ solves happen there); the request file is the
// measured phase. `sweep` replays every scenario of the grid specs serially
// the way the sweep driver plans one job, then runs sweep::run_sweep at the
// stated thread count for the shared-cache and pool counters.
//
// Spans (name, start, end, parent, request id) are kept in memory and
// written with their self times to the --spans file at the end. Every
// traced request or scenario is also replayed untraced, interleaved one by
// one, so the difference is the tracing overhead. stdout gets one JSON
// line of per-layer metrics; `calibrate` prints the time of a fixed loop.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "psd/core/algo_select.hpp"
#include "psd/core/pipelined_cost.hpp"
#include "psd/core/planner.hpp"
#include "psd/serve/protocol.hpp"
#include "psd/serve/service.hpp"
#include "psd/sim/churn.hpp"
#include "psd/sweep/driver.hpp"
#include "psd/sweep/scenario.hpp"
#include "psd/sweep/shared_theta_cache.hpp"
#include "psd/util/json.hpp"
#include "psd/workload/workload.hpp"

namespace {

using namespace psd;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---- spans ---------------------------------------------------------------

struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;
  int req = -1;
  const char* phase = "";
};

class Tracer {
 public:
  void set_phase(const char* phase) { phase_ = phase; }

  int open(const char* name, int req) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now_ns(), 0, parent, req, phase_});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int idx) {
    spans_[static_cast<std::size_t>(idx)].end = now_ns();
    stack_.pop_back();
  }
  void rename(int idx, const char* name) {
    spans_[static_cast<std::size_t>(idx)].name = name;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  const char* phase_ = "";
};

/// RAII span around one call into a layer; a null tracer records nothing,
/// which is how the untraced replay runs the identical code.
class Scope {
 public:
  Scope(Tracer* t, const char* name, int req)
      : t_(t), idx_(t ? t->open(name, req) : -1) {}
  ~Scope() { end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void end() {
    if (t_ != nullptr) t_->close(idx_);
    t_ = nullptr;
  }
  void rename(const char* name) {
    if (t_ != nullptr) t_->rename(idx_, name);
  }

 private:
  Tracer* t_;
  int idx_;
};

double dur_ms(const Span& s) { return static_cast<double>(s.end - s.start) / 1e6; }

/// Per-span self time: duration minus the part its direct children cover.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
  }
  for (const auto& s : spans) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  }
  return self;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  const auto self = self_times(spans);
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start;
  std::ofstream out(path, std::ios::binary);
  out << "{\"format\":\"psd-bench-spans-v1\",\"time_unit\":\"ns\",\"spans\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << "{\"i\":" << i << ",\"name\":\"" << s.name << "\",\"phase\":\""
        << s.phase << "\",\"req\":" << s.req << ",\"parent\":" << s.parent
        << ",\"start\":" << (s.start - t0) << ",\"end\":" << (s.end - t0)
        << ",\"self\":" << self[i] << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

// ---- metric helpers -------------------------------------------------------

/// Nearest-rank percentile (rank ⌈p·n⌉); 0 for an empty sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Durations (ms) of the spans named `name` in `phase` (any phase if null).
std::vector<double> durations(const std::vector<Span>& spans, const char* name,
                              const char* phase = nullptr) {
  std::vector<double> out;
  for (const auto& s : spans) {
    if (std::strcmp(s.name, name) != 0) continue;
    if (phase != nullptr && std::strcmp(s.phase, phase) != 0) continue;
    out.push_back(dur_ms(s));
  }
  return out;
}

/// The reconcile check: for each `root` span in `phase`, the share of its
/// duration its direct children cover. Returns the per-root coverages.
std::vector<double> coverages(const std::vector<Span>& spans, const char* root,
                              const char* phase) {
  std::map<int, std::int64_t> covered;
  for (const auto& s : spans) {
    if (s.parent >= 0) covered[s.parent] += s.end - s.start;
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (std::strcmp(s.name, root) != 0 || std::strcmp(s.phase, phase) != 0) continue;
    const auto d = s.end - s.start;
    out.push_back(d <= 0 ? 1.0
                         : static_cast<double>(covered[static_cast<int>(i)]) /
                               static_cast<double>(d));
  }
  return out;
}

class Metrics {
 public:
  void set(const std::string& name, double v) { values_[name] = v; }
  void put_self_times(const std::vector<Span>& spans) {
    const auto self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      std::string layer = spans[i].name;
      layer = layer.substr(0, layer.find('.'));
      self_ms_[std::string(spans[i].phase) + ":" + layer] +=
          static_cast<double>(self[i]) / 1e6;
    }
  }
  [[nodiscard]] std::string json() const {
    JsonWriter w;
    w.begin_object();
    w.key("metrics").begin_object();
    for (const auto& [k, v] : values_) w.key(k).value(v);
    w.end_object();
    w.key("self_ms").begin_object();
    for (const auto& [k, v] : self_ms_) w.key(k).value(v);
    w.end_object();
    w.end_object();
    return w.str();
  }

 private:
  std::map<std::string, double> values_;
  std::map<std::string, double> self_ms_;
};

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ---- one plan through the core layers --------------------------------------

bool is_pow2(int n) { return n >= 2 && std::has_single_bit(static_cast<unsigned>(n)); }

bool wants_auto(const workload::CollectiveRequest& request,
                const workload::MaterializeOptions& mat) {
  return (request.kind == workload::CollectiveKind::kAllReduce &&
          mat.allreduce == workload::AllReduceAlgo::kAuto) ||
         (request.kind == workload::CollectiveKind::kAllToAll &&
          mat.alltoall == workload::AllToAllAlgo::kAuto);
}

/// Times θ on every distinct matching the plan will ask about, before the
/// plan runs, so cold solves get their own spans (flow.theta_solve) instead
/// of hiding inside select/plan. The candidate schedules are those
/// core::select_algorithm scores for an auto request.
void presolve_theta(const core::Planner& planner,
                    const workload::CollectiveRequest& request,
                    const workload::MaterializeOptions& mat, Tracer* tr, int req) {
  using workload::AllReduceAlgo;
  using workload::AllToAllAlgo;
  const int n = planner.base().num_nodes();
  std::vector<workload::MaterializeOptions> variants;
  if (!wants_auto(request, mat)) {
    variants.push_back(mat);
  } else if (request.size.count() <= mat.auto_thresholds.small_message.count()) {
    auto v = mat;
    v.allreduce = workload::resolve_allreduce_auto(request.size, n, mat.auto_thresholds);
    v.alltoall = workload::resolve_alltoall_auto(request.size, n, mat.auto_thresholds);
    variants.push_back(v);
  } else if (request.kind == workload::CollectiveKind::kAllReduce) {
    for (const auto algo : {AllReduceAlgo::kRing, AllReduceAlgo::kRecursiveDoubling,
                            AllReduceAlgo::kHalvingDoubling, AllReduceAlgo::kSwing}) {
      if (algo != AllReduceAlgo::kRing && !is_pow2(n)) continue;
      auto v = mat;
      v.allreduce = algo;
      variants.push_back(v);
    }
  } else {
    for (const auto algo : {AllToAllAlgo::kTranspose, AllToAllAlgo::kBruck}) {
      if (algo != AllToAllAlgo::kTranspose && !is_pow2(n)) continue;
      auto v = mat;
      v.alltoall = algo;
      variants.push_back(v);
    }
  }
  std::vector<topo::Matching> distinct;
  {
    Scope s(tr, "workload.materialize_candidates", req);
    std::set<std::vector<int>> seen;
    for (const auto& v : variants) {
      const auto schedule = workload::materialize(request, n, v);
      for (const auto& step : schedule.steps()) {
        if (step.matching.active_pairs() == 0) continue;
        if (seen.insert(step.matching.destinations()).second) {
          distinct.push_back(step.matching);
        }
      }
    }
  }
  const auto& oracle = planner.oracle();
  for (const auto& m : distinct) {
    const auto before = oracle.solve_stats().solves;
    Scope s(tr, "flow.theta_solve", req);
    (void)oracle.theta(m);
    if (oracle.solve_stats().solves == before) s.rename("flow.theta_hit");
  }
}

struct Solved {
  serve::PlanAnswer answer;
  std::optional<collective::CollectiveSchedule> schedule;
  int candidates = 0;
};

/// The call sequence PlanService::solve_plan and the sweep driver's job
/// share once the Planner exists: the hop BFS (lazily built on first use in
/// the real path; forced here so it gets its own span), the size-adaptive
/// selector, materialize, the Eq. 7 plan, the second instance build and
/// the pipelined price.
Solved solve(const core::Planner& planner, const workload::CollectiveRequest& request,
             workload::MaterializeOptions mat, const core::ModelExtensions& ext,
             bool presolve, Tracer* tr, int req) {
  Solved out;
  {
    Scope s(tr, "topo.hops", req);
    (void)planner.oracle().base_hops();
  }
  if (presolve) presolve_theta(planner, request, mat, tr, req);
  if (wants_auto(request, mat)) {
    Scope s(tr, "core.select", req);
    const auto sel = core::select_algorithm(planner, request, mat, ext);
    out.answer.chosen_algo = sel.chosen.algo;
    out.candidates = static_cast<int>(sel.candidates.size());
    mat.allreduce = sel.chosen.allreduce;
    mat.alltoall = sel.chosen.alltoall;
  }
  {
    Scope s(tr, "workload.materialize", req);
    out.schedule.emplace(
        workload::materialize(request, planner.base().num_nodes(), mat));
  }
  core::PlannerResult result;
  {
    Scope s(tr, "core.plan", req);
    result = planner.plan(*out.schedule, ext);
  }
  auto& a = out.answer;
  a.steps = out.schedule->num_steps();
  a.optimal_ns = result.optimal.total_time().ns();
  a.static_ns = result.static_base.total_time().ns();
  a.naive_bvn_ns = result.naive_bvn.total_time().ns();
  a.greedy_ns = result.greedy.total_time().ns();
  a.reconfigurations = result.optimal.num_reconfigurations;
  a.speedup_vs_static = result.speedup_vs_static();
  a.speedup_vs_bvn = result.speedup_vs_bvn();
  std::optional<core::ProblemInstance> inst;
  {
    Scope s(tr, "core.instance", req);
    inst.emplace(planner.instance(*out.schedule));
  }
  {
    Scope s(tr, "core.pipelined", req);
    const core::PipelinedCostModel pipelined(*inst, ext);
    const auto sweep = pipelined.best_over_chunks(result.optimal.choice);
    a.pipelined_ns = sweep.completion.ns();
    a.pipeline_chunks = sweep.chunks;
  }
  return out;
}

/// Times θ lookups (cache hits by now) on the schedule's distinct matchings.
void probe_theta_hits(const core::Planner& planner,
                      const collective::CollectiveSchedule& schedule, Tracer* tr,
                      int req) {
  std::set<std::vector<int>> seen;
  for (const auto& step : schedule.steps()) {
    if (step.matching.active_pairs() == 0) continue;
    if (!seen.insert(step.matching.destinations()).second) continue;
    Scope s(tr, "probe.theta_hit", req);
    (void)planner.oracle().theta(step.matching);
  }
}

std::size_t lookups(const util::ShardedLruStats& s) { return s.hits + s.misses; }

void add_solve_stats(flow::ThetaOracle::SolveStats* sum,
                     const flow::ThetaOracle::SolveStats& s) {
  sum->solves += s.solves;
  sum->gk_path_pushes += s.gk_path_pushes;
  sum->gk_sssp_searches += s.gk_sssp_searches;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer metrics every traced workload reports, from its spans: the
/// measured phase where the layer ran there, else the warm-up (serve-hit's
/// solves all happen while the daemon warms up).
void put_span_metrics(Metrics& m, const std::vector<Span>& spans) {
  const auto pick = [&](const char* name) {
    auto d = durations(spans, name, "measured");
    return d.empty() ? durations(spans, name, "warm") : d;
  };
  const auto p50 = [](const std::vector<double>& v) { return percentile(v, 0.5); };
  m.set("core.select_ms_p50", p50(pick("core.select")));
  m.set("core.plan_ms_p50", p50(pick("core.plan")));
  m.set("core.instance_ms_p50", p50(pick("core.instance")));
  m.set("core.pipelined_ms_p50", p50(pick("core.pipelined")));
  m.set("core.planner_new_us_p50", 1e3 * p50(pick("core.planner_new")));
  m.set("workload.materialize_ms_p50", p50(pick("workload.materialize")));
  m.set("topo.hops_ms_p50", p50(pick("topo.hops")));
  m.set("topo.build_ms_p50", p50(durations(spans, "topo.build")));
  m.set("flow.theta_hit_us_p50", 1e3 * p50(pick("probe.theta_hit")));
  m.set("flow.theta_solve_ms_p50", p50(durations(spans, "flow.theta_solve")));
  m.set("trace.spans", static_cast<double>(spans.size()));
  m.put_self_times(spans);
}

/// Tracing overhead (%) of interleaved traced vs untraced replays, and the
/// reconcile check over the measured phase's `root` spans.
void put_trace_metrics(Metrics& m, const std::vector<Span>& spans, const char* root,
                       double traced_ns, double untraced_ns) {
  m.set("trace.overhead_pct", 100.0 * ratio(traced_ns - untraced_ns, untraced_ns));
  const auto cov = coverages(spans, root, "measured");
  std::size_t ok = 0;
  for (const double c : cov) ok += c >= 0.9 ? 1 : 0;
  m.set("trace.reconciled_share", ratio(static_cast<double>(ok),
                                        static_cast<double>(cov.size())));
  m.set("trace.coverage_p50", percentile(cov, 0.5));
}

// ---- serve ----------------------------------------------------------------

/// The daemon's state the solve path reads: one graph per topology context
/// and the shared θ cache, configured as PlanService configures them.
class ServeReplay {
 public:
  ServeReplay() : cache_(sweep::make_shared_theta_cache()) {
    theta_.track_support = true;
    theta_.use_cache = true;
    theta_.shared_cache = cache_;
  }

  struct Out {
    serve::PlanAnswer answer;
    int steps = 0;
    int candidates = 0;
    std::size_t lookups = 0;
    std::int64_t total_ns = 0;
  };

  Out plan(const std::string& line, int req, Tracer* tr, bool presolve, bool probe) {
    Out out;
    const auto before = cache_->stats();
    const std::int64_t t0 = now_ns();
    Scope whole(tr, "request", req);
    serve::Request r;
    {
      Scope s(tr, "serve.parse", req);
      r = serve::parse_request(line);
    }
    const serve::PlanFields& p = r.plan;
    const std::string key =
        sweep::to_string(p.topology) + "/n" + std::to_string(p.nodes);
    auto it = contexts_.find(key);
    if (it == contexts_.end()) {
      Scope s(tr, "topo.build", req);
      it = contexts_.emplace(key, sweep::build_topology(p.topology, p.nodes, p.params.b))
               .first;
    }
    std::optional<topo::Graph> snapshot;
    {
      Scope s(tr, "topo.snapshot", req);  // the worker's copy of the context
      snapshot.emplace(it->second);
    }
    const auto solve_start = Clock::now();
    std::unique_ptr<core::Planner> planner;
    {
      Scope s(tr, "core.planner_new", req);
      // The per-job planner, serial, as PlanService::solve_plan builds it.
      planner = std::make_unique<core::Planner>(std::move(*snapshot), p.params, theta_,
                                                core::PlannerOptions{.parallel = false});
    }
    workload::MaterializeOptions mat;
    mat.allreduce = p.collective.allreduce;
    mat.alltoall = p.collective.alltoall;
    const workload::CollectiveRequest request{p.collective.kind, p.message, "serve"};
    Solved solved = solve(*planner, request, mat, {}, presolve, tr, req);
    const double plan_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - solve_start).count();
    {
      Scope s(tr, "serve.respond", req);
      (void)serve::plan_response(r.id, solved.answer, 0, 0, false, false, plan_ms);
    }
    whole.end();
    out.total_ns = now_ns() - t0;
    out.steps = solved.answer.steps;
    out.candidates = solved.candidates;
    out.lookups = lookups(cache_->stats()) - lookups(before);
    add_solve_stats(&solve_stats_, planner->oracle().solve_stats());
    if (probe) probe_theta_hits(*planner, *solved.schedule, tr, req);
    out.answer = solved.answer;
    return out;
  }

  [[nodiscard]] const flow::ThetaOracle::SolveStats& solve_stats() const {
    return solve_stats_;
  }

 private:
  std::shared_ptr<sweep::SharedThetaCache> cache_;
  flow::ThetaOptions theta_;
  std::map<std::string, topo::Graph> contexts_;
  flow::ThetaOracle::SolveStats solve_stats_;  // summed over every planner
};

/// Closed-loop replay through an in-process PlanService with the daemon's
/// default options and two requests outstanding, so both workers solve and
/// share the θ cache (the socket phase keeps one outstanding on one CPU).
/// Records the submit_line call time, submit → emit minus the answer's
/// plan_latency_ms (queue wait), and fresh answers' solve times.
struct ServiceTimes {
  std::vector<double> submit_us;
  std::vector<double> queue_wait_ms;
  std::vector<double> solve_ms;
  std::size_t failed = 0;
};

ServiceTimes replay_service(serve::PlanService& svc, const std::vector<std::string>& lines) {
  struct Slot {
    std::int64_t sent = 0;
    std::int64_t done = 0;
    double submit_us = 0.0;
    std::string line;
  };
  std::vector<Slot> slots(lines.size());
  std::mutex mu;
  std::condition_variable cv;
  std::size_t inflight = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return inflight < 2; });
      ++inflight;
    }
    auto sink = std::make_shared<const serve::PlanService::Emit>(
        [&mu, &cv, &inflight, &slots, i](const std::string& l) {
          const std::int64_t t = now_ns();
          const std::lock_guard<std::mutex> lk(mu);
          slots[i].done = t;
          slots[i].line = l;
          --inflight;
          cv.notify_all();  // under the lock: the waiter may destroy cv next
        });
    const std::int64_t t0 = now_ns();
    slots[i].sent = t0;
    svc.submit_line(lines[i], sink);
    slots[i].submit_us = static_cast<double>(now_ns() - t0) / 1e3;
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return inflight == 0; });
  }
  ServiceTimes out;
  for (const auto& s : slots) {
    const JsonValue v = parse_json(s.line);
    const JsonValue* code = v.find("code");
    const JsonValue* lat = v.find("plan_latency_ms");
    if (code == nullptr || code->as_string() != "OK" || lat == nullptr) {
      ++out.failed;
      continue;
    }
    const double plan_ms = lat->as_number();
    out.submit_us.push_back(s.submit_us);
    out.queue_wait_ms.push_back(
        std::max(0.0, static_cast<double>(s.done - s.sent) / 1e6 - plan_ms));
    if (!v.find("cached")->as_bool()) out.solve_ms.push_back(plan_ms);
  }
  return out;
}

/// The request's memo key: the line without its "id" (the harness writes
/// every plan line as {"op":"plan","id":...,"topology":...}).
std::string memo_key(const std::string& line) {
  const auto pos = line.find(",\"topology\"");
  return pos == std::string::npos ? line : line.substr(pos);
}

/// `hit`: the measured requests repeat warm-up keys, so each is a memo hit
/// (parse, look up, respond). Otherwise each is a fresh solve on a warm θ
/// cache, through the same calls PlanService::solve_plan makes.
int run_serve(bool hit, const std::string& warm_path, const std::string& req_path,
              const std::string& spans_path) {
  const auto warm = read_lines(warm_path);
  const auto reqs = read_lines(req_path);
  Metrics m;
  Tracer tr;
  ServeReplay replay;

  // The daemon's set-up: every warm-up line solved once, cold θ included.
  tr.set_phase("warm");
  std::map<std::string, serve::PlanAnswer> memo;
  std::vector<double> warm_steps, warm_cands;
  for (std::size_t i = 0; i < warm.size(); ++i) {
    const auto out = replay.plan(warm[i], static_cast<int>(i), &tr, /*presolve=*/true,
                                 /*probe=*/true);
    memo[memo_key(warm[i])] = out.answer;
    warm_steps.push_back(out.steps);
    if (out.candidates > 0) warm_cands.push_back(out.candidates);
  }
  const auto solved = replay.solve_stats();

  // Measured phase: each request untraced and traced, alternating which
  // goes first so neither always runs on the other's warm caches.
  tr.set_phase("measured");
  double traced_ns = 0.0, untraced_ns = 0.0;
  std::vector<double> lookups_per_op, steps, cands;
  std::size_t failed = 0;
  // A memo hit as the daemon's admission path serves it: parse, look up,
  // respond. Returns its time, or -1 when the key was never warmed.
  const auto memo_hit = [&memo](const std::string& line, Tracer* t, int req) {
    const std::int64_t t0 = now_ns();
    Scope whole(t, "request", req);
    serve::Request r;
    {
      Scope s(t, "serve.parse", req);
      r = serve::parse_request(line);
    }
    const auto it = memo.find(memo_key(line));
    if (it == memo.end()) return std::int64_t{-1};
    {
      Scope s(t, "serve.respond", req);
      (void)serve::plan_response(r.id, it->second, 0, 0, true, false, 0.0);
    }
    whole.end();
    return now_ns() - t0;
  };
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const int req = static_cast<int>(i);
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == (i % 2 == 0);
      Tracer* t = traced ? &tr : nullptr;
      std::int64_t elapsed = 0;
      if (hit) {
        elapsed = memo_hit(reqs[i], t, req);
        if (elapsed < 0) {
          ++failed;
          continue;
        }
      } else {
        const auto out = replay.plan(reqs[i], req, t, /*presolve=*/false, /*probe=*/traced);
        elapsed = out.total_ns;
        if (traced) {
          lookups_per_op.push_back(static_cast<double>(out.lookups));
          steps.push_back(out.steps);
          if (out.candidates > 0) cands.push_back(out.candidates);
        }
      }
      (traced ? traced_ns : untraced_ns) += static_cast<double>(elapsed);
    }
  }
  const auto& spans = tr.spans();
  put_span_metrics(m, spans);
  put_trace_metrics(m, spans, "request", traced_ns, untraced_ns);
  m.set("collective.steps", mean(hit ? warm_steps : steps));
  m.set("core.select_candidates", mean(hit ? warm_cands : cands));
  m.set("flow.theta_lookups_per_op", mean(lookups_per_op));
  m.set("flow.theta_solves", static_cast<double>(solved.solves));
  m.set("flow.gk_sssp_searches", static_cast<double>(solved.gk_sssp_searches));
  m.set("flow.gk_path_pushes", static_cast<double>(solved.gk_path_pushes));
  m.set("serve.parse_us_p50", 1e3 * percentile(durations(spans, "serve.parse", "measured"), 0.5));
  m.set("serve.respond_us_p50",
        1e3 * percentile(durations(spans, "serve.respond", "measured"), 0.5));

  // The same lines through an in-process PlanService (default options, as
  // psd_serve runs it), two requests outstanding.
  {
    serve::PlanService svc(serve::ServiceOptions{}, [](const std::string&) {});
    const auto warm_times = replay_service(svc, warm);
    const auto cache = svc.theta_cache().stats();
    const auto times = replay_service(svc, reqs);
    failed += warm_times.failed + times.failed;
    m.set("serve.submit_us_p50", percentile(times.submit_us, 0.5));
    m.set("serve.queue_wait_ms_p50", percentile(times.queue_wait_ms, 0.5));
    m.set("serve.solve_ms_p50",
          percentile(times.solve_ms.empty() ? warm_times.solve_ms : times.solve_ms, 0.5));
    m.set("sweep.theta_useful_ratio", ratio(static_cast<double>(cache.insertions),
                                            static_cast<double>(cache.misses)));
    m.set("flow.cache_lock_contentions",
          static_cast<double>(svc.theta_cache().stats().lock_contentions));
  }
  m.set("trace.failed", static_cast<double>(failed));
  m.set("trace.requests", static_cast<double>(reqs.size()));
  write_spans(spans_path, spans);
  std::printf("%s\n", m.json().c_str());
  return failed == 0 ? 0 : 1;
}

// ---- sweep ------------------------------------------------------------------

/// One scenario the way the sweep driver's job plans it (run_one_checked):
/// build the topology, a serial Planner over the sweep's θ options, select
/// and plan, price pipelined, then the churn episode on its own oracle.
struct ScenarioOut {
  std::int64_t total_ns = 0;
  int steps = 0;
  int candidates = 0;
  std::size_t lookups = 0;
  flow::ThetaOracle::SolveStats solved;
  std::optional<sim::ChurnReport> churn;
};

ScenarioOut replay_scenario(const sweep::Scenario& sc, const flow::ThetaOptions& theta,
                            const sweep::SharedThetaCache& cache, int req, Tracer* tr) {
  ScenarioOut out;
  const auto before = cache.stats();
  const std::int64_t t0 = now_ns();
  Scope whole(tr, "scenario", req);
  std::optional<topo::Graph> g;
  {
    Scope s(tr, "topo.build", req);
    g.emplace(sweep::build_topology(sc.topology, sc.nodes, sc.params.b));
  }
  std::unique_ptr<core::Planner> planner;
  {
    Scope s(tr, "core.planner_new", req);
    planner = std::make_unique<core::Planner>(std::move(*g), sc.params, theta,
                                              core::PlannerOptions{.parallel = false});
  }
  // The sweep driver's own per-job work: the scenario id and the request.
  std::optional<workload::CollectiveRequest> request;
  core::ModelExtensions ext;
  workload::MaterializeOptions mat;
  {
    Scope s(tr, "sweep.job_prep", req);
    request.emplace(workload::CollectiveRequest{sc.collective.kind, sc.message, sc.id()});
    ext.dedup_identical_matchings = sc.extensions.dedup_identical_matchings;
    mat.allreduce = sc.collective.allreduce;
    mat.alltoall = sc.collective.alltoall;
  }
  const Solved solved = solve(*planner, *request, mat, ext, /*presolve=*/true, tr, req);
  if (sc.churn.drops > 0) {
    Scope s(tr, "sim.churn", req);
    std::vector<topo::Matching> matchings;
    for (const auto& step : solved.schedule->steps()) matchings.push_back(step.matching);
    sim::ChurnConfig cc;
    cc.drops = sc.churn.drops;
    cc.droop = sc.churn.droop;
    cc.seed = sc.churn.seed;
    cc.scenario_key = sc.id();
    cc.gk_epsilon = theta.epsilon;
    cc.exact_var_limit = theta.exact_var_limit;
    sim::ChurnEngine engine(sweep::build_topology(sc.topology, sc.nodes, sc.params.b),
                            std::move(matchings), sc.params.b, cc);
    out.churn = engine.run();
  }
  whole.end();
  out.total_ns = now_ns() - t0;
  out.steps = solved.answer.steps;
  out.candidates = solved.candidates;
  out.lookups = lookups(cache.stats()) - lookups(before);
  out.solved = planner->oracle().solve_stats();
  if (tr != nullptr) probe_theta_hits(*planner, *solved.schedule, tr, req);
  return out;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

int run_sweep_trace(const std::vector<std::string>& spec_paths, unsigned threads,
                    const std::string& spans_path) {
  Metrics m;
  Tracer tr;
  tr.set_phase("measured");
  std::vector<sweep::ScenarioGrid> grids;
  for (const auto& p : spec_paths) grids.push_back(sweep::parse_grid_spec(read_file(p)));

  // Serial replay, each grid on its own pair of fresh shared caches (as
  // one psd_sweep run each): one cache for the untraced pass, one for the
  // traced pass, so both see the same cold/warm pattern scenario by scenario.
  double traced_ns = 0.0, untraced_ns = 0.0;
  std::vector<double> job_ms, steps, cands, lookups_per_op;
  flow::ThetaOracle::SolveStats solved;
  long long replan_solves = 0;
  double kept = 0.0, erased = 0.0;
  int req = 0;
  for (const auto& grid : grids) {
    const auto scenarios = sweep::expand(grid);
    auto cache_u = sweep::make_shared_theta_cache();
    auto cache_t = sweep::make_shared_theta_cache();
    flow::ThetaOptions theta_u, theta_t;
    theta_u.shared_cache = cache_u;
    theta_t.shared_cache = cache_t;
    for (const auto& sc : scenarios) {
      for (int pass = 0; pass < 2; ++pass) {
        const bool traced = (pass == 0) == (req % 2 == 0);
        const auto out = traced ? replay_scenario(sc, theta_t, *cache_t, req, &tr)
                                : replay_scenario(sc, theta_u, *cache_u, req, nullptr);
        if (!traced) {
          untraced_ns += static_cast<double>(out.total_ns);
          job_ms.push_back(static_cast<double>(out.total_ns) / 1e6);
          continue;
        }
        traced_ns += static_cast<double>(out.total_ns);
        steps.push_back(out.steps);
        if (out.candidates > 0) cands.push_back(out.candidates);
        lookups_per_op.push_back(static_cast<double>(out.lookups));
        add_solve_stats(&solved, out.solved);
        if (out.churn) {
          replan_solves += out.churn->total_replan_solves;
          kept += static_cast<double>(out.churn->total_cache_kept);
          erased += static_cast<double>(out.churn->total_cache_erased);
        }
      }
      ++req;
    }
  }
  const auto& spans = tr.spans();
  put_span_metrics(m, spans);
  put_trace_metrics(m, spans, "scenario", traced_ns, untraced_ns);
  m.set("collective.steps", mean(steps));
  m.set("core.select_candidates", mean(cands));
  m.set("flow.theta_lookups_per_op", mean(lookups_per_op));
  m.set("flow.theta_solves", static_cast<double>(solved.solves));
  m.set("flow.gk_sssp_searches", static_cast<double>(solved.gk_sssp_searches));
  m.set("flow.gk_path_pushes", static_cast<double>(solved.gk_path_pushes));
  m.set("sweep.job_ms_p50", percentile(job_ms, 0.5));
  m.set("sweep.job_ms_max", job_ms.empty() ? 0.0 : *std::max_element(job_ms.begin(), job_ms.end()));
  m.set("sim.churn_ms_p50", percentile(durations(spans, "sim.churn"), 0.5));
  m.set("sim.replan_solves", static_cast<double>(replan_solves));
  m.set("sim.cache_kept_ratio", ratio(kept, kept + erased));

  // The parallel sweep itself, for the shared-cache and pool counters.
  util::ShardedLruStats cache_sum;
  double wall = 0.0, cpu = 0.0;
  std::size_t failed = 0;
  for (const auto& grid : grids) {
    sweep::SweepOptions opts;
    opts.threads = threads;
    opts.shared_cache = sweep::make_shared_theta_cache();
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    const auto report = sweep::run_sweep(grid, opts);
    wall += std::chrono::duration<double>(Clock::now() - t0).count();
    cpu += cpu_seconds() - cpu0;
    for (const auto& row : report.rows) failed += row.error ? 1 : 0;
    cache_sum.misses += report.cache.misses;
    cache_sum.insertions += report.cache.insertions;
    cache_sum.lock_contentions += report.cache.lock_contentions;
  }
  // The pool's threads plus the caller, which parallel_for enlists.
  const double job_threads = static_cast<double>(threads) + 1.0;
  m.set("sweep.pool_busy_ratio", ratio(cpu, wall * job_threads));
  m.set("sweep.theta_useful_ratio", ratio(static_cast<double>(cache_sum.insertions),
                                          static_cast<double>(cache_sum.misses)));
  m.set("flow.cache_lock_contentions", static_cast<double>(cache_sum.lock_contentions));
  m.set("trace.failed", static_cast<double>(failed));
  m.set("trace.requests", static_cast<double>(req));
  write_spans(spans_path, spans);
  std::printf("%s\n", m.json().c_str());
  return failed == 0 ? 0 : 1;
}

int calibrate() {
  const auto t0 = Clock::now();
  std::uint64_t x = 88172645463325252ULL;
  double acc = 0.0;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x & 0xffffU);
  }
  const double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  std::printf("{\"calibration_ms\": %.6f, \"checksum\": %.1f}\n", ms, acc);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: psd_bench_trace calibrate\n"
               "       psd_bench_trace serve-hit|serve-plan --warm FILE --requests FILE\n"
               "                       --spans OUT\n"
               "       psd_bench_trace sweep --spec FILE [--spec FILE ...] --threads N\n"
               "                       --spans OUT\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode == "calibrate") return calibrate();
  std::string warm, requests, spans;
  std::vector<std::string> specs;
  unsigned threads = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (arg == "--warm") warm = v;
    else if (arg == "--requests") requests = v;
    else if (arg == "--spans") spans = v;
    else if (arg == "--spec") specs.push_back(v);
    else if (arg == "--threads" && v.size() <= 4 &&
             v.find_first_not_of("0123456789") == std::string::npos)
      threads = static_cast<unsigned>(std::stoul(v));
    else return usage();
  }
  try {
    if ((mode == "serve-hit" || mode == "serve-plan") && !warm.empty() &&
        !requests.empty() && !spans.empty()) {
      return run_serve(mode == "serve-hit", warm, requests, spans);
    }
    if (mode == "sweep" && !specs.empty() && threads > 0 && !spans.empty()) {
      return run_sweep_trace(specs, threads, spans);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psd_bench_trace: %s\n", e.what());
    return 1;
  }
  return usage();
}
