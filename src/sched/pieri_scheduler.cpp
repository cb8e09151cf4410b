#include "sched/pieri_scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace pph::sched {

using schubert::Pattern;
using schubert::PatternChart;
using schubert::PieriEdgeHomotopy;
using schubert::PieriProblem;
using schubert::PlaneCondition;

InstanceDeformation instance_deformation(std::uint64_t seed,
                                         const std::vector<std::size_t>& pivots,
                                         std::size_t attempt) {
  std::uint64_t h = seed ^ 0x9e3779b97f4a7c15ULL;
  for (const std::size_t piv : pivots) {
    h = (h ^ static_cast<std::uint64_t>(piv)) * 1099511628211ULL;
  }
  h = (h ^ static_cast<std::uint64_t>(attempt)) * 1099511628211ULL;
  util::Prng rng(h);
  InstanceDeformation d;
  d.gamma = rng.unit_complex();
  d.detour_s = 0.7 * rng.unit_complex();
  d.detour_u = 0.7 * rng.unit_complex();
  return d;
}

namespace {

/// Edge payload: target pattern, attempt, rescue round, start coordinates.
std::vector<std::byte> pack_edge(const std::vector<std::size_t>& pivots, std::uint32_t attempt,
                                 std::uint32_t rescue, const linalg::CVector& start) {
  mp::Packer p;
  p.write(static_cast<std::uint32_t>(pivots.size()));
  for (const std::size_t piv : pivots) p.write(static_cast<std::uint32_t>(piv));
  p.write(attempt);
  p.write(rescue);
  p.write_vector(start);
  return p.take();
}

struct EdgeMsg {
  std::vector<std::size_t> pivots;
  std::uint32_t attempt = 0;
  std::uint32_t rescue = 0;
  linalg::CVector start;
};

EdgeMsg unpack_edge(const std::vector<std::byte>& payload) {
  mp::Unpacker u(payload);
  EdgeMsg j;
  const auto np = u.read<std::uint32_t>();
  j.pivots.reserve(np);
  for (std::uint32_t i = 0; i < np; ++i) j.pivots.push_back(u.read<std::uint32_t>());
  j.attempt = u.read<std::uint32_t>();
  j.rescue = u.read<std::uint32_t>();
  j.start = u.read_vector<linalg::Complex>();
  return j;
}

}  // namespace

// ---------------------------------------------------------------------------
// PieriTreeJobSource
// ---------------------------------------------------------------------------

PieriTreeJobSource::PieriTreeJobSource(const schubert::PieriInput& input,
                                       const schubert::PieriSolverOptions& solver)
    : input_(&input),
      solver_(solver),
      poset_(input.problem),
      root_(Pattern::root(input.problem)),
      jobs_per_level_(input.problem.condition_count(), 0) {
  // Seed: the minimal pattern's trivial solution feeds its covers.
  const Pattern minimal = Pattern::minimal(input.problem);
  for (const Pattern& up : minimal.parents()) {
    Instance& inst = instance_of(up.pivots());
    const PatternChart chart(up);
    const linalg::CVector start = chart.embed_child(PatternChart(minimal), {});
    inst.starts.push_back(start);
    add_job(up.pivots(), inst.attempt, 0, static_cast<std::uint32_t>(inst.starts.size() - 1),
            start);
  }
}

PieriTreeJobSource::Instance& PieriTreeJobSource::instance_of(
    const std::vector<std::size_t>& pivots) {
  auto [it, inserted] = instances_.try_emplace(pivots);
  if (inserted) {
    it->second.expected = poset_.chain_count(Pattern(input_->problem, pivots));
    it->second.results.resize(it->second.expected);
    ++active_instances_;
    peak_active_instances_ = std::max(peak_active_instances_, active_instances_);
  }
  return it->second;
}

JobId PieriTreeJobSource::add_job(std::vector<std::size_t> pivots, std::uint32_t attempt,
                                  std::uint32_t rescue, std::uint32_t start_index,
                                  linalg::CVector start) {
  const JobId id = next_id_++;
  jobs_.emplace(id, Job{std::move(pivots), attempt, rescue, start_index, std::move(start)});
  ready_.push_back(id);
  return id;
}

JobId PieriTreeJobSource::pop() {
  const JobId id = ready_.front();
  ready_.pop_front();
  return id;
}

std::vector<std::byte> PieriTreeJobSource::job_payload(JobId id) const {
  const Job& job = jobs_.at(id);
  return pack_edge(job.pivots, job.attempt, job.rescue, job.start);
}

bool PieriTreeJobSource::consume(TrackedPath& tp) {
  const auto jt = jobs_.find(tp.index);
  if (jt == jobs_.end()) return false;  // unknown id: corrupt session state
  const Job job = std::move(jt->second);
  jobs_.erase(jt);
  const Pattern pattern(input_->problem, job.pivots);
  const std::size_t level = pattern.level();
  // Master-side provenance: slaves never know the tree level, so it is
  // stamped here, before any sink (e.g. a result store) sees the record.
  tp.level = static_cast<std::uint32_t>(level);
  Instance& inst = instances_.at(job.pivots);
  if (job.attempt != inst.attempt) {
    // Stale result from a superseded attempt; drop it.  (A full retry only
    // starts with no rescue jobs in flight, so this also covers them.)
    return false;
  }
  inst.results[job.start_index] = tp.result;
  if (job.rescue == 0) {
    ++inst.received;
    ++total_jobs_;
    ++jobs_per_level_[level - 1];
  } else {
    --inst.outstanding_rescue;
  }

  if (inst.received == inst.expected && inst.outstanding_rescue == 0) {
    // Instance complete: quality control.  Targeted same-deformation
    // rescue first (failed, suspect and colliding paths -- the start-to-
    // root correspondence is fixed by gamma, so only a same-gamma re-track
    // recovers the root a path actually leads to), then the fresh-
    // deformation whole-instance retry as the fallback.
    const auto targets = schubert::rescue_targets(inst.results, solver_);
    if (!targets.empty() && solver_.rescue && inst.rescue_round < solver_.rescue_attempts) {
      ++inst.rescue_round;
      inst.used_rescue = true;
      suspect_paths_ += targets.size();
      rescue_retracks_ += targets.size();
      inst.outstanding_rescue = targets.size();
      for (const std::size_t i : targets) {
        add_job(job.pivots, inst.attempt, inst.rescue_round, static_cast<std::uint32_t>(i),
                inst.starts[i]);
      }
      return true;
    }
    settle_instance(job.pivots, inst);
  }
  return true;
}

void PieriTreeJobSource::settle_instance(const std::vector<std::size_t>& pivots,
                                         Instance& inst) {
  const Pattern pattern(input_->problem, pivots);
  std::vector<linalg::CVector> endpoints;
  endpoints.reserve(inst.expected);
  for (const auto& r : inst.results) {
    if (r.converged()) endpoints.push_back(r.x);
  }
  const bool all_converged = endpoints.size() == inst.expected;
  const bool distinct =
      poly::deduplicate_solutions(endpoints, solver_.distinct_tolerance).size() ==
      endpoints.size();
  if ((!all_converged || !distinct) && inst.attempt < solver_.max_retries) {
    // Retry the whole instance with a fresh deformation.
    ++inst.attempt;
    inst.rescue_round = 0;
    inst.received = 0;
    inst.results.assign(inst.expected, {});
    for (std::size_t i = 0; i < inst.starts.size(); ++i) {
      add_job(pivots, inst.attempt, 0, static_cast<std::uint32_t>(i), inst.starts[i]);
    }
    return;
  }
  if (!all_converged || !distinct) {
    failures_ += inst.expected -
                 poly::deduplicate_solutions(endpoints, solver_.distinct_tolerance).size();
  } else if (inst.used_rescue) {
    ++rescued_instances_;
  }
  if (pattern == root_) {
    root_solutions_ = endpoints;
  } else {
    // Spawn the child jobs of every parent pattern (paper: "the master
    // generates at most p new jobs per returned result" -- batched here
    // per instance for the deformation consistency).
    const PatternChart chart(pattern);
    for (const Pattern& up : pattern.parents()) {
      Instance& next = instance_of(up.pivots());
      const PatternChart up_chart(up);
      for (const auto& end : endpoints) {
        const linalg::CVector start = up_chart.embed_child(chart, end);
        next.starts.push_back(start);
        add_job(up.pivots(), next.attempt, 0,
                static_cast<std::uint32_t>(next.starts.size() - 1), start);
      }
    }
  }
  // Instance memory dies here (the Pieri-tree memory argument).
  instances_.erase(pivots);
  --active_instances_;
}

homotopy::TrackerWorkspace PieriTreeJobSource::make_workspace() const {
  homotopy::TrackerWorkspace ws;
  // Family-level evaluation scratch (no edge homotopy exists yet): every
  // compiled edge tape evaluates through it, refreshing the coefficient
  // caches when the owning instance changes.
  if (solver_.compiled_eval) ws.hws = std::make_unique<schubert::PieriEvalWorkspace>();
  return ws;
}

PathResult PieriTreeJobSource::execute(const std::vector<std::byte>& payload,
                                       homotopy::TrackerWorkspace& ws) const {
  const EdgeMsg job = unpack_edge(payload);
  const Pattern pattern(input_->problem, job.pivots);
  const std::size_t level = pattern.level();
  const PatternChart chart(pattern);
  const std::vector<PlaneCondition> fixed(input_->conditions.begin(),
                                          input_->conditions.begin() + (level - 1));
  const PlaneCondition& target = input_->conditions[level - 1];
  const InstanceDeformation def =
      instance_deformation(solver_.gamma_seed, job.pivots, job.attempt);
  PieriEdgeHomotopy h(chart, fixed, target, def.gamma, def.detour_s, def.detour_u);
  h.set_compiled(solver_.compiled_eval);
  // Keep the slave's family workspace across edges; only a cold caller
  // (legacy tests constructing a bare TrackerWorkspace) binds here.
  if (solver_.compiled_eval && !dynamic_cast<schubert::PieriEvalWorkspace*>(ws.hws.get())) {
    ws.bind(h);
  }
  auto r = homotopy::track_path(h, job.start,
                                schubert::attempt_tracker(solver_, job.attempt, job.rescue), ws);
  r.rescue_attempts = job.attempt + job.rescue;
  r.rescued = job.rescue > 0 && r.converged();
  return r;
}

void PieriTreeJobSource::assemble(ParallelPieriReport& report) const {
  report.expected_count = poset_.root_count();
  report.total_jobs = total_jobs_;
  report.failures = failures_;
  report.jobs_per_level = jobs_per_level_;
  report.peak_active_instances = peak_active_instances_;
  report.rescue_retracks = rescue_retracks_;
  report.rescued_instances = rescued_instances_;
  report.suspect_paths = suspect_paths_;
  const PatternChart root_chart(root_);
  for (const auto& coords : root_solutions_) {
    report.solutions.emplace_back(root_chart, coords);
  }
  for (const auto& sol : report.solutions) {
    const double res = sol.max_residual(input_->conditions);
    report.max_residual = std::max(report.max_residual, res);
    if (res < solver_.verify_tolerance) ++report.verified;
  }
  report.distinct =
      poly::deduplicate_solutions(root_solutions_, solver_.distinct_tolerance).size();
}

std::vector<std::vector<linalg::Complex>> canonical_solution_set(
    const std::vector<schubert::PieriMap>& solutions) {
  std::vector<std::vector<linalg::Complex>> out;
  out.reserve(solutions.size());
  for (const auto& sol : solutions) out.push_back(sol.coords());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.size() != b.size()) return a.size() < b.size();
    for (std::size_t k = 0; k < a.size(); ++k) {
      if (a[k].real() != b[k].real()) return a[k].real() < b[k].real();
      if (a[k].imag() != b[k].imag()) return a[k].imag() < b[k].imag();
    }
    return false;
  });
  return out;
}

// ---------------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------------

ParallelPieriReport run_pieri(const schubert::PieriInput& input, int ranks,
                              const ParallelPieriOptions& opts) {
  if (opts.policy == Policy::kStatic) {
    throw std::invalid_argument(
        "run_pieri: tree jobs are created by results; no static pre-assignment "
        "exists");
  }
  if (input.conditions.size() != input.problem.condition_count()) {
    throw std::invalid_argument("run_pieri: wrong number of conditions");
  }

  PieriTreeJobSource source(input, opts.solver);
  // The tree source accumulates everything the report needs in consume();
  // buffering per-edge records here would break the section III-C memory
  // bound that peak_active_instances measures.
  DiscardSink sink;
  SessionOptions so;
  so.policy = opts.policy;
  so.factor = opts.factor;
  so.min_batch = opts.min_batch;
  so.injected_latency = opts.injected_latency;
  so.fault_plan = opts.fault_plan;
  so.who = "run_pieri";
  Session session(source, sink, so);
  const SessionStats stats = session.run(ranks);

  ParallelPieriReport report;
  source.assemble(report);
  report.wall_seconds = stats.wall_seconds;
  report.rank_busy_seconds = stats.rank_busy_seconds;
  report.dispatches = stats.dispatches;
  report.steals = stats.steals;
  return report;
}

}  // namespace pph::sched
