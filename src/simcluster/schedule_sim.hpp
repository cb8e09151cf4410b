#pragma once
// Replay of the paper's two load-balancing policies over a job-duration
// multiset (paper section II-A), with an explicit communication model.
// Reproduces the wall time a cluster of `cpus` processors would need, from
// which the speedup tables and figures are generated.  The simulator and
// its communication model are described in DESIGN.md section 4.

#include "sched/session.hpp"
#include "simcluster/event_sim.hpp"
#include "simcluster/workload.hpp"

namespace pph::simcluster {

/// Communication cost model.
struct CommModel {
  /// Master CPU time consumed per job dispatch (dynamic only): the master
  /// serializes job handout, which caps dynamic scalability.
  double dispatch_overhead = 0.0;
  /// One-way message latency added to each job round trip (dynamic only).
  double message_latency = 0.0;
};

/// Index pre-assignment of the static policy.
enum class SimAssignment { kBlock, kCyclic };

struct SimOutcome {
  double makespan = 0.0;         // seconds
  double idle_fraction = 0.0;    // mean idle share across CPUs
  double master_busy = 0.0;      // dynamic only: dispatch time consumed
  std::size_t dispatches = 0;    // master job/chunk hand-outs
  std::size_t steals = 0;        // batch+steal only: worker-to-worker steals
};

/// Static balancing: jobs pre-assigned, no communication during the run.
SimOutcome simulate_static(const std::vector<double>& durations, std::size_t cpus,
                           SimAssignment assignment = SimAssignment::kBlock);

/// Dynamic master/slave balancing, first-come-first-served.  With one CPU
/// the run degenerates to sequential execution.  All CPUs track paths; the
/// master's dispatching is overlapped with computation (the paper uses
/// non-blocking MPI sends/receives for exactly this), so it costs
/// dispatch_overhead serialization per job rather than a dedicated CPU.
SimOutcome simulate_dynamic(const std::vector<double>& durations, std::size_t cpus,
                            const CommModel& comm = {});

/// Guided dynamic balancing (OpenMP schedule(guided) style): the master
/// hands out chunks of remaining/(factor*cpus) jobs instead of single jobs,
/// trading balance quality against dispatch traffic.  factor = remaining
/// jobs per chunk shrink rate; chunk size never falls below min_chunk.
SimOutcome simulate_guided(const std::vector<double>& durations, std::size_t cpus,
                           const CommModel& comm = {}, double factor = 2.0,
                           std::size_t min_chunk = 1);

/// Batched dispatch with work stealing (the thread runtime's
/// Policy::kBatchSteal, DESIGN.md section 2): the master hands out
/// guided-size batches; a worker that drains its batch while the master
/// pool is empty steals half of the most loaded worker's unstarted jobs,
/// paying steal latency (one brokerage hop plus the worker-to-worker reply)
/// instead of a master dispatch per job.  Chunk sizing is shared with the
/// thread scheduler (sched::guided_chunk_size).
SimOutcome simulate_batch_steal(const std::vector<double>& durations, std::size_t cpus,
                                const CommModel& comm = {}, double factor = 2.0,
                                std::size_t min_chunk = 1);

/// Knobs of the policy-selected entry point below; the subset of
/// sched::SessionOptions the simulator models.  Defaults mirror
/// SessionOptions so simulate(policy, ...) projects the schedule
/// run_paths(..., {.policy = policy}) actually executes -- in particular
/// cyclic static assignment (the library default), unlike the speedup
/// studies, which pass kBlock explicitly to match the paper's tables.
struct SimPolicyOptions {
  SimAssignment assignment = SimAssignment::kCyclic;  // static only
  double factor = 2.0;                                // batch+steal only
  std::size_t min_chunk = 1;                          // batch+steal only
};

/// Unified entry point keyed by the scheduler sessions' Policy enum
/// (sched/session.hpp): the simulated and the real run of one experiment
/// are selected by the same type --
///   sched::Policy::kStatic     -> simulate_static
///   sched::Policy::kFCFS       -> simulate_dynamic
///   sched::Policy::kBatchSteal -> simulate_batch_steal
SimOutcome simulate(sched::Policy policy, const std::vector<double>& durations,
                    std::size_t cpus, const CommModel& comm = {},
                    const SimPolicyOptions& opts = {});

}  // namespace pph::simcluster
