// A ten-second solve service (DESIGN.md section 10): requests arrive as a
// Poisson stream, the serve() loop admits and dispatches them as they come
// due, and a deadline closes the door -- late requests are shed, everything
// admitted drains to completion before the session returns.
//
// The offered rate is chosen so the trace outlives the deadline slightly:
// the run demonstrates arrival gating, admit->consume sojourn percentiles,
// graceful shedding, and the zero-loss drain guarantee.

#include <cstdio>

#include "homotopy/start_total_degree.hpp"
#include "sched/arrival.hpp"
#include "sched/session.hpp"
#include "sched/stream_source.hpp"
#include "systems/cyclic.hpp"

int main() {
  using namespace pph;

  // Request pool: the 120 cyclic-5 start solutions.
  util::Prng rng(99);
  const poly::PolySystem target = systems::cyclic(5);
  const homotopy::TotalDegreeStart start(target, rng);
  const homotopy::ConvexHomotopy h(start.system(), target, rng.unit_complex());
  const auto starts = start.all_solutions();
  sched::PathWorkload workload;
  workload.homotopy = &h;
  workload.starts = &starts;

  // Poisson arrivals at 10 req/s: ~12 seconds of traffic against a
  // 10-second service deadline, so the tail is shed on shutdown.
  const double rate = 10.0;
  const double deadline = 10.0;
  sched::PoissonArrivals arrivals(rate);
  util::Prng trace_rng(7);
  const auto trace = sched::arrival_times(arrivals, trace_rng, starts.size());
  std::printf("solve service: %zu requests, Poisson %.0f req/s (trace spans %.1f s),\n"
              "               deadline %.0f s, 1 master + 3 workers\n\n",
              starts.size(), rate, trace.back(), deadline);

  sched::VectorJobSource inner(workload);
  sched::StreamJobSource stream(inner, trace);
  sched::InMemoryReportSink mem;

  sched::Session session(stream, mem,
                         sched::SessionOptions()
                             .with_serve_deadline(deadline)
                             .with_name("solve_service"));
  const auto stats = session.serve(4);
  const auto report = mem.report(stats);

  const auto& sv = stats.service;
  std::printf("served %.1f s of wall time\n", stats.wall_seconds);
  std::printf("  arrivals %zu, admitted %zu, shed at deadline %zu, completed %zu (%s)\n",
              sv.arrivals, sv.admitted, sv.shed, sv.completed,
              sv.drained() ? "drained: zero loss" : "LOST WORK");
  std::printf("  tracked: %zu converged, %zu diverged\n", report.converged, report.diverged);
  std::printf("  queue: max depth %zu, time-weighted avg %.2f\n", sv.max_queue_depth,
              sv.avg_queue_depth);
  std::printf("  sojourn (admit->consume): p50 %.2f ms, p99 %.2f ms\n",
              sv.sojourn.p50() * 1e3, sv.sojourn.p99() * 1e3);
  std::printf(
      "\nAt 10 req/s the three workers are far under capacity: the queue stays\n"
      "shallow and sojourn tracks pure service time.  bench_solve_service sweeps\n"
      "the offered rate across the measured capacity to find the knee.\n");
  return sv.drained() ? 0 : 1;
}
