// Ablation study of the load-balancing design choices (DESIGN.md section 3):
//   1. static assignment order: block vs cyclic interleave, as a function
//      of how clustered the divergent paths are;
//   2. dynamic balancing sensitivity to master dispatch overhead;
//   3. dynamic balancing sensitivity to message latency;
//   3b. the policy spectrum: static / guided / batch+steal / per-job;
//   4. the thread runtime protocols on a real workload, feeding measured
//      per-path durations back through the simulator;
//   5. the FCFS vs BatchSteal session policies on the thread runtime under
//      injected message latency (BatchSteal throughput >= FCFS at >= 1 ms
//      latency, with identical path results across every policy);
//   6. the Pieri tree scheduler under both session policies (FCFS vs
//      BatchSteal, DESIGN.md section 7): level batches must cut master
//      dispatches while producing the identical solution set.
//
// Set PPH_BENCH_ABLATION_TINY=1 for a seconds-scale run (CI smoke): the
// real-tracking studies drop to cyclic-5 / (m,p,q)=(2,2,1) and the latency
// grid shrinks.  Set PPH_BENCH_JSON=<path> to also write the measured rows
// as JSON (the perf-trajectory format committed under docs/bench/).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "homotopy/start_total_degree.hpp"
#include "sched/pieri_scheduler.hpp"
#include "sched/session.hpp"
#include "simcluster/speedup.hpp"
#include "systems/cyclic.hpp"
#include "util/table.hpp"

namespace {

bool tiny_mode() {
  const char* v = std::getenv("PPH_BENCH_ABLATION_TINY");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// One measured row of the JSON perf trajectory.
struct JsonRow {
  std::string name;
  double wall_seconds = 0.0;
  double throughput = 0.0;  // paths (or jobs) per second
  std::size_t dispatches = 0;
  std::size_t steals = 0;
};

void write_bench_json(const std::string& path, const std::vector<JsonRow>& rows,
                      bool tiny, bool all_identical) {
  std::ofstream out(path);
  if (!out.is_open()) {
    std::fprintf(stderr, "PPH_BENCH_JSON: cannot open %s\n", path.c_str());
    return;
  }
  char stamp[32] = "";
  const std::time_t now = std::time(nullptr);
  std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  out << "{\n  \"context\": {\n"
      << "    \"bench\": \"bench_sched_ablation\",\n"
      << "    \"date\": \"" << stamp << "\",\n"
      << "    \"tiny\": " << (tiny ? "true" : "false") << ",\n"
      << "    \"identical_path_results_everywhere\": " << (all_identical ? "true" : "false")
      << "\n  },\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\", \"wall_seconds\": " << r.wall_seconds
        << ", \"throughput_per_second\": " << r.throughput
        << ", \"dispatches\": " << r.dispatches << ", \"steals\": " << r.steals << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote JSON trajectory point: %s\n", path.c_str());
}

}  // namespace

int main() {
  using namespace pph;
  const bool tiny = tiny_mode();
  if (tiny) std::printf("(tiny mode: PPH_BENCH_ABLATION_TINY set)\n\n");

  // ---- 1. block vs cyclic static assignment ---------------------------------
  {
    util::Table t("ABLATION 1 -- static assignment order (cyclic10 model, 64 CPUs)");
    t.set_header({"divergent clustering", "block makespan (min)", "cyclic makespan (min)"});
    for (const std::size_t cluster : {std::size_t{1}, std::size_t{16}, std::size_t{64},
                                      std::size_t{250}}) {
      util::Prng rng(1);
      auto model = simcluster::cyclic10_model();
      model.cluster_size = cluster;  // longer contiguous divergent runs
      const auto durations = simcluster::synthesize(model, rng);
      const auto block = simcluster::simulate_static(durations, 64,
                                                     simcluster::SimAssignment::kBlock);
      const auto cyc = simcluster::simulate_static(durations, 64,
                                                   simcluster::SimAssignment::kCyclic);
      char label[32];
      std::snprintf(label, sizeof label, "runs of %zu", cluster);
      t.add_row({label, util::Table::cell(block.makespan / 60.0, 2),
                 util::Table::cell(cyc.makespan / 60.0, 2)});
    }
    std::cout << t.to_string() << "\n";
  }

  // ---- 2/3. dynamic sensitivity to communication costs ----------------------
  {
    util::Prng rng(2);
    const auto durations = simcluster::synthesize(simcluster::cyclic10_model(), rng);
    util::Table t("ABLATION 2 -- dynamic balancing vs master dispatch overhead (128 CPUs)");
    t.set_header({"dispatch overhead (ms)", "latency (ms)", "makespan (min)", "speedup"});
    double total = 0.0;
    for (const double d : durations) total += d;
    for (const double overhead_ms : {0.0, 2.0, 4.0, 8.0, 16.0}) {
      simcluster::CommModel comm;
      comm.dispatch_overhead = overhead_ms / 1000.0;
      comm.message_latency = 0.002;
      const auto out = simcluster::simulate_dynamic(durations, 128, comm);
      t.add_row({util::Table::cell(overhead_ms, 1), "2.0",
                 util::Table::cell(out.makespan / 60.0, 2),
                 util::Table::cell(total / out.makespan, 1)});
    }
    for (const double latency_ms : {10.0, 50.0}) {
      simcluster::CommModel comm;
      comm.dispatch_overhead = 0.004;
      comm.message_latency = latency_ms / 1000.0;
      const auto out = simcluster::simulate_dynamic(durations, 128, comm);
      t.add_row({"4.0", util::Table::cell(latency_ms, 1),
                 util::Table::cell(out.makespan / 60.0, 2),
                 util::Table::cell(total / out.makespan, 1)});
    }
    std::cout << t.to_string() << "\n";
  }

  // ---- 3b. policy spectrum: static / guided / batch+steal / per-job ----------
  {
    util::Prng rng(5);
    const auto durations = simcluster::synthesize(simcluster::cyclic10_model(), rng);
    double total = 0.0;
    for (const double d : durations) total += d;
    simcluster::CommModel comm;
    comm.dispatch_overhead = 0.001;
    comm.message_latency = 0.002;
    util::Table t("ABLATION 3 -- policy spectrum at 128 CPUs (cyclic10 model)");
    t.set_header({"policy", "makespan (min)", "speedup", "dispatches", "steals"});
    const auto st = simcluster::simulate_static(durations, 128,
                                                simcluster::SimAssignment::kBlock);
    t.add_row({"static block", util::Table::cell(st.makespan / 60.0, 2),
               util::Table::cell(total / st.makespan, 1), "0", "0"});
    const auto stc = simcluster::simulate_static(durations, 128,
                                                 simcluster::SimAssignment::kCyclic);
    t.add_row({"static cyclic", util::Table::cell(stc.makespan / 60.0, 2),
               util::Table::cell(total / stc.makespan, 1), "0", "0"});
    for (const double factor : {1.0, 2.0, 4.0}) {
      const auto g = simcluster::simulate_guided(durations, 128, comm, factor);
      char label[32];
      std::snprintf(label, sizeof label, "guided f=%.0f", factor);
      t.add_row({label, util::Table::cell(g.makespan / 60.0, 2),
                 util::Table::cell(total / g.makespan, 1),
                 util::Table::cell(static_cast<double>(g.dispatches), 0), "0"});
    }
    const auto bs = simcluster::simulate_batch_steal(durations, 128, comm);
    t.add_row({"batch+steal f=2", util::Table::cell(bs.makespan / 60.0, 2),
               util::Table::cell(total / bs.makespan, 1),
               util::Table::cell(static_cast<double>(bs.dispatches), 0),
               util::Table::cell(static_cast<double>(bs.steals), 0)});
    const auto dy = simcluster::simulate_dynamic(durations, 128, comm);
    t.add_row({"dynamic per-job", util::Table::cell(dy.makespan / 60.0, 2),
               util::Table::cell(total / dy.makespan, 1),
               util::Table::cell(static_cast<double>(dy.dispatches), 0), "0"});
    std::cout << t.to_string() << "\n";
  }

  // ---- 4. real thread-runtime protocols on cyclic-n -------------------------
  // The tracked workload: cyclic-6 (720 paths), or cyclic-5 in tiny mode.
  const int cyclic_n = tiny ? 5 : 6;
  util::Prng rng(3);
  const auto target = systems::cyclic(cyclic_n);
  const homotopy::TotalDegreeStart start(target, rng);
  const homotopy::ConvexHomotopy h(start.system(), target, rng.unit_complex());
  const auto starts = start.all_solutions();
  sched::PathWorkload workload;
  workload.homotopy = &h;
  workload.starts = &starts;
  // Any scheduler disagreement anywhere makes the binary exit non-zero
  // (the CI smoke job relies on this).
  bool all_identical = true;
  {
    std::printf("ABLATION 4 -- thread runtime on cyclic-%d (real tracking)\n", cyclic_n);
    const auto st = sched::run_paths(workload, 4,
                                     sched::SessionOptions().with_policy(sched::Policy::kStatic));
    const auto dy = sched::run_paths(workload, 4);
    const auto ba = sched::run_paths(workload, 4,
                                     sched::SessionOptions().with_policy(sched::Policy::kBatchSteal));
    const bool same = sched::identical_path_results(st, dy) && sched::identical_path_results(st, ba);
    all_identical = all_identical && same;
    std::printf(
        "  %zu paths; static: %zu conv %zu div; all three policies identical: %s\n",
        starts.size(), st.converged, st.diverged, same ? "yes" : "NO");
    std::printf("  dispatches: dynamic %zu, batch %zu; batch steals %zu\n", dy.dispatches,
                ba.dispatches, ba.steals);

    // Feed the real measured durations back into the simulator.
    std::vector<double> durations;
    for (const auto& tp : dy.paths) durations.push_back(tp.seconds);
    // Scale communication to the sub-millisecond laptop path costs.
    simcluster::CommModel comm;
    comm.dispatch_overhead = 2e-6;
    comm.message_latency = 1e-6;
    const auto study = simcluster::run_speedup_study(durations, {2, 4, 8, 16, 32}, comm,
                                                     simcluster::SimAssignment::kBlock);
    std::cout << simcluster::to_table(study,
                                      "  projected speedups from measured cyclic durations")
                     .to_string()
              << "\n";
  }

  // ---- 5. FCFS vs BatchSteal under injected latency ---------------------------
  std::vector<JsonRow> json_rows;
  {
    util::Table t("ABLATION 5 -- FCFS vs BatchSteal under injected latency "
                  "(4 ranks, real tracking)");
    t.set_header({"latency (ms)", "FCFS wall (s)", "BatchSteal wall (s)", "FCFS paths/s",
                  "BatchSteal paths/s", "BatchSteal wins", "identical"});
    std::vector<double> latencies_ms{0.0, 1.0};
    if (!tiny) latencies_ms.push_back(5.0);
    bool batch_wins_at_latency = true;
    for (const double ms : latencies_ms) {
      const auto dy = sched::run_paths(
          workload, 4, sched::SessionOptions().with_latency(ms / 1000.0));
      const auto ba = sched::run_paths(workload, 4,
                                       sched::SessionOptions()
                                           .with_policy(sched::Policy::kBatchSteal)
                                           .with_latency(ms / 1000.0));
      const double n = static_cast<double>(starts.size());
      const double tput_dy = n / dy.wall_seconds;
      const double tput_ba = n / ba.wall_seconds;
      const bool same = sched::identical_path_results(dy, ba);
      all_identical = all_identical && same;
      const bool wins = tput_ba >= tput_dy;
      if (ms >= 1.0 && !wins) batch_wins_at_latency = false;
      t.add_row({util::Table::cell(ms, 1), util::Table::cell(dy.wall_seconds, 2),
                 util::Table::cell(ba.wall_seconds, 2), util::Table::cell(tput_dy, 1),
                 util::Table::cell(tput_ba, 1), wins ? "yes" : "no", same ? "yes" : "NO"});
      char name[64];
      std::snprintf(name, sizeof name, "dynamic_latency_%.0fms", ms);
      json_rows.push_back({name, dy.wall_seconds, tput_dy, dy.dispatches, dy.steals});
      std::snprintf(name, sizeof name, "batch_latency_%.0fms", ms);
      json_rows.push_back({name, ba.wall_seconds, tput_ba, ba.dispatches, ba.steals});
    }
    std::cout << t.to_string();
    std::printf("  BatchSteal >= FCFS throughput at latency >= 1 ms: %s\n",
                batch_wins_at_latency ? "yes" : "NO");
  }

  // ---- 6. the Pieri tree under both session policies --------------------------
  // The same tree expansion (PieriTreeJobSource) rides the per-job FCFS
  // protocol and the BatchSteal policy (level batches + brokered steals):
  // dispatch counts drop, the solution set must not change by a bit.
  {
    const schubert::PieriProblem pb = tiny ? schubert::PieriProblem{2, 2, 1}
                                           : schubert::PieriProblem{3, 2, 1};
    util::Prng prng(2004);
    const auto input = schubert::random_pieri_input(pb, prng);
    std::printf("ABLATION 6 -- Pieri tree sessions, m=%zu p=%zu q=%zu (4 ranks)\n",
                pb.m, pb.p, pb.q);
    util::Table t("  FCFS vs BatchSteal over the same virtual Pieri tree");
    t.set_header({"policy", "wall (s)", "jobs", "dispatches", "steals", "complete"});
    sched::ParallelPieriReport reports[2];
    for (int k = 0; k < 2; ++k) {
      sched::ParallelPieriOptions opts;
      opts.policy = k == 0 ? sched::Policy::kFCFS : sched::Policy::kBatchSteal;
      reports[k] = sched::run_pieri(input, 4, opts);
      const auto& r = reports[k];
      t.add_row({sched::policy_name(opts.policy), util::Table::cell(r.wall_seconds, 2),
                 util::Table::cell(static_cast<std::size_t>(r.total_jobs)),
                 util::Table::cell(r.dispatches), util::Table::cell(r.steals),
                 r.complete() ? "yes" : "NO"});
      json_rows.push_back({k == 0 ? "pieri_fcfs" : "pieri_batch_steal", r.wall_seconds,
                           static_cast<double>(r.total_jobs) / r.wall_seconds,
                           r.dispatches, r.steals});
    }
    const bool same_solutions = reports[0].complete() && reports[1].complete() &&
                                sched::canonical_solution_set(reports[0].solutions) ==
                                    sched::canonical_solution_set(reports[1].solutions);
    all_identical = all_identical && same_solutions;
    std::cout << t.to_string();
    std::printf("  identical solution sets across Pieri policies: %s\n",
                same_solutions ? "yes" : "NO");
  }

  std::printf("\nidentical results across schedulers/policies everywhere: %s\n",
              all_identical ? "yes" : "NO");
  if (const char* json_path = std::getenv("PPH_BENCH_JSON");
      json_path != nullptr && json_path[0] != '\0') {
    write_bench_json(json_path, json_rows, tiny, all_identical);
  }
  return all_identical ? 0 : 1;
}
