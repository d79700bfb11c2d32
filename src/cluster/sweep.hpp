// Parallel experiment sweep runner.
//
// A "sweep" is a list of independent experiment configurations (points).
// run_sweep executes them across a small thread pool and returns results in
// point order. Determinism contract: each experiment is a pure function of
// its SweepPoint -- the simulator is single-threaded per experiment and all
// randomness (e.g. compute jitter) is seeded from the specs -- so the result
// vector is identical for any thread count, including 1 (the host-side
// `wall_ms` timing field is the only exception). The golden suite asserts
// exactly this.
//
// Scheduling: points dispatch onto the process-wide echelon::ThreadPool
// (common/pool.hpp) -- no per-call thread spawn; repeated sweeps reuse
// parked workers. Workers steal point indices from per-worker atomic
// cursors (dynamic load balancing; sweep points can differ wildly in
// cost). Exceptions thrown by a point are captured and rethrown on the
// calling thread -- the lowest failing index wins, matching serial
// semantics. run_sweep / parallel_for_indexed are the pool's one user in
// src/: each experiment itself runs serially (DESIGN.md §10). Nested-
// parallelism safe: a dispatch issued from inside a pool task runs
// inline-serially by construction, so a sweep can never deadlock on its
// own workers.

#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "cluster/experiment.hpp"
#include "obs/metrics.hpp"

namespace echelon::cluster {

// One experiment in a sweep: a job mix plus the configuration to run it
// under.
struct SweepPoint {
  std::vector<JobSpec> jobs;
  ExperimentConfig config;
};

struct SweepOptions {
  // Worker threads. 0 = one per hardware thread (at least 1); 1 = run
  // serially on the calling thread (no pool spawned).
  unsigned threads = 0;
};

// Per-sweep-point metric capture (DESIGN.md §9). When a SweepCapture is
// passed to run_sweep, every point gets its *own* MetricsRegistry, created
// and written exclusively on the worker thread that runs the point
// (thread-confined: registries are not thread-safe and never need to be
// here). After the pool joins, the per-point snapshots are stored in point
// order and merged deterministically -- the merged snapshot is identical for
// any thread count. A point whose config already carries a `metrics`
// registry keeps it (the caller owns that one; its snapshot is still
// captured).
struct SweepCapture {
  std::vector<obs::MetricsSnapshot> point_metrics;  // [i] <-> points[i]
  obs::MetricsSnapshot merged;  // counters summed, gauges averaged
};

// Runs every point and returns results[i] == run_experiment(points[i]).
// `capture` (optional) receives per-point metrics snapshots plus their
// deterministic merge; trace sinks, being caller-owned, are attached
// per-point through each point's config instead.
[[nodiscard]] std::vector<ExperimentResult> run_sweep(
    const std::vector<SweepPoint>& points, const SweepOptions& options = {},
    SweepCapture* capture = nullptr);

// Deterministic parallel-for underlying run_sweep, exposed for benches whose
// per-point runner is not run_experiment. Invokes fn(i) for every
// i in [0, n) exactly once across `threads` workers (same semantics for
// `threads` as SweepOptions::threads). fn must not touch shared mutable
// state except through index i. Rethrows the lowest-index exception.
void parallel_for_indexed(std::size_t n, unsigned threads,
                          const std::function<void(std::size_t)>& fn);

}  // namespace echelon::cluster
