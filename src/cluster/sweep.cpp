#include "cluster/sweep.hpp"

#include <algorithm>
#include <thread>

#include "common/pool.hpp"

namespace echelon::cluster {

namespace {

[[nodiscard]] unsigned resolve_threads(unsigned requested,
                                       std::size_t n) noexcept {
  unsigned t = requested;
  if (t == 0) {
    t = std::thread::hardware_concurrency();
    if (t == 0) t = 1;
  }
  // Never engage more workers than there are points.
  t = static_cast<unsigned>(
      std::min<std::size_t>(t, std::max<std::size_t>(n, 1)));
  return std::max(1u, t);
}

}  // namespace

void parallel_for_indexed(std::size_t n, unsigned threads,
                          const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  threads = resolve_threads(threads, n);

  // Dispatch onto the process-wide shared pool instead of spawning a
  // per-call thread vector: repeated sweeps reuse parked workers, and a
  // nested call from inside a sweep point is safe -- ThreadPool::run
  // detects re-entry from a pool task and degrades to an inline serial
  // loop rather than deadlocking on its own workers. The pool preserves
  // this function's contract: every index is attempted exactly once and
  // the lowest failing index is rethrown, matching what a serial loop
  // would have thrown first.
  ThreadPool::shared().run(n, threads,
                           [&fn](unsigned, std::size_t i) { fn(i); });
}

std::vector<ExperimentResult> run_sweep(const std::vector<SweepPoint>& points,
                                        const SweepOptions& options,
                                        SweepCapture* capture) {
  std::vector<ExperimentResult> results(points.size());
  if (capture == nullptr) {
    parallel_for_indexed(points.size(), options.threads, [&](std::size_t i) {
      results[i] = run_experiment(points[i].jobs, points[i].config);
    });
    return results;
  }

  // Metric capture: one registry per point, created and written only on the
  // worker thread that owns the point (thread-confined -- registries are not
  // thread-safe, and never shared here). Snapshots land in a pre-sized slot
  // vector, so the merge below sees them in point order regardless of
  // completion order.
  capture->point_metrics.assign(points.size(), obs::MetricsSnapshot{});
  parallel_for_indexed(points.size(), options.threads, [&](std::size_t i) {
    ExperimentConfig config = points[i].config;
    obs::MetricsRegistry local;
    if (config.metrics == nullptr) config.metrics = &local;
    results[i] = run_experiment(points[i].jobs, config);
    capture->point_metrics[i] = config.metrics->snapshot();
  });
  capture->merged = obs::merge_snapshots(capture->point_metrics);
  return results;
}

}  // namespace echelon::cluster
