#!/usr/bin/env python3
"""Regenerates the per-layer table from traced benchmark output.

    python3 perfbench/run.py --workload serve_chaos --trace 1 > serve.txt
    python3 perfbench/breakdown.py serve.txt [batch_xl.txt ...]

Each input is the standard output of one `--trace 1` run (the workload name
is read from its metric lines, the numbers from its last-line JSON; "-"
reads stdin). Prints, per workload, each layer's self time in the traced
run and its share of the traced run wall, then the work counts and ratios.
Layers a workload does not run read "n/a".
"""

import json
import sys

# (label, metric, end-to-end metrics it should move) for the time split of
# the traced run wall. echelon.sched_s + netsim.alloc_s split netsim.ctl_s
# where the scheduler seam exists (serve_chaos).
RUN_LAYERS = [
    ("control pass (scheduler + allocator)", "netsim.ctl_s",
     "wall_s @ batch_xl, batch_sweep; step_p99_us @ serve_chaos"),
    ("  scheduler control() (echelon)", "echelon.sched_s",
     "step_p99_us @ serve_chaos"),
    ("  allocator (netsim)", "netsim.alloc_s", "step_p99_us @ serve_chaos"),
    ("arrival generation (service/arrivals)", "workload.arrivals_s",
     "wall_s @ serve_chaos"),
    ("event loop, workflow, routes, faults (netsim)", "netsim.loop_s",
     "wall_s, flows_per_s @ all"),
]
# Host time spent outside the run wall.
OUTSIDE = [
    ("placement + workflow expansion (cluster)", "cluster.setup_s",
     "setup_s @ batch_xl"),
    ("snapshot save, median (service)", "service.snapshot_save_s",
     "snapshot_save_ms @ serve_chaos"),
    ("snapshot restore, median (service)", "service.restore_s",
     "restore_s @ serve_chaos"),
]
COUNTS = [
    "cluster.sweep_util", "netsim.ctl_passes", "netsim.ctl_pass_us",
    "netsim.flows", "alloc.components_filled", "alloc.cache_hit_rate",
    "alloc.flows_per_class", "sched.scoped_ratio", "sched.skip_ratio",
    "sched.reuse_ratio", "routes.lookups", "routes.hit_rate",
    "routes.distinct", "fault.events_fired", "fault.reroutes", "fault.parks",
    "service.steps", "service.step_s", "service.journal_entries",
    "obs.trace_events", "obs.trace_overhead", "obs.telemetry_flushes",
]
# Per-layer metrics that are zero by construction on a workload that does
# not run the layer.
NOT_RUN = {
    "batch_sweep": {"echelon.sched_s", "netsim.alloc_s", "workload.arrivals_s",
                    "cluster.setup_s", "service.snapshot_save_s",
                    "service.restore_s", "service.steps", "service.step_s",
                    "service.journal_entries", "obs.telemetry_flushes"},
    "batch_xl": {"echelon.sched_s", "netsim.alloc_s", "workload.arrivals_s",
                 "cluster.sweep_util", "service.snapshot_save_s",
                 "service.restore_s", "service.steps", "service.step_s",
                 "service.journal_entries", "obs.telemetry_flushes"},
    "serve_chaos": {"cluster.setup_s", "cluster.sweep_util"},
}


def load(path):
    text = sys.stdin.read() if path == "-" else open(path).read()
    lines = [l for l in text.splitlines() if l.strip()]
    result = json.loads(lines[-1])
    workload = next((l.split()[0] for l in lines[:-1]
                     if not l.startswith("#") and " = " in l), path)
    return workload, result


def fmt(workload, metrics, name):
    if name in NOT_RUN.get(workload, ()):
        return "n/a"
    m = metrics[name]
    return "%.6g %s" % (m["value"], m["unit"])


def table(workload, result):
    metrics = result["metrics"]
    wall = metrics["run.traced_wall_s"]["value"]
    out = ["## %s (traced run wall %.4g s; correct=%s, %d/%d ops failed)"
           % (workload, wall, result["correct"], result["failed"],
              result["attempted"]), "",
           "| layer | metric | self time | share of run wall | should move |",
           "|---|---|---|---|---|"]
    for label, name, moves in RUN_LAYERS:
        share = "n/a"
        if name not in NOT_RUN.get(workload, ()) and wall > 0:
            share = "%.1f%%" % (100.0 * metrics[name]["value"] / wall)
        out.append("| %s | `%s` | %s | %s | %s |"
                   % (label, name, fmt(workload, metrics, name), share, moves))
    out += ["", "| outside the run wall | metric | host time | should move |",
            "|---|---|---|---|"]
    for label, name, moves in OUTSIDE:
        out.append("| %s | `%s` | %s | %s |"
                   % (label, name, fmt(workload, metrics, name), moves))
    out += ["", "| count or ratio | value |", "|---|---|"]
    for name in COUNTS:
        out.append("| `%s` | %s |" % (name, fmt(workload, metrics, name)))
    return "\n".join(out)


def main(argv):
    if not argv:
        sys.exit(__doc__)
    print("\n\n".join(table(*load(p)) for p in argv))


if __name__ == "__main__":
    main(sys.argv[1:])
