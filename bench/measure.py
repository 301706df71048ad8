"""Measurement loops and the result of one benchmark run.

Imported by bench/run.py after it has pinned the BLAS thread pools and put
the checkout's ``src`` on the import path. Metric names and units come from
BENCHMARK.json at the root of the checkout.
"""

import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from tracing import Tracer, patched

# Nominal seconds of the reference work: about its time on the 2-core
# machine the bounds were tuned on, in that machine's faster spells.
REFERENCE_S = 0.05
# Per-layer values pooled over every traced span rather than per pass.
POOLED = {
    "problems.loss_us_p50": ("problems.batch_loss", 50, 1e6),
    "regression.fit_ms_p50": ("regression.select_degree_and_fit", 50, 1e3),
    "regression.fit_ms_p90": ("regression.select_degree_and_fit", 90, 1e3),
    "linesearch.search_ms_p50": ("linesearch.elf_line_search", 50, 1e3),
    "linesearch.search_ms_p90": ("linesearch.elf_line_search", 90, 1e3),
}


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def reference_work() -> float:
    """Fixed work that does not use elfopt, timed after every training run.

    The speed of a shared machine drifted by up to 2x over minutes, and
    elfopt's throughput drifted with it. This mix of the operations elfopt
    spends its time on tracks that drift: a Python loop of 20-dim matvecs,
    small least-squares fits, dense polynomial evaluation and 256-wide tanh
    layers. Returns the time it took.
    """
    start = perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(4):
        a = rng.normal(size=(20, 20))
        v = rng.normal(size=20)
        for _ in range(1500):
            v = a @ v
            v = v / float(np.linalg.norm(v))
        x = rng.uniform(0.0, 1.0, 400)
        y = (x - 0.5) ** 2 + 0.1 * rng.normal(size=400)
        for degree in range(11):
            coef, *_ = np.linalg.lstsq(np.vander(x, degree + 1, increasing=True), y, rcond=None)
        grid = np.linspace(0.0, 2.0, 10001)
        for _ in range(10):
            np.polynomial.polynomial.polyval(grid, coef)
        h = rng.normal(size=(50, 256))
        w = rng.normal(size=(256, 256)) / 16.0
        for _ in range(15):
            h = np.tanh(h @ w)
    return perf_counter() - start


class Ledger:
    """Runs attempted and failed, and the first fingerprint of each seed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.fingerprints = {}

    def attempt(self, workload, seed, tracer=None):
        """Run one unit; a unit that raises, fails a check or changes its
        fingerprint counts its runs as failed and returns None."""
        self.attempted += workload.runs_per_unit
        try:
            outcome = workload.unit(seed, tracer)
        except Exception:
            print(f"seed {seed} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            self.failed += workload.runs_per_unit
            return None
        if self.fingerprints.setdefault(seed, outcome.fingerprint) != outcome.fingerprint:
            print(f"seed {seed}: decisions or artifacts differ between repeats", file=sys.stderr)
            self.failed += workload.runs_per_unit
            return None
        return outcome


def _warm_up(workload, seed):
    """One short untimed, uncounted run so imports and first-call costs are
    paid before timing. The smallest budget still runs the grid search and
    the first search phase; it ends before any SGD step, so the gate's check
    for SGD rows is expected to fail here."""
    try:
        replace(workload, budget=1).unit(seed)
    except workloads.CheckFailed:
        pass
    except Exception:
        traceback.print_exc(file=sys.stderr)


def measure_end_to_end(workload, seeds, seconds, ledger):
    """Run the panel of seeds once, then repeat it in order until the time
    is up. Quality and budget metrics come from the panel pass alone, so they
    do not depend on machine speed; throughput and set-up time use every
    run, and are scaled to the machine speed at which the reference work
    takes REFERENCE_S."""
    deadline = perf_counter() + seconds
    done = []
    unit_walls = []
    reference = []
    for i in itertools.count():
        if i >= len(seeds) + 1:
            typical = statistics.median(unit_walls) if unit_walls else 0.0
            if perf_counter() + typical > deadline:
                break
        start = perf_counter()
        outcome = ledger.attempt(workload, seeds[i % len(seeds)])
        reference.append(reference_work())
        unit_walls.append(perf_counter() - start)
        if outcome is not None:
            done.append((i < len(seeds), outcome))
    panel = [o for first, o in done if first]
    every = [o for _, o in done]
    loads = sum(o.loads for o in panel)
    raw_rate = _ratio(sum(o.loads for o in every), sum(o.train_s for o in every))
    raw_setup = statistics.median(o.setup_s for o in every) if every else 0.0
    slowdown = statistics.fmean(reference) / REFERENCE_S
    print(f"unscaled: loads_per_s {raw_rate!r}, setup_s {raw_setup!r}; "
          f"reference work {statistics.fmean(reference)!r} s (nominal {REFERENCE_S} s)",
          flush=True)
    return {
        "loads_per_s": raw_rate * slowdown,
        "final_loss": statistics.fmean(o.final_loss for o in panel) if panel else 0.0,
        "budget_use": _ratio(loads, sum(o.budgeted for o in panel)),
        "wasted_load_share": _ratio(sum(o.invalid_loads for o in panel), loads),
        "setup_s": raw_setup / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def pass_metrics(tracer):
    """Per-layer totals of one traced pass."""
    calls, total, own = Counter(), Counter(), Counter()
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        calls[span.name] += 1
        total[span.name] += span.duration
        own[span.name.split(".")[0]] += self_s
    counts = tracer.counts
    writes = sum(total[f"cli.{name}"] for name in workloads.CLI_WRITERS)
    searches = calls["linesearch.elf_line_search"]
    metrics = {
        "problems.loss_calls": calls["problems.batch_loss"],
        "problems.grad_calls": calls["problems.batch_gradient"],
        "problems.loss_s": total["problems.batch_loss"],
        "problems.grad_s": total["problems.batch_gradient"],
        "problems.construct_s": total["problems.construct"],
        "regression.fit_calls": calls["regression.select_degree_and_fit"],
        "regression.fit_s": total["regression.select_degree_and_fit"],
        "regression.degrees_tried": counts["degrees_tried"],
        "regression.chosen_degree_sum": counts["chosen_degree_sum"],
        "poly.minimum_calls": calls["poly.closest_minimum_to_zero"],
        "poly.minimum_s": total["poly.closest_minimum_to_zero"],
        "poly.solve_calls": calls["poly.solve_for_value_nearest"],
        "poly.solve_s": total["poly.solve_for_value_nearest"],
        "linesearch.searches": searches,
        "linesearch.self_s": own["linesearch"],
        "linesearch.valid_ratio": _ratio(counts["valid_searches"], searches),
        "controller.phases": calls["controller.trigger_line_searches"],
        "controller.sgd_steps": counts["sgd_steps"],
        "controller.grid_loads": counts["grid_loads"],
        "controller.invalid_loads": counts["invalid_loads"],
        "controller.decrease_calls": calls["controller.apply_decrease_factor"],
        "controller.decrease_s": total["controller.apply_decrease_factor"],
        "controller.self_s": own["controller"],
        "baselines.run_s": total["baselines.run_baseline"],
        "baselines.self_s": own["baselines"],
        "cli.run_s": total["cli.main"],
        "cli.write_s": writes,
        "cli.files_written": counts["files_written"],
        "cli.bytes_written": counts["bytes_written"],
        "seeding.streams_s": total["seeding.rng_streams"],
    }
    return metrics, own


def measure_layers(workload, seeds, seconds, ledger, spans_path, exact):
    """Alternate an untraced and a traced pass over the seeds until the time
    is up. Times are medians over traced passes; the metrics named in exact
    come from the first traced pass and must repeat in the others."""
    deadline = perf_counter() + seconds
    passes, layer_self = [], []
    pooled = {name: [] for name, _, _ in POOLED.values()}
    rates = {False: [0, 0.0], True: [0, 0.0]}
    first_tracer = None
    while True:
        start = perf_counter()
        for traced in (False, True):
            tracer = Tracer() if traced else None
            with patched(workloads.instrumentation(tracer) if traced else []):
                for run_id, seed in enumerate(seeds):
                    if tracer:
                        tracer.run_id = run_id
                    outcome = ledger.attempt(workload, seed, tracer)
                    if outcome is not None:
                        rates[traced][0] += outcome.loads
                        rates[traced][1] += outcome.train_s
        metrics, own = pass_metrics(tracer)
        passes.append(metrics)
        layer_self.append(own)
        for span in tracer.spans:
            if span.name in pooled:
                pooled[span.name].append(span.duration)
        first_tracer = first_tracer or tracer
        if perf_counter() + (perf_counter() - start) > deadline:
            break

    first_tracer.write_csv(spans_path)
    result = {}
    for name in passes[0]:
        if name in exact:
            result[name] = passes[0][name]
            if any(p[name] != result[name] for p in passes):
                print(f"{name} differs between traced passes", file=sys.stderr)
                ledger.failed += 1
        else:
            result[name] = float(statistics.median(p[name] for p in passes))
    for name, (span_name, q, scale) in POOLED.items():
        values = pooled[span_name]
        result[name] = float(np.percentile(values, q)) * scale if values else 0.0
    untraced = _ratio(*rates[False])
    traced = _ratio(*rates[True])
    result["trace.loads_per_s_untraced"] = untraced
    result["trace.loads_per_s_traced"] = traced
    result["trace.overhead_share"] = _ratio(untraced - traced, untraced)
    modules = {m: statistics.median(o[m] for o in layer_self) for m in layer_self[0]}
    return result, modules


def environment(workload, root: Path) -> dict:
    """What a result depends on besides the code under test."""
    commit = "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    for path in sorted((root / "src" / "elfopt").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "budget": workload.budget,
        "panel": workload.panel,
        "trace_panel": workload.trace_panel,
    }


def run_benchmark(args, root: Path) -> dict:
    """Measure one workload as the parsed command line asks; returns the
    result object printed as the last line of output."""
    out_dir = root / ".bench_out"
    workload = workloads.workloads(out_dir)[args.workload]
    if args.budget is not None:
        workload = replace(workload, budget=args.budget)
    if args.panel is not None:
        workload = replace(workload, panel=args.panel,
                           trace_panel=min(args.panel, workload.trace_panel))
    # Seeds of different --seed values never overlap.
    seeds = [args.seed * 1000 + i for i in range(workload.panel)]
    print("environment " + json.dumps(environment(workload, root)), flush=True)

    spec = json.loads((root / "BENCHMARK.json").read_text())
    ledger = Ledger()
    _warm_up(workload, seeds[0])
    if args.trace:
        wanted = spec["per_layer"]
        exact = {m["name"] for m in wanted if m["unit"] == "count"} | {"linesearch.valid_ratio"}
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv"
        metrics, modules = measure_layers(workload, seeds[:workload.trace_panel],
                                          args.seconds, ledger, spans_path, exact)
        ranked = sorted(modules.items(), key=lambda item: -item[1])
        print("self time per traced pass by module (s): "
              + ", ".join(f"{m} {s:.4f}" for m, s in ranked), flush=True)
    else:
        wanted = spec["end_to_end"]
        metrics = measure_end_to_end(workload, seeds, args.seconds, ledger)
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
