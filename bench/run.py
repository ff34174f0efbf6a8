"""Benchmark of formalconn: three seeded closed-loop workloads.

    python3 bench/run.py --workload {diagonalize,slope,cli} --seed N
                         --seconds S --trace {0,1}

Each workload is one process, one caller, one item at a time.  A run
builds the workload's corpus from the seed, warms up, then repeats whole
passes of the corpus until S seconds have passed (and at least 40 items
ran).  Every output is checked after the timed passes, against values
computed apart from the program (see README.md).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` one untraced and
one traced pass run, and the metrics are the per-layer ones from the
traced pass (spans around calls into each layer, recorded by
``tracing.py``), plus the tracing overhead.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from tracing import Recorder, totals, write_spans  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("diagonalize", "slope", "cli")
DEFAULT_SEEDS = {"diagonalize": 40404, "slope": 20240, "cli": 80808}
MIN_SAMPLES = 40
# Fresh processes that repeat the set-up; setup_s is the median of these
# and the run's own set-up.
SETUP_REPLICAS = 2
# How each kept fault shows when it fires; any other failure is unexpected.
FAULT_SIGNS = {"a": "residual not beyond", "b": "slope descent did not terminate"}

TIMED_LAYERS = [
    "series.mul", "series.inverse", "matrices.mul", "matrices.inverse",
    "polys.charpoly_series", "polys.hensel_lift", "strata.split_stratum",
    "strata.is_regular", "connections.split_connection",
    "connections.pure_block_reduce", "torus.tame_corestriction",
    "torus.graded_ad_image_solve", "connections.fundamental_stratum",
    "parahoric.filtration_degree", "connections.gauge_transform",
    "polys.kpoly_factor", "linalg", "omodule.column_echelon",
    "formal_types.orbit_equivalent", "formal_types.validate_formal_type",
]
RAISED_LAYERS = ["strata.split_stratum", "connections.fundamental_stratum"]
MODULI_LAYERS = ["moduli.assemble_global", "moduli.moment_map",
                 "moduli.orbit_dimensions", "moduli.check_framing"]


def parse_args(argv):
    ap = argparse.ArgumentParser(description="formalconn benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, help="corpus seed (default: per workload)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    return args


def set_up(name, seed, workdir):
    """Import the program, build the corpus, warm up.  Returns the
    workload and the import times (ms) of the library and of sympy (the
    import the first kpoly_factor call would otherwise make)."""
    t0 = time.perf_counter()
    import common  # noqa: F401  (puts src/ and tests/ on sys.path)
    import formalconn.cli  # noqa: F401
    t1 = time.perf_counter()
    import sympy  # noqa: F401
    t2 = time.perf_counter()
    workload = importlib.import_module("wl_" + name).Workload(seed, workdir)
    workload.warm_up()
    return workload, {"import_ms": (t1 - t0) * 1e3, "sympy_import_ms": (t2 - t1) * 1e3}


def run_pass(workload, records, pass_no, recorder=None):
    for item in workload.items:
        if recorder is not None:
            recorder.item = item.id
        t0 = time.perf_counter()
        try:
            out, err = workload.run(item), None
        except Exception as exc:  # counted as a failed item, not fatal
            out, err = None, exc
        records.append((pass_no, item, out, err, time.perf_counter() - t0))


def timed_passes(workload, seconds):
    records, wall, passes = [], 0.0, 0
    while passes == 0 or wall < seconds or len(records) < MIN_SAMPLES:
        t0 = time.perf_counter()
        run_pass(workload, records, passes)
        wall += time.perf_counter() - t0
        passes += 1
    return records, wall, passes


def evaluate(workload, records):
    """(failed count, unexpected failures).  Each distinct output is
    checked once; a repeated item must give the same output again."""
    verdicts = {}
    failed, unexpected = 0, []
    for pass_no, item, out, err, _ in records:
        if err is not None:
            ok, why = False, "%s: %s" % (type(err).__name__, err)
        else:
            first = verdicts.get(item.id)
            if first is not None and workload.same_output(out, first[0]):
                ok, why = first[1], first[2]
            else:
                ok, why = workload.check(item, out)
                verdicts.setdefault(item.id, (out, ok, why))
        if not ok:
            failed += 1
            if item.fault is None or FAULT_SIGNS[item.fault] not in why:
                unexpected.append("%s (item %d, pass %d): %s"
                                  % (item.label, item.id, pass_no, why))
    return failed, unexpected


def self_test(workload, records):
    """Each check must reject corrupted answers to a passing item."""
    for _, item, out, err, _ in records:
        if item.fault is None and err is None and workload.check(item, out)[0]:
            return ["check accepted a corrupted answer (%s): %s" % (item.label, label)
                    for label, bad in workload.corruptions(item, out)
                    if workload.check(item, bad)[0]]
    return ["no passing item to corrupt"]


def setup_replicas(args):
    times = []
    for _ in range(SETUP_REPLICAS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError("set-up replica failed:\n" + proc.stderr[-4000:])
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def peak_rss_mb(workload, records):
    if workload.name == "cli":
        return max(out[2] for _, _, out, _, _ in records if out is not None) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, records, wall, setup_times):
    """The end-to-end metrics, and a note with the tail: the highest
    percentile with at least ten samples beyond it.  The tail is printed,
    not reported as a metric, because it does not repeat from seed to
    seed (see README.md)."""
    samples = sorted(r[4] for r in records)
    metrics = {
        "items_per_s": (len(samples) / wall, "1/s"),
        "item_ms_p50": (statistics.median(samples) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(workload, records), "MB"),
    }
    q = tail_percentile(len(samples))
    note = "p50 %.1f ms, p%d %.1f ms of %d samples" % (
        metrics["item_ms_p50"][0], q, percentile(samples, q) * 1e3, len(samples))
    return metrics, note


def traced_run(workload, timings):
    """One untraced and one traced pass; per-layer metrics of the traced
    one.  Spans are written to .bench_work/spans-<workload>.csv."""
    records = []
    t0 = time.perf_counter()
    run_pass(workload, records, 0)
    untraced = time.perf_counter() - t0
    if workload.name == "cli":
        cli = {"interpreter_ms": 0.0, "import_ms": 0.0, "sympy_calls": 0,
               "sympy_import_ms": 0.0, "main_ms": 0.0}
        spans = []
        spans_path = os.path.join(workload.dir, "child-spans.json")
        t0 = time.perf_counter()
        for item in workload.items:
            t_item = time.perf_counter()
            result, child = workload.run_traced(item, spans_path)
            records.append((1, item, result, None, time.perf_counter() - t_item))
            spans.extend(tuple(s) for s in child["spans"])
            for key in ("interpreter_ms", "import_ms", "main_ms"):
                cli[key] += child[key]
            if child["sympy_ms"] is not None:
                cli["sympy_calls"] += 1
                cli["sympy_import_ms"] += child["sympy_ms"]
        traced = time.perf_counter() - t0
    else:
        cli = {"interpreter_ms": 0.0, "import_ms": timings["import_ms"], "sympy_calls": 1,
               "sympy_import_ms": timings["sympy_import_ms"], "main_ms": 0.0}
        rec = Recorder()
        rec.install()
        try:
            t0 = time.perf_counter()
            run_pass(workload, records, 1, rec)
            traced = time.perf_counter() - t0
        finally:
            rec.uninstall()
        spans = rec.spans
    write_spans(os.path.join(WORK_DIR, "spans-%s.csv" % workload.name), spans)
    return records, per_layer(totals(spans), cli, traced / untraced)


def per_layer(tot, cli, overhead):
    def get(layer):
        return tot.get(layer, (0, 0, 0))

    m = {}
    for layer in TIMED_LAYERS:
        calls, self_ns, _ = get(layer)
        m[layer + ".calls"] = (calls, "count")
        m[layer + ".self_ms"] = (self_ns / 1e6, "ms")
    for layer in RAISED_LAYERS:
        m[layer + ".raised"] = (get(layer)[2], "count")
    m["connections.diagonalize.calls"] = (get("connections.diagonalize")[0], "count")
    candidates = get("strata.is_fundamental")[0]
    slopes = get("connections.fundamental_stratum")[0]
    m["strata.is_fundamental.calls"] = (candidates, "count")
    m["connections.scan_candidates_per_slope"] = (
        candidates / slopes if slopes else 0.0, "ratio")
    for layer in MODULI_LAYERS:
        m[layer + ".self_ms"] = (get(layer)[1] / 1e6, "ms")
    m["cli.interpreter_ms"] = (cli["interpreter_ms"], "ms")
    m["cli.import_ms"] = (cli["import_ms"], "ms")
    m["cli.sympy_import.calls"] = (cli["sympy_calls"], "count")
    m["cli.sympy_import_ms"] = (cli["sympy_import_ms"], "ms")
    m["cli.main_ms"] = (cli["main_ms"], "ms")
    m["trace.overhead"] = (overhead, "ratio")
    return m


def main(argv=None):
    args = parse_args(argv)
    workdir = os.path.join(WORK_DIR, "%s-%d" % (args.workload, os.getpid()))
    try:
        workload, timings = set_up(args.workload, args.seed, workdir)
    except ImportError as exc:
        print("error: cannot import the program under test: %s" % exc, file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - T_START
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            records, metrics = traced_run(workload, timings)
            note = "traced: spans in %s" % os.path.relpath(WORK_DIR, ROOT)
        else:
            records, wall, passes = timed_passes(workload, args.seconds)
            setup_times = [setup_s] + setup_replicas(args)
            metrics, note = end_to_end(workload, records, wall, setup_times)
            note = "%d passes of %d items; %s" % (passes, len(workload.items), note)
        failed, unexpected = evaluate(workload, records)
        problems = unexpected + self_test(workload, records)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    for line in problems:
        print("FAILED CHECK: " + line, file=sys.stderr)
    print("%s seed %d: %s; %d of %d items failed"
          % (args.workload, args.seed, note, failed, len(records)))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def percentile(sorted_values, q):
    """Nearest-rank q-th percentile of an ascending list."""
    k = max(1, -(-q * len(sorted_values) // 100))
    return sorted_values[k - 1]


def tail_percentile(count):
    """The highest whole percentile with at least ten samples above it."""
    q = 99
    while q > 50 and count - -(-q * count // 100) < 10:
        q -= 1
    return q


if __name__ == "__main__":
    sys.exit(main())
