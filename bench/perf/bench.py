#!/usr/bin/env python3
"""Benchmark of the sanperf library: five workloads, end-to-end host-time
metrics, a traced per-layer pass, and a comparison of result files.

    python3 bench/perf/bench.py run [--workload W]... [--seed S]
                                    [--reps N | --seconds T] [--trace 0|1]
                                    [--out FILE]
    python3 bench/perf/bench.py trace [--seed S] [--out FILE]
    python3 bench/perf/bench.py compare BASE.json NEW.json
    python3 bench/perf/bench.py selftest [RESULT.json]
    python3 bench/perf/bench.py bless

`run` builds bench/perf (a standalone CMake project compiling ../../src in
Release) into build-perf/, runs every repetition of every workload in a
fresh process, checks the produced tables, and prints each metric with its
unit, value, median, IQR and sample count. Before every repetition it runs
the reference kernel sanperf_ref, and reports times as they would read on a
host where that kernel takes REFERENCE_S. With a single --workload, the
last line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}, holding the end-to-end metrics of BENCHMARK.json, or with
--trace 1 its per-layer metrics. README.md explains the workloads and
metrics.
"""

import argparse
import copy
import datetime
import fcntl
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-perf"
PROGRAM = BUILD / "sanperf_bench"
REFERENCE = BUILD / "sanperf_ref"
EXPECTED = HERE / "expected"
BASELINE = HERE / "results" / "BENCH_baseline.json"

DEFAULT_SEED = 20020612
MIN_TIMED_REPS = 3          # with --seconds: never fewer repetitions than this
TRACE_REPS = 10             # `trace` without --seconds: half of them traced
REP_TIMEOUT_S = 150
MAX_CAMPAIGN_THREADS = 4
# Times are reported as on a host where the reference kernel takes this long
# (about its time on an idle 4-vCPU Xeon VM). Other tenants of a shared VM
# slow its cores by a third and more, in bursts and in drifts over minutes;
# the reference kernel, run before every repetition, measures that speed.
REFERENCE_S = 0.1
# Raw times of a repetition that are rescaled to the reference host.
HOST_TIMES = ("wall_s", "cpu_s", "setup_s", "wall_ms_per_sim_s")
# Times whose value in a run is the fastest repetition at one thread.
FASTEST = ("wall_s", "cpu_s", "wall_ms_per_sim_s")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
# End-to-end metrics bench.py reports and compares besides BENCHMARK.json's:
# the first exists on big_n only, the second is 0 whenever all outputs match.
E2E_EXTRA = {
    "wall_ms_per_sim_s": {"unit": "ms", "better": "lower", "bound": 0.25},
    "failed_share": {"unit": "fraction", "better": "lower", "bound": 0.0},
}
# A move smaller than these never counts, whatever its share of the value.
ABS_FLOOR = {"setup_s": 0.02, "peak_rss_mb": 2.0}


def host_factors(reference_s, threads):
    """Per repetition, the factor that rescales its raw times to the
    reference host. At one thread, a repetition can fall between the bursts
    in which other tenants slow a core, so every repetition is scaled by the
    fastest reference run, and the run's time is its fastest repetition.
    A repetition on several threads needs several cores at once and seldom
    escapes every burst, so each is scaled by the reference run just before
    it and the run's time is the median. README.md gives the spreads
    measured with these rules."""
    if threads == 1:
        return [REFERENCE_S / min(reference_s)] * len(reference_s)
    return [REFERENCE_S / r for r in reference_s]


def run_value(metric, values, threads):
    """The value of a metric over one run's repetitions (see host_factors);
    set-up time and memory take the median."""
    if metric in FASTEST and threads == 1:
        return min(values)
    return statistics.median(values)


def fail(message):
    sys.exit(f"bench.py: {message}")


def nproc():
    return len(os.sched_getaffinity(0))


# --- Build -----------------------------------------------------------------

def build():
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configured = (BUILD / "CMakeCache.txt").exists() and any(
            (BUILD / f).exists() for f in ("Makefile", "build.ninja"))
        steps = [] if configured else [["cmake", "-S", str(HERE), "-B", str(BUILD)]]
        steps.append(["cmake", "--build", str(BUILD), "-j", str(min(nproc(), 4))])
        with open(log, "w") as out:
            for cmd in steps:
                if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                    fail(f"build failed: {' '.join(cmd)} (log: {log})")


def run_json(program, *args):
    proc = subprocess.run([str(program), *args], capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{program.name} {' '.join(args)}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def workload_threads():
    """Threads per workload: min(4, nproc) for campaigns, 1 for streams."""
    campaign = min(MAX_CAMPAIGN_THREADS, nproc())
    listed = run_json(PROGRAM, "list")["workloads"]
    names = [w["name"] for w in listed]
    if names != [w["name"] for w in SPEC["workloads"]]:
        fail(f"sanperf_bench workloads {names} differ from BENCHMARK.json")
    return {w["name"]: campaign if w["campaign"] else 1 for w in listed}


# --- Output checks ---------------------------------------------------------

def csv_rows(text):
    return [line.split(",") for line in text.splitlines()]


def compare_tables(expected, actual, exact):
    """None when `actual` matches: cell for cell at tolerance 0.0 when
    `exact`, otherwise in shape (table name, header, row count, and the
    leading axis cell of every row -- what any seed must reproduce)."""
    exp, act = csv_rows(expected), csv_rows(actual)
    if len(exp) != len(act):
        return f"{len(act)} lines, expected {len(exp)}"
    for r, (e, a) in enumerate(zip(exp, act)):
        checked = (e, a) if r < 2 or exact else (e[:1], a[:1])
        if checked[0] != checked[1]:
            return f"line {r + 1}: {','.join(checked[1])[:120]!r} != expected " \
                   f"{','.join(checked[0])[:120]!r}"
    return None


def check_rep(workload, seed, outdir, first_digests):
    """Checks one repetition's tables. Returns (digests, problems)."""
    expected_dir = EXPECTED / workload
    names = sorted(p.name for p in expected_dir.glob("*.csv"))
    if not names:
        fail(f"no expected outputs in {expected_dir}; run bench.py bless")
    digests, problems = {}, []
    for name in names:
        path = outdir / name
        if not path.exists():
            problems.append(f"{name}: missing")
            continue
        text = path.read_text()
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
        diff = compare_tables((expected_dir / name).read_text(), text, exact=seed == DEFAULT_SEED)
        if diff:
            problems.append(f"{name}: {diff}")
        elif first_digests is not None and first_digests.get(name) != digests[name]:
            problems.append(f"{name}: differs from the first repetition")
    return digests, problems


# --- Repetitions -----------------------------------------------------------

def run_rep(workload, seed, threads, outdir, trace_file=None):
    """One repetition in a fresh process; returns (result, error)."""
    cmd = [str(PROGRAM), "rep", workload, "--seed", str(seed), "--threads", str(threads),
           "--out", str(outdir)]
    if trace_file:
        cmd += ["--trace", str(trace_file)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {REP_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, proc.stderr.strip() or f"exit code {proc.returncode}"
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    # Set-up runs from the spawn (exec, loading, static initialisation) to
    # the first measured call; both clocks are CLOCK_MONOTONIC.
    rep["timings"]["setup_s"] = rep["timings"]["first_call_monotonic_s"] - spawned
    return rep, None


def rep_values(timings):
    """The end-to-end metrics of one repetition, raw."""
    values = {m: timings[m] for m in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
    if timings["sim_s"] > 0:
        values["wall_ms_per_sim_s"] = 1000 * timings["wall_s"] / timings["sim_s"]
    return values


def host_samples(reps, threads, rescale=True):
    """metric -> values over `reps`, a list of (reference run, timings) per
    repetition; times rescaled to the reference host when `rescale`."""
    if not reps:
        return {}
    factors = host_factors([r for r, _ in reps], threads) if rescale else [1.0] * len(reps)
    samples = {}
    for factor, (_, timings) in zip(factors, reps):
        for m, v in rep_values(timings).items():
            samples.setdefault(m, []).append(v * factor if m in HOST_TIMES else v)
    return samples


class Measurement:
    """Samples and output checks of one workload."""

    def __init__(self, workload, seed, threads):
        self.workload, self.seed, self.threads = workload, seed, threads
        self.timed = []     # (reference run, timings) of each untraced repetition
        self.traced = []    # the same, of each traced repetition
        self.last_traced = None
        self.digests = None
        self.attempted = self.failed = 0
        self.problems = []
        self.per_layer = {}
        self.extra_layers = {}

    @property
    def samples(self):
        return host_samples(self.timed, self.threads)

    @property
    def raw(self):
        return host_samples(self.timed, self.threads, rescale=False)

    @property
    def reference_s(self):
        return [r for r, _ in self.timed]

    def add(self, rep, outdir, reference_s, traced=False):
        """Checks a repetition's tables and keeps its timings."""
        n_outputs = len(list((EXPECTED / self.workload).glob("*.csv")))
        self.attempted += n_outputs
        if rep is None:
            self.failed += n_outputs
            return
        digests, problems = check_rep(self.workload, self.seed, outdir, self.digests)
        self.failed += len(problems)
        self.problems += problems
        if self.digests is None:
            self.digests = digests
        (self.traced if traced else self.timed).append((reference_s, rep["timings"]))
        if traced:
            self.last_traced = rep

    def to_json(self):
        samples = self.samples
        samples["failed_share"] = [self.failed / self.attempted if self.attempted else 1.0]
        out = {"threads": self.threads, "reps": len(self.timed), "traced_reps": len(self.traced),
               "samples": samples, "raw_samples": self.raw, "reference_s": self.reference_s,
               "summary": {m: summarize(m, v, self.threads) for m, v in samples.items()},
               "digests": self.digests or {}, "correct": self.failed == 0 and self.attempted > 0,
               "attempted": self.attempted, "failed": self.failed, "problems": self.problems}
        if self.per_layer:
            out["per_layer"] = self.per_layer
            out["per_layer_extra"] = self.extra_layers
        return out


def measure(workload, seed, threads, reps, seconds, trace, probe_threads):
    """Repeats a workload `reps` times, or for about `seconds`. With `trace`,
    every second repetition is traced, so that traced and untraced ones run
    on the same host, and the layer probes follow."""
    m = Measurement(workload, seed, threads)
    traces = BUILD / "traces"
    traces.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
        started, longest, k = time.monotonic(), 0.0, 0
        while True:
            if reps is not None and k >= reps:
                break
            if reps is None and k >= MIN_TIMED_REPS and \
                    time.monotonic() - started + longest > seconds:
                break
            traced = trace and k % 2 == 1
            outdir = Path(tmp) / f"rep{k}"
            t0 = time.monotonic()
            reference_s = run_json(REFERENCE)["wall_s"]
            rep, err = run_rep(workload, seed, threads, outdir,
                               traces / f"{workload}.json" if traced else None)
            longest = max(longest, time.monotonic() - t0)
            if err:
                m.problems.append(f"{'traced ' if traced else ''}repetition {k}: {err}")
            m.add(rep, outdir, reference_s, traced)
            k += 1
    if m.last_traced is not None and m.timed:
        trace_layers(m, probe_threads, traces)
    return m


def trace_layers(m, probe_threads, traces):
    probe = run_json(PROGRAM, "probe", "--seed", str(m.seed), "--threads", str(probe_threads),
                     "--trace", str(traces / "probe.json"))
    layers = dict(probe["metrics"])
    rep = m.last_traced
    t = rep["timings"]
    traced_wall = host_samples(m.traced, m.threads)["wall_s"]
    layers["trace.slowdown"] = (run_value("wall_s", traced_wall, m.threads) /
                                run_value("wall_s", m.samples["wall_s"], m.threads))
    layers["replication.efficiency"] = t["cpu_s"] / (t["wall_s"] * m.threads)
    missing = sorted(set(PER_LAYER) - set(layers))
    if missing:
        fail(f"per-layer metrics missing from the traced pass: {missing}")
    m.per_layer = {k: layers[k] for k in PER_LAYER}
    extra = {k: v for k, v in layers.items() if k not in PER_LAYER}
    for name, span in rep["spans"].items():
        layer, _, label = name.partition(".")
        if layer in ("campaign", "workload") and label:
            extra[f"{layer}.call_s.{label}"] = span["total_s"]
    if rep["counts"]:
        # The layer prices times the calls the workload makes (each count is
        # keyed by the _us probe metric that prices one call), over cpu_s.
        priced = sum(n * layers[k] * 1e-6 for k, n in rep["counts"].items())
        extra["accounted_share"] = priced / t["cpu_s"]
    m.extra_layers = extra


# --- Reporting -------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(metric, values, threads):
    q1, q3 = quartiles(values)
    return {"value": run_value(metric, values, threads), "median": statistics.median(values),
            "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def unit_of(metric):
    """BENCHMARK.json's unit, else the one the name spells (x_ms, y_s, ...)."""
    spec = E2E.get(metric) or E2E_EXTRA.get(metric) or PER_LAYER.get(metric)
    if spec:
        return spec["unit"]
    for part in metric.split("."):
        for unit in ("ns", "us", "ms", "s"):
            if part.endswith("_" + unit):
                return unit
    return "ratio" if metric.endswith(("share", "efficiency", "slowdown")) else "count"


def print_measurement(m):
    data = m.to_json()
    traced = f" + {data['traced_reps']} traced" if data["traced_reps"] else ""
    print(f"\n== {m.workload} (seed {m.seed}, {m.threads} thread(s), {data['reps']} reps{traced}, "
          f"outputs {m.attempted - m.failed}/{m.attempted} correct)")
    if m.reference_s:
        print(f"  reference kernel: fastest {min(m.reference_s):.4g} s of {len(m.reference_s)}; "
              f"times below are scaled to {REFERENCE_S} s, raw in [brackets]")
    print(f"  {'metric':<46} {'unit':<9} {'value':>14} {'median':>14} {'IQR':>12} {'n':>3}")
    for name in list(E2E) + list(E2E_EXTRA):
        s = data["summary"].get(name)
        if s:
            raw = f"  [{run_value(name, m.raw[name], m.threads):.6g}]" if name in HOST_TIMES else ""
            print(f"  {name:<46} {unit_of(name):<9} {s['value']:>14.6g} {s['median']:>14.6g} "
                  f"{s['iqr']:>12.4g} {s['n']:>3}{raw}")
    for name, value in list(m.per_layer.items()) + sorted(m.extra_layers.items()):
        print(f"  {name:<46} {unit_of(name):<9} {value:>14.6g} {'-':>14} {'-':>12} {1:>3}")
    for problem in m.problems:
        print(f"  PROBLEM: {problem}")


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(threads):
    info = run_json(PROGRAM, "info")
    return {"cpu_model": cpu_model(), "nproc": nproc(), "threads": threads,
            "compiler": info["compiler"], "build_type": info["build_type"],
            "git_rev": git_rev(),
            "sanperf_env": {k: v for k, v in sorted(os.environ.items())
                            if k.startswith("SANPERF_")},
            "kernel": platform.release(), "python": platform.python_version(),
            "date_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")}


# --- Commands --------------------------------------------------------------

def cmd_run(args):
    if "SANPERF_QUEUE" in os.environ:
        fail("SANPERF_QUEUE is set; unset it so the benchmark measures the program's default")
    build()
    threads = workload_threads()
    chosen = args.workload or list(threads)
    for w in chosen:
        if w not in threads:
            fail(f"unknown workload '{w}' (known: {', '.join(threads)})")
    seconds = args.seconds or SPEC["run_seconds"]
    reps = args.reps
    if reps is None and args.trace and args.seconds is None:
        reps = TRACE_REPS
    probe_threads = min(MAX_CAMPAIGN_THREADS, nproc())
    result = {"schema": 1, "seed": args.seed, "trace": bool(args.trace), "reference_s": REFERENCE_S,
              "meta": metadata({w: threads[w] for w in chosen}), "workloads": {}}
    measurements = []
    for w in chosen:
        m = measure(w, args.seed, threads[w], reps, seconds, args.trace, probe_threads)
        measurements.append(m)
        result["workloads"][w] = m.to_json()
        print_measurement(m)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print(f"\nwrote {args.out}")
    if len(measurements) == 1:
        m = measurements[0]
        if args.trace:
            metrics = {k: {"value": m.per_layer[k], "unit": PER_LAYER[k]["unit"]}
                       for k in PER_LAYER if k in m.per_layer}
        else:
            samples = m.samples
            metrics = {k: {"value": run_value(k, samples[k], m.threads), "unit": E2E[k]["unit"]}
                       for k in E2E if k in samples}
        print(json.dumps({"correct": m.failed == 0 and m.attempted > 0,
                          "attempted": m.attempted, "failed": m.failed, "metrics": metrics}))
    return 0 if all(m.failed == 0 for m in measurements) else 1


def verdict(metric, base, new, threads):
    """Worse by the bound or more is `worse` however noisy the samples.
    Otherwise, when either side's IQR exceeds the bound, the metric is
    `unresolved` unless every new sample beats every base sample."""
    spec = E2E.get(metric) or E2E_EXTRA[metric]
    sign = 1 if spec["better"] == "lower" else -1
    mb, mn = run_value(metric, base, threads), run_value(metric, new, threads)
    worse_by = sign * (mn - mb)   # > 0: the new side is worse
    if spec["bound"] == 0:
        return "worse" if worse_by > 0 else "better" if worse_by < 0 else "unchanged"
    bound = spec["bound"]
    # Moving by the bound or more counts (1e-9: the bound itself, in floats).
    limit = max(bound * abs(mb), ABS_FLOOR.get(metric, 0.0)) * (1 - 1e-9)

    def spread(values):
        q1, q3 = quartiles(values)
        return (q3 - q1) / abs(statistics.median(values)) if statistics.median(values) else 0.0

    if worse_by >= limit:
        return "worse"
    if spread(base) > bound or spread(new) > bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "better"
        return "unresolved"
    return "better" if -worse_by >= limit else "unchanged"


def compare(base, new):
    """Returns (rows, problems): one verdict per (workload, end-to-end
    metric), and every reason the two files cannot be compared or differ
    in their outputs."""
    rows, problems = [], []
    if base["seed"] != new["seed"]:
        problems.append(f"seeds differ ({base['seed']} vs {new['seed']}); digests not comparable")
    for w, b in base["workloads"].items():
        n = new["workloads"].get(w)
        if n is None:
            problems.append(f"{w}: missing from the new file")
            continue
        threads = b["threads"]
        if n["threads"] != threads:
            problems.append(f"{w}: threads differ ({threads} vs {n['threads']})")
            continue
        for metric in list(E2E) + list(E2E_EXTRA):
            if metric in b["samples"] and metric in n["samples"]:
                bs, ns = b["samples"][metric], n["samples"][metric]
                rows.append((w, metric, run_value(metric, bs, threads),
                             run_value(metric, ns, threads), verdict(metric, bs, ns, threads)))
        if base["seed"] == new["seed"] and b["digests"] != n["digests"]:
            changed = sorted(k for k in set(b["digests"]) | set(n["digests"])
                             if b["digests"].get(k) != n["digests"].get(k))
            problems.append(f"{w}: output digests differ: {', '.join(changed)}")
    return rows, problems


def load(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read result file {path}: {e}")


def cmd_compare(args):
    rows, problems = compare(load(args.base), load(args.new))
    print(f"{'workload':<15} {'metric':<20} {'unit':<9} {'base':>12} {'new':>12} {'change':>8}  "
          f"verdict")
    for w, metric, mb, mn, v in rows:
        change = f"{100 * (mn - mb) / mb:+.1f}%" if mb else "-"
        print(f"{w:<15} {metric:<20} {unit_of(metric):<9} {mb:>12.6g} {mn:>12.6g} {change:>8}  {v}")
    for p in problems:
        print(f"PROBLEM: {p}")
    if not problems:
        print("output digests: equal on every workload")
    return 1 if problems or any(r[4] == "worse" for r in rows) else 0


def cmd_selftest(args):
    """Injects a slowdown of exactly each time metric's bound into a real
    result and checks that compare flags every such row, and no row of an
    unmodified copy."""
    base = load(args.result)
    slow = copy.deepcopy(base)
    timed = ("wall_s", "cpu_s")
    for w in slow["workloads"].values():
        for metric in timed:
            w["samples"][metric] = [(1 + E2E[metric]["bound"]) * v for v in w["samples"][metric]]
    rows, problems = compare(base, slow)
    scaled = [r for r in rows if r[1] in timed]
    missed = [r for r in scaled if r[4] != "worse"]
    same_rows, same_problems = compare(base, copy.deepcopy(base))
    false_alarms = [r for r in same_rows if r[4] == "worse"]
    for w, metric, _, _, v in missed:
        print(f"FAIL: {w} {metric} slowed by {E2E[metric]['bound']:.0%} reads '{v}', not 'worse'")
    for w, metric, _, _, v in false_alarms:
        print(f"FAIL: {w} {metric} unchanged reads 'worse'")
    for p in problems + same_problems:
        print(f"FAIL: {p}")
    ok = scaled and not missed and not false_alarms and not problems and not same_problems
    print(f"selftest {'passed' if ok else 'FAILED'}: {len(scaled)} slowed rows flagged worse, "
          f"{len(same_rows)} unchanged rows not flagged")
    return 0 if ok else 1


def cmd_bless(_args):
    if "SANPERF_QUEUE" in os.environ:
        fail("SANPERF_QUEUE is set; unset it before blessing")
    build()
    for w, threads in workload_threads().items():
        target = EXPECTED / w
        with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
            rep, err = run_rep(w, DEFAULT_SEED, threads, Path(tmp))
            if err:
                fail(f"{w}: {err}")
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for name in rep["outputs"]:
                shutil.copy(Path(tmp) / name, target / name)
        print(f"blessed {w}: {', '.join(rep['outputs'])}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in ("run", "trace"):
        p = sub.add_parser(name)
        p.add_argument("--workload", action="append",
                       help="run only this workload (repeatable; default: all)")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--reps", type=int, help=f"repetitions per workload (trace default: "
                                                f"{TRACE_REPS})")
        p.add_argument("--seconds", type=float,
                       help=f"without --reps: repeat each workload for about this long "
                            f"(default {SPEC['run_seconds']})")
        if name == "run":
            p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                           help="1: trace every second repetition, run the layer probes, "
                                "and report the per-layer metrics")
        p.add_argument("--out", help="write the result file here")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    p = sub.add_parser("selftest")
    p.add_argument("result", nargs="?", default=str(BASELINE))
    sub.add_parser("bless")
    args = parser.parse_args()
    if args.cmd == "trace":
        args.cmd, args.trace = "run", 1
    if args.cmd == "run":
        if args.seed < 0:
            parser.error("--seed must be non-negative")
        if args.reps is not None and args.reps < 1:
            parser.error("--reps must be at least 1")
        if args.seconds is not None and args.seconds <= 0:
            parser.error("--seconds must be positive")
    commands = {"run": cmd_run, "compare": cmd_compare, "selftest": cmd_selftest,
                "bless": cmd_bless}
    return commands[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
