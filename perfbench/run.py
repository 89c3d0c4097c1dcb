"""sqfree benchmark: seeded workloads, oracle checks, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload ses --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one process each

`--trace 0` runs a closed loop of jobs (one client, no threads) in whole
rounds until `--seconds` have passed and at least 100 jobs have run, and
reports the end-to-end metrics, with every time rescaled to a reference
host speed (see `reference_ms`) and printed beside its wall-clock value.
`--trace 1` runs one round untraced, then the same round under the
outside-in tracer (tracer.py), and reports the per-layer metrics; its attempted and failed counts cover both rounds. The
last line of standard output is one JSON object with keys correct,
attempted, failed and metrics. GLOSSARY.md defines every
metric and says why each workload exists.

Only the standard library is used; the library is imported from `src/`
next to this directory, and the run writes only under `.bench_work/`.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("ses", "cocycles", "cli")
SETUP_REPEATS = 7
# Host-speed reference. The benchmark shares a few vCPUs with other tenants,
# whose load slows pure-Python code by up to 2x, in spells from a fraction
# of a second to minutes. A fixed loop of dict, tuple and integer work runs
# before every job and set-up; each timing is multiplied by
# REF_MS / (mean loop time near it), which gives the time the same work
# takes on a host where the loop takes REF_MS. No library change can alter
# the loop, so a slower library still reads slower.
REF_ITERS = 2000
REF_MS = 1.0  # about the loop's mean time on the 2-vCPU Xeon host the benchmark was tuned on, CPython 3.11
REF_WINDOW = 10  # a job is scaled by the loop times of the jobs up to this far either side
SETUP_REF_PASSES = 5  # loop passes before each set-up repeat
MAX_TIMED_S = 120
LIB_MODULES = (
    "common", "errors", "coeff", "sgrp", "cohom", "twring", "linalg", "autos", "jsonio", "cli", "fixtures",
)

# shares of the traced busy time that state each workload's intent
SHARES = {
    "ses": (("autos+twring+linalg", ">=", 0.5), ("cohom", "<", 0.05)),
    "cocycles": (("twring.check_associativity.total", ">=", 0.25), ("cohom", ">=", 0.25)),
    "cli": (("sgrp+coeff.FiniteField+jsonio+cli", ">=", 0.5),),
}


def load_library():
    """Import sqfree from src/ afresh; returns a namespace of its modules."""
    for name in [m for m in sys.modules if m == "sqfree" or m.startswith("sqfree.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("sqfree")
    ns = argparse.Namespace(all_modules=[pkg])
    for name in LIB_MODULES:
        mod = importlib.import_module(f"sqfree.{name}")
        setattr(ns, name, mod)
        ns.all_modules.append(mod)
    return ns


def load_oracles():
    with open(os.path.join(HERE, "oracles.json")) as fh:
        return json.load(fh)


def git_sha():
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def reference_ms():
    """Wall ms of one pass of the fixed reference loop."""
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(REF_ITERS):
        key = (i % 31, i % 17)
        table[key] = (table.get(key, 0) + i * i) % 257
        acc += table[key]
    return (time.perf_counter() - t0) * 1e3


def rescale(times, refs):
    """Each time at reference speed, by the mean loop time around it."""
    out = []
    for i, t in enumerate(times):
        near = refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1]
        out.append(t * REF_MS * len(near) / sum(near))
    return out


def run_jobs(jobs, stats):
    """Run jobs in order; each latency is the run() call alone.

    One reference-loop pass precedes each job, outside its latency.
    """
    clock = time.perf_counter
    for key, run, check, _ in jobs:
        stats["attempted"] += 1
        stats["ref_ms"].append(reference_ms())
        t0 = clock()
        try:
            out = run()
        except Exception:  # a job that raises counts as failed
            stats["latency_ms"].append((clock() - t0) * 1e3)
            stats["failed"] += 1
            if stats["failed"] <= 3:
                print(f"# job {key} raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        stats["latency_ms"].append((clock() - t0) * 1e3)
        stats["per_key"].setdefault(key, []).append(stats["latency_ms"][-1])
        ok = False
        try:
            ok = bool(check(out))
        except Exception:
            print(f"# oracle for {key} raised:\n{traceback.format_exc()}", file=sys.stderr)
        if not ok:
            stats["failed"] += 1
            if stats["failed"] <= 3:
                print(f"# job {key} failed its oracle", file=sys.stderr)


def new_stats():
    return {"attempted": 0, "failed": 0, "latency_ms": [], "ref_ms": [], "per_key": {}}


def measure(rounds, seconds):
    """Whole rounds until `seconds` have passed and MIN_JOBS jobs have run.

    A run that reaches MAX_TIMED_S stops after its current round whatever
    its job count, so a much slower commit still finishes in time.
    """
    stats = new_stats()
    start = time.perf_counter()
    r = 0
    while True:
        run_jobs(rounds[r % len(rounds)], stats)
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (stats["attempted"] >= workloads.MIN_JOBS or elapsed >= MAX_TIMED_S):
            break
    stats["wall_s"] = time.perf_counter() - start
    stats["rounds"] = r
    return stats


def setup(workload, seed, oracles, work_dir):
    """Import, build fixtures and inputs, write bundles; repeated, timed.

    Each repeat drops the previous build first, so that the peak RSS holds
    one build of the inputs, not two. Returns the wall seconds of each
    repeat and the reference-loop times measured before them.
    """
    times, refs = [], []
    for _ in range(SETUP_REPEATS):
        sq = rounds = None
        gc.collect()
        refs += [reference_ms() for _ in range(SETUP_REF_PASSES)]
        t0 = time.perf_counter()
        sq = load_library()
        rounds, params = workloads.BUILDERS[workload](sq, seed, oracles, work_dir)
        times.append(time.perf_counter() - t0)
    return sq, rounds, params, (times, refs)


def load_metric_spec():
    """End-to-end and per-layer metric lists, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def timings(lat, setup_times, attempted):
    """setup_s, jobs_per_s, job_p50_ms and job_p90_ms from job latencies.

    jobs_per_s divides by the summed job latencies, so the time spent in
    oracle checks and reference passes does not count.
    """
    p90 = statistics.quantiles(lat, n=10)[8]
    return {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": attempted / (sum(lat) / 1e3),
        "job_p50_ms": statistics.median(lat),
        "job_p90_ms": p90,
    }, sum(1 for x in lat if x > p90)


def end_to_end(stats, setup):
    """Metric -> (value, wall-clock value or None, sample count).

    Times are at reference speed; peak_rss_mb has no wall-clock value. The
    count beyond the 90th percentile comes second in the return.
    """
    setup_times, setup_refs = setup
    scale = REF_MS * len(setup_refs) / sum(setup_refs)
    ref, beyond = timings(rescale(stats["latency_ms"], stats["ref_ms"]), [t * scale for t in setup_times],
                          stats["attempted"])
    wall, _ = timings(stats["latency_ms"], setup_times, stats["attempted"])
    metrics = {k: (ref[k], wall[k], len(setup_times if k == "setup_s" else stats["latency_ms"])) for k in ref}
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (rss, None, 1)
    return metrics, beyond


def _ratio(num, den):
    return (num / den if den else 0.0), den


def layer_value(tr, name, walls):
    """Resolve a per-layer metric name against the tracer's records.

    Returns (value, base); base is the denominator of a ratio, else None.
    """
    fn, _, kind = name.rpartition(".")
    tally = tr.tally
    if name == "trace.overhead_ratio":
        return _ratio(walls["traced"], walls["untraced"])
    if name == "trace.busy_s":
        return tr.busy_s(), None
    if kind == "calls":
        return tr.calls[fn], None
    if kind == "self_s":
        return (tr.layer_self_s(fn) if fn in tracing.LAYERS else tr.self_s[fn]), None
    if kind == "total_s":
        return tr.total_s[fn], None
    if kind == "chains":
        return tally.get(name, 0), None
    if kind == "found_ratio":
        return _ratio(tally.get(fn + ".found", 0), tr.calls[fn])
    if kind == "ok_ratio":
        return _ratio(tally.get(fn + ".ok", 0), tr.calls[fn])
    if kind == "yield_ratio":
        return _ratio(tally.get(fn + ".found", 0), tally.get(fn + ".elements", 0))
    raise ValueError(f"no rule for per-layer metric {name}")


def share(tr, terms):
    """Part of the traced busy time in the '+'-joined layers or functions.

    A layer counts its self time, `fn.total` the whole time of fn's calls,
    any other name that function's self time.
    """
    part = 0.0
    for term in terms.split("+"):
        if term in tracing.LAYERS:
            part += tr.layer_self_s(term)
        elif term.endswith(".total"):
            part += tr.total_s[term[: -len(".total")]]
        else:
            part += tr.self_s[term]
    return _ratio(part, tr.busy_s())


def run_workload(args):
    oracles = load_oracles()
    e2e_spec, layer_spec = load_metric_spec()
    work_root = os.path.join(ROOT, ".bench_work")
    work_dir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        sq, rounds, params, setup_timing = setup(args.workload, args.seed, oracles, work_dir)
        record = {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "setup_repeats": SETUP_REPEATS,
            "params": params,
        }
        print("# record " + json.dumps(record, sort_keys=True))
        if args.trace:
            return traced(args, sq, rounds[0], layer_spec, work_root)
        stats = measure(rounds, args.seconds)
        metrics, beyond = end_to_end(stats, setup_timing)
        for m in e2e_spec:
            value, wall, n = metrics[m["name"]]
            extra = f", {beyond} beyond" if m["name"] == "job_p90_ms" else ""
            if wall is not None:
                extra += f"; wall clock {wall:.6g}"
            print(f"{args.workload} {m['name']} = {value:.6g} {m['unit']} (n={n}{extra})")
        fail_ratio = stats["failed"] / stats["attempted"]
        print(f"{args.workload} fail_ratio = {fail_ratio:.6g} ratio (base {stats['attempted']} jobs)")
        refs = stats["ref_ms"] + setup_timing[1]
        print(f"# reference loop: median {statistics.median(refs):.4f} ms, mean {statistics.fmean(refs):.4f} ms "
              f"over {len(refs)} passes (REF_MS {REF_MS})")
        print(f"# {stats['rounds']} rounds in {stats['wall_s']:.3f}s; median wall ms per job key:")
        for key, lat in stats["per_key"].items():
            print(f"#   {key}: {statistics.median(lat):.3f} (n={len(lat)})")
        result = {
            "correct": stats["failed"] == 0,
            "attempted": stats["attempted"],
            "failed": stats["failed"],
            "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in e2e_spec},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def traced(args, sq, jobs, layer_spec, work_root):
    """One round untraced, then the same round traced; per-layer metrics.

    Each pass's time is its summed job latencies at reference speed.
    """
    plain = new_stats()
    run_jobs(jobs, plain)
    tr = tracing.Tracer()
    tr.install(sq)
    stats = new_stats()
    try:
        run_jobs(jobs, stats)
    finally:
        tr.uninstall()
    walls = {
        "untraced": sum(rescale(plain["latency_ms"], plain["ref_ms"])),
        "traced": sum(rescale(stats["latency_ms"], stats["ref_ms"])),
    }
    metrics = {}
    for m in layer_spec:
        value, base = layer_value(tr, m["name"], walls)
        metrics[m["name"]] = value
        suffix = f" (base {base:.6g})" if base is not None else ""
        print(f"{args.workload} {m['name']} = {value:.6g} {m['unit']}{suffix}")
    for terms, op, bound in SHARES[args.workload]:
        value, busy = share(tr, terms)
        met = value >= bound if op == ">=" else value < bound
        verdict = "met" if met else "NOT met"
        print(f"# share {terms} = {value:.4f} of busy {busy:.3f}s (intent {op} {bound}: {verdict})")
    top = sorted(tr.self_s.items(), key=lambda kv: -kv[1])[:12]
    print("# largest self times: " + ", ".join(f"{k} {v:.3f}s" for k, v in top))
    span_path = os.path.join(work_root, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    tr.write_spans(span_path)
    print(f"# {tr.span_count()} spans written to {os.path.relpath(span_path, ROOT)}")
    attempted = plain["attempted"] + stats["attempted"]
    failed = plain["failed"] + stats["failed"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in layer_spec},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, one after another."""
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv, cwd=ROOT).returncode)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload; default: all, one process each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sqfree", "__init__.py")):
        print(f"no library source at {os.path.join(ROOT, 'src', 'sqfree')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
