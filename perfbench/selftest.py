"""Self-tests of the benchmark itself, not of the library.

    python3 perfbench/selftest.py          # from the repository root, ~3 minutes

They check that a corrupted frozen oracle value makes jobs fail, that a seed
reproduces its inputs and another seed gives other inputs that still pass,
that two traced runs with one seed count the same calls, that the tracer
rebinds every binding site, that BENCHMARK.json matches what run.py reports,
that timings are rescaled by the reference-loop times near them, and that
the command refuses to run without the library source.
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

import run
import tracer as tracing
import workloads

WORK = os.path.join(run.ROOT, ".bench_work")


def setUpModule():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    os.makedirs(WORK, exist_ok=True)


class Built:
    """A workload built once per seed, with its own bundle directory."""

    def __init__(self, workload, seed, oracles=None):
        self.tmp = tempfile.TemporaryDirectory(dir=WORK)
        self.sq = run.load_library()
        self.rounds, self.params = workloads.BUILDERS[workload](
            self.sq, seed, oracles or run.load_oracles(), self.tmp.name
        )

    def fingerprint(self):
        enc = self.sq.jsonio.encode_cocycle
        out = []
        for jobs in self.rounds:
            for key, _, _, inputs in jobs:
                for x in inputs:
                    if isinstance(x, list):  # cli argv: the bundle files' text
                        for path in x:
                            if os.path.isfile(path):
                                with open(path) as fh:
                                    out.append(fh.read())
                    elif hasattr(x, "alpha"):
                        out.append(json.dumps(enc(x), sort_keys=True))
                    else:
                        out.append(repr(x))
                out.append(key)
        return out

    def close(self):
        self.tmp.cleanup()


def run_round(built, keys=None):
    jobs = [j for j in built.rounds[0] if keys is None or j[0] in keys]
    stats = run.new_stats()
    run.run_jobs(jobs, stats)
    return stats


class OracleTests(unittest.TestCase):
    def test_ses_table_reproduces_acceptance_values(self):
        ses = run.load_oracles()["ses"]
        self.assertEqual(ses["t2/GF2"], [1, 1, 1])
        self.assertEqual(ses["t2/GF4/frob"], [2, 1, 2])
        self.assertEqual(ses["mu2/GF2"], [1, 1, 1])

    def test_one_corrupted_entry_makes_fail_ratio_nonzero(self):
        cases = (
            ("ses", "t2/GF2", lambda table: [1, 1, 2]),
            ("cocycles", "t2/GF4", lambda table: table + 1),
            ("cli", "aut-s/a3/GF5", lambda table: [[code, "0" * 16] for code, _ in table]),
        )
        for workload, key, corrupt in cases:
            with self.subTest(workload=workload):
                oracles = run.load_oracles()
                good = Built(workload, 1, oracles)
                bad_oracles = copy.deepcopy(oracles)
                bad_oracles[workload][key] = corrupt(oracles[workload][key])
                bad = Built(workload, 1, bad_oracles)
                try:
                    ok = run_round(good, {key})
                    broken = run_round(bad, {key})
                finally:
                    good.close()
                    bad.close()
                self.assertGreater(ok["attempted"], 0)
                self.assertEqual(ok["failed"], 0)
                self.assertEqual(broken["failed"], broken["attempted"])
                self.assertGreater(broken["failed"] / broken["attempted"], 0)


class SeedTests(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a, b, c = Built(workload, 5), Built(workload, 5), Built(workload, 6)
                try:
                    self.assertEqual(a.fingerprint(), b.fingerprint())
                    self.assertNotEqual(a.fingerprint(), c.fingerprint())
                finally:
                    for x in (a, b, c):
                        x.close()

    def test_second_seed_passes_every_oracle(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                built = Built(workload, 6)
                try:
                    stats = run_round(built)
                finally:
                    built.close()
                self.assertEqual(stats["failed"], 0)
                self.assertEqual(stats["attempted"], len(built.rounds[0]))


class TracerTests(unittest.TestCase):
    def test_rebinds_every_binding_site_and_restores(self):
        sq = run.load_library()
        original_mul = sq.twring.mul
        tr = tracing.Tracer()
        tr.install(sq)
        try:
            self.assertIs(sq.autos.mul, sq.twring.mul)
            self.assertIs(sq.autos.mul.__wrapped__, original_mul)
            self.assertIs(sq.cohom.semigroup_automorphisms, sq.sgrp.automorphisms)
            self.assertIs(sq.cli.COMMANDS["h1"], sq.cli.cmd_h1)
            self.assertTrue(hasattr(sq.cli.cmd_h1, "__wrapped__"))
            self.assertIs(sq.autos.RingAut.__call__, sq.autos.RingAut.apply)
            S, F = sq.fixtures.t2(), sq.fixtures.gf(2)
            R = sq.twring.TwistedRing(S, F, sq.cohom.TwoCocycle.trivial(S, F))
            sq.autos.verify_ses(R)
            for name in ("twring.mul", "autos.check_ring_automorphism", "linalg.mat_vec", "sgrp.mul"):
                self.assertGreater(tr.calls[name], 0, name)
        finally:
            tr.uninstall()
        self.assertIs(sq.autos.mul, original_mul)
        self.assertFalse(hasattr(sq.cli.COMMANDS["h1"], "__wrapped__"))

    def test_two_traced_runs_count_the_same_calls(self):
        def start(workload, hashseed):
            env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
            argv = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
                    "--seed", "3", "--trace", "1"]
            return subprocess.Popen(argv, cwd=run.ROOT, env=env, stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL, text=True)

        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                procs = [start(workload, h) for h in (1, 2)]
                outs = [p.communicate(timeout=600)[0] for p in procs]
                self.assertEqual([p.returncode for p in procs], [0, 0])
                results = [json.loads(o.strip().splitlines()[-1]) for o in outs]
                calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")} for r in results]
                self.assertTrue(calls[0])
                self.assertEqual(calls[0], calls[1])
                self.assertTrue(all(r["correct"] for r in results))


class SpecTests(unittest.TestCase):
    def test_benchmark_json_follows_the_contract(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual(
            set(spec), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
        self.assertTrue(all(name_re.match(n) for n in names))
        for key in ("end_to_end", "per_layer"):
            names = [m["name"] for m in spec[key]]
            self.assertEqual(len(names), len(set(names)))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))

    def test_rescale_divides_by_the_nearby_loop_times(self):
        refs = [run.REF_MS] * 30 + [2 * run.REF_MS] * 30
        scaled = run.rescale([10.0] * 60, refs)
        self.assertEqual(scaled[0], 10.0)
        self.assertEqual(scaled[-1], 5.0)
        self.assertTrue(5.0 < scaled[30] < 10.0)

    def test_every_metric_resolves(self):
        e2e, layer = run.load_metric_spec()
        stats = {"attempted": 10, "latency_ms": [float(x) for x in range(1, 11)], "ref_ms": [run.REF_MS] * 10}
        metrics, _ = run.end_to_end(stats, ([0.1, 0.2, 0.3], [run.REF_MS] * 3))
        self.assertEqual({m["name"] for m in e2e}, set(metrics))
        sq = run.load_library()
        tr = tracing.Tracer()
        tr.install(sq)
        tr.uninstall()
        for m in layer:
            run.layer_value(tr, m["name"], {"traced": 2.0, "untraced": 1.0})


class RefusalTests(unittest.TestCase):
    def test_refuses_without_library_source(self):
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ses", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
