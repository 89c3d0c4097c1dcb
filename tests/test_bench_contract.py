"""The library names the benchmark reads stay resolvable.

The benchmark in perfbench/ wraps the library from outside and reads its
per-layer metrics by function name, so renaming or removing a public
function it lists breaks the benchmark, not the library. These tests run
its loader, tracer and spec checks in fresh interpreters that write no
bytecode, so nothing under perfbench/ changes.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")

RESOLVE_SCRIPT = """
import json
import run
import tracer

sq = run.load_library()
tr = tracer.Tracer()
tr.install(sq)
try:
    _, layer = run.load_metric_spec()
    for m in layer:
        run.layer_value(tr, m["name"], {"traced": 2.0, "untraced": 1.0})
finally:
    tr.uninstall()
print(len(layer), "per-layer metrics resolved")
"""


def run_bench(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([BENCH, os.path.join(ROOT, "src")]))
    return subprocess.run(
        [sys.executable, "-B", *args], cwd=ROOT, capture_output=True, text=True, env=env, timeout=120
    )


def test_every_per_layer_metric_resolves_on_a_traced_library():
    proc = run_bench("-c", RESOLVE_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("per-layer metrics resolved")


def test_tracer_and_spec_selftests_pass():
    proc = run_bench(
        "-m", "unittest",
        "selftest.TracerTests.test_rebinds_every_binding_site_and_restores",
        "selftest.SpecTests",
    )
    assert proc.returncode == 0, proc.stderr
    assert "Ran 4 tests" in proc.stderr
