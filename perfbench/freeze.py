"""Recompute the frozen oracle tables in oracles.json.

    python3 perfbench/freeze.py > perfbench/oracles.json

Run this only at a commit whose reports are known to be right: the tables
are what later commits are checked against. The ses and cocycles tables are
gauge invariants, computed on two independently seeded inputs that must
agree; the cli table holds the exit code and stdout digest of every
variant of every CLI job.
"""

import json
import os
import random
import sys
import tempfile

import run
import workloads
import gen


def ses_table(sq):
    table = {}
    for fixture, q, twist, _ in workloads.SES_LADDER:
        S, F = gen.fixture(sq, fixture), sq.fixtures.gf(q)
        key = workloads.ses_key(fixture, q, twist)
        seen = set()
        for salt in range(2):
            rng = random.Random(f"freeze:{key}:{salt}")
            if twist == "frob":
                c = gen.gauged(sq, S, F, gen.frobenius_base(sq, S, F, (1, 2)), rng)
            else:
                c = gen.random_valid_cocycle(sq, S, F, rng)
            rep = sq.autos.verify_ses(sq.twring.TwistedRing(S, F, c))
            assert rep.exact and rep.split_ok is not False, (key, rep)
            seen.add((rep.h1_order, rep.stab_order, rep.out_order))
        assert len(seen) == 1, (key, seen)
        table[key] = list(seen.pop())
    return table


def cocycles_table(sq):
    table = {}
    for fixture in workloads.COCYCLE_FIXTURES:
        for q in workloads.COCYCLE_FIELDS:
            S, F = gen.fixture(sq, fixture), sq.fixtures.gf(q)
            key = f"{fixture}/GF{q}"
            orders = set()
            for salt in range(2):
                rng = random.Random(f"freeze:{key}:{salt}")
                orders.add(sq.cohom.first_cohomology(S, gen.random_valid_cocycle(sq, S, F, rng)).order)
            assert len(orders) == 1, (key, orders)
            table[key] = orders.pop()
    return table


def cli_table(sq, work_dir):
    table = {}
    for key, _ in workloads.cli_job_keys():
        table[key] = []
        for v in range(workloads.CLI_VARIANTS):
            argv = workloads.write_cli_job(sq, key, v, work_dir)
            code, out = workloads.run_cli(sq, argv)
            table[key].append([code, workloads.digest(out)])
    return table


def dump(oracles, fh):
    """JSON with one table entry per line."""
    sections = sorted(oracles)
    fh.write("{\n")
    for a, name in enumerate(sections):
        items = sorted(oracles[name].items())
        fh.write(f" {json.dumps(name)}: {{\n")
        for b, (key, value) in enumerate(items):
            fh.write(f"  {json.dumps(key)}: {json.dumps(value)}{',' if b < len(items) - 1 else ''}\n")
        fh.write(" }" + (",\n" if a < len(sections) - 1 else "\n"))
    fh.write("}\n")


def main():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    sq = run.load_library()
    with tempfile.TemporaryDirectory(dir=run.ROOT) as work_dir:
        oracles = {"ses": ses_table(sq), "cocycles": cocycles_table(sq), "cli": cli_table(sq, work_dir)}
    dump(oracles, sys.stdout)


if __name__ == "__main__":
    main()
