"""The three workloads: job lists built from a seed, and their oracles.

A job is `(key, run, check, inputs)`: `run()` is the timed call into the
library and returns its output; `check(output)` compares that output with
the oracle outside the timer; `inputs` holds the generated inputs, for the
seed tests. A round is one pass over a workload's job mix; runs are
made of whole rounds, so every run times the same mix. Each round's order
is shuffled by the seed, so that a burst of load from elsewhere on the
machine slows a few jobs of many kinds rather than every job of one kind.

Why each workload exists is written up in GLOSSARY.md.
"""

import contextlib
import hashlib
import io
import json
import os
import random

import gen

# ses ladder: (fixture, q, twist, copies per round). The copies place the
# median in the middle of the ~40ms group (two_cycle/GF2, mu2/GF2) and the
# 90th percentile in the middle of the t2/GF4 group, so neither sits on a
# cost boundary. a3/GF3 (about 4s) runs once, so it holds about a third of
# a round rather than half, and a run gets more t2/GF4 samples in its time.
SES_LADDER = (
    ("t2", 2, "plain", 6),
    ("t2", 4, "plain", 4),
    ("t2", 4, "frob", 2),
    ("mu2", 2, "plain", 6),
    ("mu2", 3, "plain", 1),
    ("two_cycle", 2, "plain", 8),
    ("two_cycle", 3, "plain", 1),
    ("double_t2", 2, "plain", 1),
    ("a3", 2, "plain", 1),
    ("a3", 3, "plain", 1),
    ("single", 8, "plain", 2),
    ("single", 9, "plain", 6),
)

COCYCLE_FIXTURES = ("t2", "a3", "mu2", "mu3", "two_cycle", "double_t2")
COCYCLE_FIELDS = (2, 3, 4, 5, 8, 9)
# copies per round. The six combinations whose time is mostly
# first_cohomology run once; mu3/GF4, whose time is mostly the basis
# associativity sweep, runs 15 times, so that the sweep and the cohomology
# searches each hold about a third of the busy time; t2/GF8 (about 25ms)
# runs 16 times; every other combination runs 4 times. That puts the 90th
# percentile in the middle of the mu3/GF4 group and the median in the
# middle of the t2/GF8 group, away from the gaps between combinations.
COCYCLE_COPIES = {
    ("a3", 8): 1, ("a3", 9): 1, ("mu3", 8): 1, ("mu3", 9): 1, ("double_t2", 8): 1, ("double_t2", 9): 1,
    ("mu3", 4): 15, ("t2", 8): 16,
}
COCYCLE_DEFAULT_COPIES = 4

MIN_JOBS = 100


def input_rounds(jobs_per_round):
    """Rounds of distinct inputs made at set-up: enough for MIN_JOBS, plus one.

    A run that needs more rounds reuses them from the first.
    """
    return -(-MIN_JOBS // jobs_per_round) + 1


def ses_key(fixture, q, twist):
    return f"{fixture}/GF{q}" + ("/frob" if twist == "frob" else "")


# ------------------------------------------------------------------- ses


def build_ses(sq, seed, oracles, work_dir):
    rng = random.Random(f"ses:{seed}")
    table = oracles["ses"]
    rounds = []
    for _ in range(input_rounds(sum(n for *_, n in SES_LADDER))):
        jobs = []
        for fixture, q, twist, copies in SES_LADDER:
            S, F = gen.fixture(sq, fixture), sq.fixtures.gf(q)
            for _ in range(copies):
                if twist == "frob":
                    c = gen.gauged(sq, S, F, gen.frobenius_base(sq, S, F, (1, 2)), rng)
                else:
                    c = gen.random_valid_cocycle(sq, S, F, rng)
                key = ses_key(fixture, q, twist)
                jobs.append((key, _ses_run(sq, S, F, c), _ses_check(table[key]), (c,)))
        rng.shuffle(jobs)
        rounds.append(jobs)
    params = {
        "ladder": [f"{ses_key(f, q, t)} x{n}" for f, q, t, n in SES_LADDER],
        "jobs_per_round": len(rounds[0]),
        "input_rounds": len(rounds),
    }
    return rounds, params


def _ses_run(sq, S, F, c):
    def run():
        return sq.autos.verify_ses(sq.twring.TwistedRing(S, F, c))

    return run


def _ses_check(want):
    def check(rep):
        return (
            rep.exact
            and rep.split_ok is not False
            and rep.out_order == rep.h1_order * rep.stab_order
            and [rep.h1_order, rep.stab_order, rep.out_order] == want
        )

    return check


# -------------------------------------------------------------- cocycles


def build_cocycles(sq, seed, oracles, work_dir):
    rng = random.Random(f"cocycles:{seed}")
    table = oracles["cocycles"]
    mix = []
    for fixture in COCYCLE_FIXTURES:
        for q in COCYCLE_FIELDS:
            mix.append((fixture, q, COCYCLE_COPIES.get((fixture, q), COCYCLE_DEFAULT_COPIES)))
    auts = {f: sq.sgrp.automorphisms(gen.fixture(sq, f)) for f in COCYCLE_FIXTURES}
    rounds = []
    for _ in range(input_rounds(sum(n for *_, n in mix))):
        jobs = []
        for fixture, q, copies in mix:
            S, F = gen.fixture(sq, fixture), sq.fixtures.gf(q)
            for _ in range(copies):
                c = gen.random_valid_cocycle(sq, S, F, rng)
                bad = gen.corrupted(sq, S, F, c, rng)
                phi = rng.choice(auts[fixture])
                other = gen.gauged(sq, S, F, sq.cohom.relabel(S, phi, c), rng)
                non = gen.non_cohomologous(sq, S, F, c, rng)
                key = f"{fixture}/GF{q}"
                run, check = _cocycle_job(sq, S, F, c, bad, other, non, table[key])
                jobs.append((key, run, check, (c, bad, phi, other, non)))
        rng.shuffle(jobs)
        rounds.append(jobs)
    params = {
        "fixtures": list(COCYCLE_FIXTURES),
        "fields": [f"GF{q}" for q in COCYCLE_FIELDS],
        "copies": {f"{f}/GF{q}": n for f, q, n in mix},
        "jobs_per_round": len(rounds[0]),
        "input_rounds": len(rounds),
    }
    return rounds, params


def _cocycle_job(sq, S, F, c, bad, other, non, want_h1):
    co, tw = sq.cohom, sq.twring

    def verdicts(x):
        return (
            co.verify_two_cocycle(S, x).ok,
            tw.check_associativity(tw.TwistedRing(S, F, x, check=False)).ok,
        )

    def run():
        out = {"good": verdicts(c), "bad": verdicts(bad) if bad is not None else None}
        out["normal"] = co.normalize(S, c)
        out["flat"] = co.trivialize_on_blocks(S, out["normal"][0])
        out["equiv"] = co.cohomologous_with_relabel(S, c, other)
        out["non"] = co.cohomologous(S, c, non) if non is not None else None
        out["h1"] = co.first_cohomology(S, c).order
        return out

    def check(out):
        if out["good"] != (True, True):
            return False
        if bad is not None and out["bad"] != (False, False):
            return False
        n, g = out["normal"]
        if not n.is_normal() or co.act(S, g, c, check=False) != n:
            return False
        flat, h = out["flat"]
        if co.act(S, h, n, check=False) != flat:
            return False
        if out["equiv"] is None:
            return False
        psi, w = out["equiv"]
        if co.act(S, w, co.relabel(S, psi, c), check=False) != other:
            return False
        return out["non"] is None and out["h1"] == want_h1

    return run, check


# -------------------------------------------------------------------- cli

CLI_VARIANTS = 8
SPARSE_JOBS = (
    ("validate", "path", 300),
    ("verify-cocycle", "path", 500),
    ("validate", "t2_union", 800),
    ("verify-cocycle", "t2_union", 400),
)
# (command, fixture, q, copies per round). The GF(128) jobs, about 0.3s
# each, run twice and the small commands three times, so that the 90th
# percentile falls in the middle of the GF(128) group: below it sit the
# small commands, above it the sparse jobs and the larger fields (0.5-2.5s).
BIG_FIELD_JOBS = (
    ("verify-cocycle", "a3", 128, 2),
    ("verify-cocycle", "mu2", 343, 1),
    ("normalize", "t2", 243, 1),
    ("normalize", "two_cycle", 128, 2),
    ("d-algebra", "two_cycle", 256, 1),
    ("d-algebra", "a3", 128, 2),
)
SMALL_JOBS = (
    ("aut-s", "mu3", 2),
    ("aut-s", "double_t2", 3),
    ("aut-s", "two_cycle", 4),
    ("aut-s", "a3", 5),
    ("stab", "t2", 4),
    ("stab", "mu2", 3),
    ("stab", "double_t2", 2),
    ("stab", "two_cycle", 4),
    ("h1", "t2", 4),
    ("h1", "two_cycle", 3),
    ("h1", "mu2", 5),
    ("h1", "single", 9),
    ("cohomologous", "mu2", 3),
    ("cohomologous", "double_t2", 4),
    ("cohomologous", "two_cycle", 4),
    ("cohomologous", "mu3", 2),
    ("boundary", "a3", 5),
    ("boundary", "mu2", 4),
    ("boundary", "t2", 9),
    ("boundary", "double_t2", 3),
    ("ring-check", "t2", 4),
    ("ring-check", "mu2", 2),
    ("ring-check", "a3", 2),
    ("ring-check", "two_cycle", 3),
    ("out-r", "t2", 2),
    ("out-r", "single", 8),
    ("out-r", "mu2", 2),
    ("out-r", "two_cycle", 2),
    ("verify-ses", "t2", 2),
    ("verify-ses", "single", 9),
    ("verify-ses", "mu2", 2),
    ("verify-ses", "two_cycle", 2),
)
SMALL_COPIES = 3
ERROR_JOBS = ("refused", "bound")


def cli_job_keys():
    """(key, copies per round) for every CLI job."""
    keys = [(f"{cmd}/{shape}{n}", 1) for cmd, shape, n in SPARSE_JOBS]
    keys += [(f"{cmd}/{fx}/GF{q}", n) for cmd, fx, q, n in BIG_FIELD_JOBS]
    keys += [(f"{cmd}/{fx}/GF{q}", SMALL_COPIES) for cmd, fx, q in SMALL_JOBS]
    return keys + [(f"error/{kind}", 1) for kind in ERROR_JOBS]


def cli_bundle(sq, key, variant):
    """Bundle(s) and argv tail for one CLI job variant.

    Returns (files, argv) where files maps a file tag to a JSON object and
    argv names the files by tag. Variant v of job k always comes from
    Random("cli:k:v"), so its report digest can be frozen.
    """
    rng = random.Random(f"cli:{key}:{variant}")
    parts = key.split("/")
    cmd = parts[0]
    enc = sq.jsonio
    if cmd == "error":
        # refused: a cocycle entry on a triple that does not compose (exit 2);
        # bound: Aut S of mu3 under an idempotent bound below 3 (exit 3)
        S, F = gen.fixture(sq, "a3" if parts[1] == "refused" else "mu3"), sq.fixtures.gf(3)
        bundle = {"semigroup": enc.encode_semigroup(S), "coefficients": enc.encode_coefficients(F)}
        if parts[1] == "refused":
            stray = rng.choice([(1, 3, 2), (2, 1, 3), (3, 2, 1), (2, 3, 1)])
            bundle["cocycle"] = {"xi": {",".join(map(str, stray)): [1]}}
            return {"bundle": bundle}, ["validate", "bundle"]
        bundle["bounds"] = {"aut_s_max_n": rng.randrange(1, 3)}
        return {"bundle": bundle}, ["aut-s", "bundle"]
    if parts[1].startswith("path") or parts[1].startswith("t2_union"):
        shape = "path" if parts[1].startswith("path") else "t2_union"
        n = int(parts[1][len(shape):])
        make = gen.path_semigroup if shape == "path" else gen.t2_union_semigroup
        S, F = make(sq, n, rng), sq.fixtures.gf(3)
        c = gen.random_valid_cocycle(sq, S, F, rng)
        bundle = {
            "semigroup": enc.encode_semigroup(S),
            "coefficients": enc.encode_coefficients(F),
            "cocycle": enc.encode_cocycle(c),
        }
        return {"bundle": bundle}, [cmd, "bundle"]
    fixture, q = parts[1], int(parts[2][2:])
    S = gen.fixture(sq, fixture)
    if q in gen.BIG_FIELDS:
        p, k, modulus = gen.BIG_FIELDS[q]
        PF = gen.PolyField(q)
        bundle = {
            "semigroup": enc.encode_semigroup(S),
            "coefficients": {"backend": "finite_field", "p": p, "k": k, "modulus": list(modulus)},
            "cocycle": gen.big_field_cocycle(PF, S.n, sorted(S.support), sorted(S.comp), rng),
        }
        return {"bundle": bundle}, [cmd, "bundle"]
    F = sq.fixtures.gf(q)
    c = gen.random_valid_cocycle(sq, S, F, rng)
    bundle = {
        "semigroup": enc.encode_semigroup(S),
        "coefficients": enc.encode_coefficients(F),
        "cocycle": enc.encode_cocycle(c),
    }
    files = {"bundle": bundle}
    argv = [cmd, "bundle"]
    if cmd == "cohomologous":
        phi = rng.choice(sq.sgrp.automorphisms(S))
        other = gen.gauged(sq, S, F, sq.cohom.relabel(S, phi, c), rng)
        files["other"] = enc.encode_cocycle(other)
        argv += ["--other", "other", "--phi"]
    elif cmd == "boundary":
        m = rng.randrange(3)
        bundle["cochain"] = enc.encode_cochain(sq.cohom.random_cochain(S, m, F, rng))
    return files, argv


def write_cli_job(sq, key, variant, work_dir):
    """Write the variant's files; returns the argv with real paths."""
    files, argv = cli_bundle(sq, key, variant)
    stem = key.replace("/", "_")
    paths = {}
    for tag, obj in files.items():
        path = os.path.join(work_dir, f"{stem}.v{variant}.{tag}.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        paths[tag] = path
    return [paths.get(a, a) for a in argv]


def run_cli(sq, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sq.cli.main(argv)
    return code, out.getvalue()


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build_cli(sq, seed, oracles, work_dir):
    """Rounds of CLI jobs; each round takes the next variants of every job.

    The seed picks each job's first variant. The costs of the variants
    differ, so spreading a run over several of them keeps its figures from
    hanging on one pick.
    """
    rng = random.Random(f"cli:{seed}")
    table = oracles["cli"]
    keys = cli_job_keys()
    first = {key: rng.randrange(CLI_VARIANTS) for key, _ in keys}
    chosen = {}
    rounds = []
    for r in range(input_rounds(sum(n for _, n in keys))):
        jobs = []
        for key, copies in keys:
            for copy in range(copies):
                v = (first[key] + r * copies + copy) % CLI_VARIANTS
                argv = write_cli_job(sq, key, v, work_dir)
                chosen.setdefault(key, []).append(v)
                jobs.append((key, _cli_run(sq, argv), _cli_check(table[key][v]), (v, argv)))
        rng.shuffle(jobs)
        rounds.append(jobs)
    params = {
        "variants_per_job": CLI_VARIANTS,
        "chosen_variants": chosen,
        "sparse": [f"{c} {s} n={n}" for c, s, n in SPARSE_JOBS],
        "big_fields": [f"{c} {f} GF({q}) x{n}" for c, f, q, n in BIG_FIELD_JOBS],
        "small_copies": SMALL_COPIES,
        "jobs_per_round": len(rounds[0]),
        "input_rounds": len(rounds),
    }
    return rounds, params


def _cli_run(sq, argv):
    return lambda: run_cli(sq, argv)


def _cli_check(want):
    return lambda out: [out[0], digest(out[1])] == want


BUILDERS = {"ses": build_ses, "cocycles": build_cocycles, "cli": build_cli}
