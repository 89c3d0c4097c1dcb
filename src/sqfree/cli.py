"""Batch command line: JSON bundles in, deterministic JSON reports out.

A job bundle is {"semigroup": ..., "coefficients": ..., "cocycle"?: ...,
"cochain"?: ..., "bounds"?: ...}, read from a file path argument or from
standard input. Reports go to standard output with sorted keys so a fixed
bundle always produces byte-identical output; timing and other diagnostics
go to standard error.

Exit codes: 0 for success or a true result, 1 for a well-formed negative
result (invalid cocycle under validate, not cohomologous, associativity
failure, no d-algebra witness, inexact sequence), 2 for input errors
(malformed JSON, wire-format violations, preconditions such as an invalid
cocycle fed to a transform, infinite backends where enumeration is
needed), 3 when a configured search bound was exceeded.
"""

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict

from . import jsonio
from .autos import out_r, verify_ses
from .cohom import (
    TwoCocycle,
    boundary,
    cohomologous,
    cohomologous_with_relabel,
    first_cohomology,
    normalize,
    stabilizer,
    trivialize_on_blocks,
    verify_two_cocycle,
)
from .errors import InfiniteBackend, InvalidInput, SearchBoundExceeded, SqfreeError
from .sgrp import automorphisms as semigroup_automorphisms
from .twring import (
    TwistedRing,
    check_associativity,
    is_d_algebra,
    unit_and_idempotent_counts,
)

COMMANDS = {}


def command(name):
    def register(fn):
        COMMANDS[name] = fn
        return fn

    return register


def _load_json(source, label):
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source) as fh:
                text = fh.read()
    except OSError as exc:
        raise InvalidInput(str(exc), where=label)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(
            f"malformed JSON: {exc.msg}", where=f"{label}:line {exc.lineno} column {exc.colno}"
        )


def _require(rep, message, where):
    """Refuse a failed report as input, naming its first violation's kind in message."""
    if not rep.ok:
        raise InvalidInput(message.format(rep.violations[0].kind), where=where)


class Job:
    """Decoded bundle plus command-line bound overrides."""

    def __init__(self, args):
        self.raw = _load_json(args.bundle, args.bundle)
        S, D, c, bounds = jsonio.decode_bundle(self.raw)
        overrides = {}
        if args.max_units is not None:
            overrides["max_units"] = args.max_units
        if args.max_search is not None:
            overrides["max_search"] = args.max_search
        self.S, self.D, self.cocycle = S, D, c
        self.bounds = jsonio.decode_bounds(overrides or None, bounds, where="--bounds")

    def checked_semigroup(self):
        _require(self.S.validate(), "semigroup fails validation ({}); run the validate command", "bundle.semigroup")
        return self.S

    def cocycle_or_trivial(self):
        return self.cocycle if self.cocycle is not None else TwoCocycle.trivial(self.S, self.D)

    def valid_cocycle(self):
        self.checked_semigroup()
        c = self.cocycle_or_trivial()
        _require(verify_two_cocycle(self.S, c), "cocycle fails verification ({}); run verify-cocycle", "bundle.cocycle")
        return c

    def ring(self):
        return TwistedRing(self.S, self.D, self.valid_cocycle())


@command("validate")
def cmd_validate(args):
    """check the semigroup axioms and, if present, the cocycle identities"""
    job = Job(args)
    rep = job.S.validate()
    if rep.ok and job.cocycle is not None:
        rep.extend(verify_two_cocycle(job.S, job.cocycle))
    return (0 if rep.ok else 1), rep.as_json()


@command("verify-cocycle")
def cmd_verify_cocycle(args):
    """report every cocycle identity violation"""
    job = Job(args)
    job.checked_semigroup()
    rep = verify_two_cocycle(job.S, job.cocycle_or_trivial())
    return (0 if rep.ok else 1), rep.as_json()


@command("normalize")
def cmd_normalize(args):
    """emit an equivalent cocycle with trivial idempotent scalars, plus witness"""
    job = Job(args)
    c2, g = normalize(job.S, job.valid_cocycle())
    return 0, {"cocycle": jsonio.encode_cocycle(c2), "witness": jsonio.encode_gauge(g)}


@command("trivialize-blocks")
def cmd_trivialize_blocks(args):
    """emit an equivalent cocycle that is trivial on every block, plus witness"""
    job = Job(args)
    c2, g = trivialize_on_blocks(job.S, job.valid_cocycle())
    return 0, {"cocycle": jsonio.encode_cocycle(c2), "witness": jsonio.encode_gauge(g)}


@command("cohomologous")
def cmd_cohomologous(args):
    """search for a gauge witness between the bundle cocycle and --other"""
    # both cocycles pass _require once, and the searches do not verify them again
    job = Job(args)
    c1 = job.valid_cocycle()
    other = jsonio.decode_cocycle(job.S, job.D, _load_json(args.other, args.other), where="other")
    _require(verify_two_cocycle(job.S, other), "second cocycle fails verification ({})", "other")
    if args.phi:
        phi, g = cohomologous_with_relabel(job.S, c1, other, job.bounds) or (None, None)
    else:
        phi, g = None, cohomologous(job.S, c1, other)
    report = {"bounds": asdict(job.bounds), "cohomologous": g is not None}
    if g is None:
        return 1, report
    if phi is not None:
        report["phi"] = list(phi.perm)
    report["witness"] = jsonio.encode_gauge(g)
    return 0, report


def _group_report(job, auts):
    """Report of a list of semigroup automorphisms, in the order given."""
    return 0, {
        "bounds": asdict(job.bounds),
        "order": len(auts),
        "automorphisms": [list(phi.perm) for phi in auts],
    }


@command("aut-s")
def cmd_aut_s(args):
    """enumerate the semigroup automorphisms"""
    job = Job(args)
    return _group_report(job, semigroup_automorphisms(job.checked_semigroup(), job.bounds))


@command("stab")
def cmd_stab(args):
    """semigroup automorphisms whose relabeling stays in the gauge orbit"""
    job = Job(args)
    return _group_report(job, stabilizer(job.S, job.valid_cocycle(), job.bounds))


@command("ring-check")
def cmd_ring_check(args):
    """basis associativity sweep plus idempotent/unit counts of the twisted ring"""
    job = Job(args)
    job.checked_semigroup()
    # raw construction: this command is for probing possibly-bad cocycles
    R = TwistedRing(job.S, job.D, job.cocycle_or_trivial(), check=False)
    rep = check_associativity(R)
    report = {
        "bounds": asdict(job.bounds),
        "associativity": rep.as_json(),
        "idempotent_count": None,
        "unit_count": None,
    }
    try:
        report["idempotent_count"], report["unit_count"] = unit_and_idempotent_counts(R, job.bounds)
    except (InfiniteBackend, SearchBoundExceeded):
        pass
    return (0 if rep.ok else 1), report


@command("d-algebra")
def cmd_d_algebra(args):
    """search for a gauge witness trivializing all coefficient twists"""
    job = Job(args)
    witness = is_d_algebra(job.ring())
    report = {"bounds": asdict(job.bounds), "is_d_algebra": witness is not None}
    if witness is None:
        return 1, report
    report["witness"] = jsonio.encode_gauge(witness)
    return 0, report


@command("h1")
def cmd_h1(args):
    """first cohomology of the bundle cocycle, with representatives"""
    job = Job(args)
    h1 = first_cohomology(job.S, job.valid_cocycle(), job.bounds)
    return 0, {
        "bounds": asdict(job.bounds),
        "order": h1.order,
        "z1_order": h1.z1_order,
        "b1_order": h1.b1_order,
        "representatives": [jsonio.encode_gauge(g) for g in h1.reps],
    }


@command("out-r")
def cmd_out_r(args):
    """outer automorphism classes of the twisted ring"""
    job = Job(args)
    order, reps = out_r(job.ring(), job.bounds)
    return 0, {
        "bounds": asdict(job.bounds),
        "order": order,
        "representatives": [jsonio.encode_ring_aut(f) for f in reps],
    }


@command("verify-ses")
def cmd_verify_ses(args):
    """exactness of the cohomology-automorphism sequence at desk scale"""
    job = Job(args)
    rep = verify_ses(job.ring(), job.bounds)
    ok = rep.exact and rep.split_ok is not False
    report = dict(rep.as_json())
    report["bounds"] = asdict(job.bounds)
    return (0 if ok else 1), report


@command("boundary")
def cmd_boundary(args):
    """multiplicative boundary of the bundle cochain"""
    job = Job(args)
    job.checked_semigroup()
    if "cochain" not in job.raw:
        raise InvalidInput("boundary needs a cochain entry in the bundle", where="bundle.cochain")
    phi = jsonio.decode_cochain(job.S, job.D, job.raw["cochain"], where="bundle.cochain")
    return 0, jsonio.encode_cochain(boundary(job.S, phi))


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="sqfree",
        description="Square-free twisted ring toolbox: validation, cohomology, automorphisms.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "bundle",
        nargs="?",
        default="-",
        help="path of the JSON job bundle, or - for standard input (default)",
    )
    common.add_argument(
        "--bounds.max-units", dest="max_units", type=int, default=None,
        help="cap on ring element enumeration",
    )
    common.add_argument(
        "--bounds.max-search", dest="max_search", type=int, default=None,
        help="cap on listed solution sets (a fixing-pair slice, the coboundary orbit)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=fn.__doc__)
        if name == "cohomologous":
            p.add_argument("--other", required=True, help="path of the second cocycle JSON file")
            p.add_argument(
                "--phi", action="store_true",
                help="also search semigroup relabelings of the first cocycle",
            )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        code, report = COMMANDS[args.command](args)
    except InvalidInput as exc:
        code, report = 2, {"error": str(exc), "where": exc.where}
    except SearchBoundExceeded as exc:
        code, report = 3, {"error": str(exc), "kind": "SearchBoundExceeded"}
    except SqfreeError as exc:
        code, report = 2, {"error": str(exc), "kind": type(exc).__name__}
    sys.stdout.write(jsonio.dumps(report))
    elapsed = time.perf_counter() - started
    print(f"sqfree {args.command}: exit {code} in {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
