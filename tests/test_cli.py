import io
import json
import time

import pytest

from sqfree import cli, cohom, jsonio
from sqfree.autos import RingAut, check_ring_automorphism
from sqfree.cohom import TwoCocycle, act, verify_one_cocycle, verify_two_cocycle
from sqfree.errors import InfiniteBackend, MixedBackends
from sqfree.fixtures import a3, gf, mu, t2, two_cycle
from sqfree.twring import TwistedRing, linear_basis, to_vector
from test_bench_contract import run_bench


def invoke(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.out


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def ring_aut_from_images(R, image_of):
    """The RingAut whose column b is the vector of image_of(b), over linear_basis(R)."""
    cols = [to_vector(R, image_of(b)) for b in linear_basis(R)]
    return RingAut(R, tuple(zip(*cols)))


def t2_bundle(cocycle=None):
    out = {
        "semigroup": {"n": 2, "support": [[1, 1], [2, 2], [1, 2]], "comp": []},
        "coefficients": {"backend": "finite_field", "p": 2, "k": 1},
    }
    if cocycle is not None:
        out["cocycle"] = cocycle
    return out


def frob_bundle():
    return {
        "semigroup": {"n": 2, "support": [[1, 1], [2, 2], [1, 2]], "comp": []},
        "coefficients": {"backend": "finite_field", "p": 2, "k": 2, "modulus": [1, 1, 1]},
        "cocycle": {"alpha": {"1,2": {"frobenius": 1}}},
    }


def test_validate_clean_bundle(tmp_path, capsys):
    code, report, _ = invoke(capsys, ["validate", write(tmp_path, "b.json", t2_bundle())])
    assert code == 0
    assert report == {"ok": True, "violations": []}


def test_validate_reports_semigroup_defects(tmp_path, capsys):
    bad = {
        "semigroup": {"n": 2, "support": [[1, 2]], "comp": []},
        "coefficients": {"backend": "finite_field", "p": 2, "k": 1},
    }
    code, report, _ = invoke(capsys, ["validate", write(tmp_path, "b.json", bad)])
    assert code == 1
    kinds = {v["kind"] for v in report["violations"]}
    assert "missing_idempotent" in kinds


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "b.json"
    path.write_text('{"semigroup": ')
    code, report, _ = invoke(capsys, ["validate", str(path)])
    assert code == 2
    assert "line 1" in report["where"]


def test_wire_format_violation_names_path(tmp_path, capsys):
    bundle = t2_bundle({"xi": {"2,2,1": [1]}})
    code, report, _ = invoke(capsys, ["validate", write(tmp_path, "b.json", bundle)])
    assert code == 2
    assert report["where"] == "cocycle.xi.2,2,1"


def test_oversized_field_is_refused_before_the_irreducibility_search(tmp_path, capsys):
    # GF(2^41): the irreducibility test would try every monic polynomial up
    # to degree 20 before the order bound spoke
    bundle = t2_bundle()
    bundle["coefficients"] = {"backend": "finite_field", "p": 2, "k": 41, "modulus": [1, 0, 0, 1] + [0] * 37 + [1]}
    started = time.perf_counter()
    code, report, _ = invoke(capsys, ["validate", write(tmp_path, "b.json", bundle)])
    assert time.perf_counter() - started < 1
    assert code == 2
    assert report == {"error": "coefficients: field order 2199023255552 above table limit 4096", "where": "coefficients"}


def test_stdin_default(capsys, monkeypatch):
    code, report, _ = invoke(capsys, ["validate"], stdin=json.dumps(t2_bundle()), monkeypatch=monkeypatch)
    assert code == 0 and report["ok"]


def test_verify_cocycle_flags_violation(tmp_path, capsys):
    S = a3()
    bundle = {
        "semigroup": jsonio.encode_semigroup(S),
        "coefficients": {"backend": "finite_field", "p": 2, "k": 2, "modulus": [1, 1, 1]},
        "cocycle": {"xi": {"1,1,2": [0, 1]}},
    }
    code, report, _ = invoke(capsys, ["verify-cocycle", write(tmp_path, "b.json", bundle)])
    assert code == 1
    assert any(v["kind"] == "three_chain" for v in report["violations"])


def test_normalize_witness_reverifies(tmp_path, capsys):
    F = gf(4)
    bundle = {
        "semigroup": {"n": 1, "support": [[1, 1]], "comp": []},
        "coefficients": jsonio.encode_coefficients(F),
        "cocycle": {"xi": {"1,1,1": [0, 1]}},
    }
    code, report, _ = invoke(capsys, ["normalize", write(tmp_path, "b.json", bundle)])
    assert code == 0
    from sqfree.fixtures import single

    S = single()
    c = jsonio.decode_cocycle(S, F, bundle["cocycle"])
    g = jsonio.decode_gauge(S, F, report["witness"])
    out = jsonio.decode_cocycle(S, F, report["cocycle"])
    assert act(S, g, c) == out
    assert out.is_normal()


def test_trivialize_blocks_round_trip(tmp_path, capsys):
    import random

    from sqfree.cohom import normalize, random_gauge

    S, F = mu(2), gf(4)
    rng = random.Random(7)
    c, _ = normalize(S, act(S, random_gauge(S, F, rng), TwoCocycle.trivial(S, F)))
    bundle = {
        "semigroup": jsonio.encode_semigroup(S),
        "coefficients": jsonio.encode_coefficients(F),
        "cocycle": jsonio.encode_cocycle(c),
    }
    code, report, _ = invoke(capsys, ["trivialize-blocks", write(tmp_path, "b.json", bundle)])
    assert code == 0
    g = jsonio.decode_gauge(S, F, report["witness"])
    out = jsonio.decode_cocycle(S, F, report["cocycle"])
    assert act(S, g, c) == out
    # the one block covers everything here, so trivial means trivial globally
    assert out == TwoCocycle.trivial(S, F)


def test_cohomologous_positive_emits_checkable_witness(tmp_path, capsys):
    bundle = frob_bundle()
    other = write(tmp_path, "other.json", {"alpha": {}, "xi": {}})
    code, report, _ = invoke(capsys, ["cohomologous", write(tmp_path, "b.json", bundle), "--other", other])
    assert code == 0 and report["cohomologous"]
    S, F = t2(), gf(4)
    c1 = jsonio.decode_cocycle(S, F, bundle["cocycle"])
    g = jsonio.decode_gauge(S, F, report["witness"])
    assert act(S, g, c1) == TwoCocycle.trivial(S, F)


def test_cohomologous_negative(tmp_path, capsys):
    S = two_cycle()
    bundle = {
        "semigroup": jsonio.encode_semigroup(S),
        "coefficients": {"backend": "finite_field", "p": 2, "k": 2, "modulus": [1, 1, 1]},
        "cocycle": {"alpha": {"1,2": {"frobenius": 1}}},
    }
    other = write(tmp_path, "other.json", {"alpha": {}, "xi": {}})
    code, report, _ = invoke(capsys, ["cohomologous", write(tmp_path, "b.json", bundle), "--other", other])
    assert code == 1
    assert report == {
        "bounds": {"aut_s_max_n": 8, "max_search": 10**7, "max_units": 2**20},
        "cohomologous": False,
    }


def test_cohomologous_needs_the_relabel(tmp_path, capsys):
    """Twists on different components of a doubled two-cycle: only phi helps."""
    S_json = {
        "n": 4,
        "support": [[1, 1], [2, 2], [3, 3], [4, 4], [1, 2], [2, 1], [3, 4], [4, 3]],
        "comp": [],
    }
    bundle = {
        "semigroup": S_json,
        "coefficients": {"backend": "finite_field", "p": 2, "k": 2, "modulus": [1, 1, 1]},
        "cocycle": {"alpha": {"1,2": {"frobenius": 1}}},
    }
    other = write(tmp_path, "other.json", {"alpha": {"3,4": {"frobenius": 1}}, "xi": {}})
    b = write(tmp_path, "b.json", bundle)
    code, report, _ = invoke(capsys, ["cohomologous", b, "--other", other])
    assert code == 1 and not report["cohomologous"]
    code, report, _ = invoke(capsys, ["cohomologous", b, "--other", other, "--phi"])
    assert code == 0 and report["cohomologous"]
    assert report["phi"][0] in (3, 4)
    S = jsonio.decode_semigroup(S_json)
    F = gf(4)
    from sqfree.cohom import relabel
    from sqfree.sgrp import SemigroupAutomorphism

    c1 = jsonio.decode_cocycle(S, F, bundle["cocycle"])
    c2 = jsonio.decode_cocycle(S, F, {"alpha": {"3,4": {"frobenius": 1}}, "xi": {}})
    phi = SemigroupAutomorphism(tuple(report["phi"]))
    g = jsonio.decode_gauge(S, F, report["witness"])
    assert act(S, g, relabel(S, phi, c1)) == c2


def doubled_two_cycle_job(tmp_path):
    """test_cohomologous_needs_the_relabel's bundle and --other paths."""
    bundle = {
        "semigroup": {
            "n": 4,
            "support": [[1, 1], [2, 2], [3, 3], [4, 4], [1, 2], [2, 1], [3, 4], [4, 3]],
            "comp": [],
        },
        "coefficients": {"backend": "finite_field", "p": 2, "k": 2, "modulus": [1, 1, 1]},
        "cocycle": {"alpha": {"1,2": {"frobenius": 1}}},
    }
    other = {"alpha": {"3,4": {"frobenius": 1}}, "xi": {}}
    return write(tmp_path, "b.json", bundle), write(tmp_path, "other.json", other)


def test_each_command_verifies_each_cocycle_once(tmp_path, capsys, monkeypatch):
    # a cocycle records the semigroup it passed verify_two_cocycle against,
    # so the library does not verify again what the command has checked
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return verify_two_cocycle(*args)

    monkeypatch.setattr(cohom, "verify_two_cocycle", counted)
    monkeypatch.setattr(cli, "verify_two_cocycle", counted)
    b, other = doubled_two_cycle_job(tmp_path)
    frob = write(tmp_path, "frob.json", frob_bundle())
    # xi(e1, e1) = xi(e1, s12) = g: valid, not normal, so the ring holds a new, normal cocycle
    scaled = write(tmp_path, "scaled.json", {**frob_bundle(), "cocycle": {"xi": {"1,1,1": [0, 1], "1,1,2": [0, 1]}}})
    for argv, code, want in (
        (["cohomologous", b, "--other", other], 1, 2),
        (["cohomologous", b, "--other", other, "--phi"], 0, 2),
        (["stab", b], 0, 1),
        (["h1", b], 0, 1),
        (["validate", frob], 0, 1),
        (["verify-cocycle", frob], 0, 1),
        (["normalize", frob], 0, 1),
        (["trivialize-blocks", frob], 0, 1),
        (["d-algebra", frob], 0, 1),
        (["stab", frob], 0, 1),
        (["h1", frob], 0, 1),
        (["out-r", frob], 0, 1),
        (["verify-ses", frob], 0, 1),
        (["ring-check", frob], 0, 0),
        (["normalize", scaled], 0, 1),
        (["out-r", scaled], 0, 2),
        (["verify-ses", scaled], 0, 2),
    ):
        calls[0] = 0
        assert invoke(capsys, argv)[0] == code, argv
        assert calls[0] == want, argv


def test_double_fault_refused_for_the_backend_first(tmp_path, capsys):
    # 9 isolated idempotents over the quaternions: Aut S is above the
    # automorphism bound and the searches need a finite field. Every search
    # refuses the backend before it lists Aut S, in the CLI as in the library
    n = 9
    S = {"n": n, "support": [[i, i] for i in range(1, n + 1)], "comp": []}
    b = write(tmp_path, "b.json", {"semigroup": S, "coefficients": {"backend": "quaternion"}})
    other = write(tmp_path, "other.json", {"alpha": {}, "xi": {}})
    refused = {"error": "equivalence search needs a finite field", "kind": "InfiniteBackend"}
    for argv in (["stab", b], ["cohomologous", b, "--other", other], ["cohomologous", b, "--other", other, "--phi"]):
        code, report, _ = invoke(capsys, argv)
        assert (code, report) == (2, refused), argv
    semigroup = jsonio.decode_semigroup(S)
    c = TwoCocycle.trivial(semigroup, jsonio.decode_coefficients({"backend": "quaternion"}))
    with pytest.raises(InfiniteBackend, match="^equivalence search needs a finite field$"):
        cohom.stabilizer(semigroup, c)
    for search in (cohom.cohomologous, cohom.cohomologous_with_relabel):
        with pytest.raises(InfiniteBackend, match="^equivalence search needs a finite field$"):
            search(semigroup, c, c)


def test_aut_r_commands_refuse_the_quaternions_by_their_first_search(tmp_path, capsys):
    # verify-ses solves H^1 before it builds a witness map, so it refuses the
    # backend in the fixed-point searches' text; out-r starts at the Aut R search
    bundle = {"semigroup": {"n": 2, "support": [[1, 1], [2, 2], [1, 2]], "comp": []},
              "coefficients": {"backend": "quaternion"}}
    b = write(tmp_path, "b.json", bundle)
    for command, error in (("verify-ses", "fixed-point enumeration needs a finite field"),
                           ("out-r", "Aut R search needs a finite field")):
        code, report, _ = invoke(capsys, [command, b])
        assert (code, report) == (2, {"error": error, "kind": "InfiniteBackend"}), command


def test_cohomologous_keeps_its_refusals(tmp_path, capsys):
    # the searches refuse an infinite backend, in the text of cohomologous,
    # after an invalid cocycle and before any search
    bundle = {"semigroup": {"n": 2, "support": [[1, 1], [2, 2], [1, 2]], "comp": []},
              "coefficients": {"backend": "quaternion"}}
    b, other = write(tmp_path, "b.json", bundle), write(tmp_path, "other.json", {"alpha": {}, "xi": {}})
    for extra in ([], ["--phi"]):
        code, report, _ = invoke(capsys, ["cohomologous", b, "--other", other] + extra)
        assert (code, report) == (2, {"error": "equivalence search needs a finite field", "kind": "InfiniteBackend"})
    bad = write(tmp_path, "bad.json", {"alpha": {"1,1": {"conj": ["0/1", "1/1", "0/1", "0/1"]}}, "xi": {}})
    for extra in ([], ["--phi"]):
        code, report, _ = invoke(capsys, ["cohomologous", b, "--other", bad] + extra)
        assert (code, report["where"]) == (2, "other")
        assert report["error"] == "other: second cocycle fails verification (two_chain)"
    with pytest.raises(MixedBackends, match="cocycles over different backends"):
        cohom.cohomologous(t2(), TwoCocycle.trivial(t2(), gf(4)), TwoCocycle.trivial(t2(), gf(8)))


def test_aut_s(tmp_path, capsys):
    bundle = {
        "semigroup": jsonio.encode_semigroup(mu(2)),
        "coefficients": {"backend": "finite_field", "p": 2, "k": 1},
    }
    code, report, _ = invoke(capsys, ["aut-s", write(tmp_path, "b.json", bundle)])
    assert code == 0
    assert report["order"] == 2
    assert sorted(report["automorphisms"]) == [[1, 2], [2, 1]]


def test_stab(tmp_path, capsys):
    code, report, _ = invoke(capsys, ["stab", write(tmp_path, "b.json", frob_bundle())])
    assert code == 0
    assert report["order"] == 1 and report["automorphisms"] == [[1, 2]]


def test_ring_check_counts_and_corruption(tmp_path, capsys):
    code, report, _ = invoke(capsys, ["ring-check", write(tmp_path, "b.json", t2_bundle())])
    assert code == 0
    assert report["associativity"]["ok"]
    assert report["idempotent_count"] == 6
    assert report["unit_count"] == 2
    S = a3()
    bad = {
        "semigroup": jsonio.encode_semigroup(S),
        "coefficients": {"backend": "finite_field", "p": 2, "k": 2, "modulus": [1, 1, 1]},
        "cocycle": {"xi": {"1,1,2": [0, 1]}},
    }
    code, report, _ = invoke(capsys, ["ring-check", write(tmp_path, "bad.json", bad)])
    assert code == 1
    assert not report["associativity"]["ok"]
    assert report["associativity"]["violations"]


def test_ring_check_respects_bounds(tmp_path, capsys):
    code, report, _ = invoke(
        capsys,
        ["ring-check", write(tmp_path, "b.json", t2_bundle()), "--bounds.max-units", "4"],
    )
    assert code == 0
    assert report["idempotent_count"] is None and report["unit_count"] is None


def test_d_algebra_witness_trivializes_alphas(tmp_path, capsys):
    code, report, _ = invoke(capsys, ["d-algebra", write(tmp_path, "b.json", frob_bundle())])
    assert code == 0 and report["is_d_algebra"]
    S, F = t2(), gf(4)
    c = jsonio.decode_cocycle(S, F, frob_bundle()["cocycle"])
    g = jsonio.decode_gauge(S, F, report["witness"])
    out = act(S, g, c)
    assert all(a.is_identity() for a in out.alpha.values())


def test_h1_representatives_are_one_cocycles(tmp_path, capsys):
    bundle = {
        "semigroup": jsonio.encode_semigroup(t2()),
        "coefficients": {"backend": "finite_field", "p": 2, "k": 2, "modulus": [1, 1, 1]},
    }
    code, report, _ = invoke(capsys, ["h1", write(tmp_path, "b.json", bundle)])
    assert code == 0
    assert (report["order"], report["z1_order"], report["b1_order"]) == (2, 6, 3)
    S, F = t2(), gf(4)
    base = TwoCocycle.trivial(S, F)
    for enc in report["representatives"]:
        g = jsonio.decode_gauge(S, F, enc)
        assert verify_one_cocycle(S, base, g)


def test_out_r_images_rebuild_automorphisms(tmp_path, capsys):
    code, report, _ = invoke(capsys, ["out-r", write(tmp_path, "b.json", frob_bundle())])
    assert code == 0 and report["order"] == 2
    S, F = t2(), gf(4)
    c = jsonio.decode_cocycle(S, F, frob_bundle()["cocycle"])
    R = TwistedRing(S, F, c)
    powers = {b: t for t, b in enumerate(F.power_basis())}
    for enc in report["representatives"]:
        table = {
            key: jsonio.decode_ring_element(R, val, key) for key, val in enc["images"].items()
        }

        def image_of(x):
            (p, d) = next(iter(x.coeffs.items()))
            return table[f"{p[0]},{p[1]}:{powers[d]}"]

        f = ring_aut_from_images(R, image_of)
        assert check_ring_automorphism(R, f).ok


def test_verify_ses_report(tmp_path, capsys):
    code, report, _ = invoke(capsys, ["verify-ses", write(tmp_path, "b.json", t2_bundle())])
    assert code == 0
    assert report["exact"] and report["split_ok"]
    assert (report["h1_order"], report["stab_order"], report["out_order"]) == (1, 1, 1)


def test_boundary_command(tmp_path, capsys):
    bundle = {
        "semigroup": {"n": 2, "support": [[1, 1], [2, 2], [1, 2]], "comp": []},
        "coefficients": {"backend": "finite_field", "p": 2, "k": 2, "modulus": [1, 1, 1]},
        "cochain": {"m": 0, "cochain": {"1": [0, 1], "2": [1, 0]}},
    }
    code, report, _ = invoke(capsys, ["boundary", write(tmp_path, "b.json", bundle)])
    assert code == 0
    assert report["m"] == 1
    # (d phi)(s_ij) = phi(j) phi(i)^(-1); g^(-1) = g^2 = [1,1] over this modulus
    assert report["cochain"]["1,2"] == [1, 1]
    code, report, _ = invoke(capsys, ["boundary", write(tmp_path, "c.json", t2_bundle())])
    assert code == 2


def test_byte_identical_reports(tmp_path, capsys):
    path = write(tmp_path, "b.json", frob_bundle())
    outs = set()
    for _ in range(2):
        code, _, raw = invoke(capsys, ["h1", path])
        assert code == 0
        outs.add(raw)
    assert len(outs) == 1


def test_bound_exceeded_exit(tmp_path, capsys):
    code, report, _ = invoke(
        capsys, ["h1", write(tmp_path, "b.json", frob_bundle()), "--bounds.max-search", "1"]
    )
    assert code == 3
    assert report["kind"] == "SearchBoundExceeded"


def test_out_r_refuses_past_the_aut_s_bound(tmp_path, capsys):
    # nine isolated idempotents over GF(2): 512 elements, but 9! relabelings
    bundle = {
        "semigroup": {"n": 9, "support": [[i, i] for i in range(1, 10)], "comp": []},
        "coefficients": {"backend": "finite_field", "p": 2, "k": 1},
    }
    code, report, _ = invoke(capsys, ["out-r", write(tmp_path, "b.json", bundle)])
    assert code == 3
    assert report == {"error": "n=9 above automorphism bound 8", "kind": "SearchBoundExceeded"}


def test_invalid_cocycle_rejected_by_transforms(tmp_path, capsys):
    bundle = t2_bundle()
    bundle["semigroup"] = {"n": 2, "support": [[1, 2], [1, 1], [2, 2]], "comp": []}
    bundle["cocycle"] = {"alpha": {}, "xi": {}}
    code, report, _ = invoke(capsys, ["normalize", write(tmp_path, "b.json", bundle)])
    assert code == 0  # trivial cocycle is valid; sanity check the happy path
    S = a3()
    bad = {
        "semigroup": jsonio.encode_semigroup(S),
        "coefficients": {"backend": "finite_field", "p": 2, "k": 2, "modulus": [1, 1, 1]},
        "cocycle": {"xi": {"1,1,2": [0, 1]}},
    }
    code, report, _ = invoke(capsys, ["normalize", write(tmp_path, "bad.json", bad)])
    assert code == 2
    assert report["where"] == "bundle.cocycle"


def test_quaternion_normalize_matches_hand_inverse(tmp_path, capsys):
    bundle = {
        "semigroup": {"n": 1, "support": [[1, 1]], "comp": []},
        "coefficients": {"backend": "quaternion"},
        "cocycle": {
            "alpha": {"1,1": {"conj": ["1/1", "1/1", "0/1", "0/1"]}},
            "xi": {"1,1,1": ["1/1", "1/1", "0/1", "0/1"]},
        },
    }
    path = write(tmp_path, "b.json", bundle)
    code, report, _ = invoke(capsys, ["normalize", path])
    assert code == 0
    assert report["cocycle"] == {"alpha": {}, "xi": {}}
    # eta(e) = (1+i)^(-1) = (1-i)/2
    assert report["witness"]["eta"]["1,1"] == ["1/2", "-1/2", "0/1", "0/1"]
    code, report, _ = invoke(capsys, ["d-algebra", path])
    assert code == 2 and report["kind"] == "InfiniteBackend"


def test_one_parser_per_process_with_each_docstring_as_help():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    text = " ".join(parser.format_help().split())
    for name, fn in cli.COMMANDS.items():
        assert f"{name} {' '.join(fn.__doc__.split())}" in text


# Every variant of every CLI job the benchmark freezes, replayed through the
# benchmark's own bundle writer, runner and digest, in a fresh interpreter
# that writes no bytecode, so nothing under perfbench/ changes.
REPLAY_SCRIPT = """
import json
import sys

import run
import workloads

sq = run.load_library()
table = run.load_oracles()["cli"]
replayed, mismatched = 0, []
for key in sorted(table):
    for variant, want in enumerate(table[key]):
        code, out = workloads.run_cli(sq, workloads.write_cli_job(sq, key, variant, sys.argv[1]))
        replayed += 1
        if [code, workloads.digest(out)] != want:
            mismatched.append(f"{key} v{variant}")
print(json.dumps({"replayed": replayed, "mismatched": mismatched}))
"""


def test_every_frozen_cli_digest_replays(tmp_path):
    proc = run_bench("-c", REPLAY_SCRIPT, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"replayed": 352, "mismatched": []}
