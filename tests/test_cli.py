"""Command line behavior: output goldens and exit codes."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pfaffkit import matrixio, uea, verify
from pfaffkit.cli import main
from pfaffkit.pfaffian import AlternatingMatrix, _pf, pfaffian_definitional

COLORED_22 = """\
2 2 2
a
a[1,1] a[1,2]
a[2,1] a[2,2]
b
b[1,2]
c
c[1,2]
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def colored_file(tmp_path):
    f = tmp_path / "x22.txt"
    f.write_text(COLORED_22)
    return str(f)


# --- pfaffian ----------------------------------------------------------------


def test_pfaffian_colored(colored_file, capsys):
    code, out, _ = run(capsys, "pfaffian", colored_file)
    assert code == 0
    assert out.strip() == "a[1,1]*a[2,2] - a[2,1]*a[1,2] + c[1,2]*b[1,2]"


def test_pfaffian_full_rational(tmp_path, capsys):
    f = tmp_path / "k4.txt"
    f.write_text("full 4\n0 1/2 3 -1\n-1/2 0 2 0\n-3 -2 0 5\n1 0 -5 0\n")
    code, out, _ = run(capsys, "pfaffian", "--ring", "rational", str(f))
    assert code == 0
    assert out.strip() == "1/2"


@pytest.mark.parametrize("text,expected", [
    # integral and non-integral entries in every literal form; an integral
    # Pfaffian prints as an int, a non-integral one as p/q
    ("full 4\n0 1/2 3 -1\n-1/2 0 5/2 1.5\n-3 -5/2 0 4\n1 -1.5 -4 0\n", "-5\n"),
    ("full 6\n0 1/2 3 -1 1e1 6/2\n-1/2 0 2 +3 0 -7\n-3 -2 0 5 1.5 1_0\n"
     "1 -3 -5 0 -0 2\n-10 0 -1.5 0 0 -4/3\n-3 7 -10 -2 4/3 0\n", "3701/6\n"),
    ("3 2 4\na\n1 -2/3 3 0.5\n2 1e1 -1 6/2\nb\n+3\nc\n1 -1 2\n1_0 -0\n5/2\n", "179/3\n"),
])
def test_pfaffian_rational_mixed_entries_output(tmp_path, capsys, text, expected):
    f = tmp_path / "mixed.txt"
    f.write_text(text)
    code, out, err = run(capsys, "pfaffian", "--ring", "rational", str(f))
    assert (code, out, err) == (0, expected, "")


def test_pfaffian_rational_fraction_file_matches_the_recursion(tmp_path, capsys):
    # a seeded 8x8 file of non-integral entries: the CLI condenses the
    # cleared matrix, and prints what the first-row recursion gives
    rng = random.Random(7)
    A = AlternatingMatrix.from_upper(8, lambda i, j: Fraction(rng.randint(-9, 9), rng.randint(2, 5)))
    f = tmp_path / "fractions.txt"
    f.write_text(matrixio.dumps(A))
    loaded = matrixio.load_path(str(f), ring="rational")
    assert any(type(x) is Fraction for row in loaded.rows for x in row)
    expected = _pf(loaded, (1 << 8) - 1, {})
    code, out, err = run(capsys, "pfaffian", "--ring", "rational", str(f))
    assert (code, out, err) == (0, f"{expected}\n", "")


FRACTION_POLY_FILES = {
    # Poly entries with Fraction coefficients: the cofactor sums run on the
    # matrix times its common denominator and divide each result back
    "full6": """\
full 6
0 1/2*x 3/4 -2/3*y+1 1/5*x*y 0
-1/2*x 0 7/6*z 1/3 -z 5/2
-3/4 -7/6*z 0 x-1/7 2/9*y 4/11
2/3*y-1 -1/3 -x+1/7 0 3/8*x*z -1
-1/5*x*y z -2/9*y -3/8*x*z 0 1/13*y
0 -5/2 -4/11 1 -1/13*y 0
""",
    "colored": """\
4 3 5
a
1/2*a[1,1] 0 3/4 a[1,4] -1/3*a[1,5]
2/5 a[2,2]+1/6 0 -7/9 a[2,5]
a[3,1] -5/4 1/7*a[3,3] 1/2 0
b
1/3*b[1,2] -2/5
3/8*b[2,3]
c
c[1,2] 0 1/6 1/2*c[1,5]
-3/7 c[2,4] 1/11
c[3,4]+1/2 0
5/3*c[4,5]
""",
}


@pytest.mark.parametrize("name", sorted(FRACTION_POLY_FILES))
def test_pfaffian_of_fraction_coefficient_polys_prints_the_matching_sum(tmp_path, capsys, name):
    f = tmp_path / f"{name}.txt"
    f.write_text(FRACTION_POLY_FILES[name])
    loaded = matrixio.load_path(str(f), ring="poly")
    A = loaded if isinstance(loaded, AlternatingMatrix) else loaded.to_alternating()
    assert any(type(c) is Fraction for row in A.rows for x in row for c in getattr(x, "terms", {}).values())
    code, out, err = run(capsys, "pfaffian", str(f))
    assert (code, out, err) == (0, f"{pfaffian_definitional(A)}\n", "")


def test_pfaffian_odd_size_is_shape_violation(tmp_path, capsys):
    f = tmp_path / "odd.txt"
    f.write_text("full 3\n0 1 2\n-1 0 3\n-2 -3 0\n")
    code, _, err = run(capsys, "pfaffian", "--ring", "rational", str(f))
    assert code == 3
    assert "shape" in err


def test_pfaffian_not_alternating_is_shape_violation(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("full 2\n0 1\n1 0\n")
    code, out, err = run(capsys, "pfaffian", "--ring", "rational", str(f))
    assert (code, out) == (3, "")
    assert err == "pfaffkit: shape violation: entry (2,1) is not the negative of (1,2)\n"


def test_pfaffian_integer_past_the_digit_limit_is_parse_error(tmp_path, capsys):
    digits = "9" * 5000
    f = tmp_path / "long.txt"
    f.write_text(f"full 2\n0 {digits}\n-{digits} 0\n")
    code, out, err = run(capsys, "pfaffian", "--ring", "rational", str(f))
    assert (code, out) == (2, "")
    assert err.startswith(f"pfaffkit: parse error: line 2, column 3: bad entry '{digits}'")
    assert len(err.strip().splitlines()) == 1


def test_pfaffian_int_and_fraction_files_print_the_same(tmp_path, capsys):
    ints, fractions = tmp_path / "ints.txt", tmp_path / "fractions.txt"
    ints.write_text("full 4\n0 1 -2 3\n-1 0 4 -5\n2 -4 0 6\n-3 5 -6 0\n")
    fractions.write_text("full 4\n0 2/2 -4/2 3.0\n-1 0 8/2 -5\n2 -4/1 0 6\n-3 5 -6 0\n")
    outs = [run(capsys, "pfaffian", "--ring", "rational", str(f)) for f in (ints, fractions)]
    assert outs[0] == outs[1] == (0, "8\n", "")


def test_pfaffian_malformed_is_parse_error(tmp_path, capsys):
    f = tmp_path / "trunc.txt"
    f.write_text("full 4\n0 1\n")
    code, _, err = run(capsys, "pfaffian", str(f))
    assert code == 2
    assert "parse error" in err


def test_pfaffian_huge_header_is_parse_error(tmp_path, capsys):
    f = tmp_path / "huge.txt"
    f.write_text("full 1000000000000\n0 1\n")
    code, out, err = run(capsys, "pfaffian", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("pfaffkit: parse error: line 2, column 1: expected 1000000000000 entries for row 1")


def test_pfaffian_exponent_over_the_bound_is_parse_error(tmp_path, capsys):
    f = tmp_path / "huge.txt"
    f.write_text("full 2\n0 x^4097*y\n-x^4097*y 0\n")
    code, out, err = run(capsys, "pfaffian", "--ring", "poly", str(f))
    assert (code, out) == (2, "")
    assert "parse error" in err and "exceeds the bound 4096" in err


def test_pfaffian_exponent_over_the_bound_in_the_result_is_refused(tmp_path, capsys):
    # every entry parses, but Pf = a12*a34 = x^8192 would not parse back
    f = tmp_path / "high.txt"
    f.write_text("full 4\n0 x^4096 0 0\n-x^4096 0 0 0\n0 0 0 x^4096\n0 0 -x^4096 0\n")
    code, out, err = run(capsys, "pfaffian", "--ring", "poly", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("pfaffkit: ") and "exceeds the bound 4096" in err
    assert len(err.strip().splitlines()) == 1


def test_pfaffian_missing_file(capsys):
    code, _, err = run(capsys, "pfaffian", "/nonexistent/m.txt")
    assert code == 2


def test_pfaffian_directory_is_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "pfaffian", str(tmp_path))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "directory" in err


# --- verify --------------------------------------------------------------------


def test_verify_suite_text(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "central", "--n", "1")
    assert code == 0
    assert "PASS central:commutant:n1" in out
    assert out.strip().splitlines()[-1].startswith("suite central: PASS (2 checks")


def test_verify_central_forced_n4(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "central", "--n", "4", "--force")
    assert code == 0
    assert "PASS central:commutant:n4" in out


def test_verify_forms_forced_n4(capsys):
    # the benchmark's rank: falling Xi products from the tau^k Xi^j memo
    code, out, _ = run(capsys, "verify", "--suite", "forms", "--n", "4", "--force")
    assert code == 0
    assert "PASS forms:xi-power:n4" in out
    assert "PASS forms:trinomial:uea-n4" in out


def test_verify_msf_forced_pq66(capsys):
    # the commutative rank frontier: fused cofactor sums in the block sum
    code, out, _ = run(capsys, "verify", "--suite", "msf", "--pq", "6", "6", "--force")
    assert code == 0
    assert "PASS msf:identity:p6q6" in out


def test_verify_ncmsf_forced_n5(capsys):
    # the rank-5 identity through the memoised shifted determinants; the
    # (2n)!-term oracle is skipped above n = 4
    code, out, _ = run(capsys, "verify", "--suite", "ncmsf", "--n", "5", "--force")
    assert code == 0
    assert "PASS ncmsf:identity:n5" in out
    assert "SKIP ncmsf:restricted-vs-unrestricted:n5" in out


def test_verify_ncmsf_n5_skips_the_oracle(capsys, monkeypatch):
    from pfaffkit import uea

    def oracle(X):
        raise AssertionError("the (2n)!-term oracle must not run at n = 5")

    monkeypatch.setattr(uea, "nc_pfaffian_unrestricted", oracle)
    code, out, _ = run(capsys, "verify", "--suite", "ncmsf", "--n", "5", "--force", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "pass"
    by_id = {c["id"]: c for c in rep["checks"]}
    skip = by_id["ncmsf:restricted-vs-unrestricted:n5"]
    assert skip["status"] == "skip" and skip["residual"]
    assert set(skip) == {"id", "status", "residual", "millis"}
    assert all(c["status"] == "pass" for i, c in by_id.items() if i != skip["id"])
    code, out, _ = run(capsys, "verify", "--suite", "ncmsf", "--n", "5", "--force")
    assert code == 0
    assert "SKIP ncmsf:restricted-vs-unrestricted:n5" in out


def test_verify_suite_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "ncmsf", "--n", "2", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == 1
    assert rep["suite"] == "ncmsf"
    assert rep["status"] == "pass"
    ids = [c["id"] for c in rep["checks"]]
    assert ids == sorted(ids)
    for c in rep["checks"]:
        assert set(c) == {"id", "status", "residual", "millis"}


def test_verify_msf_default_suite(capsys):
    # the whole default msf suite: the identity and route agreement at
    # p + q <= 6, the co-Pfaffian expansion, the complementary-minor
    # relation and equivariance under Cayley isometries
    code, out, _ = run(capsys, "verify", "--suite", "msf", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["suite"] == "msf" and rep["status"] == "pass"
    assert all(c["status"] == "pass" for c in rep["checks"])
    colorings = [f"p{p}q{q}" for p, q in ((1, 1), (1, 3), (1, 5), (2, 2), (2, 4), (3, 1), (3, 3), (4, 2), (5, 1))]
    expected = {f"msf:{kind}:{pq}" for kind in ("identity", "route-agreement") for pq in colorings}
    expected |= {f"msf:cofactor-expansion:{tag}" for tag in ("random-8x8", "symbolic-2", "symbolic-4", "symbolic-6")}
    expected |= {"msf:minor-relation:random"} | {f"msf:equivariance:{tag}" for tag in ("J4", "J6", "S-generic")}
    ids = [c["id"] for c in rep["checks"]]
    assert len(ids) == len(set(ids)) and set(ids) == expected


UEA_FORM_KINDS = ("structure:uea-", "sl2:", "xi-power:", "eta:", "theta-powers:uea-", "trinomial:uea-", "top-route:uea-")


def _default_ids(capsys, suite):
    code, out, _ = run(capsys, "verify", "--suite", suite, "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "pass" and all(c["status"] == "pass" for c in rep["checks"])
    ids = [c["id"] for c in rep["checks"]]
    assert len(ids) == len(set(ids))
    return set(ids)


def test_verify_rank_suites_default_ids(capsys, z_builds):
    # ranks 1-3 in the enveloping algebra, 1-4 commutative; each suite builds
    # each rank's z once per route it reads: ncmsf both, the others the formula
    ranks = [1, 2, 3]
    assert _default_ids(capsys, "ncmsf") == (
        {f"ncmsf:{kind}:n{k}" for kind in ("identity", "restricted-vs-unrestricted", "symbol") for k in ranks}
        | {"ncmsf:intro:commutative-print", "ncmsf:intro:uea-basis"})
    assert z_builds == {"nc_pfaffian": ranks, "nc_minor_summation_rhs": ranks}
    assert _default_ids(capsys, "central") == (
        {f"central:{kind}:n{k}" for kind in ("commutant", "eigenvalue") for k in ranks}
        | {"central:eigenvalue:spot-n2"})
    assert z_builds == {"nc_pfaffian": ranks, "nc_minor_summation_rhs": ranks * 2}
    comm_kinds = ("structure:comm-", "theta-powers:comm-", "trinomial:comm-")
    colorings = ((1, 1), (1, 3), (1, 5), (2, 2), (2, 4), (3, 1), (3, 3), (4, 2), (5, 1))
    assert _default_ids(capsys, "forms") == (
        {f"forms:{kind}n{k}" for kind in UEA_FORM_KINDS for k in ranks}
        | {f"forms:{kind}n{k}" for kind in comm_kinds for k in (1, 2, 3, 4)}
        | {f"forms:top-route:comm-p{p}q{q}" for p, q in colorings})
    assert z_builds == {"nc_pfaffian": ranks, "nc_minor_summation_rhs": ranks * 3}


def test_verify_central_forced_n5(capsys):
    # z at rank 5 from the formula, centrality from weight 0 and the raising generators
    code, out, _ = run(capsys, "verify", "--suite", "central", "--n", "5", "--force")
    assert code == 0
    assert "PASS central:commutant:n5" in out and "PASS central:eigenvalue:n5" in out


def test_verify_forms_n4_reports_the_skipped_uea_checks(capsys):
    # without --force the rank-4 uea-mode checks are not run, and each says so
    code, out, _ = run(capsys, "verify", "--suite", "forms", "--n", "4", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "pass"
    skipped = {c["id"]: c["residual"] for c in rep["checks"] if c["status"] == "skip"}
    assert set(skipped) == {f"forms:{kind}n4" for kind in UEA_FORM_KINDS}
    assert all("--force" in why for why in skipped.values())
    assert all(c["status"] == "pass" for c in rep["checks"] if c["id"] not in skipped)
    code, out, _ = run(capsys, "verify", "--suite", "forms", "--n", "4")
    assert code == 0
    assert "SKIP forms:trinomial:uea-n4" in out
    assert out.strip().splitlines()[-1].startswith("suite forms: PASS (17 checks, 7 skipped")


def test_verify_single_coloring(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "msf", "--pq", "2", "2")
    assert code == 0
    assert "msf:identity:p2q2" in out


@pytest.mark.parametrize("argv", [
    ("forms", "--mode", "commutative", "--pq", "1", "2"),
    ("forms", "--mode", "commutative", "--pq", "0", "2"),
    ("forms", "--mode", "commutative", "--pq", "-1", "3"),
    ("verify", "--suite", "msf", "--pq", "1", "2"),
], ids=["forms-odd", "forms-zero", "forms-negative", "verify-odd"])
def test_bad_coloring_is_usage_error(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "needs p, q >= 1 with p + q even" in err


def test_verify_bound_exceeded_suggests_force(capsys):
    code, _, err = run(capsys, "verify", "--suite", "ncmsf", "--n", "4")
    assert code == 2
    assert "--force" in err


@pytest.mark.parametrize("suite", ["ncmsf", "central", "forms"])
def test_verify_rank_below_one_is_usage_error(suite, capsys):
    for n in ("0", "-2"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--n", n)
        assert code == 2
        assert "--n must be at least 1" in err
        assert out == ""


def test_verify_msf_rejects_n(capsys):
    code, out, err = run(capsys, "verify", "--suite", "msf", "--n", "2")
    assert code == 2
    assert "--n does not apply" in err
    assert out == ""


@pytest.mark.parametrize("suite", ["ncmsf", "central", "forms"])
def test_verify_rank_suites_reject_pq(suite, capsys):
    code, out, err = run(capsys, "verify", "--suite", suite, "--pq", "3", "5")
    assert code == 2
    assert "--pq does not apply" in err
    assert out == ""


def test_verify_all_takes_n_and_pq(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--n", "1", "--pq", "1", "1")
    assert code == 0
    assert "msf:identity:p1q1" in out and "ncmsf:identity:n1" in out


def test_verify_bad_suite_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 2


def test_verify_seed_reaches_every_randomized_battery(capsys, monkeypatch):
    # --seed, or 0 without it, seeds each battery's own rng
    seen = []
    rng = verify._rng
    monkeypatch.setattr(verify, "_rng", lambda seed, name: seen.append((seed, name)) or rng(seed, name))
    batteries = ("cofactor", "minor-relation", "equivariance:J4", "equivariance:J6", "equivariance:S")
    for argv, seed in ((("--seed", "5"), 5), ((), 0)):
        seen.clear()
        code, _, _ = run(capsys, "verify", "--suite", "msf", *argv)
        assert code == 0
        assert sorted(seen) == sorted((seed, name) for name in batteries)


# --- eigenvalue ------------------------------------------------------------------


def test_eigenvalue_numeric_both(capsys):
    code, out, _ = run(capsys, "eigenvalue", "--n", "2", "--lambda", "3,1", "--via", "both")
    assert code == 0
    assert out.strip() == "4 = 4"


def test_eigenvalue_symbolic_default(capsys):
    code, out, _ = run(capsys, "eigenvalue", "--n", "1", "--symbolic")
    assert code == 0
    assert out.strip() == "lam[1]"


def test_eigenvalue_symbolic_product(capsys):
    code, out, _ = run(capsys, "eigenvalue", "--n", "3", "--symbolic", "--via", "product")
    assert code == 0
    assert out.strip() == "(lam[1]+2)*(lam[2]+1)*lam[3]"


def test_eigenvalue_symbolic_both(capsys):
    code, out, _ = run(capsys, "eigenvalue", "--n", "2", "--symbolic", "--via", "both")
    assert code == 0
    assert out.strip() == "lam[1]*lam[2] + lam[2] = (lam[1]+1)*lam[2]"


def test_eigenvalue_via_pfaffian(capsys):
    code, out, _ = run(capsys, "eigenvalue", "--n", "2", "--lambda", "3,1", "--via", "pfaffian")
    assert code == 0
    assert out.strip() == "4"


def test_eigenvalue_pfaffian_route_bound_suggests_force(capsys):
    for via in ("pfaffian", "both"):
        code, out, err = run(capsys, "eigenvalue", "--n", "4", "--symbolic", "--via", via)
        assert code == 2
        assert "--force" in err
        assert out == ""


def test_eigenvalue_forced_over_bound(capsys, monkeypatch):
    # z comes from the minor summation formula, never from the recursion
    def no_recursion(X):
        raise AssertionError("eigenvalue built z by the subset recursion")

    monkeypatch.setattr(uea, "nc_pfaffian", no_recursion)
    code, out, err = run(capsys, "eigenvalue", "--n", "4", "--symbolic", "--via", "both", "--force")
    assert (code, err) == (0, "")
    assert out == ("lam[1]*lam[2]*lam[3]*lam[4] + lam[1]*lam[2]*lam[4] + 2*lam[1]*lam[3]*lam[4]"
                   " + 3*lam[2]*lam[3]*lam[4] + 2*lam[1]*lam[4] + 3*lam[2]*lam[4] + 6*lam[3]*lam[4]"
                   " + 6*lam[4] = (lam[1]+3)*(lam[2]+2)*(lam[3]+1)*lam[4]\n")


def test_eigenvalue_weight_length_mismatch(capsys):
    code, _, err = run(capsys, "eigenvalue", "--n", "2", "--lambda", "3,1,5")
    assert code == 2


def test_eigenvalue_needs_exactly_one_weight_flag(capsys):
    code, _, err = run(capsys, "eigenvalue", "--n", "2")
    assert code == 2
    code, _, err = run(capsys, "eigenvalue", "--n", "2", "--lambda", "3,1", "--symbolic")
    assert code == 2


def test_eigenvalue_unparsable_weight(capsys):
    code, _, err = run(capsys, "eigenvalue", "--n", "1", "--lambda", "x")
    assert code == 2
    code, out, err = run(capsys, "eigenvalue", "--n", "2", "--lambda", "1/0,1")
    assert code == 2
    assert "cannot parse weight" in err and out == ""


@pytest.mark.parametrize("via", ["product", "pfaffian", "both"])
def test_eigenvalue_rank_below_one_is_usage_error(via, capsys):
    for n in ("0", "-2"):
        code, out, err = run(capsys, "eigenvalue", "--n", n, "--symbolic", "--via", via)
        assert code == 2
        assert "--n must be at least 1" in err
        assert out == ""


def test_generator_index_past_the_bound_is_usage_error(tmp_path, capsys):
    # a rank whose canonical X needs a generator index past uea.MAX_INDEX
    # exits 2 with one line naming the bound, before any product is formed;
    # the child may map 1 GiB, so a lost bound fails here instead of
    # building the rank-4096 matrix
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    n = str(uea.MAX_INDEX + 1)
    for argv in (("eigenvalue", "--n", n, "--symbolic", "--via", "pfaffian", "--force"),
                 ("forms", "--mode", "uea", "--n", n)):
        proc = subprocess.run([sys.executable, "-m", "pfaffkit", *argv], env=env, capture_output=True,
                              text=True, timeout=120, preexec_fn=limit)
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr[-500:]
        assert proc.stderr == f"pfaffkit: --n {n} exceeds the largest generator index {uea.MAX_INDEX}\n"
    # matrix text is read over the polynomials, where a[i,j] is a variable
    # name with no int key: it is read and printed in full at any index
    f = tmp_path / "big.txt"
    f.write_text(COLORED_22.replace("a[1,1]", f"a[{n},1]"))
    code, out, err = run(capsys, "pfaffian", str(f))
    assert (code, err) == (0, "")
    assert out == f"-a[2,1]*a[1,2] + a[{n},1]*a[2,2] + c[1,2]*b[1,2]\n"


@pytest.mark.parametrize("suite", ["central", "ncmsf", "forms", "all"])
def test_verify_past_the_generator_index_is_usage_error(suite, capsys, monkeypatch):
    # --force lifts the rank bound but not the index bound, and the suite
    # is refused before it builds anything
    monkeypatch.setattr(uea, "build_canonical_x", lambda n: pytest.fail(f"built rank {n}"))
    monkeypatch.setattr(verify, "msf_suite", lambda **kw: pytest.fail("ran the msf suite"))
    code, out, err = run(capsys, "verify", "--suite", suite, "--n", str(uea.MAX_INDEX + 1), "--force")
    assert (code, out) == (2, "")
    assert err == f"pfaffkit: --n {uea.MAX_INDEX + 1} exceeds the largest generator index {uea.MAX_INDEX}\n"


# --- forms -----------------------------------------------------------------------


def test_forms_uea(capsys):
    code, out, _ = run(capsys, "forms", "--mode", "uea", "--n", "1")
    assert code == 0
    assert "omega = 2*a[1,1] e[1]e[-1]" in out
    assert "tau = e[1]e[-1]" in out


@pytest.mark.parametrize("mode", ["uea", "commutative"])
def test_forms_rank_below_one_is_usage_error(mode, capsys):
    code, out, err = run(capsys, "forms", "--mode", mode, "--n", "0")
    assert code == 2
    assert "--n must be at least 1" in err
    assert out == ""


def test_forms_commutative_needs_size(capsys):
    code, _, err = run(capsys, "forms", "--mode", "commutative")
    assert code == 2


def test_forms_uea_rejects_pq(capsys):
    code, out, err = run(capsys, "forms", "--mode", "uea", "--n", "1", "--pq", "5", "7")
    assert code == 2
    assert err == "forms: --mode uea takes --n, not --pq\n"
    assert out == ""


def test_forms_commutative_rejects_n_with_pq(capsys):
    code, out, err = run(capsys, "forms", "--mode", "commutative", "--n", "9", "--pq", "1", "1")
    assert code == 2
    assert err == "forms: give --n or --pq, not both\n"
    assert out == ""


def test_unknown_command(capsys):
    code, _, _ = run(capsys, "bogus")
    assert code == 2


def test_no_command(capsys):
    assert main([]) == 2


def test_python_m_pfaffkit():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pfaffkit", "verify", "--suite", "ncmsf", "--n", "1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "suite ncmsf: PASS" in proc.stdout
