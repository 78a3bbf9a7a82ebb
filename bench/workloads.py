"""Seeded inputs and checked items of the three benchmark workloads.

`make_inputs(workload, seed)` is the set-up a user pays before checking:
random matrices, Cayley isometries, canonical generator matrices.  `items`
turns those inputs into a list of `(item_id, check)` pairs; each check
compares two independent routes by exact equality and returns
`(passed, witness)`, where `str(witness)` is a canonical rendering of the
computed value.  The checks reach pfaffkit through module attributes, so a
tracer that rewraps those attributes sees every call.
"""

from __future__ import annotations

import hashlib
import importlib
import random
from fractions import Fraction
from itertools import combinations

L = importlib.import_module("pfaffkit.linalg")
P = importlib.import_module("pfaffkit.pfaffian")
R = importlib.import_module("pfaffkit.rings")
U = importlib.import_module("pfaffkit.uea")
G = importlib.import_module("pfaffkit.grassmann")
MIO = importlib.import_module("pfaffkit.matrixio")
V = importlib.import_module("pfaffkit.verify")

WORKLOADS = ("msf-rational", "msf-symbolic", "uea-central")

# msf-rational: matrices per (check, size)
ROUTE_COUNTS = {8: 6, 10: 6}
PF_SQUARED_COUNT = 6  # size 12, where the matching sum is too slow to compare
COPFAFFIAN_COUNTS = {8: 4, 10: 4}
MINOR_COUNTS = {6: 12, 8: 4}
EQUIVARIANCE_COUNT = 8  # per form
# msf-symbolic: generic colorings checked with the matching sum as well
DEFINITIONAL_MAX = 8
# uea-central
UEA_RANK = 4
U_POINTS = tuple(Fraction(u) for u in (-1, 0, 1, 2, 3, 4))
WEIGHT_COUNT = 6


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _rational_inputs(seed: int) -> dict:
    rng = _rng("msf-rational", seed)

    def texts(size: int, count: int, nonsingular: bool = False) -> list[str]:
        out = []
        while len(out) < count:
            A = P.AlternatingMatrix.random_rational(size, rng)
            if nonsingular and P.pfaffian(A) == 0:
                continue
            out.append(MIO.dumps(A))
        return out

    forms = (("J6", L.anti_identity(6)), ("J8", L.anti_identity(8)), ("S4", V.GENERIC_SYMMETRIC_S))
    return {
        "route": {size: texts(size, n) for size, n in ROUTE_COUNTS.items()},
        "pf-squared": texts(12, PF_SQUARED_COUNT),
        "copfaffian": {size: texts(size, n) for size, n in COPFAFFIAN_COUNTS.items()},
        "minor": {size: texts(size, n, nonsingular=True) for size, n in MINOR_COUNTS.items()},
        "equivariance": {
            tag: [(P.random_orthogonal_cayley(S, rng), texts(len(S), 1)[0]) for _ in range(EQUIVARIANCE_COUNT)]
            for tag, S in forms
        },
    }


def _specialised(p: int, q: int, rng: random.Random):
    """Coloring (p, q) with each entry kept symbolic, fixed to a seeded
    rational, or set to 0, with probabilities 1/2, 1/4, 1/4."""

    def entry(name: str):
        r = rng.random()
        if r < 0.5:
            return R.Poly.var(name)
        if r < 0.75:
            return R.Poly.const(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)))
        return R.Poly.zero()

    a_rows = [[entry(f"a[{i},{j}]") for j in range(1, q + 1)] for i in range(1, p + 1)]
    b_upper = [[entry(f"b[{i},{j}]") for j in range(i + 1, p + 1)] for i in range(1, p)]
    c_upper = [[entry(f"c[{i},{j}]") for j in range(i + 1, q + 1)] for i in range(1, q)]
    return P.AntiAlternatingMatrix.from_upper_blocks(p, q, a_rows, b_upper, c_upper)


def _symbolic_inputs(seed: int) -> dict:
    rng = _rng("msf-symbolic", seed)
    colorings = [(p, tot - p) for tot in (6, 8, 10) for p in range(1, tot)]
    return {
        "generic": {pq: P.AntiAlternatingMatrix.generic(*pq) for pq in colorings},
        "specialised": {pq: _specialised(*pq, rng) for pq in colorings if sum(pq) >= 8},
        "copfaffian": {size: P.AlternatingMatrix.generic(size) for size in (6, 8)},
    }


def _dominant_weight(rng: random.Random, n: int):
    """lam_1 >= ... >= lam_{n-1} >= |lam_n|, integral."""
    vals = [rng.randint(-3, 3)]
    vals.append(abs(vals[0]) + rng.randint(0, 3))
    while len(vals) < n:
        vals.append(vals[-1] + rng.randint(0, 3))
    return U.HighestWeight.numeric(reversed(vals))


def _uea_inputs(seed: int) -> dict:
    rng = _rng("uea-central", seed)
    return {
        "x": U.build_canonical_x(UEA_RANK),
        "x2": U.build_canonical_x(2),
        "weights": [_dominant_weight(rng, UEA_RANK) for _ in range(WEIGHT_COUNT)],
    }


def make_inputs(workload: str, seed: int) -> dict:
    if workload == "msf-rational":
        return _rational_inputs(seed)
    if workload == "msf-symbolic":
        return _symbolic_inputs(seed)
    if workload == "uea-central":
        return _uea_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _canonical(x) -> str:
    if isinstance(x, dict):
        return "{" + ",".join(f"{k!s}:{_canonical(v)}" for k, v in x.items()) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in x) + "]"
    if isinstance(x, (P.AlternatingMatrix, P.AntiAlternatingMatrix)):
        return MIO.dumps(x)
    if isinstance(x, U.UEAMatrix):
        return _canonical(sorted((k, str(v)) for k, v in x.entries.items()))
    if isinstance(x, U.HighestWeight):
        return _canonical(x.values)
    return str(x)


def input_digest(inputs: dict) -> str:
    return hashlib.sha256(_canonical(inputs).encode()).hexdigest()


def witness_digest(witness) -> str:
    return hashlib.sha256(_canonical(witness).encode()).hexdigest()[:16]


# --- items ------------------------------------------------------------------


def _load(text: str):
    return MIO.loads(text, ring="rational")


def _rational_items(inp: dict) -> list:
    items = []

    def route(text):
        A = _load(text)
        pf = P.pfaffian(A)
        return pf == P.pfaffian_definitional(A), pf

    def pf_squared(text):
        A = _load(text)
        pf = P.pfaffian(A)
        return pf * pf == L.det_exact(A.rows), pf

    def copfaffian(text):
        return P.copfaffian_expansion_check(_load(text)), None

    def minor(text):
        A = _load(text)
        size = A.size
        for m in range(0, size + 1, 2):
            for I in combinations(range(1, size + 1), m):
                if not P.complementary_minor_check(A, I):
                    return False, I
        return True, None

    def equivariance(g, text):
        return P.equivariance_check(_load(text), g), None

    for size, texts in inp["route"].items():
        items += [(f"route:{size}:{k}", lambda t=t: route(t)) for k, t in enumerate(texts)]
    items += [(f"pf-squared:12:{k}", lambda t=t: pf_squared(t)) for k, t in enumerate(inp["pf-squared"])]
    for size, texts in inp["copfaffian"].items():
        items += [(f"copfaffian:{size}:{k}", lambda t=t: copfaffian(t)) for k, t in enumerate(texts)]
    for size, texts in inp["minor"].items():
        items += [(f"minor:{size}:{k}", lambda t=t: minor(t)) for k, t in enumerate(texts)]
    for tag, pairs in inp["equivariance"].items():
        items += [(f"equivariance:{tag}:{k}", lambda g=g, t=t: equivariance(g, t)) for k, (g, t) in enumerate(pairs)]
    return items


def _symbolic_items(inp: dict) -> list:
    items = []

    def msf(X):
        lhs = P.pfaffian_of_anti_alternating(X)
        ok = lhs == P.minor_summation_rhs(X)
        if X.size <= DEFINITIONAL_MAX:
            ok = ok and lhs == P.pfaffian_definitional(X.to_alternating())
        return ok, lhs

    for kind in ("generic", "specialised"):
        items += [(f"msf:{kind}:p{p}q{q}", lambda X=X: msf(X)) for (p, q), X in inp[kind].items()]
    items += [(f"copfaffian:generic-{size}", lambda A=A: (P.copfaffian_expansion_check(A), None))
              for size, A in inp["copfaffian"].items()]

    for n in (3, 4):
        def trinomial(n=n):
            f = G.build_forms("commutative", p=n, q=n)
            return all(G.check_trinomial(n, m, mode="commutative", forms=f) for m in range(n + 1)), None

        def theta(n=n):
            f = G.build_forms("commutative", p=n, q=n)
            return all(G.check_theta_powers(n, s, t, mode="commutative", forms=f)
                       for s in range(n + 1) for t in range(n + 1)), None

        items += [
            (f"forms:top-route:comm-n{n}", lambda n=n: (G.check_top_form_route("commutative", p=n, q=n), None)),
            (f"forms:trinomial:comm-n{n}", trinomial),
            (f"forms:theta-powers:comm-n{n}", theta),
        ]
    return items


def _uea_items(inp: dict) -> list:
    n = UEA_RANK
    ctx: dict = {}

    def suite(run):
        report = run()
        return report.passed, [(c.check_id, c.passed) for c in report.sorted_checks()]

    def golden():
        z2 = U.nc_pfaffian(inp["x2"])
        return z2.terms == V.INTRO_UEA_TERMS, z2

    def identity():
        ctx["z"] = z = U.nc_pfaffian(inp["x"])
        return z == U.nc_minor_summation_rhs(n), z

    def central():
        failures = U.centrality_failures(ctx["z"], n)
        return not failures, [g.name for g in failures]

    def eigenvalue(weight):
        hc = U.hc_coefficient(ctx["z"], weight)
        return hc == U.eigenvalue_product(weight), hc

    def xi_power():
        ctx["forms"] = f = G.build_forms("uea", n=n)
        return all(G.check_xi_power_formula(n, u, r, forms=f) for r in range(n + 1) for u in U_POINTS), None

    def trinomial():
        f = ctx["forms"]
        return all(G.check_trinomial(n, m, forms=f) for m in range(n + 1)), None

    weights = [U.HighestWeight.symbolic(n)] + list(inp["weights"])
    return [
        ("suite:ncmsf", lambda: suite(V.ncmsf_suite)),
        ("suite:central", lambda: suite(V.central_suite)),
        ("suite:forms", lambda: suite(V.forms_suite)),
        ("golden:uea-n2", golden),
        (f"ncmsf:identity:n{n}", identity),
        (f"central:commutant:n{n}", central),
        *[(f"central:eigenvalue:n{n}:{k}", lambda w=w: eigenvalue(w)) for k, w in enumerate(weights)],
        (f"forms:xi-power:uea-n{n}", xi_power),
        (f"forms:trinomial:uea-n{n}", trinomial),
        (f"forms:top-route:uea-n{n}", lambda: (G.check_top_form_route("uea", n=n), None)),
    ]


def items(workload: str, inputs: dict) -> list:
    if workload == "msf-rational":
        return _rational_items(inputs)
    if workload == "msf-symbolic":
        return _symbolic_items(inputs)
    if workload == "uea-central":
        return _uea_items(inputs)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
