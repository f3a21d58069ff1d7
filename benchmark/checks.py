"""Correctness checks on `dncalc run` reports, computed apart from dncalc.

Everything here works on plain ``fractions.Fraction`` polynomials kept as
dicts from exponent tuples to values, read straight from the scenario and
report JSON.  No check calls into dncalc and none compares against a stored
copy of an earlier output: each is either a property the method must have
or a quantity the harness computes itself from the scenario's input jets.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

# ---------------------------------------------------------------------------
# truncated polynomial arithmetic
#
# A jet is a dict {(m, mu_1, .., mu_{n-1}): Fraction}: m is the radial
# exponent, the mu's are tangential.  (kr, ky) truncation keeps m <= kr and
# sum(mu) <= ky.


def _keep(idx, kr, ky):
    return idx[0] <= kr and sum(idx[1:]) <= ky


def jet_from_json(rec) -> tuple[dict, int, int]:
    terms = {
        tuple(t["index"]): Fraction(t["value"]) for t in rec.get("terms", [])
    }
    return {k: v for k, v in terms.items() if v}, rec["radial_order"], rec["tangential_order"]


def add(a: dict, b: dict, sign=1) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + sign * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def scale(a: dict, c) -> dict:
    return {k: v * c for k, v in a.items()} if c else {}


def convolve(a: dict, b: dict, keep) -> dict:
    """Plain convolution over every pair of terms; keeps the exponents for
    which ``keep`` holds."""
    out: dict = {}
    for i1, v1 in a.items():
        for i2, v2 in b.items():
            idx = tuple(x + y for x, y in zip(i1, i2))
            out[idx] = out.get(idx, 0) + v1 * v2
    return {k: v for k, v in out.items() if v and keep(k)}


def mul(a: dict, b: dict, kr: int, ky: int) -> dict:
    """Jet product truncated to (kr, ky)."""
    return convolve(a, b, lambda idx: _keep(idx, kr, ky))


def truncate(a: dict, kr: int, ky: int) -> dict:
    return {k: v for k, v in a.items() if _keep(k, kr, ky)}


def reciprocal(a: dict, n: int, kr: int, ky: int) -> dict:
    """1/a = sum_k (-u)^k / c0^(k+1) with u = a - c0; u has no constant term,
    so u^k vanishes once k exceeds kr + ky."""
    zero = (0,) * n
    c0 = a[zero]
    u = {k: v for k, v in a.items() if k != zero}
    out = {zero: 1 / c0}
    power = {zero: Fraction(1)}
    for k in range(1, kr + ky + 1):
        power = mul(power, u, kr, ky)
        if not power:
            break
        out = add(out, scale(power, Fraction(-1) ** k / c0 ** (k + 1)))
    return out


def det(mat, kr, ky):
    """Determinant by cofactor expansion (the blocks here are at most 3x3)."""
    size = len(mat)
    if size == 1:
        return mat[0][0]
    acc: dict = {}
    for j in range(size):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = mul(mat[0][j], det(minor, kr, ky), kr, ky)
        acc = add(acc, term, 1 if j % 2 == 0 else -1)
    return acc


def inverse(mat, n, kr, ky):
    """Inverse matrix as adjugate / determinant, and the determinant."""
    size = len(mat)
    d = det(mat, kr, ky)
    dinv = reciprocal(d, n, kr, ky)
    inv = [[None] * size for _ in range(size)]
    for a in range(size):
        for b in range(size):
            minor = [
                [mat[i][j] for j in range(size) if j != a]
                for i in range(size)
                if i != b
            ]
            cof = det(minor, kr, ky) if minor else {(0,) * n: Fraction(1)}
            sign = 1 if (a + b) % 2 == 0 else -1
            inv[a][b] = scale(mul(cof, dinv, kr, ky), sign)
    return inv, d


def radial_derivative_at_zero(a: dict, m: int) -> dict:
    """The y-jet of d_r^m a at r = 0, i.e. m! times the r^m coefficient."""
    f = factorial(m)
    return {(0,) + k[1:]: v * f for k, v in a.items() if k[0] == m}


# ---------------------------------------------------------------------------
# scenario truth


class Truth:
    """Metric, inverse metric, determinant and weight of one scenario, as
    computed by the harness from the scenario file's tables."""

    def __init__(self, raw: dict):
        self.n = raw["dimension"]
        self.kr = raw["truncation"]["radial"]
        self.ky = raw["truncation"]["tangential"]
        nt = self.n - 1
        lower = [[None] * nt for _ in range(nt)]
        for key, rec in raw["metric"].items():
            a, b = (int(x) - 1 for x in key.split(","))
            lower[a][b] = lower[b][a] = jet_from_json(rec)[0]
        self.g_upper, self.delta = inverse(lower, self.n, self.kr, self.ky)
        self.weight = jet_from_json(raw["weight"])[0]

    def metric_order(self, m):
        return [[radial_derivative_at_zero(c, m) for c in row] for row in self.g_upper]

    def weight_order(self, m):
        return radial_derivative_at_zero(self.weight, m)


def yjets_equal(got_rec, truth: dict, modulo_constant=False) -> bool:
    """A recovered boundary y-jet against the truth, on the tangential orders
    the recovered jet claims."""
    got, _, ky = jet_from_json(got_rec)
    want = truncate(truth, 0, ky)
    if modulo_constant:
        got = {k: v for k, v in got.items() if any(k)}
        want = {k: v for k, v in want.items() if any(k)}
    return got == want


# ---------------------------------------------------------------------------
# homogeneous symbols
#
# A boundary symbol (A + B w) / q2^p is read as two parts, each a dict from
# (xi exponents + jet index) to Fraction for its real and imaginary halves.


def _poly_parts(rec, nxi):
    re, im, ky = {}, {}, None
    for t in rec["terms"]:
        xi = tuple(t["xi"])
        for part, target in (("re", re), ("im", im)):
            if part not in t["coeff"]:
                continue
            jet, _, jky = jet_from_json(t["coeff"][part])
            ky = jky if ky is None else min(ky, jky)
            for idx, v in jet.items():
                target[xi + idx] = v
    return re, im, ky


def _xi_mul(a: dict, b: dict, nxi: int, ky: int) -> dict:
    return convolve(a, b, lambda k: sum(k[nxi + 1 :]) <= ky)


def _xi_trunc(a: dict, nxi: int, ky: int) -> dict:
    return {k: v for k, v in a.items() if sum(k[nxi + 1 :]) <= ky}


class BoundarySymbols:
    """q2 at the boundary, from the harness's own inverse metric."""

    def __init__(self, truth: Truth):
        self.truth = truth
        self.nxi = truth.n - 1
        q2: dict = {}
        for a in range(self.nxi):
            for b in range(self.nxi):
                e = [0] * self.nxi
                e[a] += 1
                e[b] += 1
                for idx, v in truth.g_upper[a][b].items():
                    if idx[0] == 0:
                        key = tuple(e) + idx
                        q2[key] = q2.get(key, 0) + v
        self.q2 = {k: v for k, v in q2.items() if v}

    def _q2_power(self, p, ky):
        out = {(0,) * (self.nxi + self.truth.n): Fraction(1)}
        for _ in range(p):
            out = _xi_mul(out, self.q2, self.nxi, ky)
        return out

    def differ_by_jet(self, left, right, jet: dict) -> bool:
        """Whether left - right == jet (a degree-0 real symbol), checked by
        cross-multiplying the q2 denominators."""
        nxi = self.nxi
        pl, pr = left["denominator_power"], right["denominator_power"]
        if left["degree"] != right["degree"]:
            return False
        parts = {}
        ky = None
        for name, rec in (("l", left), ("r", right)):
            for half in ("even", "odd"):
                re, im, k = _poly_parts(rec[half], nxi)
                parts[name, half] = (re, im)
                if k is not None:
                    ky = k if ky is None else min(ky, k)
        if ky is None:
            return not jet
        jet_xi = {(0,) * nxi + k: v for k, v in truncate(jet, 0, ky).items()}
        ql, qr = self._q2_power(pl, ky), self._q2_power(pr, ky)
        qlr = _xi_mul(ql, qr, nxi, ky)
        for half in ("even", "odd"):
            for i in range(2):
                lhs = _xi_mul(_xi_trunc(parts["l", half][i], nxi, ky), qr, nxi, ky)
                rhs = _xi_mul(_xi_trunc(parts["r", half][i], nxi, ky), ql, nxi, ky)
                diff = add(lhs, rhs, -1)
                if half == "even" and i == 0:
                    diff = add(diff, _xi_mul(jet_xi, qlr, nxi, ky), -1)
                if diff:
                    return False
        return True


def is_minus_xi_norm(rec, nxi: int) -> bool:
    """Grade 1 must be -||xi'||: no even part, odd part the constant -1."""
    if rec["degree"] != 1 or rec["denominator_power"] != 0 or rec["even"]["terms"]:
        return False
    terms = rec["odd"]["terms"]
    if len(terms) != 1 or terms[0]["xi"] != [0] * nxi or "im" in terms[0]["coeff"]:
        return False
    jet = jet_from_json(terms[0]["coeff"]["re"])[0]
    return jet == {(0,) * (nxi + 1): Fraction(-1)}


# ---------------------------------------------------------------------------
# per-task checks


def check_factorize(task_rec, nxi) -> list[str]:
    problems = []
    if task_rec.get("status") != "pass":
        problems.append("status %r" % task_rec.get("status"))
    if task_rec.get("residual") != "PASS":
        problems.append("verify_residual returned %r" % task_rec.get("residual"))
    grades = task_rec.get("boundary_grades", {})
    if "1" not in grades or not is_minus_xi_norm(grades["1"], nxi):
        problems.append("grade 1 is not -||xi'||")
    return problems


def check_mode_pair(scalar_rec, gauge_rec, sym: BoundarySymbols) -> list[str]:
    """Scalar and gauge-s boundary grades agree except at grade 0, where
    gauge minus scalar is -1/2 d_r V at the boundary."""
    problems = []
    gs, gg = scalar_rec["boundary_grades"], gauge_rec["boundary_grades"]
    if set(gs) != set(gg):
        return ["scalar and gauge grades differ: %s vs %s" % (sorted(gs), sorted(gg))]
    half_drv = scale(sym.truth.weight_order(1), Fraction(-1, 2))
    for key in gs:
        jet = half_drv if key == "0" else {}
        if not sym.differ_by_jet(gg[key], gs[key], jet):
            problems.append("gauge minus scalar at grade %s is wrong" % key)
    return problems


def _orders_match(recovered, truth_fn, modulo_constant=False, matrix=False):
    for m, rec in enumerate(recovered):
        want = truth_fn(m)
        if matrix:
            ok = all(
                yjets_equal(rec[a][b], want[a][b])
                for a in range(len(rec))
                for b in range(len(rec))
            )
        else:
            ok = yjets_equal(rec, want, modulo_constant and m == 0)
        if not ok:
            return m
    return None


def check_reconstruct(task_rec, truth: Truth) -> list[str]:
    problems = []
    if task_rec.get("status") != "pass":
        problems.append("status %r (%s)" % (task_rec.get("status"), task_rec.get("error", "")))
        return problems
    if "recovered_metric" in task_rec:
        bad = _orders_match(task_rec["recovered_metric"], truth.metric_order, matrix=True)
        if bad is not None:
            problems.append("metric order %d differs from the scenario" % bad)
    if "recovered_weight" in task_rec:
        modulo = task_rec.get("normalization") != "absolute"
        bad = _orders_match(task_rec["recovered_weight"], truth.weight_order, modulo)
        if bad is not None:
            problems.append("weight order %d differs from the scenario" % bad)
    if "branches" in task_rec:
        branches = task_rec["branches"]
        if not any(
            _orders_match(b["weight_orders"], truth.weight_order, True) is None
            for b in branches
        ):
            problems.append("no branch carries the scenario's weight")
        if any(v != 0.0 for b in branches for v in b["residuals"].values()):
            problems.append("a branch has a nonzero residual")
    return problems


def check_counterexample(task_rec, truth: Truth) -> list[str]:
    """The alternate root r' and the true d_r V are the two roots of the
    two-root quadratic, so by Vieta (r' + d_r V|0) * delta|0 = d_r delta|0."""
    if task_rec.get("status") != "pass" or not task_rec.get("dn_matches"):
        return ["status %r, dn_matches %r" % (task_rec.get("status"), task_rec.get("dn_matches"))]
    problems = []
    root, _, ky = jet_from_json(task_rec["alternate_root"])
    lhs = mul(
        add(root, truth.weight_order(1)),
        radial_derivative_at_zero(truth.delta, 0),
        0,
        ky,
    )
    rhs = truncate(radial_derivative_at_zero(truth.delta, 1), 0, ky)
    if lhs != rhs:
        problems.append("alternate root breaks (r' + d_rV) delta = d_r delta")
    return problems


def check_dn(task_rec, factorize_rec, nxi) -> list[str]:
    """DN data grades are the boundary grades of the matching factorisation."""
    problems = []
    if task_rec.get("status") != "pass":
        problems.append("status %r" % task_rec.get("status"))
        return problems
    grades = task_rec["data"]["grades"]
    if not is_minus_xi_norm(grades.get("1", {"degree": None}), nxi):
        problems.append("grade 1 is not -||xi'||")
    if factorize_rec is not None and grades != factorize_rec["boundary_grades"]:
        problems.append("grades differ from the factorisation's boundary grades")
    density = jet_from_json(task_rec["data"]["density_sq"])[0]
    if density.get((0,) * (nxi + 1), 0) <= 0:
        problems.append("density is not positive at the base point")
    return problems


def check_validate_disk(task_rec) -> list[str]:
    if task_rec.get("status") != "pass" or task_rec.get("skipped"):
        return ["disk check status %r" % task_rec.get("status")]
    if not task_rec["slope"] <= task_rec["slope_bound"]:
        return ["error slope %r above %r" % (task_rec["slope"], task_rec["slope_bound"])]
    return []


def check_report(raw: dict, report: dict) -> list[list[str]]:
    """Problems per task of one scenario's report, in task order."""
    truth = Truth(raw)
    nxi = raw["dimension"] - 1
    tasks = report["tasks"]
    problems = [[] for _ in tasks]
    factorize_at = {}
    for i, t in enumerate(tasks):
        if t["kind"] == "factorize":
            factorize_at[t.get("mode"), t.get("gauge")] = i
    for i, t in enumerate(tasks):
        kind = t["kind"]
        if kind == "factorize":
            problems[i] += check_factorize(t, nxi)
        elif kind == "reconstruct":
            problems[i] += check_reconstruct(t, truth)
        elif kind == "counterexample":
            problems[i] += check_counterexample(t, truth)
        elif kind == "dn":
            data = t.get("data", {})
            mode = ("scalar", None) if data.get("map") == "lambda0" else ("gauge", data.get("gauge"))
            j = factorize_at.get(mode)
            problems[i] += check_dn(t, tasks[j] if j is not None else None, nxi)
        elif kind == "validate-disk":
            problems[i] += check_validate_disk(t)
        else:
            problems[i].append("unknown task kind %r" % kind)
    js = factorize_at.get(("scalar", None))
    jg = factorize_at.get(("gauge", "s"))
    if js is not None and jg is not None and not (problems[js] or problems[jg]):
        sym = BoundarySymbols(truth)
        pair = check_mode_pair(tasks[js], tasks[jg], sym)
        problems[js] += pair
        problems[jg] += pair
    return problems


def jet_product_matches(a, b, result) -> bool:
    """Oracle for a sampled Jet x Jet product: the plain Fraction convolution
    of the operands' coefficients, truncated to the common orders."""
    kr, ky = min(a.kr, b.kr), min(a.ky, b.ky)
    want = mul(
        {k: Fraction(v) for k, v in a.c.items()},
        {k: Fraction(v) for k, v in b.c.items()},
        kr,
        ky,
    )
    got = {k: Fraction(v) for k, v in result.c.items()}
    return got == want and (result.kr, result.ky) == (kr, ky)
