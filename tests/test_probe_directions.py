"""The probe directions of every order-by-order solve, pinned exactly.

``reconstruction._drive`` solves order m of each recovery from the data at
grade 1 - m, which is affine in the order-m unknowns.  The coefficient
columns of that solve (the unit-direction differences) must equal, jet for
jet, the differences of the forward model run on the full candidate: the
recovered lower orders, or the known metric and weight, plus a unit entry
at order m.  The full-candidate side is computed here, from the public
forward model; the other side is read off the rows ``_drive`` hands to
``solve_linear_jets`` while the public recovery functions run.
"""

import pytest

import dncalc.reconstruction as reconstruction
from dncalc.dn import dn_symbol, shared_forward_runs
from dncalc.geometry import BoundaryMetricJet
from dncalc.jets import collar_from_radial_orders
from dncalc.randomgen import random_instance
from dncalc.reconstruction import (
    _samples,
    _sym_entries,
    recover_first_order,
    recover_metric_known_weight,
    recover_weight_gauge,
    recover_weight_scalar,
    recover_with_known_volume_gauge,
    recover_with_known_volume_scalar,
)

#: n -> (random_instance arguments, data depth); each recovery runs to
#: order depth - 1.  Both boundary metrics g^{ab}|0 depend on y.
INSTANCES = {
    3: (dict(seed=3004, kr=6, ky=5), 5),
    4: (dict(seed=41, n=4, kr=4, ky=3), 3),
}


def full_candidate_directions(dn, metric, weight, m):
    """Grade 1 - m differences of the forward model at radial order m + 2
    and depth m + 1: the candidate with a unit order-m entry minus the
    candidate with a zero one.  ``metric`` and ``weight`` are lists of
    recovered radial orders (then their order m is an unknown) or known
    jets."""
    space, ky, nxi = dn.ctx.space, dn.boundary_metric.ky, dn.n - 1
    kr = m + 2
    entries = _sym_entries(nxi) if isinstance(metric, list) else []
    nparams = len(entries) + isinstance(weight, list)

    def run(setting):
        trial = [space.constant(x, 0, ky) for x in setting]
        if entries:
            top = [[space.zero(0, ky)] * nxi for _ in range(nxi)]
            for (a, b), x in zip(entries, trial):
                top[a][b] = top[b][a] = x
            orders = metric + [top]
            g = BoundaryMetricJet.from_upper(
                [
                    [
                        collar_from_radial_orders(
                            space, [mat[a][b] for mat in orders], kr, ky
                        )
                        for b in range(nxi)
                    ]
                    for a in range(nxi)
                ]
            )
        else:
            g = metric.truncated(kr, ky)
        if isinstance(weight, list):
            w = collar_from_radial_orders(space, weight + trial[-1:], kr, ky)
        else:
            w = weight.truncated(kr, ky)
        data = dn_symbol(g, w, m + 1, dn.gauge_tag or "lambda0")
        return [part for xi in _samples(nxi) for part in data.grade_ratio_eval(1 - m, xi)]

    base = run([0] * nparams)
    return [
        [a - b for a, b in zip(run([int(j == i) for j in range(nparams)]), base)]
        for i in range(nparams)
    ]


def _exact(jet):
    return jet.kr, jet.ky, jet.den, dict(jet.num)


def assert_directions_equal(used, full):
    """Jet for jet: each used direction is known to at least the orders of
    the full-candidate one (a zero lower order is exact, so it may carry
    more) and its truncation to those orders is the same jet."""
    assert len(used) == len(full)
    for u_col, f_col in zip(used, full):
        assert len(u_col) == len(f_col)
        for u, f in zip(u_col, f_col):
            assert u.kr >= f.kr and u.ky >= f.ky
            assert _exact(u.truncated(f.kr, f.ky)) == _exact(f)


@pytest.fixture
def checked_orders(monkeypatch):
    """While the test runs, every order of every ``_drive`` call compares its
    solve's coefficient columns with the full-candidate directions.  Yields
    two lists: (method, map kind, gauge tag, order, unknowns) per check, and
    (first order, last order) per ``_drive`` call."""
    real_drive, real_solve = reconstruction._drive, reconstruction.solve_linear_jets
    solved, checked, drives = [], [], []

    def recording_solve(rows, nunknowns):
        solved.append(list(rows))
        return real_solve(rows, nunknowns)

    def checking_drive(method, dn, metric, weight, start, order, delta_known=None):
        drives.append((start, order))
        for m in range(start, order + 1):
            full = full_candidate_directions(dn, metric, weight, m)
            solved.clear()
            real_drive(method, dn, metric, weight, m, m, delta_known)
            (rows,) = solved
            ndata = len(full[0])
            assert len(rows) == ndata + (delta_known is not None)
            used = [[row[0][i] for row in rows[:ndata]] for i in range(len(full))]
            assert_directions_equal(used, full)
            unknowns = ("metric",) * isinstance(metric, list) + (
                "weight",
            ) * isinstance(weight, list)
            checked.append((method, dn.map_kind, dn.gauge_tag, m, unknowns))

    monkeypatch.setattr(reconstruction, "solve_linear_jets", recording_solve)
    monkeypatch.setattr(reconstruction, "_drive", checking_drive)
    # the solve's base run repeats the full side's zero run: share it
    with shared_forward_runs():
        yield checked, drives


class _Instance:
    """The random instance for one n, with each DN data kind ("lambda0", or
    the gauge tag of lambda1) made when a recovery first reads it."""

    def __init__(self, n):
        kwargs, self.depth = INSTANCES[n]
        self.metric, self.weight = random_instance(**kwargs)
        self.data = {}

    def __getitem__(self, kind):
        if kind not in self.data:
            self.data[kind] = dn_symbol(self.metric, self.weight, self.depth, kind)
        return self.data[kind]


@pytest.fixture(scope="module")
def instances():
    return {n: _Instance(n) for n in INSTANCES}


def _first_order(inst, top):
    recover_first_order(inst["s"], inst["sigma"])


def _metric_known_weight(kind):
    def recover(inst, top):
        recover_metric_known_weight(inst[kind], inst.weight, top)

    return recover


def _weight_scalar(inst, top):
    recover_weight_scalar(inst["lambda0"], inst.metric, top)


def _weight_gauge(inst, top):
    v1 = inst.weight.radial_derivative_at_zero(1)
    recover_weight_gauge(inst["s"], inst.metric, ("d1V", v1), top)


def _volume_gauge(inst, top):
    v1 = inst.weight.radial_derivative_at_zero(1)
    recover_with_known_volume_gauge(
        inst["s"], inst["sigma"], inst.metric.delta, ("d1V", v1), top
    )


def _volume_scalar(inst, top):
    recover_with_known_volume_scalar(inst["lambda0"], inst.metric.delta, top)


M, W, MW = ("metric",), ("weight",), ("metric", "weight")

#: case -> (recovery, calls): calls lists the (map kind, gauge tag, first
#: order, unknowns, last order) of each _drive call the recovery makes, in
#: order, where a last order of None stands for the top order
CASES = {
    "first-order": (_first_order, [("lambda1", "sigma", 1, M, 1)]),
    "metric-known-weight-lambda0": (
        _metric_known_weight("lambda0"), [("lambda0", None, 1, M, None)]
    ),
    "metric-known-weight-s": (_metric_known_weight("s"), [("lambda1", "s", 1, M, None)]),
    "metric-known-weight-sigma": (
        _metric_known_weight("sigma"), [("lambda1", "sigma", 1, M, None)]
    ),
    "weight-scalar": (_weight_scalar, [("lambda0", None, 1, W, None)]),
    "weight-gauge-d1V": (
        _weight_gauge, [("lambda1", "s", 2, W, 2), ("lambda1", "s", 3, W, None)]
    ),
    "volume-gauge-d1V": (
        _volume_gauge,
        [
            ("lambda1", "sigma", 1, M, 1),
            ("lambda1", "sigma", 2, MW, 2),
            ("lambda1", "sigma", 3, MW, None),
        ],
    ),
    "volume-scalar": (_volume_scalar, [("lambda0", None, 1, MW, None)]),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("n", sorted(INSTANCES))
def test_solve_directions_equal_the_full_candidate_ones(
    n, case, instances, checked_orders
):
    top = instances[n].depth - 1
    recover, calls = CASES[case]
    recover(instances[n], top)
    checked, drives = checked_orders
    method = checked[0][0]
    spans = [(first, top if last is None else last) for _, _, first, _, last in calls]
    assert drives == spans
    expected = [
        (method, kind, tag, m, unknowns)
        for (kind, tag, _, unknowns, _), (first, last) in zip(calls, spans)
        for m in range(first, last + 1)
    ]
    assert checked == expected
