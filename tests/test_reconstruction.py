from dataclasses import replace

import pytest

from dncalc.dn import dn_symbol_gauge, dn_symbol_scalar
from dncalc.errors import DataError, DepthError, ReconstructionError
from dncalc.geometry import BoundaryMetricJet, radial_drift
from dncalc.jets import JetSpace
from dncalc.randomgen import random_instance
from dncalc.reconstruction import (
    construct_indistinguishable_weight,
    recover_first_order,
    recover_metric_known_weight,
    recover_weight_gauge,
    recover_weight_scalar,
    recover_with_known_volume_gauge,
    recover_with_known_volume_scalar,
    solve_linear_jets,
)
from dncalc.runner import true_metric_order
from fractions import Fraction as mpq
from dncalc.symbols import FormalSymbol, XiPoly
from helpers import least_budgets, rescaled


KR, KY = 5, 4


def flat_metric(n=3, kr=KR, ky=KY):
    return BoundaryMetricJet.flat(JetSpace(n), kr, ky)


def assert_jet_equal(a, b):
    assert a == b, "jets differ: %r vs %r" % (a, b)


def assert_matrix_equal(recovered, expected):
    for row_r, row_e in zip(recovered, expected):
        for r, e in zip(row_r, row_e):
            assert_jet_equal(r, e)


def true_metric_orders(metric, upto):
    nt = metric.n - 1
    out = []
    for m in range(upto + 1):
        out.append(
            [
                [metric.g_upper[a][b].radial_derivative_at_zero(m) for b in range(nt)]
                for a in range(nt)
            ]
        )
    return out


def test_solve_linear_jets_roundtrip():
    sp = JetSpace(3)
    x = sp.constant(mpq(2, 3), 0, 2)
    y = sp.coordinate(1, 0, 2) + sp.one(0, 2)
    a11 = sp.one(0, 2)
    a12 = sp.coordinate(1, 0, 2)
    a21 = sp.zero(0, 2)
    a22 = sp.constant(2, 0, 2)
    rows = [
        ([a11, a12], a11 * x + a12 * y),
        ([a21, a22], a22 * y),
        ([a11 + a22, a12], (a11 + a22) * x + a12 * y),  # consistent extra row
    ]
    sol = solve_linear_jets(rows, 2)
    assert_jet_equal(sol[0], x)
    assert_jet_equal(sol[1], y)


def test_solve_linear_jets_inconsistent():
    sp = JetSpace(3)
    one = sp.one(0, 2)
    rows = [([one], one), ([one], one + one)]
    with pytest.raises(ReconstructionError):
        solve_linear_jets(rows, 1)


def test_an_inconsistent_system_carries_its_largest_leftover_coefficient():
    # the first row fixes x = 1; the others then leave 7/2 y1 and -3 behind
    sp = JetSpace(3)
    one = sp.one(0, 2)
    y1 = sp.coordinate(1, 0, 2)
    rows = [
        ([one], one),
        ([one], one + y1.scale(mpq(7, 2))),
        ([one.scale(2)], one.scale(-1)),
    ]
    with pytest.raises(ReconstructionError) as info:
        solve_linear_jets(rows, 1)
    assert info.value.residual == 3.5
    with pytest.raises(ReconstructionError) as info:
        solve_linear_jets([([sp.zero(0, 2)], one)], 1)
    assert info.value.residual is None and info.value.unknown == 0


def test_first_order_flat():
    g = flat_metric()
    v = g.space.zero(KR, KY)
    dn_s = dn_symbol_gauge(g, v, 4, "s")
    dn_sig = dn_symbol_gauge(g, v, 4, "sigma")
    rep = recover_first_order(dn_s, dn_sig)
    nt = g.n - 1
    for a in range(nt):
        for b in range(nt):
            expected = 1 if a == b else 0
            assert rep.metric_orders[0][a][b].constant_term() == expected
            assert rep.metric_orders[1][a][b].is_zero
    assert rep.weight_orders[0].is_zero
    assert all(m == 0.0 for m in rep.residuals.values())


def test_first_order_random_roundtrip():
    for seed in (201, 202, 203):
        metric, weight = random_instance(seed)
        dn_s = dn_symbol_gauge(metric, weight, 4, "s")
        dn_sig = dn_symbol_gauge(metric, weight, 4, "sigma")
        rep = recover_first_order(dn_s, dn_sig)
        truth = true_metric_orders(metric, 1)
        assert_matrix_equal(rep.metric_orders[0], truth[0])
        assert_matrix_equal(rep.metric_orders[1], truth[1])
        # weight modulo constant; generation uses V(base) = 0
        assert_jet_equal(rep.weight_orders[0], weight.restricted_to_boundary())
        assert rep.weight_normalization == "modulo_constant"
        assert all(m == 0.0 for m in rep.residuals.values())


def test_first_order_rescale_invariance():
    metric, weight = random_instance(204)
    sp = metric.space
    dn_s = dn_symbol_gauge(metric, weight, 4, "s")
    dn_sig = dn_symbol_gauge(metric, weight, 4, "sigma")
    unit = sp.one(KR, KY) + sp.coordinate(2, KR, KY).scale(mpq(1, 5))
    rep_plain = recover_first_order(dn_s, dn_sig)
    rep_scaled = recover_first_order(rescaled(dn_s, unit), rescaled(dn_sig, unit))
    assert_matrix_equal(rep_plain.metric_orders[0], rep_scaled.metric_orders[0])
    assert_matrix_equal(rep_plain.metric_orders[1], rep_scaled.metric_orders[1])
    assert_jet_equal(rep_plain.weight_orders[0], rep_scaled.weight_orders[0])


def test_metric_recovery_with_known_weight():
    for seed, zero_weight in ((211, True), (212, False)):
        metric, weight = random_instance(seed)
        if zero_weight:
            weight = metric.space.zero(KR, KY)
        dn = dn_symbol_gauge(metric, weight, 4, "sigma")
        rep = recover_metric_known_weight(dn, weight, 3)
        truth = true_metric_orders(metric, 3)
        for m in range(4):
            assert_matrix_equal(rep.metric_orders[m], truth[m])
        assert all(v == 0.0 for v in rep.residuals.values())


def test_metric_recovery_from_scalar_data():
    metric, weight = random_instance(213)
    dn = dn_symbol_scalar(metric, weight, 4)
    rep = recover_metric_known_weight(dn, weight, 3)
    truth = true_metric_orders(metric, 3)
    for m in range(4):
        assert_matrix_equal(rep.metric_orders[m], truth[m])


def test_weight_scalar_flat_zero():
    g = flat_metric()
    v = g.space.zero(KR, KY)
    dn = dn_symbol_scalar(g, v, 4)
    rep = recover_weight_scalar(dn, g, 3)
    for jet in rep.weight_orders:
        assert jet.is_zero
    assert rep.weight_normalization == "absolute"


def test_weight_scalar_linear_example():
    # V = a r over the flat metric: the grade-0 ratio encodes a/2
    g = flat_metric()
    a = mpq(4, 3)
    v = g.space.coordinate(0, KR, KY).scale(a)
    dn = dn_symbol_scalar(g, v, 4)
    rep = recover_weight_scalar(dn, g, 3)
    assert rep.weight_orders[0].is_zero
    assert rep.weight_orders[1].constant_term() == a
    assert rep.weight_orders[2].is_zero
    assert rep.weight_orders[3].is_zero


def test_weight_scalar_random_roundtrip():
    metric, weight = random_instance(221, kr=6, ky=5)
    dn = dn_symbol_scalar(metric, weight, 5)
    rep = recover_weight_scalar(dn, metric, 4)
    for m in range(5):
        assert_jet_equal(rep.weight_orders[m], weight.radial_derivative_at_zero(m))
    assert all(v == 0.0 for v in rep.residuals.values())


def test_weight_gauge_prescribed_first_derivative():
    metric, weight = random_instance(231)
    dn = dn_symbol_gauge(metric, weight, 4, "s")
    truth_v1 = weight.radial_derivative_at_zero(1)
    rep = recover_weight_gauge(dn, metric, ("d1V", truth_v1), 3)
    assert rep.branches is not None and len(rep.branches) == 1
    for m in range(4):
        assert_jet_equal(
            rep.branches[0].weight_orders[m], weight.radial_derivative_at_zero(m)
        )
    assert all(v == 0.0 for v in rep.branches[0].residuals.values())


def test_weight_gauge_dichotomy_flat():
    # flat metric, tangentially constant V with d_r V = 1: prescribing the
    # true second derivative leaves the two roots {1, -1}
    g = flat_metric()
    sp = g.space
    r = sp.coordinate(0, KR, KY)
    v = r + (r * r * r).scale(mpq(1, 6))
    dn = dn_symbol_gauge(g, v, 4, "s")
    rep = recover_weight_gauge(dn, g, ("d2V", 0), 3)
    roots = [b.root.constant_term() for b in rep.branches]
    assert roots == [mpq(-1), mpq(1)]
    for b in rep.branches:
        assert all(val == 0.0 for val in b.residuals.values())


def test_weight_gauge_double_root():
    g = flat_metric()
    v = g.space.zero(KR, KY)
    dn = dn_symbol_gauge(g, v, 4, "s")
    rep = recover_weight_gauge(dn, g, ("d2V", 0), 3)
    assert len(rep.branches) == 1
    assert rep.branches[0].root.constant_term() == 0


def test_weight_gauge_branch_soundness_random():
    metric, weight = random_instance(232, tangentially_constant=True)
    dn = dn_symbol_gauge(metric, weight, 4, "s")
    v2 = weight.radial_derivative_at_zero(2)
    rep = recover_weight_gauge(dn, metric, ("d2V", v2), 3)
    assert rep.branches, "expected at least one branch"
    truth_found = False
    for branch in rep.branches:
        # every branch re-synthesises the data exactly
        assert all(val == 0.0 for val in branch.residuals.values())
        if branch.root == weight.radial_derivative_at_zero(1):
            truth_found = True
            for m in range(4):
                assert_jet_equal(
                    branch.weight_orders[m], weight.radial_derivative_at_zero(m)
                )
    assert truth_found


def test_counterexample_flat_linear_weight():
    g = flat_metric()
    v = g.space.coordinate(0, KR, KY)  # V = r
    result = construct_indistinguishable_weight(g, v, 4)
    assert result.dn_matches
    assert result.alternate_root.constant_term() == -1
    assert result.weight != v


def test_counterexample_requires_distinct_roots():
    g = flat_metric()
    v = g.space.zero(KR, KY)
    with pytest.raises(ReconstructionError):
        construct_indistinguishable_weight(g, v, 4)


def test_counterexample_random():
    metric, weight = random_instance(233, tangentially_constant=True)
    # the weight is rigid exactly when d_r V = -E0 at the boundary
    v1 = weight.radial_derivative_at_zero(1)
    e0 = radial_drift(metric).restricted_to_boundary()
    assert (v1 + e0).constant_term() != 0, "random instance is not generic"
    result = construct_indistinguishable_weight(metric, weight, 4)
    assert result.dn_matches
    assert result.weight != weight


def test_volume_gauge_roundtrip():
    metric, weight = random_instance(241)
    dn_s = dn_symbol_gauge(metric, weight, 4, "s")
    dn_sig = dn_symbol_gauge(metric, weight, 4, "sigma")
    truth_v1 = weight.radial_derivative_at_zero(1)
    rep = recover_with_known_volume_gauge(
        dn_s, dn_sig, metric.delta, ("d1V", truth_v1), 3
    )
    truth = true_metric_orders(metric, 3)
    for m in range(4):
        assert_matrix_equal(rep.metric_orders[m], truth[m])
    assert len(rep.branches) == 1
    for m in range(4):
        assert_jet_equal(
            rep.branches[0].weight_orders[m], weight.radial_derivative_at_zero(m)
        )


def test_volume_gauge_dichotomy_and_unique_metric():
    metric, weight = random_instance(242, tangentially_constant=True)
    dn_s = dn_symbol_gauge(metric, weight, 4, "s")
    dn_sig = dn_symbol_gauge(metric, weight, 4, "sigma")
    v2 = weight.radial_derivative_at_zero(2)
    rep = recover_with_known_volume_gauge(dn_s, dn_sig, metric.delta, ("d2V", v2), 3)
    assert rep.branches
    truth = true_metric_orders(metric, 3)
    for m in range(4):
        assert_matrix_equal(rep.metric_orders[m], truth[m])
    roots = {b.root.constant_term() for b in rep.branches}
    assert weight.radial_derivative_at_zero(1).constant_term() in roots


def _exact(jet):
    return jet.kr, jet.ky, jet.den, dict(jet.num)


@pytest.mark.parametrize(
    "instance, depth",
    [(dict(seed=241), 4), (dict(seed=41, n=4, kr=4, ky=3), 3)],
    ids=["n3", "n4"],
)
def test_both_gauge_methods_share_the_two_root_step(instance, depth):
    # weight-gauge reads theta from the s data with the metric known, and
    # volume-gauge from the flat-gauge data with the volume known; given the
    # true d_r^2 V, both must find the same roots and the same discriminant
    metric, weight = random_instance(**instance)
    dn_s = dn_symbol_gauge(metric, weight, depth, "s")
    dn_sig = dn_symbol_gauge(metric, weight, depth, "sigma")
    prescription = ("d2V", weight.radial_derivative_at_zero(2))
    by_metric = recover_weight_gauge(dn_s, metric, prescription, depth - 1)
    by_volume = recover_with_known_volume_gauge(
        dn_s, dn_sig, metric.delta, prescription, depth - 1
    )
    assert len(by_metric.branches) == 2
    assert weight.radial_derivative_at_zero(1) in [b.root for b in by_metric.branches]
    roots = [_exact(b.root) for b in by_metric.branches]
    assert roots == [_exact(b.root) for b in by_volume.branches]
    assert by_metric.extras == by_volume.extras
    assert set(by_metric.extras) == {"discriminant_constant"}


def test_volume_scalar_roundtrip():
    metric, weight = random_instance(243, kr=6, ky=5)
    dn = dn_symbol_scalar(metric, weight, 5)
    rep = recover_with_known_volume_scalar(dn, metric.delta, 4)
    truth = true_metric_orders(metric, 4)
    for m in range(5):
        assert_matrix_equal(rep.metric_orders[m], truth[m])
        assert_jet_equal(rep.weight_orders[m], weight.radial_derivative_at_zero(m))
    assert rep.weight_normalization == "absolute"
    assert all(v == 0.0 for v in rep.residuals.values())


def test_volume_scalar_trace_formula_hand_example():
    # flat metric, V = a r, n = 3: grade 0 sees d_r g^{ab} - (h + 2 d_r V) g^{ab}
    # with h = g_{ab} d_r g^{ab}, and the determinant row pins h = 0, so the
    # order-1 solve must return d_r V = a and a radially constant metric
    g = flat_metric()
    a = mpq(5, 7)
    v = g.space.coordinate(0, KR, KY).scale(a)
    dn = dn_symbol_scalar(g, v, 4)
    rep = recover_with_known_volume_scalar(dn, g.delta, 2)
    assert rep.weight_orders[1].constant_term() == a
    nt = g.n - 1
    for i in range(nt):
        for j in range(nt):
            assert rep.metric_orders[1][i][j].is_zero


@pytest.mark.parametrize(
    "seed, tangentially_constant", [(41, True), (301, False)], ids=["y-free", "general"]
)
def test_n4_order_one_through_the_driver(seed, tangentially_constant):
    # n = 4, orders (4,3), depth 3: order 1 of the gauge pair and of the
    # joint scalar recovery is a probe solve like every deeper order
    metric, weight = random_instance(
        seed, n=4, kr=4, ky=3, tangentially_constant=tangentially_constant
    )
    dn_s = dn_symbol_gauge(metric, weight, 3, "s")
    dn_sig = dn_symbol_gauge(metric, weight, 3, "sigma")
    truth = true_metric_orders(metric, 2)
    first = recover_first_order(dn_s, dn_sig)
    for m in range(2):
        assert_matrix_equal(first.metric_orders[m], truth[m])
    assert_jet_equal(first.weight_orders[0], weight.restricted_to_boundary())
    assert all(v == 0.0 for v in first.residuals.values())
    v1 = weight.radial_derivative_at_zero(1)
    gauge = recover_with_known_volume_gauge(dn_s, dn_sig, metric.delta, ("d1V", v1), 2)
    for m in range(3):
        assert_matrix_equal(gauge.metric_orders[m], truth[m])
        assert_jet_equal(
            gauge.branches[0].weight_orders[m], weight.radial_derivative_at_zero(m)
        )
    scalar = recover_with_known_volume_scalar(
        dn_symbol_scalar(metric, weight, 3), metric.delta, 2
    )
    for m in range(3):
        assert_matrix_equal(scalar.metric_orders[m], truth[m])
        assert_jet_equal(scalar.weight_orders[m], weight.radial_derivative_at_zero(m))
    assert all(v == 0.0 for v in scalar.residuals.values())


def test_n4_metric_to_order_two_from_the_flat_gauge():
    # n = 4, orders (4,3), depth 3: order 2 of the metric, the first order
    # above the boundary stage, from the flat-gauge data
    metric, weight = random_instance(41, n=4, kr=4, ky=3)
    dn = dn_symbol_gauge(metric, weight, 3, "sigma")
    rep = recover_metric_known_weight(dn, weight, 2)
    for m in range(3):
        assert_matrix_equal(rep.metric_orders[m], true_metric_order(metric, m))
    assert all(v == 0.0 for v in rep.residuals.values())


def test_first_order_needs_depth_two():
    metric, weight = random_instance(205)
    dn_s = dn_symbol_gauge(metric, weight, 1, "s")
    dn_sig = dn_symbol_gauge(metric, weight, 1, "sigma")
    with pytest.raises(DepthError):
        recover_first_order(dn_s, dn_sig)


def test_first_order_reads_the_even_part_of_grade_zero():
    # i xi_1 w / q2 added to grade 0 of the flat-gauge data lands on the even
    # part of the grade-0 ratio, which no metric can produce at order 1
    metric, weight = random_instance(5)
    dn_s = dn_symbol_gauge(metric, weight, 3, "s")
    dn_sig = dn_symbol_gauge(metric, weight, 3, "sigma")
    ctx, nxi = dn_sig.ctx, dn_sig.ctx.nxi
    one = ctx.space.one(ctx.kr, ctx.ky)
    bump = least_budgets(ctx, 0, XiPoly(nxi, 2, {}), XiPoly(nxi, 1, {(1, 0): one}, True), 1)
    sym = dn_sig.symbol
    comps = dict(sym.comps)
    comps[0] = comps[0] + bump
    bumped = replace(dn_sig, symbol=FormalSymbol(ctx, comps, sym.hi, sym.lo))
    with pytest.raises(ReconstructionError) as info:
        recover_first_order(dn_s, bumped)
    assert str(info.value).startswith("first_order: order 1 (grade 0): ")
    failure = info.value
    assert (failure.method, failure.order, failure.grade) == ("first_order", 1, 0)


def test_gauge_pair_validation():
    metric, weight = random_instance(244)
    dn_s = dn_symbol_gauge(metric, weight, 4, "s")
    with pytest.raises(DataError):
        recover_first_order(dn_s, dn_s)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_failed_solve_names_method_order_and_grade(m):
    # the known metric is wrong in its r^m coefficient only, so the weight
    # recovery solves orders below m and first turns inconsistent at order m
    metric, weight = random_instance(212)
    dn = dn_symbol_scalar(metric, weight, 4)
    r = metric.space.coordinate(0, KR, KY)
    bump = r
    for _ in range(m - 1):
        bump = bump * r
    rows = [list(row) for row in metric.g_lower]
    rows[0][0] = rows[0][0] + bump
    with pytest.raises(ReconstructionError) as info:
        recover_weight_scalar(dn, BoundaryMetricJet(rows), 3)
    message = str(info.value)
    assert message.startswith("weight_scalar: order %d (grade %d): " % (m, 1 - m))
    assert "inconsistent linear system" in message


@pytest.mark.parametrize("kind", ["d1V", "d2V"])
def test_an_inconsistent_two_root_step_names_weight_gauge_order_two(kind):
    # the known metric is wrong in its r^2 coefficient only, so the order-2
    # solve that gives theta has no exact solution under either prescription
    metric, weight = random_instance(212)
    dn = dn_symbol_gauge(metric, weight, 4, "s")
    r = metric.space.coordinate(0, KR, KY)
    rows = [list(row) for row in metric.g_lower]
    rows[0][0] = rows[0][0] + r * r
    value = weight.radial_derivative_at_zero(int(kind[1]))
    with pytest.raises(ReconstructionError) as info:
        recover_weight_gauge(dn, BoundaryMetricJet(rows), (kind, value), 3)
    assert str(info.value).startswith("weight_gauge: order 2 (grade -1): ")
    assert info.value.residual > 0
