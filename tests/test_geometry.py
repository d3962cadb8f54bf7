import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from pfoco.geometry import (
    Ball,
    Box,
    L1Ball,
    OracleCounters,
    Polytope,
    Simplex,
    as_vector,
    exact_project,
    loo_query,
    simplex_project_sorted,
    so_query,
    squeeze,
)
from support import (
    SET_KINDS,
    assert_separator_valid,
    make_polytope,
    random_set,
    sample_members,
)


# ----------------------------------------------------------------------
# fixed expected values


def test_simplex_loo_picks_smallest_coordinate():
    s = Simplex(3, 1.0)
    v = s.loo(np.array([3.0, 1.0, 2.0]))
    np.testing.assert_array_equal(v, [0.0, 1.0, 0.0])


def test_simplex_loo_tie_goes_to_lowest_index():
    s = Simplex(3, 2.0)
    v = s.loo(np.array([1.0, 1.0, 5.0]))
    np.testing.assert_array_equal(v, [2.0, 0.0, 0.0])


def test_simplex_project_uniform_point():
    s = Simplex(3, 1.0)
    p = s.project(np.array([0.5, 0.5, 0.5]))
    np.testing.assert_allclose(p, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_simplex_project_matches_sorted_rule():
    p = simplex_project_sorted(np.array([1.0, 1.0]), 1.0)
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-15)
    p = simplex_project_sorted(np.array([0.9, 0.1, 0.0]), 1.0)
    np.testing.assert_allclose(p, [0.9, 0.1, 0.0], atol=1e-15)


def test_l1_project_single_active_coordinate():
    b = L1Ball(2, 1.0)
    p = b.project(np.array([3.0, -1.0]))
    np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-15)


def test_ball_loo_zero_direction():
    b = Ball(3, 2.0)
    np.testing.assert_array_equal(b.loo(np.zeros(3)), [2.0, 0.0, 0.0])


def test_l1_loo_zero_direction():
    b = L1Ball(3, 1.5)
    np.testing.assert_array_equal(b.loo(np.zeros(3)), [1.5, 0.0, 0.0])


def test_box_separator_is_unit_face_normal():
    box = Box([-1.0, -1.0], [1.0, 1.0])
    ans = box.separate(np.array([0.3, 2.0]))
    assert not ans.feasible
    np.testing.assert_array_equal(ans.g, [0.0, 1.0])


def test_box_loo_zero_components_take_upper_face():
    box = Box([-1.0, -2.0], [3.0, 4.0])
    np.testing.assert_array_equal(box.loo(np.array([1.0, 0.0])), [-1.0, 4.0])


def test_ball_separator_is_the_point():
    ball = Ball(2, 1.0)
    y = np.array([3.0, 4.0])
    ans = ball.separate(y)
    assert not ans.feasible
    np.testing.assert_array_equal(ans.g, y)


# ----------------------------------------------------------------------
# radii bookkeeping


def test_declared_radii():
    assert Ball(4, 1.5).r == Ball(4, 1.5).R == 1.5
    box = Box([-1.0, -0.5], [2.0, 0.5])
    assert box.r == 0.5
    assert box.R == pytest.approx(np.sqrt(4.0 + 0.25))
    assert Simplex(5, 1.0).r == 0.0
    assert Simplex(5, 2.0).R == 2.0
    l1 = L1Ball(4, 2.0)
    assert l1.R == 2.0
    assert l1.r == pytest.approx(1.0)


def test_polytope_normalization_and_margin():
    # rows get unit-normalized, so r is the smallest face distance
    poly = Polytope(np.array([[2.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), np.array([2.0, 1.5, 1.0, 1.0]))
    assert poly.r == pytest.approx(1.0)
    assert np.allclose(np.linalg.norm(poly.A, axis=1), 1.0)
    # circumradius over-estimate is at least the true one (vertex (1, 1.5))
    assert poly.R >= np.sqrt(1.0 + 2.25) - 1e-12


def test_polytope_rejects_unbounded():
    with pytest.raises(ValueError):
        Polytope(np.array([[1.0, 0.0]]), np.array([1.0]))


def test_polytope_rejects_origin_outside():
    with pytest.raises(ValueError):
        Polytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.array([1.0, -0.5, 1.0, 1.0]))


def test_polytope_box_matches_clip_projection():
    poly = Polytope(
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        np.array([2.0, 1.0, 1.0, 0.5]),
    )
    p = poly.project(np.array([3.0, 3.0]))
    np.testing.assert_allclose(p, [2.0, 1.0], atol=1e-9)


def test_polytope_loo_matches_box_loo():
    box = Box([-1.0, -0.5], [2.0, 1.0])
    poly = Polytope(
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        np.array([2.0, 1.0, 1.0, 0.5]),
    )
    d = np.array([0.7, -1.3])
    np.testing.assert_allclose(poly.loo(d), box.loo(d), atol=1e-9)


def _linprog_loo(poly, d):
    """Reference LOO: a fresh LP per query."""
    res = linprog(d, A_ub=poly.A, b_ub=poly.b, bounds=(None, None), method="highs")
    assert res.status == 0
    return res.x


def test_polytope_loo_matches_linprog_reference():
    rng = np.random.default_rng(41)
    for _ in range(12):
        poly = make_polytope(rng, int(rng.integers(2, 9)), extra=int(rng.integers(2, 40)))
        for d in rng.standard_normal((25, poly.n)) * rng.uniform(0.01, 100.0):
            v = poly.loo(d)
            ref = _linprog_loo(poly, d)
            assert abs(float(d @ v) - float(d @ ref)) <= 1e-12 * poly.R * np.linalg.norm(d)
            assert poly.contains(v)
            assert np.max(poly.A @ v - poly.b) <= poly._tol()


def test_polytope_loo_independent_of_query_history():
    poly, fresh = (make_polytope(np.random.default_rng(43), 6, extra=20) for _ in range(2))
    rng = np.random.default_rng(44)
    d = rng.standard_normal(6)
    for other in rng.standard_normal((50, 6)):
        poly.loo(other)
    np.testing.assert_array_equal(poly.loo(d), fresh.loo(d))


def test_polytope_loo_zero_direction_is_fixed():
    poly, fresh = (make_polytope(np.random.default_rng(47), 5, extra=10) for _ in range(2))
    first = poly.loo(np.zeros(5))
    for other in np.random.default_rng(48).standard_normal((30, 5)):
        poly.loo(other)
    np.testing.assert_array_equal(poly.loo(np.zeros(5)), first)
    np.testing.assert_array_equal(fresh.loo(np.zeros(5)), first)
    assert poly.contains(first)


def test_polytope_projection_when_a_dykstra_cycle_repeats_its_point():
    # after its second cycle Dykstra's iterate equals the first cycle's
    # while the corrections still move it; stopping there left a dual gap
    # of 2.7 that the certification steps could not close
    poly = random_set(np.random.default_rng([0, 1]), "polytope")
    y = np.array([-2.63736117, 4.44067331, 3.23761629, 2.48257975])
    x = poly.project(y)
    assert poly.contains(x)
    v = poly.loo(x - y)
    assert float((x - v) @ (x - y)) <= Polytope.PROJECT_GAP_TOL
    for z in sample_members(poly, np.random.default_rng(2), 40):
        assert float((y - x) @ (z - x)) <= 1e-9


def _cut_cube():
    """[-1, 1]^3 cut by x + y <= 2 and x + y + z <= 3, faces that touch
    the cube only at its edge x = y = 1 and its corner (1, 1, 1)."""
    A = np.vstack([np.eye(3), -np.eye(3), [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    return Polytope(A, np.array([1.0] * 6 + [2.0, 3.0]))


@pytest.mark.parametrize(
    "y, want, active",
    [([3.0, 3.0, 0.0], [1.0, 1.0, 0.0], 3), ([3.0, 3.0, 3.0], [1.0, 1.0, 1.0], 5)],
)
def test_polytope_projection_onto_degenerate_faces(y, want, active):
    # more faces are active at the answer than its face dimension needs
    # (5 faces at a corner in R^3): the multipliers are not unique
    poly = _cut_cube()
    y = np.array(y)
    x = poly.project(y)
    assert np.max(np.abs(x - want)) <= 1e-12
    assert int(np.sum(np.abs(poly.A @ np.array(want) - poly.b) <= 1e-15)) == active
    assert poly.contains(x)
    v = poly.loo(x - y)
    assert float((x - v) @ (x - y)) <= Polytope.PROJECT_GAP_TOL


def test_polytope_projection_refuses_a_wrong_solver_answer(monkeypatch):
    # with no face chosen the answer is y shrunk toward the origin, which
    # is not the projection here; the dual-gap certificate must catch it
    import scipy.optimize

    poly = _cut_cube()
    y = np.array([3.0, 0.5, -2.0])
    np.testing.assert_allclose(poly.project(y), [1.0, 0.5, -1.0], atol=1e-12)
    monkeypatch.setattr(scipy.optimize, "nnls", lambda E, e: (np.zeros(E.shape[1]), 1.0))
    with pytest.raises(RuntimeError, match="failed to certify"):
        poly.project(y)


def test_polytope_projects_points_far_outside():
    # the certificate's rounding grows with ||x - y||: a tolerance fixed in
    # absolute terms refused some of these points, and nnls with an
    # unscaled constraint row chose wrong faces for others
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        poly = make_polytope(rng, n, extra=int(rng.integers(4, 60)))
        for _ in range(5):
            u = rng.standard_normal(n)
            y = 1e5 * poly.R * u / np.linalg.norm(u)
            x = poly.project(y)
            assert poly.contains(x)
            # obtuse at x toward every member, to the certificate's scale
            d = float(np.linalg.norm(y - x))
            z = sample_members(poly, rng, 20)
            assert np.max((z - x) @ (y - x)) <= Polytope.PROJECT_GAP_TOL * d * poly.R


@pytest.mark.parametrize("far", [False, True], ids=["near", "far"])
def test_polytope_projection_refuses_a_point_moved_off_its_face(far, monkeypatch):
    # y is outside the face x_0 <= 1 alone; an answer moved 1e-6 inside K,
    # off that face, has dual gap about 1e-6 ||x - y||, above the
    # tolerance 1e-10 max(1, ||x - y||) R both 1e-3 and 1.7e5 out
    poly = _cut_cube()
    y = np.array([1e5 * poly.R if far else 1.001, 0.2, 0.1])
    np.testing.assert_allclose(poly.project(y), [1.0, 0.2, 0.1], rtol=0.0, atol=1e-12)
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda A, r, rcond: (lstsq(A, r, rcond=rcond)[0] + 1e-6 * A.sum(axis=0),))
    with pytest.raises(RuntimeError, match="failed to certify"):
        poly.project(y)


def test_polytope_axis_directions_on_box_faces():
    # +-e_i on a polytope with box faces has a whole face of optima
    # (dual degenerate); the answer must still be an optimal member
    rng = np.random.default_rng(53)
    for poly in (make_polytope(rng, 4, extra=0), make_polytope(rng, 5, extra=6)):
        for i in range(poly.n):
            for sign in (1.0, -1.0):
                d = np.zeros(poly.n)
                d[i] = sign
                v = poly.loo(d)
                assert poly.contains(v)
                assert abs(float(d @ v) - float(d @ _linprog_loo(poly, d))) <= 1e-12 * poly.R


# ----------------------------------------------------------------------
# oracle contracts on random instances


def test_loo_minimizes_over_sampled_members():
    rng = np.random.default_rng(7)
    for kind in SET_KINDS:
        for _ in range(6):
            set_ = random_set(rng, kind)
            d = rng.standard_normal(set_.n)
            v = set_.loo(d)
            assert set_.contains(v), f"{kind} LOO vertex left the set"
            best = float(d @ v)
            for z in sample_members(set_, rng, 50):
                assert best <= float(d @ z) + 1e-9


def test_separators_are_sound():
    rng = np.random.default_rng(11)
    for kind in SET_KINDS:
        for _ in range(8):
            set_ = random_set(rng, kind)
            y = rng.standard_normal(set_.n) * 2.0 * set_.R
            ans = set_.separate(y)
            if ans.feasible:
                continue
            assert_separator_valid(set_, y, ans.g)


def test_projection_is_closest_and_obtuse():
    rng = np.random.default_rng(13)
    for kind in SET_KINDS:
        for _ in range(5):
            set_ = random_set(rng, kind)
            y = rng.standard_normal(set_.n) * 1.8 * set_.R
            p = set_.project(y)
            assert set_.contains(p)
            dp = float(np.linalg.norm(y - p))
            for z in sample_members(set_, rng, 40):
                assert dp <= np.linalg.norm(y - z) + 1e-9
                # obtuse-angle optimality condition
                assert float((y - p) @ (z - p)) <= 1e-9 * max(1.0, set_.R**2)


def test_projection_identity_inside():
    rng = np.random.default_rng(17)
    for kind in SET_KINDS:
        set_ = random_set(rng, kind)
        for z in sample_members(set_, rng, 10):
            p = set_.project(0.9 * z if set_.r > 0 else z)
            q = 0.9 * z if set_.r > 0 else z
            assert np.linalg.norm(p - q) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(
    coords=st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=6),
    radius=st.floats(0.1, 5.0),
)
def test_ball_projection_radial(coords, radius):
    y = np.array(coords)
    ball = Ball(len(coords), radius)
    p = ball.project(y)
    nrm = np.linalg.norm(y)
    if nrm <= radius:
        np.testing.assert_array_equal(p, y)
    else:
        np.testing.assert_allclose(p, y * radius / nrm, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    coords=st.lists(st.floats(-8, 8, allow_nan=False), min_size=2, max_size=6),
    radius=st.floats(0.2, 4.0),
)
def test_l1_projection_feasible_and_no_sign_flips(coords, radius):
    y = np.array(coords)
    p = L1Ball(len(coords), radius).project(y)
    assert np.sum(np.abs(p)) <= radius + 1e-9
    assert np.all(p * y >= -1e-15)
    assert np.all(np.abs(p) <= np.abs(y) + 1e-12)


# ----------------------------------------------------------------------
# squeezing


def test_squeeze_factor_one_is_identity():
    ball = Ball(3, 1.0)
    assert squeeze(ball, 1.0) is ball


def test_squeeze_scales_vertices_and_collapses():
    rng = np.random.default_rng(23)
    for kind in SET_KINDS:
        set_ = random_set(rng, kind)
        view = squeeze(squeeze(set_, 0.8), 0.5)
        assert view.factor == pytest.approx(0.4)
        assert view.base is set_
        d = rng.standard_normal(set_.n)
        np.testing.assert_allclose(view.loo(d), 0.4 * set_.loo(d), atol=1e-12)
        assert view.R == pytest.approx(0.4 * set_.R)
        assert view.r == pytest.approx(0.4 * set_.r)


def test_squeezed_membership_distance():
    # a member of K sits within R * delta of the squeezed set
    rng = np.random.default_rng(29)
    for kind in SET_KINDS:
        set_ = random_set(rng, kind)
        for delta in (0.05, 0.3):
            view = squeeze(set_, 1.0 - delta)
            for z in sample_members(set_, rng, 20):
                d = np.linalg.norm(z - exact_project(view, z))
                assert d <= set_.R * delta + 1e-9


def test_squeezed_point_plus_margin_stays_inside():
    # z in (1-delta)(1-dp/r)K implies z + delta*(r-dp)*u in (1-dp/r)K
    rng = np.random.default_rng(31)
    for kind in ("ball", "box", "l1", "polytope"):
        set_ = random_set(rng, kind)
        r = set_.r
        for delta, dp in ((0.2, 0.0), (0.3, 0.4 * r)):
            inner = squeeze(set_, (1.0 - delta) * (1.0 - dp / r))
            outer = squeeze(set_, 1.0 - dp / r)
            for z in sample_members(inner, rng, 15):
                u = rng.standard_normal(set_.n)
                u /= np.linalg.norm(u)
                assert outer.contains(z + delta * (r - dp) * u)


# ----------------------------------------------------------------------
# batched oracles


def _batch_rows(rng, set_, k=40):
    """LOO directions with zero rows and tied entries, and points inside
    and outside the set, some of them with tied entries too."""
    n = set_.n
    ties = np.concatenate([np.round(rng.standard_normal((k // 4, n))), np.full((2, n), 0.7), -np.full((2, n), 1.3)])
    directions = np.concatenate(
        [rng.standard_normal((k // 2, n)) * rng.uniform(0.01, 100.0, (k // 2, 1)), ties, np.zeros((2, n))]
    )
    inside = sample_members(set_, rng, k // 4)
    if set_.r > 0:
        inside = 0.5 * inside
    points = np.concatenate([inside, set_.R * ties / 2.0, rng.standard_normal((k // 2, n)) * 2.0 * set_.R])
    return directions, points


@pytest.mark.parametrize("squeezed", [False, True], ids=["set", "squeezed"])
@pytest.mark.parametrize("kind", SET_KINDS)
def test_batched_oracles_equal_row_by_row(kind, squeezed):
    for seed in range(4):
        # twin sets: the polytope's answer on tied optima depends on its
        # query history, so each side queries a fresh copy in the same order
        batch, single = (random_set(np.random.default_rng([seed, 1]), kind) for _ in range(2))
        if squeezed:
            batch, single = squeeze(batch, 0.6), squeeze(single, 0.6)
        directions, points = _batch_rows(np.random.default_rng([seed, 2]), single)
        for oracle, rows in (("loo", directions), ("project", points)):
            many = getattr(batch, oracle + "_many")(rows)
            one = np.array([getattr(single, oracle)(row) for row in rows])
            assert many.shape == rows.shape
            if kind == "ball":  # a norm is taken: the row norms may round differently
                np.testing.assert_allclose(many, one, rtol=1e-15, atol=0.0)
            else:
                np.testing.assert_array_equal(many, one)


def test_batched_oracles_check_their_input():
    ball = Ball(3, 1.0)
    poly = make_polytope(np.random.default_rng(3), 3)
    assert ball.loo_many(np.zeros((0, 3))).shape == (0, 3)
    for bad in (np.ones(3), np.ones((2, 2)), np.array([[np.inf, 0.0, 0.0]])):
        for oracle in (ball.loo_many, ball.project_many, poly.loo_many):
            with pytest.raises(ValueError):
                oracle(bad)


def _block_by_rows(set_, rows):
    """so_query's block answer asked one row at a time: the index and
    separator of the first refused row (None, None if there is none) and
    the calls charged."""
    counters = OracleCounters()
    for i, y in enumerate(rows):
        ans = so_query(set_, y, counters)
        assert ans.row == 0
        if not ans.feasible:
            return i, ans.g, counters.so_calls
    return None, None, counters.so_calls


def _rim(set_, u):
    """Points c + t u from the set's centre c at the last t that a 1-D
    query accepts and one ulp of t either side (on the ball and the l1
    ball with u = e_0, t = R + tol exactly), found by bisection."""
    c = set_.center
    lo, hi = 0.0, 4.0 * set_.R
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if set_.contains(c + mid * u) else (lo, mid)
    return np.stack([c + t * u for t in (np.nextafter(lo, 0.0), lo, hi)])


def _separation_blocks(rng, set_):
    """Blocks of accepted rows with refusals placed first, last and at
    random, rows on the membership boundary and one ulp either side, and
    an empty block."""
    n = set_.n
    inside = sample_members(set_, rng, 12)
    if set_.r > 0:
        inside = 0.5 * inside
    outside = rng.standard_normal((6, n)) * 2.0 * set_.R
    u = rng.standard_normal(n)  # a rim with every entry nonzero, where the summation order shows
    rims = [_rim(set_, np.eye(n)[0]), _rim(set_, u / np.linalg.norm(u))]
    blocks = [np.zeros((0, n)), inside, np.vstack([outside[:1], inside]), np.vstack([inside, outside[:1]]), *rims]
    blocks += [np.vstack([inside, rim[i:]]) for rim in rims for i in range(3)]
    for _ in range(4):
        mixed = np.vstack([inside, outside[: rng.integers(1, 7)], *rims])
        blocks.append(mixed[rng.permutation(len(mixed))])
    return blocks


@pytest.mark.parametrize("squeezed", [False, True], ids=["set", "squeezed"])
@pytest.mark.parametrize("kind", SET_KINDS)
def test_block_separation_equals_row_by_row(kind, squeezed):
    refused_at = set()
    for seed in range(4):
        set_ = random_set(np.random.default_rng([seed, 3]), kind)
        if squeezed:
            set_ = squeeze(set_, 0.6)
        for rows in _separation_blocks(np.random.default_rng([seed, 4]), set_):
            i, g, calls = _block_by_rows(set_, rows)
            counters = OracleCounters()
            block = so_query(set_, rows, counters)
            assert counters.so_calls == calls
            for ans in (block, set_.separate(rows)):
                assert ans.feasible == (i is None)
                if i is not None:
                    refused_at.add("first" if i == 0 else "last" if i == len(rows) - 1 else "inside")
                    assert ans.row == i and ans.g.dtype == np.float64 and ans.g.tobytes() == g.tobytes()
    assert refused_at == {"first", "inside", "last"}


@pytest.mark.parametrize("squeezed", [False, True], ids=["set", "squeezed"])
@pytest.mark.parametrize("kind", SET_KINDS)
def test_block_separation_checks_its_input(kind, squeezed):
    set_ = random_set(np.random.default_rng(6), kind)
    if squeezed:
        set_ = squeeze(set_, 0.6)
    n = set_.n
    for bad in (np.nan, np.inf, -np.inf):
        rows = np.zeros((3, n))
        rows[2, n - 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            set_.separate(rows)
    for width in (n - 1, n + 1):
        counters = OracleCounters()
        with pytest.raises(ValueError, match="array"):
            so_query(set_, np.zeros((2, width)), counters)
        assert counters.so_calls == 0
        # a single point is charged before its check, as loo_query charges
        with pytest.raises(ValueError, match="dimension"):
            so_query(set_, np.zeros(width), counters)
        assert counters.so_calls == 1
    # contains() answers one point: a block is refused, not taken as "every row"
    with pytest.raises(ValueError, match="1-D"):
        set_.contains(np.zeros((2, n)))


# ----------------------------------------------------------------------
# bookkeeping details


def test_counters_charge_loo_and_so_but_not_project():
    ball = Ball(2, 1.0)
    counters = OracleCounters()
    loo_query(ball, np.array([1.0, 0.0]), counters)
    so_query(ball, np.array([3.0, 0.0]), counters)
    so_query(ball, np.array([0.1, 0.0]), counters)
    exact_project(ball, np.array([5.0, 0.0]))
    assert counters.loo_calls == 1
    assert counters.so_calls == 2


def test_membership_tolerance_is_relative():
    ball = Ball(2, 1.0)
    assert ball.contains(np.array([1.0 + 1e-13, 0.0]))
    assert not ball.contains(np.array([1.0 + 1e-9, 0.0]))


def test_dimension_mismatch_raises():
    ball = Ball(3, 1.0)
    with pytest.raises(ValueError):
        ball.loo(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ball.separate(np.array([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(ValueError):
        Box([-1.0, -1.0], [1.0, 1.0]).project(np.ones(3))


def test_non_finite_input_raises():
    with pytest.raises(ValueError):
        Ball(2, 1.0).loo(np.array([np.nan, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_as_vector_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="non-finite"):
        as_vector([0.5, bad, 1.0])


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
def test_as_vector_accepts_entries_whose_squares_overflow():
    # the sum of squares overflows to inf (NumPy warns), so the finiteness
    # check must fall back to looking at the entries themselves
    v = as_vector([1e200, -1e200])
    assert v.dtype == np.float64 and v.tolist() == [1e200, -1e200]


@pytest.mark.parametrize("squeezed", [False, True], ids=["set", "squeezed"])
@pytest.mark.parametrize("kind", SET_KINDS)
def test_separate_checks_its_point(kind, squeezed):
    set_ = random_set(np.random.default_rng(5), kind)
    if squeezed:
        set_ = squeeze(set_, 0.6)
    n = set_.n
    for bad in (np.nan, np.inf):
        point = np.zeros(n)
        point[n - 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            set_.separate(point)
    for length in (n - 1, n + 1):
        with pytest.raises(ValueError, match="dimension mismatch"):
            set_.separate(np.zeros(length))


def test_polytope_loo_vertices_exactly_feasible():
    rng = np.random.default_rng(37)
    poly = make_polytope(rng, 3)
    for _ in range(20):
        v = poly.loo(rng.standard_normal(3))
        assert np.max(poly.A @ v - poly.b) <= 0.0 + poly._tol()
