import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfoco import geometry
from pfoco.frankwolfe import separating_hyperplane_fw
from pfoco.geometry import (
    Ball,
    Box,
    L1Ball,
    OracleCounters,
    Polytope,
    Simplex,
    SqueezedSetView,
    as_vector,
    loo_query,
    simplex_project_sorted,
    so_query,
    squeeze,
)
from pfoco.harness import strided_intervals
from pfoco.learners import loo_bogd_params, loo_run
from pfoco.losses import make_switching_linear_schedule
from support import (
    SET_KINDS,
    assert_separator_valid,
    loo_reference,
    make_cut_cube,
    make_polytope,
    random_set,
    sample_members,
    separate_reference,
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
    assert not np.shares_memory(ans.g, y)  # a new array: the caller may reuse y


def test_simplex_separator_takes_the_face_on_a_tie():
    # -y_0 = 0.5 below the face x_0 >= 0 and (sum(y) - 1) / sqrt(4) = 0.5
    # off the plane: on the tie the face's normal is the separator
    ans = Simplex(4, 1.0).separate(np.array([-0.5, 1.0, 0.5, 1.0]))
    assert not ans.feasible
    np.testing.assert_array_equal(ans.g, [-1.0, 0.0, 0.0, 0.0])
    ans = Simplex(4, 1.0).separate(np.array([-0.25, 1.0, 0.5, 1.0]))
    np.testing.assert_array_equal(ans.g, [0.5, 0.5, 0.5, 0.5])


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
    """An unbounded polytope is refused by name, with no LP solver: one
    that contains a line by the walk to its construction vertex, one
    with a vertex by the simplex pass over +-e_i."""
    for A, b in (
        ([[1.0, 0.0]], [1.0]),  # a half-plane: the walk
        ([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], [1.0, 1.0]),  # a slab in R^3: the walk
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]),  # the cone x, y <= 1: the pass
        ([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], [1.0, 1.0, 1.0]),  # a half-strip: the pass
    ):
        with pytest.raises(ValueError, match="unbounded"):
            Polytope(np.array(A), np.array(b))


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


def test_polytope_loo_matches_linprog_reference():
    rng = np.random.default_rng(41)
    for _ in range(12):
        poly = make_polytope(rng, int(rng.integers(2, 9)), extra=int(rng.integers(2, 40)))
        D = rng.standard_normal((25, poly.n)) * rng.uniform(0.01, 100.0)
        for d, ref in zip(D, loo_reference(poly, D)):
            v = poly.loo(d)
            assert abs(float(d @ v) - float(d @ ref)) <= 1e-12 * poly.R * np.linalg.norm(d)
            assert poly.contains(v)
            assert np.max(poly.A @ v - poly.b) <= poly._tol()


def test_polytope_loo_independent_of_query_history():
    """Every answer, tied or not, is the one a fresh polytope gives: on a
    box with cuts, each +-e_i (a whole face of optima) asked in shuffled
    order, and certified, tied and zero rows after 50 random queries,
    by ``loo`` and by ``loo_many``; and every direction into the normal
    cone of the cut cube's five-face corner settles to that corner."""
    for seed in range(20):
        def make():
            return make_polytope(np.random.default_rng([seed, 9]), 2 + seed % 6, extra=3)

        poly = make()
        rng = np.random.default_rng([seed, 10])
        eye = np.eye(poly.n)
        for d in np.concatenate([eye, -eye])[rng.permutation(2 * poly.n)]:
            np.testing.assert_array_equal(poly.loo(d), make().loo(d))
        for d in rng.standard_normal((50, poly.n)):
            poly.loo(d)
        D = _mixed_rows(rng, poly.n)
        answers = np.array([poly.loo(d) for d in D])
        fresh = make()
        np.testing.assert_array_equal(answers, np.array([fresh.loo(d) for d in D[::-1]])[::-1])
        np.testing.assert_array_equal(poly.loo_many(D), answers)
    poly = _cut_cube()
    active = np.abs(poly.A @ np.ones(3) - poly.b) <= 1e-15
    D = -np.random.default_rng(6).uniform(0.1, 1.0, (40, 5)) @ poly.A[active]
    for V in (poly.loo_many(D), np.array([poly.loo(d) for d in D])):
        assert np.max(np.abs(V - 1.0)) <= 1e-12


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
    # absolute terms refused some of these points, nnls with an unscaled
    # constraint row chose wrong faces for others, and at 1e7 R the gap
    # form 1/2 ||x - y||^2 + 1/2 ||A^T lam||^2 - lam @ (A y - b) refused
    # 44 of the 150 on the rounding of its cancelling terms
    for far in (1e5, 1e7):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            poly = make_polytope(rng, n, extra=int(rng.integers(4, 60)))
            for _ in range(5):
                u = rng.standard_normal(n)
                y = far * poly.R * u / np.linalg.norm(u)
                x = poly.project(y)
                assert poly.contains(x)
                # obtuse at x toward every member, to the certificate's scale
                d = float(np.linalg.norm(y - x))
                z = sample_members(poly, rng, 20)
                assert np.max((z - x) @ (y - x)) <= Polytope.PROJECT_GAP_TOL * d * poly.R


def test_polytope_project_asks_no_loo(monkeypatch):
    # the KKT multipliers of the chosen faces certify each answer: no LOO
    # is asked or settled, from points just outside a face or 1e5 R out
    rng = np.random.default_rng(44)
    poly = make_cut_cube(rng, 4, 24)

    def refuse(_):
        raise AssertionError("project asked the LOO")

    monkeypatch.setattr(poly, "loo", refuse)
    monkeypatch.setattr(poly, "loo_many", refuse)
    u = rng.standard_normal((40, 4))
    rim = u / np.max(u @ poly.A.T / poly.b, axis=1)[:, None]
    far = 1e5 * poly.R * u / np.linalg.norm(u, axis=1)[:, None]
    Y = np.concatenate([1.001 * rim, far])
    assert not any(poly.contains(y) for y in Y)
    X, settled = _settles(poly, lambda p: np.array([p.project(y) for y in Y]))
    assert settled.shape == (0, 4)
    assert all(poly.contains(x) for x in X)


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
        eye = np.eye(poly.n)
        D = np.concatenate([eye, -eye])
        for d, ref in zip(D, loo_reference(poly, D)):
            v = poly.loo(d)
            assert poly.contains(v)
            assert abs(float(d @ v) - float(d @ ref)) <= 1e-12 * poly.R


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
                d = np.linalg.norm(z - view.project(z))
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
        # twin sets, so that neither side's queries fill the other's
        # start table
        batch, single = (random_set(np.random.default_rng([seed, 1]), kind) for _ in range(2))
        if squeezed:
            batch, single = squeeze(batch, 0.6), squeeze(single, 0.6)
        directions, points = _batch_rows(np.random.default_rng([seed, 2]), single)
        for oracle, rows in (("loo", directions), ("project", points)):
            many = getattr(batch, oracle + "_many")(rows)
            one = np.array([getattr(single, oracle)(row) for row in rows])
            assert many.shape == rows.shape
            np.testing.assert_array_equal(many, one)


# Entries of projection rows: ties and signed zeros, general values, and
# entries so large that u_0 - (u_0 - s) is 0, so that no coordinate of
# their row passes the threshold test and the sorted rule falls back to
# rho = n.
_PROJECTION_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 3.0]),
    st.floats(-50.0, 50.0, allow_nan=False),
    st.sampled_from([1e20, -1e20]),
)


def _bits_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 17])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_batched_projection_equals_the_sorted_rule_row_by_row(n, data):
    rows = data.draw(st.lists(st.lists(_PROJECTION_ENTRIES, min_size=n, max_size=n), min_size=1, max_size=12))
    # zero rows of both signs, inside K, and a row where no coordinate
    # passes at s = 1 (u_0 - (u_0 - 1) == 0), so its threshold is t_{n-1}
    mixed = np.array(rows + [[0.0] * n, [-0.0] * n, [1e20] + [0.0] * (n - 1)])
    l1, simplex = L1Ball(n, 1.0), Simplex(n, 1.0)
    outside = mixed[np.abs(mixed).sum(axis=1) > l1.R]
    for Y in (mixed, outside):  # a block mixed inside and outside K, and one all outside
        for s in (0.5, 1.0, 3.0):
            many = geometry._simplex_project_rows(Y, s)
            assert _bits_equal(many, simplex_project_sorted(Y, s))
            assert _bits_equal(many, np.array([simplex_project_sorted(y, s) for y in Y]).reshape(Y.shape))
        for set_ in (l1, simplex):
            assert _bits_equal(set_.project_many(Y), np.array([set_.project(y) for y in Y]).reshape(Y.shape))


def _interval_sums(rng, n, k=120, T=60):
    """Sums of random loss coefficients over k random intervals of [1, T],
    as a linear comparator asks them."""
    prefix = np.concatenate([np.zeros((1, n)), np.cumsum(rng.standard_normal((T, n)), axis=0)])
    s = rng.integers(0, T, k)
    e = rng.integers(s + 1, T + 1)
    return prefix[e] - prefix[s]


def _settles(poly, ask):
    """``ask(poly)`` and the rows it settled (``_settled`` calls): the
    directions no certificate held for."""
    settle, rows = poly._settled, []

    def counted(D):
        rows.extend(D)
        return settle(D)

    poly._settled = counted
    try:
        return ask(poly), np.array(rows).reshape(-1, poly.n)
    finally:
        del poly._settled


def _loo_many_settles(poly, D):
    """loo_many's answer and the rows it settled."""
    return _settles(poly, lambda p: p.loo_many(D))


def _loo_settles(poly, D):
    """``loo`` of every row of D in order, and the rows it settled."""
    return _settles(poly, lambda p: np.array([p.loo(d) for d in D]))


def _assert_reference_answers(poly, D, answers, settled):
    """Certified rows (those not in ``settled``) have the bits of
    :func:`loo_reference`; settled rows (ties, zero rows, degenerate
    vertices) are members with its value, to 1e-12 R ||d||."""
    ref = loo_reference(poly, D)
    keys = {row.tobytes() for row in settled}
    tied = np.array([row.tobytes() in keys for row in D], dtype=bool)
    np.testing.assert_array_equal(answers[~tied], ref[~tied])
    for d, v, w in zip(D[tied], answers[tied], ref[tied]):
        assert poly.contains(v)
        assert abs(d @ v - d @ w) <= 1e-12 * poly.R * np.linalg.norm(d)


def _fw_directions(poly, rng, runs=6):
    """The LOO directions of separating-hyperplane Frank-Wolfe runs on
    poly, toward points outside and inside it, and poly's answers."""
    asked, loo = [], poly.loo
    poly.loo = lambda d: asked.append((d, v := loo(d))) or v
    try:
        for _ in range(runs):
            y = rng.standard_normal(poly.n) * rng.uniform(0.3, 2.0) * poly.R / np.sqrt(poly.n)
            separating_hyperplane_fw(poly, poly.loo(rng.standard_normal(poly.n)), y, 1e-3 * poly.R**2)
    finally:
        del poly.loo
    return np.array([d for d, _ in asked]), np.array([v for _, v in asked])


def _mixed_rows(rng, n, k=24):
    """Certified, tied and zero directions interleaved.  Each axis
    direction, a tie on a box face, follows a generic row whose vertex
    lies on that face, where a walk from that vertex would stop at once;
    rounded rows tie on faces too."""
    eye, rows = np.eye(n), []
    for _ in range(k):
        e = rng.choice([-1.0, 1.0]) * eye[rng.integers(n)]
        rows += [5.0 * e + rng.standard_normal(n), e]
        if rng.random() < 0.3:
            rows.append(np.zeros(n))
        if rng.random() < 0.3:
            rows.append(np.round(rng.standard_normal(n)))
    return np.array(rows)


def test_polytope_loo_gives_the_reference_answers():
    """A single ``loo`` call answers a unique, nondegenerate optimum by
    its warm simplex with the bits of an LP solver's vertex, and settles
    every other direction to a member with the LP's value."""
    for seed in range(4):
        for make in (
            lambda rng: make_polytope(rng, int(rng.integers(2, 9)), extra=int(rng.integers(2, 40))),
            lambda rng: make_cut_cube(rng, 10, 60),
        ):
            poly = make(np.random.default_rng([seed, 5]))
            rng = np.random.default_rng([seed, 6])
            D = rng.standard_normal((40, poly.n)) * rng.uniform(0.01, 100.0, (40, 1))
            answers, settled = _loo_settles(poly, D)
            assert len(settled) == 0
            np.testing.assert_array_equal(answers, loo_reference(poly, D))
            # a learner's sequence, each direction made from the answers
            # before it; near the end of a run x - y can be normal to an
            # edge of optima, a tie
            (D, answers), settled = _settles(poly, lambda p: _fw_directions(p, rng))
            assert len(D) > 20 and len(poly._keys) > 1 and len(settled) <= 0.05 * len(D)
            _assert_reference_answers(poly, D, answers, settled)
        # box faces, alone and cut: axis and rounded rows tie and are settled
        for extra in (0, 3):
            poly = make_polytope(np.random.default_rng([seed, 7]), 4 + seed, extra=extra)
            D = _mixed_rows(np.random.default_rng([seed, 8]), poly.n)
            answers, settled = _loo_settles(poly, D)
            assert len(settled) > 0
            _assert_reference_answers(poly, D, answers, settled)
            np.testing.assert_array_equal(poly.loo_many(D), answers)


@pytest.mark.parametrize(("cap", "rows"), [(0, None), (1, None), (None, 1), (None, 2), (1, 2)])
def test_polytope_loo_at_its_pivot_cap_and_with_a_full_start_table(cap, rows, monkeypatch):
    """A warm walk stopped by ``PIVOT_CAP`` is settled, and a full start
    table keeps the vertices it holds: answers keep the bits of an LP
    solver's vertex either way, on the settled rows too."""
    if cap is not None:
        monkeypatch.setattr(Polytope, "PIVOT_CAP", cap)
    if rows is not None:
        monkeypatch.setattr(Polytope, "TABLE_ROWS", rows)
    poly = make_cut_cube(np.random.default_rng(73), 10, 60)
    rng = np.random.default_rng(74)
    # random rows, many pivots from any start, and rows whose optimum is
    # the construction vertex or a few pivots from it (the multipliers
    # there are lam, some of them negative)
    lam = rng.uniform(-0.3, 1.0, (40, 10))
    D = np.concatenate([rng.standard_normal((40, 10)), -lam @ poly.A[poly._tab_T[0]]])
    ref = loo_reference(poly, D)
    answers, settled = _loo_settles(poly, D)
    np.testing.assert_array_equal(answers, ref)
    many, settled_many = _loo_many_settles(poly, D)
    np.testing.assert_array_equal(many, ref)
    if cap is not None:
        assert 0 < len(settled) < len(D) and 0 < len(settled_many) < len(D)
    if rows is not None:
        assert len(poly._keys) == rows  # full
    elif cap is None:
        assert 1 < len(poly._keys) < poly.TABLE_ROWS


def test_polytope_loo_many_after_a_learner_run():
    """A learner's warm LOO calls fill the start table; a comparator scan
    after them settles nothing and answers as one on a fresh set and as
    an LP solver (a re-score on a fresh polytope relies on it)."""
    poly, fresh = (make_cut_cube(np.random.default_rng(61), 10, 60) for _ in range(2))
    rng = np.random.default_rng(62)
    T = 200
    sched = make_switching_linear_schedule(T, 10, poly.R, [(20, rng.standard_normal(10)) for _ in range(10)])
    trace = loo_run(poly, sched, loo_bogd_params(poly, sched.G_f, T, eps=0.08, K=20))
    assert trace.counters.loo_calls > 50 and len(poly._keys) > 10
    prefix = np.concatenate([np.zeros((1, 10)), np.cumsum(sched.family.C[sched.rows], axis=0)])
    S, E = np.array(strided_intervals(T, sched.boundaries)).T
    D = prefix[E] - prefix[S - 1]
    many, settled = _loo_many_settles(poly, D)
    assert len(settled) == 0
    np.testing.assert_array_equal(many, fresh.loo_many(D))
    np.testing.assert_array_equal(many, loo_reference(poly, D))


def test_polytope_loo_tail_solves_as_numpy_linalg(monkeypatch):
    """The warm LOO's tail, which takes its vertex solve and the
    certificate's inverse from NumPy's LAPACK gufuncs, gives the bits of
    ``np.linalg.solve`` and ``np.linalg.inv`` on every tight block of a
    learner's run, and their ``LinAlgError`` on a singular block."""
    tail, blocks = geometry._solve_and_inverse, []

    def recorded(A, b):
        blocks.append((A.copy(), b.copy()))
        return tail(A, b)

    monkeypatch.setattr(geometry, "_solve_and_inverse", recorded)
    poly = make_cut_cube(np.random.default_rng(63), 10, 60)
    rng = np.random.default_rng(64)
    T = 200
    sched = make_switching_linear_schedule(T, 10, poly.R, [(20, rng.standard_normal(10)) for _ in range(10)])
    trace = loo_run(poly, sched, loo_bogd_params(poly, sched.G_f, T, eps=0.08, K=20))
    assert trace.counters.loo_calls > 50 and len(blocks) > 50
    for A, b in blocks:
        v, Binv = tail(A, b)
        assert v.tobytes() == np.linalg.solve(A, b).tobytes()
        assert Binv.tobytes() == np.linalg.inv(A).tobytes()
    A, b = blocks[0]
    A[1] = A[0]  # two tight rows on one face
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        tail(A, b)
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        np.linalg.inv(A)


def test_polytope_loo_many_takes_the_block_path():
    """Rows with a unique, nondegenerate optimum are certified by the
    block pass; tied and zero rows are settled, to members with an LP
    solver's value, and a tied query after the block repeats its answer."""
    for seed in range(4):
        for make in (
            lambda rng: make_polytope(rng, int(rng.integers(2, 7)), extra=int(rng.integers(2, 12))),
            lambda rng: make_cut_cube(rng, 10, 60),
        ):
            poly = make(np.random.default_rng([seed, 3]))
            poly.BLOCK_ROWS = 32  # several simplex passes per call
            D = _interval_sums(np.random.default_rng([seed, 4]), poly.n)
            # axis directions on the box faces have a whole face of optima
            eye, zero = np.eye(poly.n), np.zeros((2, poly.n))
            tied = np.concatenate([eye[:2], D[:5], -eye, zero, D[5:8], eye[2:], D[8:10]])
            for block, ties in ((D, False), (tied, True)):
                many, settled = _loo_many_settles(poly, block)
                assert len(settled) >= 1 if ties else len(settled) == 0
                _assert_reference_answers(poly, block, many, settled)
            np.testing.assert_array_equal(poly.loo(eye[0]), many[0])
    # into the normal cone of the corner (1, 1, 1) where five faces meet:
    # a unique optimum, but a degenerate vertex, so every row is settled
    poly = _cut_cube()
    active = np.abs(poly.A @ np.ones(3) - poly.b) <= 1e-15
    D = -np.random.default_rng(5).uniform(0.1, 1.0, (40, 5)) @ poly.A[active]
    many, settled = _loo_many_settles(poly, D)
    assert len(settled) == len(D)
    _assert_reference_answers(poly, D, many, settled)


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


def _wide_sets(kind):
    """Sets of dimension 8 and more, where NumPy's pairwise sums and
    BLAS kernels take other paths than on the random sets' 2-7."""
    rng = np.random.default_rng(61)
    return {
        "ball": lambda: [Ball(16, 1.3)],
        "box": lambda: [Box(-rng.uniform(0.1, 2.0, 11), rng.uniform(0.1, 2.0, 11))],
        "simplex": lambda: [Simplex(17, 1.5)],
        "l1": lambda: [L1Ball(8, 1.0), L1Ball(23, 2.0)],
        "polytope": lambda: [make_cut_cube(rng, 10, 60)],
    }[kind]()


def _assert_same_answer(ans, ref):
    assert ans.feasible == ref.feasible
    if not ref.feasible:
        assert ans.row == ref.row and ans.g.dtype == np.float64 and ans.g.tobytes() == ref.g.tobytes()


@pytest.mark.parametrize("squeezed", [False, True], ids=["set", "squeezed"])
@pytest.mark.parametrize("kind", SET_KINDS)
def test_block_separation_equals_row_by_row(kind, squeezed):
    """Every block, and every row asked alone, gets the reply of the sets'
    1-D rules (``separate_reference``): the same membership, refused row
    and separator bytes, on rims one ulp either side of the boundary too;
    and so_query charges a block what a row-by-row loop is charged."""
    refused_at = set()
    sets = [random_set(np.random.default_rng([seed, 3]), kind) for seed in range(4)] + _wide_sets(kind)
    for seed, set_ in enumerate(sets):
        if squeezed:
            set_ = squeeze(set_, 0.6)
        rng = np.random.default_rng([seed, 4])
        blocks = _separation_blocks(rng, set_)
        U = rng.standard_normal((8, set_.n))
        blocks.append(np.vstack([_rim(set_, u / np.linalg.norm(u)) for u in U]))
        for rows in blocks:
            ref = separate_reference(set_, rows)
            i, g, calls = _block_by_rows(set_, rows)
            assert ref.feasible == (i is None)
            counters = OracleCounters()
            block = so_query(set_, rows, counters)
            assert counters.so_calls == calls
            for ans in (block, set_.separate(rows)):
                _assert_same_answer(ans, ref)
                if i is not None:
                    refused_at.add("first" if i == 0 else "last" if i == len(rows) - 1 else "inside")
                    assert ans.g.tobytes() == g.tobytes()
            for y in rows:
                _assert_same_answer(set_.separate(y), separate_reference(set_, y))
                assert set_.contains(y) == separate_reference(set_, y).feasible
    assert refused_at == {"first", "inside", "last"}


def test_every_set_class_binds_its_own_separate():
    # perfbench/tracing.py wraps only the methods in a class's own
    # namespace; an inherited separate would leave its counts at 0
    for cls in (Ball, Box, Simplex, L1Ball, Polytope, SqueezedSetView):
        assert "separate" in vars(cls), cls.__name__


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
    ball.project(np.array([5.0, 0.0]))
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


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
def test_points_and_blocks_accept_and_refuse_the_same_entries():
    # a point is proved finite by a finite sum of squares (NumPy warns when
    # it overflows, above about 1e154), falling back to the entry-wise scan;
    # a block is scanned entry by entry; both accept exactly the finite entries
    ball = Ball(3, 1.0)
    rows = [
        [0.0, -0.0, 5e-324],
        [1e200, -1e200, 1e200],
        [1.7e308, 1.7e308, 0.0],
        [np.inf, 0.0, 0.0],
        [-np.inf, np.inf, 0.0],
        [np.nan, 1.0, 0.0],
    ]

    def accepts(check, x):
        try:
            check(x)
        except ValueError as e:
            assert "non-finite" in str(e)
            return False
        return True

    for row in rows:
        finite = bool(np.isfinite(row).all())
        assert accepts(ball._check_dim, np.array(row)) == finite, row
        for k in (1, 2, 3000):  # a block of one, a few rows, a comparator scan's size
            assert accepts(ball._check_rows, np.tile(row, (k, 1))) == finite, (row, k)


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
