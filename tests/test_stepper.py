import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cplstab import (SCHEMES, DecayFloorWarning, DimensionlessParams, Layout,
                     ParameterDomainError, SingularMatrixError, State,
                     Trajectory, Tridiagonal, UpdatePair, assemble, assemble_bulk,
                     assemble_one_way, eigen_spectrum, growth_rate,
                     pack_state, power_growth_rate, random_state,
                     run_monolithic, run_partitioned, state_norm,
                     step_monolithic, step_partitioned, tridiagonal_solve,
                     unpack_state, update_matrix)
from cplstab.assembly import ONE_WAY_NEGATIVE, REFLECTIVE

SEED = 0
rng = np.random.default_rng(seed=SEED)


def params(dp=0.0, dm=0.0, bp=0.0, bm=0.0, r=1.0):
    return DimensionlessParams(dp, dm, bp, bm, r)


def dense_pair(a, b, layout):
    """UpdatePair from dense tridiagonal A and B."""
    return UpdatePair(Tridiagonal.from_dense(a), Tridiagonal.from_dense(b), layout)


# ------------------------------------------------------------------- solves

def test_tridiagonal_solve_hand_case():
    a = np.array([[3.0, -1.0, 0.0],
                  [-1.0, 3.0, -1.0],
                  [0.0, -1.0, 3.0]])
    x = tridiagonal_solve(Tridiagonal.from_dense(a), np.array([1.0, 0.0, 0.0]))
    assert x == pytest.approx(np.array([8.0, 3.0, 1.0]) / 21.0, rel=1e-14)


def test_tridiagonal_solve_accepts_bands():
    sub = np.array([-1.0, -1.0])
    diag = np.array([3.0, 3.0, 3.0])
    sup = np.array([-1.0, -1.0])
    x = tridiagonal_solve(Tridiagonal(sub, diag, sup), np.array([1.0, 0.0, 0.0]))
    assert x == pytest.approx(np.array([8.0, 3.0, 1.0]) / 21.0, rel=1e-14)


def test_one_singularity_rule_for_solve_and_update_matrix():
    # a zero elimination pivot is singular even where row exchanges would solve
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SingularMatrixError):
        tridiagonal_solve(Tridiagonal.from_dense(swap), np.ones(2))
    with pytest.raises(SingularMatrixError):
        update_matrix(dense_pair(swap, np.eye(2), Layout("bulk", 1, 1)))
    # not diagonally dominant, but every pivot clears the floor
    a = np.array([[1.0, 4.0, 0.0],
                  [2.0, 1.0, 3.0],
                  [0.0, 1.0, 1.0]])
    rhs = np.array([1.0, 2.0, 3.0])
    x = tridiagonal_solve(Tridiagonal.from_dense(a), rhs)
    assert x == pytest.approx(np.linalg.solve(a, rhs))


def test_tridiagonal_solve_rejects_singular():
    with pytest.raises(SingularMatrixError):
        tridiagonal_solve(Tridiagonal.from_dense(np.zeros((3, 3))), np.ones(3))


def test_tridiagonal_solve_rejects_wide_band():
    with pytest.raises(ParameterDomainError):
        tridiagonal_solve(Tridiagonal.from_dense(np.ones((3, 3))), np.ones(3))


def test_tridiagonal_solve_rejects_non_finite_bands():
    with pytest.raises(ParameterDomainError):
        tridiagonal_solve(Tridiagonal(np.zeros(2), np.array([1.0, np.nan, 1.0]), np.zeros(2)),
                          np.ones(3))
    with pytest.raises(ParameterDomainError):
        tridiagonal_solve(Tridiagonal.from_dense(np.array([[1.0, np.inf], [0.0, 1.0]])),
                          np.ones(2))


@given(n=st.integers(2, 30), seed=st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_tridiagonal_solve_matches_dense(n, seed):
    local = np.random.default_rng(seed=seed)
    sub = local.uniform(-1.0, 1.0, n - 1)
    sup = local.uniform(-1.0, 1.0, n - 1)
    diag = 2.5 + local.uniform(0.0, 1.0, n)
    a = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
    rhs = local.uniform(-1.0, 1.0, n)
    assert tridiagonal_solve(Tridiagonal.from_dense(a), rhs) == pytest.approx(
        np.linalg.solve(a, rhs), rel=1e-11, abs=1e-13)
    rhs = local.uniform(-1.0, 1.0, (n, 3))
    np.testing.assert_allclose(tridiagonal_solve(Tridiagonal.from_dense(a), rhs),
                               np.linalg.solve(a, rhs), rtol=1e-11, atol=1e-13)


# -------------------------------------------------------------------- states

def test_state_rejects_non_finite():
    with pytest.raises(ParameterDomainError):
        State(np.array([1.0, np.nan]), np.array([0.0]))
    with pytest.raises(ParameterDomainError):
        State(np.array([1.0]), np.array([0.0]), shared_node=np.inf)


@given(nm=st.integers(1, 6), np_=st.integers(1, 6),
       kind=st.sampled_from(["bulk", "dirichlet_neumann", "one_way_negative"]),
       seed=st.integers(0, 20))
@settings(max_examples=40, deadline=None)
def test_pack_unpack_round_trip(nm, np_, kind, seed):
    layout = Layout(kind, nm, np_)
    state = random_state(layout, seed=seed)
    vector = pack_state(state, layout)
    assert vector.shape == (layout.n,)
    again = unpack_state(vector, layout, state.step_index)
    assert np.array_equal(pack_state(again, layout), vector)


def test_random_state_unit_norm_and_deterministic():
    layout = Layout("bulk", 5, 4)
    a = random_state(layout, seed=3)
    b = random_state(layout, seed=3)
    assert state_norm(a) == 1.0
    assert np.array_equal(pack_state(a, layout), pack_state(b, layout))


def test_state_norm_includes_shared_node():
    s = State(np.array([0.1]), np.array([0.2]), shared_node=0.9)
    assert state_norm(s) == pytest.approx(0.9)


def test_trajectory_norms_match_states():
    layout = Layout("bulk", 3, 3)
    pair = assemble_bulk(params(dp=0.5, dm=0.5, bp=0.2, bm=0.2), 3, 3,
                         theta=1, gamma=0)
    traj = run_monolithic(pair, random_state(layout, seed=SEED), 10)
    assert len(traj.states) == 11
    for state, norm in zip(traj.states, traj.norms):
        assert norm == state_norm(state)
    steps = [s.step_index for s in traj.states]
    assert steps == sorted(steps)


# -------------------------------------------------- partitioned = monolithic

@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_partitioned_matches_monolithic(name):
    """Substep-by-substep field solves replay the matrix iteration."""
    scheme = SCHEMES[name]
    p = params(dp=0.8, dm=1.3, bp=0.6, bm=0.9, r=2.5)
    nm, np_ = 7, 5
    pair = assemble(scheme, p, nm, np_)
    for trial in range(10):
        state = random_state(pair.layout, seed=trial)
        mono = run_monolithic(pair, state, 100)
        part = run_partitioned(scheme, p, nm, np_, state, 100)
        ref = max(state_norm(s) for s in mono.states)
        drift = max(
            np.abs(pack_state(a, pair.layout) - pack_state(b, pair.layout)).max()
            for a, b in zip(mono.states, part.states))
        assert drift <= 1e-10 * max(ref, 1.0)


def test_step_partitioned_validates_sizes():
    scheme = SCHEMES["bulk-explicit-flux"]
    state = random_state(Layout("bulk", 3, 3), seed=SEED)
    with pytest.raises(ParameterDomainError):
        step_partitioned(scheme, params(dm=0.5), 4, 3, state)


def test_step_monolithic_validates_sizes():
    pair = assemble_bulk(params(dm=0.5), 3, 3, theta=0, gamma=0)
    bad = random_state(Layout("bulk", 2, 2), seed=SEED)
    with pytest.raises(ParameterDomainError):
        step_monolithic(pair, bad)


# -------------------------------------------------------------- conservation

def test_reflective_uncoupled_walls_conserve_heat():
    # beta = 0 with reflective closure: each domain's cell sum is constant
    p = params(dp=0.7, dm=1.1)
    pair = assemble_bulk(p, 5, 4, theta=0, gamma=0, far_field=REFLECTIVE)
    state = random_state(pair.layout, seed=SEED)
    traj = run_monolithic(pair, state, 25)
    minus0 = traj.states[0].t_minus.sum()
    plus0 = traj.states[0].t_plus.sum()
    for prev, cur in zip(traj.states, traj.states[1:]):
        assert cur.t_minus.sum() == pytest.approx(minus0, rel=1e-12, abs=1e-12)
        assert cur.t_plus.sum() == pytest.approx(plus0, rel=1e-12, abs=1e-12)


# ------------------------------------------------------------------- growth

def test_unstable_scheme_norms_blow_up():
    p = params(dm=1.0, bm=4.0)
    pair = assemble_one_way(p, 10, flux="explicit")
    lam = eigen_spectrum(update_matrix(pair)).lambda_max
    assert lam > 1.0
    traj = run_monolithic(pair, random_state(pair.layout, seed=SEED), 60)
    assert traj.norms.max() > 1e3 * traj.norms[0]


def test_growth_rate_scalar_contraction():
    layout = Layout(ONE_WAY_NEGATIVE, 3, 0)
    pair = dense_pair(np.eye(3), 0.5 * np.eye(3), layout)
    traj = run_monolithic(pair, random_state(layout, seed=SEED), 100)
    assert growth_rate(traj) == pytest.approx(0.5, rel=1e-12)


def test_growth_rate_picks_dominant_mode():
    layout = Layout(ONE_WAY_NEGATIVE, 2, 0)
    pair = dense_pair(np.eye(2), np.diag([0.9, 0.2]), layout)
    traj = run_monolithic(pair, random_state(layout, seed=SEED), 120)
    assert growth_rate(traj) == pytest.approx(0.9, rel=1e-9)


def test_growth_rate_needs_enough_norms():
    layout = Layout(ONE_WAY_NEGATIVE, 2, 0)
    pair = dense_pair(np.eye(2), 0.5 * np.eye(2), layout)
    traj = run_monolithic(pair, random_state(layout, seed=SEED), 20)
    with pytest.raises(ParameterDomainError):
        growth_rate(traj)


def test_growth_rate_zero_floor_warns():
    layout = Layout(ONE_WAY_NEGATIVE, 2, 0)
    pair = dense_pair(np.eye(2), np.zeros((2, 2)), layout)
    traj = run_monolithic(pair, random_state(layout, seed=SEED), 80)
    with pytest.warns(DecayFloorWarning):
        growth_rate(traj)
    with pytest.warns(DecayFloorWarning):
        assert power_growth_rate(pair, steps=20, burn_in=0) == 0.0


def test_power_growth_rate_deterministic():
    p = params(dp=0.4, dm=0.9, bp=0.3, bm=0.7)
    pair = assemble_bulk(p, 6, 5, theta=1, gamma=0)
    a = power_growth_rate(pair, steps=200, burn_in=50, seed=SEED)
    b = power_growth_rate(pair, steps=200, burn_in=50, seed=SEED)
    assert a == b


def test_power_growth_rate_rejects_negative_burn_in():
    # a negative burn-in used to fit the last |burn_in| log norms
    pair = assemble_bulk(params(dp=0.4, dm=0.9, bp=0.3, bm=0.7), 6, 5, theta=1, gamma=0)
    with pytest.raises(ParameterDomainError, match="burn_in must be nonnegative"):
        power_growth_rate(pair, steps=20, burn_in=-5)


def test_growth_rate_rejects_negative_burn_in():
    # a negative burn-in used to fit the last |burn_in| norms
    pair = assemble_bulk(params(dp=0.4, dm=0.9, bp=0.3, bm=0.7), 6, 5, theta=1, gamma=1)
    traj = run_monolithic(pair, random_state(pair.layout, seed=SEED), 20)
    with pytest.raises(ParameterDomainError, match="burn_in must be nonnegative"):
        growth_rate(traj, burn_in=-5)
