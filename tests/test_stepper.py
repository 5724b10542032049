import gc
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from cplstab import (SCHEMES, DecayFloorWarning, DimensionlessParams, Layout,
                     ParameterDomainError, SingularMatrixError, State,
                     Tridiagonal, UpdatePair, assemble, eigen_spectrum,
                     pack_state, power_growth_rate, random_state,
                     run_monolithic, run_partitioned, state_norm,
                     step_monolithic, step_partitioned, tridiagonal_solve,
                     unpack_state, update_matrix)
from cplstab import spectral, stepper
from cplstab.cli import cli_main
from cplstab.assembly import ONE_WAY_NEGATIVE

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


@pytest.mark.parametrize("rhs, message", [
    (np.ones(2), "rhs length does not match the matrix"),
    (np.ones((4, 2)), "rhs length does not match the matrix"),
    (np.ones((3, 2, 2)), "rhs length does not match the matrix"),
    (np.array([1.0, np.nan, 1.0]), "rhs has non-finite entries"),
    (np.array([[1.0], [np.inf], [1.0]]), "rhs has non-finite entries"),
])
def test_tridiagonal_solve_rejects_a_bad_right_hand_side(rhs, message):
    a = Tridiagonal(np.full(2, -1.0), np.full(3, 3.0), np.full(2, -1.0))
    with pytest.raises(ParameterDomainError, match=message):
        tridiagonal_solve(a, rhs)


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


def seeded_scheme_pairs():
    """Seeded assembled pairs of all eight schemes with n = 1..120 unknowns."""
    local = np.random.default_rng(seed=SEED + 12)
    pairs = []
    for n in range(1, 121):
        for name, scheme in sorted(SCHEMES.items()):
            shared = scheme.coupling in ("dn-explicit", "dn-implicit")
            if scheme.coupling == "one-way":
                nm, np_ = n, 1
            elif n >= 3 or (n == 2 and not shared):
                nm = int(local.integers(1, n - shared))
                np_ = n - shared - nm
            else:
                continue
            dp, dm, bp, bm, r = (float(v) for v in 10.0 ** local.uniform(-1.5, 1.5, size=5))
            pair = assemble(scheme, params(dp, dm, bp, bm, r), nm, np_)
            assert pair.n == n
            pairs.append((name, pair))
    return pairs


def banded(a):
    ab = np.zeros((3, a.n))
    ab[0, 1:], ab[1], ab[2, :-1] = a.sup, a.diag, a.sub
    return ab


def test_tridiagonal_solve_is_bit_identical_to_solve_banded():
    # the factored solve (dgttrf once, dgttrs per call) runs gtsv's elimination
    pairs = seeded_scheme_pairs()
    assert {name for name, _ in pairs} == set(SCHEMES)
    local = np.random.default_rng(seed=SEED + 13)
    for _, pair in pairs:
        for rhs in (local.standard_normal(pair.n), local.standard_normal((pair.n, 3)),
                    pair.B.toarray()):
            for _ in range(2):  # the second solve reuses the stored factors
                x = tridiagonal_solve(pair.A, rhs)
                expected = scipy.linalg.solve_banded((1, 1), banded(pair.A), rhs)
                assert x.shape == expected.shape
                assert x.tobytes() == expected.tobytes()


def test_power_growth_rate_is_bit_identical_to_a_solve_banded_loop():
    for _, pair in seeded_scheme_pairs()[::9]:
        vector = pack_state(random_state(pair.layout, seed=3), pair.layout)
        log_norms, total = [0.0], 0.0  # the initial state is step 0
        for _ in range(80):
            vector = scipy.linalg.solve_banded((1, 1), banded(pair.A), pair.B @ vector)
            gain = np.abs(vector).max()
            total += np.log(gain)
            log_norms.append(total)
            vector = vector / gain
        # the stepping is bit for bit; the fit is the one fit of the package
        expected = stepper.prefix_growth(log_norms, 20)[-1]
        assert power_growth_rate(pair, steps=80, burn_in=20, seed=3) == expected
        assert expected == pytest.approx(np.exp(np.polyfit(np.arange(61), log_norms[20:], 1)[0]),
                                         rel=1e-14)


def test_tridiagonal_solve_factors_each_matrix_once():
    a = Tridiagonal(np.full(5, -1.0), np.full(6, 3.0), np.full(5, -0.5))
    with mock.patch.object(spectral.lapack, "dgttrf", wraps=spectral.lapack.dgttrf) as dgttrf:
        for k in range(4):
            tridiagonal_solve(a, np.full(6, float(k)))
        tridiagonal_solve(a, np.eye(6))
    assert dgttrf.call_count == 1
    # the stored factors do not keep their matrix alive
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None


def test_singular_matrix_raises_on_every_solve():
    for a in (Tridiagonal.from_dense(np.zeros((3, 3))),
              Tridiagonal.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]])),
              Tridiagonal([2.0, 2.0], [1.0, 4.0, 1.0], [2.0, 2.0])):
        for _ in range(3):
            with pytest.raises(SingularMatrixError):
                tridiagonal_solve(a, np.ones(a.n))


@pytest.mark.parametrize("n", [1, 2])
def test_tridiagonal_solve_of_one_and_two_unknowns(n):
    a = Tridiagonal.from_dense(np.array([[3.0, -1.0], [2.0, 5.0]])[:n, :n])
    for rhs in (np.arange(1.0, n + 1.0), np.arange(1.0, 2 * n + 1.0).reshape(n, 2)):
        for _ in range(2):
            x = tridiagonal_solve(a, rhs)
            assert x.tobytes() == scipy.linalg.solve_banded((1, 1), banded(a), rhs).tobytes()
            np.testing.assert_allclose(x, np.linalg.solve(a.toarray(), rhs), rtol=1e-15)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_partitioned_operators_cannot_go_stale(name):
    # interleaved runs over two parameter sets and two sizes share the cache
    # of built steps; each step must equal the same step computed from a
    # cleared cache
    sets = [params(dp=0.8, dm=1.3, bp=0.6, bm=0.9, r=2.5),
            params(dp=0.3, dm=0.5, bp=1.7, bm=0.2, r=0.4)]
    cases = [(SCHEMES[name], p, nm, np_) for p in sets for nm, np_ in [(7, 5), (4, 9)]]
    runs = {case: [random_state(assemble(*case).layout, seed=k)]
            for k, case in enumerate(cases)}
    stepper._partitioned_step.cache_clear()
    for _ in range(6):
        for case, states in runs.items():
            states.append(step_partitioned(*case, states[-1]))
    assert stepper._partitioned_step.cache_info().hits == 5 * len(cases)
    for case, states in runs.items():
        layout = assemble(*case).layout
        state = states[0]
        for expected in states[1:]:
            stepper._partitioned_step.cache_clear()
            state = step_partitioned(*case, state)
            assert pack_state(state, layout).tobytes() == pack_state(expected, layout).tobytes()


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
    # the renormalized run of simulate and power_growth_rate keeps the log
    # of the norms that the raw states of a trajectory have
    layout = Layout("bulk", 3, 3)
    pair = assemble(SCHEMES["bulk-partial-flux"], params(dp=0.5, dm=0.5, bp=0.2, bm=0.2), 3, 3)
    state = random_state(layout, seed=SEED)
    traj = run_monolithic(pair, state, 10)
    assert len(traj.states) == 11
    assert [s.step_index for s in traj.states] == list(range(11))
    log_norms = stepper.renormalized_log_norms(
        lambda v: tridiagonal_solve(pair.A, pair.B @ v), pack_state(state, layout), 10)
    for s, total in zip(traj.states[1:], log_norms, strict=True):
        assert np.log(state_norm(s)) == pytest.approx(total, rel=1e-13, abs=1e-13)


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


def test_step_partitioned_validates_the_one_way_size():
    scheme = SCHEMES["one-way-explicit-flux"]
    state = random_state(Layout(ONE_WAY_NEGATIVE, 3, 1), seed=SEED)
    with pytest.raises(ParameterDomainError, match="state size does not match n_minus"):
        step_partitioned(scheme, params(dm=0.5, bm=0.5), 4, 1, state)


@pytest.mark.parametrize("name", ["dn-explicit", "dn-implicit"])
def test_dirichlet_neumann_state_needs_its_shared_node(name):
    layout = assemble(SCHEMES[name], params(dp=0.5, dm=0.5), 3, 2).layout
    state = State(np.ones(3), np.ones(2))
    with pytest.raises(ParameterDomainError, match="needs a shared node value"):
        step_partitioned(SCHEMES[name], params(dp=0.5, dm=0.5), 3, 2, state)
    with pytest.raises(ParameterDomainError, match="needs a shared node value"):
        pack_state(state, layout)


def test_step_monolithic_validates_sizes():
    pair = assemble(SCHEMES["bulk-explicit-flux"], params(dm=0.5), 3, 3)
    bad = random_state(Layout("bulk", 2, 2), seed=SEED)
    with pytest.raises(ParameterDomainError):
        step_monolithic(pair, bad)


# ------------------------------------------------------------------- growth

def test_unstable_scheme_norms_blow_up():
    p = params(dm=1.0, bm=4.0)
    pair = assemble(SCHEMES["one-way-explicit-flux"], p, 10, 1)
    lam = eigen_spectrum(update_matrix(pair)).lambda_max
    assert lam > 1.0
    norms = [state_norm(s) for s in run_monolithic(pair, random_state(pair.layout, seed=SEED),
                                                   60).states]
    assert max(norms) > 1e3 * norms[0]


def test_growth_rate_scalar_contraction():
    layout = Layout(ONE_WAY_NEGATIVE, 3, 0)
    pair = dense_pair(np.eye(3), 0.5 * np.eye(3), layout)
    assert power_growth_rate(pair, steps=100, seed=SEED) == pytest.approx(0.5, rel=1e-12)


def test_growth_rate_picks_dominant_mode():
    layout = Layout(ONE_WAY_NEGATIVE, 2, 0)
    pair = dense_pair(np.eye(2), np.diag([0.9, 0.2]), layout)
    assert power_growth_rate(pair, steps=120, seed=SEED) == pytest.approx(0.9, rel=1e-9)


def test_growth_rate_needs_enough_norms():
    layout = Layout(ONE_WAY_NEGATIVE, 2, 0)
    pair = dense_pair(np.eye(2), 0.5 * np.eye(2), layout)
    with pytest.raises(ParameterDomainError):
        power_growth_rate(pair, steps=20, seed=SEED)  # the window needs burn_in + 10 steps


def test_growth_rate_zero_floor_warns():
    layout = Layout(ONE_WAY_NEGATIVE, 2, 0)
    pair = dense_pair(np.eye(2), np.zeros((2, 2)), layout)
    with pytest.warns(DecayFloorWarning):
        assert power_growth_rate(pair, steps=80) == 0.0
    with pytest.warns(DecayFloorWarning):
        assert power_growth_rate(pair, steps=20, burn_in=0) == 0.0


@pytest.mark.parametrize("steps", [120, 2000])
def test_prefix_growth_is_the_least_squares_fit_of_every_prefix(steps):
    # an unstable pair, whose log norms grow to about 1.5e3 at 2,000 steps
    pair = assemble(SCHEMES["bulk-explicit-flux"], params(dp=0.5, dm=0.5, bp=2.5, bm=2.5, r=2.0),
                    20, 10)
    vector = pack_state(random_state(pair.layout, seed=SEED), pair.layout)
    log_norms = [0.0, *stepper.renormalized_log_norms(
        lambda v: tridiagonal_solve(pair.A, pair.B @ v), vector, steps)]
    burn_in = 50
    rates = stepper.prefix_growth(log_norms, burn_in)
    assert rates.shape == (steps + 1,)
    assert np.isnan(rates[:burn_in + 1]).all()
    for k in range(burn_in + 1, steps + 1, 7):
        window = log_norms[burn_in:k + 1]
        expected = np.exp(np.polyfit(np.arange(len(window)), window, 1)[0])
        assert rates[k] == pytest.approx(expected, rel=1e-13), k


@pytest.mark.parametrize("name", ["bulk-explicit-flux", "bulk-sequential", "dn-implicit",
                                  "one-way-explicit-flux"])
def test_power_growth_rate_has_the_window_of_simulate_and_growth_rate(name, capsys):
    # one window rule: log norms count from the initial state at step 0
    steps, burn_in, seed = 120, 50, 0
    # two growing pairs (explicit flux) and two decaying ones
    groups = ["--d-minus", "0.5", "--d-plus", "0.5", "--beta-minus", "2.5", "--beta-plus", "2.5",
              "--r", "2"]
    assert cli_main(["simulate", "--scheme", name, *groups, "--n-minus", "20", "--n-plus", "10",
                     "--steps", str(steps), "--burn-in", str(burn_in),
                     "--seed", str(seed)]) == 0
    last = capsys.readouterr().out.splitlines()[-1].split(",")
    assert last[0] == str(steps)
    pair = assemble(SCHEMES[name], params(dp=0.5, dm=0.5, bp=2.5, bm=2.5, r=2.0), 20, 10)
    rate = power_growth_rate(pair, steps, burn_in, seed)
    assert float(last[2]) == rate  # the CSV holds the shortest round-trip repr
    # the raw states' norms, fitted over the same window by np.polyfit
    states = run_monolithic(pair, random_state(pair.layout, seed=seed), steps).states
    log_norms = np.log([state_norm(s) for s in states])[burn_in:]
    stepped = np.exp(np.polyfit(np.arange(len(log_norms)), log_norms, 1)[0])
    assert stepped == pytest.approx(rate, rel=1e-12)


def test_power_growth_rate_deterministic():
    p = params(dp=0.4, dm=0.9, bp=0.3, bm=0.7)
    pair = assemble(SCHEMES["bulk-partial-flux"], p, 6, 5)
    a = power_growth_rate(pair, steps=200, burn_in=50, seed=SEED)
    b = power_growth_rate(pair, steps=200, burn_in=50, seed=SEED)
    assert a == b


def test_power_growth_rate_rejects_negative_burn_in():
    # a negative burn-in used to fit the last |burn_in| log norms
    pair = assemble(SCHEMES["bulk-partial-flux"], params(dp=0.4, dm=0.9, bp=0.3, bm=0.7), 6, 5)
    with pytest.raises(ParameterDomainError, match="burn_in must be nonnegative"):
        power_growth_rate(pair, steps=20, burn_in=-5)


def test_growth_rate_rejects_negative_burn_in():
    # a negative burn-in would fit the last |burn_in| log norms into the wrong rows
    with pytest.raises(ParameterDomainError, match="burn_in must be nonnegative"):
        stepper.prefix_growth([0.0, 1.0, 2.0], burn_in=-5)
