"""Time stepping for the coupled schemes, monolithic and partitioned.

The monolithic route solves the assembled system A T^{n+1} = B T^n directly.
The partitioned route advances each domain with its own tridiagonal solve and
exchanges interface data exactly as the scheme prescribes (lagged, fresh, or
through a small interface system); for every scheme in the family the two
routes produce the same update up to roundoff, which the test suite pins.
One builder, _partitioned_step, decides the scheme family once per (scheme,
params, n_minus, n_plus), builds the per-domain matrices from each domain's
own bands (plus the interface responses of a fresh bulk exchange) and
returns the step; it is cached, so a run builds it once.  Both routes share
one run loop.  Every tridiagonal solve is spectral.tridiagonal_solve: a
system whose elimination pivot falls below 1e-14 of the matrix scale is
singular.  The matrices do not change during a run, so each is factored once
(LAPACK dgttrf) and each step's solve runs dgttrs.

Growth rates come from one least-squares fit of log norms over one window
rule; long runs renormalize each step and accumulate the log so that unstable
schemes cannot overflow."""

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import assembly
from .errors import DecayFloorWarning, ParameterDomainError, SingularMatrixError
from .params import _require_count
from .spectral import tridiagonal_solve
from .assembly import DIRICHLET_NEUMANN, ONE_WAY_NEGATIVE


@dataclass(frozen=True)
class State:
    """Cell temperatures of both domains plus the shared node when present."""

    t_minus: np.ndarray
    t_plus: np.ndarray
    shared_node: float = None
    step_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "t_minus", np.asarray(self.t_minus, dtype=float))
        object.__setattr__(self, "t_plus", np.asarray(self.t_plus, dtype=float))
        if not (np.isfinite(self.t_minus).all() and np.isfinite(self.t_plus).all()):
            raise ParameterDomainError("state has non-finite entries")
        if self.shared_node is not None and not np.isfinite(self.shared_node):
            raise ParameterDomainError("shared node value is non-finite")


def pack_state(state, layout):
    """Flatten a State into the vector ordering used by the matrices."""
    if layout.kind == ONE_WAY_NEGATIVE:
        return state.t_minus.copy()
    if layout.kind == DIRICHLET_NEUMANN:
        if state.shared_node is None:
            raise ParameterDomainError("Dirichlet-Neumann state needs a shared node value")
        return np.concatenate([state.t_minus, [state.shared_node], state.t_plus])
    return np.concatenate([state.t_minus, state.t_plus])


def unpack_state(vector, layout, step_index):
    nm = layout.n_minus
    if layout.kind == ONE_WAY_NEGATIVE:
        return State(vector, np.empty(0), step_index=step_index)
    if layout.kind == DIRICHLET_NEUMANN:
        return State(vector[:nm], vector[nm + 1:], shared_node=float(vector[nm]),
                     step_index=step_index)
    return State(vector[:nm], vector[nm:], step_index=step_index)


def state_norm(state):
    parts = [state.t_minus, state.t_plus]
    if state.shared_node is not None:
        parts.append(np.array([state.shared_node]))
    values = np.concatenate([np.abs(p) for p in parts if p.size])
    return float(values.max()) if values.size else 0.0


def random_state(layout, seed=0):
    """Unit-infinity-norm random initial state for growth experiments."""
    _require_count("seed", seed, 0)
    rng = np.random.default_rng(seed=seed)
    vector = rng.standard_normal(layout.n)
    vector /= np.abs(vector).max()
    return unpack_state(vector, layout, 0)


@dataclass
class Trajectory:
    """Raw states of a run; states[k] is the state after k steps."""

    states: list = field(default_factory=list)


# --- monolithic stepping ---


def step_monolithic(pair, state):
    """One step of A T^{n+1} = B T^n through the assembled pair."""
    vector = pack_state(state, pair.layout)
    if vector.shape[0] != pair.n:
        raise ParameterDomainError("state size does not match the update pair")
    rhs = pair.B @ vector
    x = tridiagonal_solve(pair.A, rhs)
    return unpack_state(x, pair.layout, state.step_index + 1)


def _run(step, state, steps):
    """Trajectory of `steps` applications of `step`, raw states recorded."""
    states = [state]
    for _ in range(steps):
        state = step(state)
        states.append(state)
    return Trajectory(states)


def run_monolithic(pair, state, steps):
    """Trajectory of `steps` monolithic updates, raw states recorded."""
    return _run(lambda s: step_monolithic(pair, s), state, steps)


# --- partitioned stepping ---


def _be_bands(n, d, interface_diag, interface_at_end):
    """Backward-Euler matrix with a custom diagonal on the interface row."""
    off = np.full(n - 1, -d)
    diag = np.full(n, 1.0 + 2.0 * d)
    diag[-1 if interface_at_end else 0] = interface_diag
    return assembly.Tridiagonal(off, diag, off)


@functools.lru_cache(maxsize=16)
def _partitioned_step(scheme, p, n_minus, n_plus):
    """The step (t_minus, t_plus, shared) -> (t_minus, t_plus, shared) of one scheme.

    The scheme family is decided here, once, and the constant per-domain
    matrices are built from each domain's own bands.  A simultaneous fresh
    bulk exchange also gets its interface responses v_m = A_m^-1 beta_m e_last,
    v_p = A_p^-1 beta_p e_first and the determinant 1 - v_m[-1] v_p[0] of its
    interface system.
    """
    dm, dp, bm, bp, r = p.d_minus, p.d_plus, p.beta_minus, p.beta_plus, p.r
    theta, gamma, w = scheme.theta, scheme.gamma, (1.0 + r) / 2.0
    if scheme.coupling == "one-way":
        bands_m = _be_bands(n_minus, dm, 1.0 + dm + bm if theta == 1 else 1.0 + dm, True)

        def one_way(tm, tp, ts):
            rhs = tm.copy()
            if theta != 1:
                rhs[-1] = (1.0 - bm) * tm[-1]
            return tridiagonal_solve(bands_m, rhs), np.empty(0), None
        return one_way
    if scheme.coupling == "dn-explicit":  # the one explicit scheme: no matrix
        def dn_explicit(tm, tp, ts):
            # positive domain sees the old interface value as a Dirichlet condition
            padded_p = np.concatenate([[ts], tp, [0.0]])
            new_p = tp + dp * (padded_p[2:] - 2.0 * tp + padded_p[:-2])
            padded_m = np.concatenate([[0.0], tm, [ts]])
            new_m = tm + dm * (padded_m[2:] - 2.0 * tm + padded_m[:-2])
            new_s = ((w - dm - dp * r) * ts + dm * tm[-1] + dp * r * tp[0]) / w
            return new_m, new_p, float(new_s)
        return dn_explicit
    if scheme.coupling == "dn-implicit":
        # negative domain plus interface node; the positive flux enters lagged
        bands_m = _be_bands(n_minus + 1, dm, w + dm, True)
        bands_p = _be_bands(n_plus, dp, 1.0 + dp, False)

        def dn_implicit(tm, tp, ts):
            solved = tridiagonal_solve(
                bands_m, np.concatenate([tm, [(w - dp * r) * ts + dp * r * tp[0]]]))
            # positive domain against the old interface value; independent of the above
            rhs_p = tp.copy()
            rhs_p[0] = dp * ts + (1.0 - dp) * tp[0]
            return solved[:-1], tridiagonal_solve(bands_p, rhs_p), float(solved[-1])
        return dn_implicit
    bands_m = _be_bands(n_minus, dm, 1.0 + dm + theta * bm, True)
    bands_p = _be_bands(n_plus, dp, 1.0 + dp + theta * bp, False)
    if scheme.coupling == "bulk-sequential":
        def sequential(tm, tp, ts):
            # negative domain first against the lagged positive interface value
            rhs_m = tm.copy()
            rhs_m[-1] = (1.0 - (1.0 - theta) * bm) * tm[-1] + bm * tp[0]
            new_m = tridiagonal_solve(bands_m, rhs_m)
            rhs_p = tp.copy()
            rhs_p[0] = ((1.0 - (1.0 - theta) * bp) * tp[0]
                        + gamma * bp * new_m[-1] + (1.0 - gamma) * bp * tm[-1])
            return new_m, tridiagonal_solve(bands_p, rhs_p), None
        return sequential
    if gamma:
        e_m, e_p = np.zeros(n_minus), np.zeros(n_plus)
        e_m[-1], e_p[0] = bm, bp
        v_m, v_p = tridiagonal_solve(bands_m, e_m), tridiagonal_solve(bands_p, e_p)
        det = 1.0 - v_m[-1] * v_p[0]
        if abs(det) < 1e-14:
            raise SingularMatrixError("interface coupling system is singular")

    def simultaneous(tm, tp, ts):
        rhs_m, rhs_p = tm.copy(), tp.copy()
        rhs_m[-1] = (1.0 - (1.0 - theta) * bm) * tm[-1] + (1.0 - gamma) * bm * tp[0]
        rhs_p[0] = (1.0 - (1.0 - theta) * bp) * tp[0] + (1.0 - gamma) * bp * tm[-1]
        new_m = tridiagonal_solve(bands_m, rhs_m)
        new_p = tridiagonal_solve(bands_p, rhs_p)
        if gamma == 0:
            return new_m, new_p, None
        # simultaneous fresh exchange: eliminate the two interface unknowns first
        a = (new_m[-1] + v_m[-1] * new_p[0]) / det
        b = (new_p[0] + v_p[0] * new_m[-1]) / det
        return new_m + b * v_m, new_p + a * v_p, None
    return simultaneous


def step_partitioned(scheme, p, n_minus, n_plus, state):
    """One step through per-domain solves and explicit interface exchanges."""
    if scheme.coupling == "one-way":
        if state.t_minus.shape[0] != n_minus:
            raise ParameterDomainError("state size does not match n_minus")
    elif state.t_minus.shape[0] != n_minus or state.t_plus.shape[0] != n_plus:
        raise ParameterDomainError("state sizes do not match the domain sizes")
    elif scheme.coupling in ("dn-explicit", "dn-implicit") and state.shared_node is None:
        raise ParameterDomainError("Dirichlet-Neumann state needs a shared node value")
    t_minus, t_plus, shared = _partitioned_step(scheme, p, n_minus, n_plus)(
        state.t_minus, state.t_plus, state.shared_node)
    return State(t_minus, t_plus, shared_node=shared, step_index=state.step_index + 1)


def run_partitioned(scheme, p, n_minus, n_plus, state, steps):
    """Trajectory of `steps` partitioned updates, raw states recorded."""
    return _run(lambda s: step_partitioned(scheme, p, n_minus, n_plus, s), state, steps)


# --- growth rates ---


def prefix_growth(log_norms, burn_in):
    """exp(slope) of the least-squares line through log_norms[burn_in:k + 1], for every k.

    log_norms[0] is the initial state (step 0), so entry k is the fit of the
    window from step burn_in to step k; it is NaN until the window holds two
    points.  Every prefix comes from cumulative sums of the window, centred
    on its first value, so all of them cost one pass.
    """
    _require_count("burn_in", burn_in, 0)
    window = np.asarray(log_norms[burn_in:], dtype=float)
    i = np.arange(window.size, dtype=float)  # the last index of each prefix
    rates = np.full(len(log_norms), np.nan)
    with np.errstate(all="ignore"):  # a non-finite log norm gives a NaN or inf rate
        window = window - window[:1]
        # sum (i - mean i)(y - mean y) over sum (i - mean i)^2, with mean i = i_last / 2
        slope = ((np.cumsum(i * window) - 0.5 * i * np.cumsum(window))
                 / ((i + 1.0) * i * (i + 2.0) / 12.0))
        rates[burn_in + 1:] = np.exp(slope[1:])
    return rates


def renormalized_log_norms(step, vector, steps):
    """Cumulative log max-norm gains of `steps` renormalized steps; stops at a zero iterate."""
    total = 0.0
    for _ in range(steps):
        vector = step(vector)
        gain = np.abs(vector).max()
        if gain == 0.0:
            return
        total += np.log(gain)
        yield total
        vector = vector / gain


def power_growth_rate(pair, steps=250, burn_in=50, seed=0):
    """Growth rate from a renormalized monolithic run; safe for strongly unstable pairs.

    Log norms count from the initial state's 0.0 at step 0 and the fit runs over
    [burn_in:]: steps burn_in..steps, the last row of `cplstab simulate`.  A run
    that collapses to zero is fitted on its surviving prefix with a warning;
    under two points give 0.0.
    """
    _require_count("steps", steps, 0)
    _require_count("burn_in", burn_in, 0)
    if steps < burn_in + 10:
        raise ParameterDomainError(f"need steps >= burn_in + 10 = {burn_in + 10}, got {steps}")
    vector = pack_state(random_state(pair.layout, seed=seed), pair.layout)
    log_norms = [0.0, *renormalized_log_norms(
        lambda v: tridiagonal_solve(pair.A, pair.B @ v), vector, steps)]
    if len(log_norms) <= steps:
        warnings.warn("the run collapsed to zero; fitting the surviving prefix",
                      DecayFloorWarning)
    rate = float(prefix_growth(log_norms, burn_in)[-1])
    return 0.0 if np.isnan(rate) else rate
