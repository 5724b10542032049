"""Normal-mode (GKS-style) stability analysis on the semi-infinite lattice.

A temporal mode T_j^n = A^n kappa^j solves the interior stencil when kappa
satisfies kappa^2 - 2(1+s)kappa + 1 = 0 with s = (1 - 1/A)/(2d) for the
backward-Euler interior and s = (A - 1)/(2d) for the forward-Euler interior.
The two roots multiply to one; the decaying branch (modulus <= 1) enters the
interface conditions, and eliminating the mode amplitudes leaves a scalar
residual whose roots with |A| > 1 are the growing modes.

`gks_scan` counts the roots of a two-way residual with |A| > 1 + INNER_GAP by
the argument principle and polishes starts taken from power sums of the
roots; `normal_mode_verdict` needs the count only.  The residual is analytic
there: its only singular points, A = 0 and the branch cut where both spatial
roots have modulus 1, lie inside the unit disk (for the forward-Euler interior
only while d <= 1/2).  It is analytic at infinity too, where f(A) / A^m tends
to a nonzero constant (`_two_way_count`), so f winds m times on every large
enough circle, and m less the winding number on the inner circle counts the
roots at any modulus.  Every coefficient (d, beta, r, theta, gamma) is real,
so f(conj A) = conj f(A), and the count needs the upper half of each circle
only.  Each step of the residual (+, -, *, /, sqrt, abs and the branch
choice) commutes with conjugation in IEEE arithmetic, so the mirror is exact.
The one-way residuals are quadratic in A once cleared of kappa, and their
roots are known in closed form.

Each residual is one numpy function A -> f, elementwise on an array.  The
count evaluates the start samples of its circles in one call and each round
of bisection in one more, the Newton polish takes two calls an iteration,
and `dispersion_residual` evaluates one point on a 0-d array.  All of them
run under errstate, so where a term leaves the float range the residual is
inf or NaN, and nothing is raised.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterDomainError, ScanError, SingularityError
from .params import _require_nonnegative, _require_positive

ADMISSIBLE_TOL = 1e-12


@dataclass(frozen=True)
class ModeSolution:
    """A temporal root with its decaying spatial factors.

    kappa_minus_inv is the per-cell decay away from the interface into the
    negative domain; kappa_plus the same for the positive domain.  admissible
    records whether both have modulus at most 1 + 1e-12.
    """

    A: complex
    kappa_plus: complex
    kappa_minus_inv: complex
    admissible: bool


# the inner circle's gap to the unit circle, and its radius; the count's
# uniform starting samples per half circle, largest phase turn of a step,
# sample cap per circle,
# shortest step (in half circles) and tolerance of an integer winding number;
# the polish tolerance and iteration cap, and the distance within which two
# polished roots are one
INNER_GAP = 1e-6
INNER_RADIUS = 1.0 + INNER_GAP
START_SAMPLES = 129
MAX_TURN = math.pi / 4.0
MAX_SAMPLES = 2 ** 14
MIN_STEP = 2.0 ** -52
WINDING_TOL = 1e-6
REFINE_TOL = 1e-10
DUPLICATE_TOL = 1e-6
MAX_NEWTON_ITER = 60


@dataclass(frozen=True)
class ScanSettings:
    """An outer radius for gks_scan and the verdict, which count at any modulus without one."""

    radius_max: float = 10.0

    def __post_init__(self):
        # an infinite radius gives no outer circle to count on, and one at or
        # inside the inner circle no annulus
        if not (INNER_RADIUS < self.radius_max < np.inf):
            raise ParameterDomainError(
                f"radius_max must be finite and exceed 1 + {INNER_GAP:g}, the inner circle")


def _kappa_from_s(s):
    """Smaller-modulus root of kappa^2 - 2(1+s)kappa + 1 = 0, elementwise.

    The roots multiply to one, so the small root is the reciprocal of the
    large one; forming it that way avoids the cancellation in 1 + s - sqrt.
    The square root of s^2 + 2s is taken as sqrt(s) sqrt(s + 2), which stays
    finite where s^2 overflows (|s| above about 1.3e154, which d below about
    1e-160 gives next to A = 1).  Its sign may differ from the principal
    root's, which does not matter: the end of larger modulus is taken.
    """
    root = np.sqrt(s) * np.sqrt(s + 2.0)
    center = 1.0 + s
    plus, minus = center + root, center - root
    big = np.where(np.abs(plus) >= np.abs(minus), plus, minus)
    return 1.0 / big


# --- residuals ---


def _decay_terms(step, d):
    """(kappa, d*(1 - kappa)) for the decaying branch at s = step/(2d); zero stencil when d = 0.

    step is 1 - 1/A for the backward-Euler interior and A - 1 for the
    forward-Euler one; both domains of a residual share it.
    """
    if d == 0.0:
        zero = np.zeros_like(step)
        return zero, zero
    kappa = _kappa_from_s(step / (2.0 * d))
    return kappa, d * (1.0 - kappa)


def _one_way_kappa(A, p, theta):
    """Spatial factor fixed by the one-way boundary row (not branch-selected)."""
    dm, bm = p.d_minus, p.beta_minus
    if theta == 1:
        return (1.0 - 1.0 / A + bm + dm) / dm
    # 1 + dm + (bm - 1)/A, regrouped: where kappa is small, A is close to
    # 1 - bm, so A + (bm - 1) is exact (Sterbenz) and the rounding error of
    # 1 + dm no longer cancels against (bm - 1)/A
    return (dm + (A + (bm - 1.0)) / A) / dm


def _residual(scheme, p):
    """A -> f, the interface residual of a two-way scheme, elementwise on an array.

    Each call evaluates the spatial roots once.  Callers evaluate under
    errstate: where a term leaves the float range, f is inf or NaN.
    """
    if scheme.coupling == "dn-explicit":
        dm, dp, r = p.d_minus, p.d_plus, p.r

        def residual(A):
            step = A - 1.0
            _, em = _decay_terms(step, dm)
            _, ep = _decay_terms(step, dp)
            return step * (1.0 + r) + 2.0 * em + 2.0 * r * ep

        return residual

    if scheme.coupling == "dn-implicit":
        dm, dp, r = p.d_minus, p.d_plus, p.r
        w = (1.0 + r) / 2.0

        def residual(A):
            step = 1.0 - 1.0 / A
            _, ep = _decay_terms(step, dp)
            _, em = _decay_terms(step, dm)
            left = w * (A - 1.0) + A * em
            bracket = A * (1.0 + ep) - (1.0 - dp)
            return (left + dp * r) * bracket - dp * dp * r

        return residual

    # bulk and bulk-sequential, backward-Euler interiors
    dm, dp = p.d_minus, p.d_plus
    bm, bp = p.beta_minus, p.beta_plus
    theta, gamma = scheme.theta, scheme.gamma
    sequential = scheme.coupling == "bulk-sequential"

    def residual(A):
        step = 1.0 - 1.0 / A
        _, em = _decay_terms(step, dm)
        _, ep = _decay_terms(step, dp)
        f_minus = A * (1.0 + theta * bm + em) - 1.0 + (1.0 - theta) * bm
        f_plus = A * (1.0 + theta * bp + ep) - 1.0 + (1.0 - theta) * bp
        weight = (1.0 - gamma) + gamma * A
        cross = weight if sequential else weight * weight
        return f_minus * f_plus - bm * bp * cross

    return residual


def dispersion_residual(scheme, p, A):
    """Interface residual of the normal-mode ansatz at temporal root A: one complex.

    Every scheme eliminates the mode amplitudes into one residual: the
    one-way boundary row, or the determinant that gks_scan counts for a
    two-way scheme.  A = 0 and A = 1 are singular points of the reduction.
    The point is evaluated on a numpy 0-d array under errstate, so where a
    term leaves the float range the residual is inf or NaN, and nothing is
    raised.
    """
    A = complex(A)
    if A == 0j or A == 1 + 0j:
        raise SingularityError(f"dispersion relation is singular at A = {A}")
    z = np.asarray(A, dtype=complex)
    with np.errstate(all="ignore"):
        if scheme.coupling == "one-way":
            _require_positive("one-way d_minus", p.d_minus)
            kappa = _one_way_kappa(z, p, scheme.theta)
            return complex((1.0 - 1.0 / z) - p.d_minus * (kappa - 2.0 + 1.0 / kappa))
        return complex(_residual(scheme, p)(z))


# --- root scan ---


def _mode_from_root(scheme, p, A):
    z = np.asarray(A, dtype=complex)
    with np.errstate(all="ignore"):
        if scheme.coupling == "one-way":
            km_inv, kp = _one_way_kappa(z, p, scheme.theta), 0j
        else:
            step = z - 1.0 if scheme.coupling == "dn-explicit" else 1.0 - 1.0 / z
            km_inv, kp = _decay_terms(step, p.d_minus)[0], _decay_terms(step, p.d_plus)[0]
    admissible = (np.abs(kp) <= 1.0 + ADMISSIBLE_TOL) & (np.abs(km_inv) <= 1.0 + ADMISSIBLE_TOL)
    return ModeSolution(complex(A), complex(kp), complex(km_inv), bool(admissible))


def _newton_polish(residual, z):
    """Damped Newton from z to a step |f/f'| <= REFINE_TOL * max(1, |z|); None where it fails.

    Each iteration takes f and its central difference from one residual call
    on [z, z + h, z - h], and tries the damping factors 1, 1/2, ..., 1/32 in
    one more, taking the largest that lowers |f|.  The polish fails where f
    or the step is not finite, no factor lowers |f|, or MAX_NEWTON_ITER
    steps do not reach the tolerance.  The caller evaluates under errstate.
    """
    damping = 0.5 ** np.arange(6.0)
    for iteration in range(MAX_NEWTON_ITER + 1):
        h = 1e-7 * max(1.0, abs(z))
        fz, f_plus, f_minus = residual(np.array([z, z + h, z - h]))
        step = fz / ((f_plus - f_minus) / (2.0 * h))
        if not np.isfinite(step):
            return None
        if abs(step) <= REFINE_TOL * max(1.0, abs(z)):
            break
        if iteration == MAX_NEWTON_ITER:
            return None
        trials = z - damping * step
        lower = np.abs(residual(trials)) < abs(fz)
        if not lower.any():
            return None
        z = complex(trials[lower.argmax()])
    # one undamped step after acceptance drives the residual from the
    # acceptance band down to roundoff (quadratic convergence)
    trial = z - step
    return complex(trial) if abs(residual(np.array([trial]))[0]) < abs(fz) else z


def _one_way_roots(scheme, p):
    """The growing roots of a one-way residual, in closed form.

    Cleared of kappa, the explicit-flux residual is
    d A^2 - (beta + d) A + beta(1 - beta) and the implicit-flux one
    A((d - beta - beta^2) A + beta - d), so the closed forms are every root.
    """
    _require_positive("one-way d_minus", p.d_minus)
    beta, d = p.beta_minus, p.d_minus
    if scheme.theta == 0.0:
        roots = one_way_explicit_roots(beta, d)
    else:
        denom = beta - d + beta * beta
        roots = [] if denom == 0.0 else [(beta - d) / denom]
    return [complex(a) for a in roots if abs(a) > 1.0 + 1e-7 and math.isfinite(a)]


def _grid(t):
    """(t, cos pi t + i sin pi t): the points at angles pi t on the upper half unit circle."""
    angle = math.pi * t
    return t, np.cos(angle) + 1j * np.sin(angle)


# the uniform start grid, t = j / (START_SAMPLES - 1) from 0 to 1, and the
# inner circle's, which adds t = 2^-k, k = 8..49, to the first step
UNIFORM_GRID = _grid(np.arange(START_SAMPLES) / (START_SAMPLES - 1))
GRADED_GRID = _grid(np.insert(UNIFORM_GRID[0], 1, 2.0 ** -np.arange(49.0, 7.0, -1.0)))


def _start_points(radius):
    """(t, z): the count's start samples on the upper half of |A| = radius, at angles pi t.

    The inner circle passes INNER_GAP from the branch point A = 1, where the
    phase of f turns within an angle of about INNER_GAP; its graded grid
    resolves that without bisection, with 171 samples.  Other circles keep
    the uniform grid, around which the midpoint errors of `_power_sums`
    cancel (graded, they lose roots at large radius).  The points are placed
    as cmath.rect places them; t = 1 gives -radius exactly.
    """
    t, unit = GRADED_GRID if radius == INNER_RADIUS else UNIFORM_GRID
    z = radius * unit
    z[-1] = -radius
    return t, z


def _contour(residual, radius, t, z, f):
    """(winding number of f on |A| = radius, steps (a, b, log f(b) - log f(a)) of its upper half).

    t and z hold the circle's `_start_points` and f the residual there, as
    arrays.  A sample where f is zero or |f| is not finite has no usable
    phase, so no step that ends there can pass: ScanError names the first
    such sample at once.  A step between neighbouring samples passes where it
    turns the phase of f by less than MAX_TURN (the adequacy rule of Ying and
    Katz).  Each round bisects every failing step, with one residual call on
    their midpoints, until all pass; a step's split depends on its two ends
    only, so the partition is the one that bisecting each step on its own
    gives.  The imaginary part of each increment is its turn, and the turns
    of the upper half add up to pi times the winding number.  The steps come
    back as three arrays.
    """
    while True:
        bad = np.flatnonzero((f == 0) | ~np.isfinite(np.abs(f)))
        if bad.size:
            raise ScanError(f"the residual {complex(f[bad[0]])} at A = {complex(z[bad[0]])} "
                            f"on |A| = {radius!r} is zero or of no finite modulus")
        log_f = np.log(f)
        dlog = log_f[1:] - log_f[:-1]
        # the remainder of the turn modulo 2 pi, exact like math.remainder: the
        # turn lies within 2 pi, so the multiple subtracted is -1, 0 or 1
        dlog.imag -= 2.0 * math.pi * np.rint(dlog.imag / (2.0 * math.pi))
        failing = np.flatnonzero(np.abs(dlog.imag) >= MAX_TURN)
        if failing.size == 0:
            break
        # the leftmost step that cannot be split, or the leftmost failing one
        # once the splits would pass the sample cap
        short = failing[t[failing + 1] - t[failing] <= MIN_STEP]
        if short.size or t.size + failing.size > MAX_SAMPLES:
            j = short[0] if short.size else failing[0]
            raise ScanError(f"the phase of the residual cannot be resolved between "
                            f"A = {complex(z[j])} and A = {complex(z[j + 1])} "
                            f"({t.size} samples on |A| = {radius!r})")
        mid, unit = _grid(0.5 * (t[failing] + t[failing + 1]))
        points = radius * unit
        t, z = np.insert(t, failing + 1, mid), np.insert(z, failing + 1, points)
        f = np.insert(f, failing + 1, residual(points))
    turns = math.fsum(dlog.imag.tolist()) / math.pi
    if abs(turns - round(turns)) > WINDING_TOL:
        raise ScanError(f"the winding number {turns!r} of the residual on |A| = {radius!r} "
                        "is not an integer")
    return round(turns), (z[:-1], z[1:], dlog)


def _circles(residual, radii):
    """[(winding number, steps)] of `_contour` on each circle |A| = radius.

    The start samples of all the circles are one flat array, evaluated in
    one residual call; the circles' sizes differ, since only the inner one
    is graded.
    """
    grids = [_start_points(radius) for radius in radii]
    with np.errstate(all="ignore"):
        f = residual(np.concatenate([z for _, z in grids]))
        circles, start = [], 0
        for radius, (t, z) in zip(radii, grids):
            circles.append(_contour(residual, radius, t, z, f[start:start + z.size]))
            start += z.size
        return circles


def _power_sums(steps, k):
    """Sums of A^j, j = 1..k, over the roots inside the circle of `steps`.

    Each is (sum A^j dlog f) / (2 pi i) over the whole circle; the lower half
    adds the conjugate of the upper half's sum, which leaves Im / pi.  The
    steps are the arrays of `_contour`, and the powers of their midpoints are
    products, which overflow to inf (under errstate) where ** would raise.
    """
    a, b, term = steps
    mid = 0.5 * (a + b)
    sums = []
    for _ in range(k):
        term = term * mid
        sums.append(float(term.sum().imag) / math.pi)
    return sums


def _scanned_residual(scheme, p):
    """(f, m) of a two-way scheme, m the winding number of f at infinity (`_two_way_count`)."""
    forward = scheme.coupling == "dn-explicit"
    if forward and max(p.d_minus, p.d_plus) > 0.5:
        raise ScanError("the forward-Euler branch cut [1 - 4d, 1] crosses the annulus for "
                        f"d > 1/2 (d_minus = {p.d_minus!r}, d_plus = {p.d_plus!r})")
    return _residual(scheme, p), 1 if forward else 2


def _two_way_count(scheme, p, radius_max=None):
    """Number of roots of a two-way residual with |A| > 1 + INNER_GAP (and < radius_max if given).

    With radius_max the count is the winding number of f on |A| = radius_max
    less that on the inner circle, from one residual call on both circles.
    Without, it is m less the inner winding number, from one call on the
    inner circle alone: f(A) / A^m tends to a nonzero constant c as
    A -> infinity, so f winds m times on every large enough circle, and the
    argument principle on the annulus out to such a circle counts every root.

    - Backward-Euler interiors: the step 1 - 1/A tends to 1, so each decay
      term d(1 - kappa) tends to e = d(1 - kappa(1/(2d))) >= 0, since kappa
      lies in (0, 1) for real s > 0 (e = 0 where d = 0).  Then m = 2, with
      c = (1 + theta beta_- + e_-)(1 + theta beta_+ + e_+) - beta_- beta_+ gamma^2
      for the bulk interface (no gamma^2 term in the sequential formulation,
      whose cross term is linear in A) and c = (w + e_-)(1 + e_+), with
      w = (1 + r)/2, for dn-implicit.  c > 0 for every scheme.
    - The forward-Euler interior (dn-explicit, d <= 1/2): the step A - 1 grows
      without bound, kappa tends to 0 and each decay term to d, so m = 1 and
      c = 1 + r.

    Every root counted is a growing admissible mode, since `_decay_terms`
    takes the decaying spatial branch.  No power sum is formed and nothing is
    polished.  ScanError is raised where a winding number cannot be proved,
    or the count is negative.
    """
    residual, m = _scanned_residual(scheme, p)
    return _count(residual, m, radius_max)[0]


def _count(residual, m, radius_max):
    """(count, inner steps, outer steps) of `_two_way_count`; no outer steps without radius_max."""
    if radius_max is None:
        (inner_wind, inner), = _circles(residual, [INNER_RADIUS])
        outer_wind, outer = m, None
    else:
        (inner_wind, inner), (outer_wind, outer) = _circles(residual, [INNER_RADIUS, radius_max])
    count = outer_wind - inner_wind
    if count < 0:
        raise ScanError(f"the residual winds {count} times around the annulus")
    return count, inner, outer


def _two_way_roots(scheme, p, radius_max=None):
    """The roots with |A| > 1 + INNER_GAP (and < radius_max if given): counted, then polished.

    The count is the difference of the winding numbers of the two circles of
    the annulus.  Without radius_max the outer radius doubles from 2 until f
    winds m times there (`_two_way_count`); no root then lies beyond it.  The
    power sums s_j of the roots in the annulus, j <= count, give the
    polynomial with those roots (Newton's identities, Delves and Lyness); its
    roots start the polish, and each must polish to a distinct root in the
    annulus.
    """
    residual, m = _scanned_residual(scheme, p)
    count, inner, outer = _count(residual, m, radius_max)
    if count == 0:
        return []
    if radius_max is None:
        radius_max, wind = 1.0, None
        while wind != m:
            radius_max *= 2.0
            if radius_max == math.inf:
                raise ScanError(f"the residual winds {m} times on no circle")
            (wind, outer), = _circles(residual, [radius_max])
    with np.errstate(all="ignore"):
        sums = [s - t for s, t in zip(_power_sums(outer, count), _power_sums(inner, count))]
    coeffs = [1.0]
    for k in range(1, count + 1):
        coeffs.append(-sum(coeffs[k - i] * sums[i - 1] for i in range(1, k + 1)) / k)
    if not all(map(math.isfinite, coeffs)):
        raise ScanError(f"the power sums {sums} of {count} counted root(s) are not finite")
    roots = []
    for start in np.roots(coeffs).tolist():
        with np.errstate(all="ignore"):
            z = _newton_polish(residual, complex(start))
        if (z is None or not INNER_RADIUS < abs(z) < radius_max
                or any(abs(z - root) <= DUPLICATE_TOL for root in roots)):
            raise ScanError(f"the start A = {start} of {count} counted root(s) does not "
                            "polish to a new root in the annulus")
        roots.append(z)
    return roots


def gks_scan(scheme, p, scan=None):
    """Growing normal modes of a scheme: residual roots with |A| > 1.

    A two-way residual's roots with |A| > 1 + INNER_GAP are counted, at any
    modulus or, given scan, below scan.radius_max, and polished by damped
    Newton to a step |f/f'| <= REFINE_TOL * max(1, |A|); a one-way residual's come in closed
    form, at any modulus.  The modes are those whose spatial factors decay
    into both domains.  ScanError is raised where the count or a polish
    fails, and for the forward-Euler Dirichlet-Neumann scheme with d > 1/2.
    """
    if scheme.coupling == "one-way":
        roots = _one_way_roots(scheme, p)
    else:
        roots = _two_way_roots(scheme, p, None if scan is None else scan.radius_max)
    modes = [_mode_from_root(scheme, p, z) for z in roots]
    modes = [m for m in modes if m.admissible]
    modes.sort(key=lambda m: (-abs(m.A), m.A.real, m.A.imag))
    return modes


def normal_mode_verdict(scheme, p, scan=None):
    """True when the normal-mode analysis finds no growing admissible mode.

    For the four bulk schemes and dn-implicit that is a root count of 0
    (`_two_way_count`, at any modulus or, given scan, below scan.radius_max),
    with no polish.  The one-way schemes use their closed-form roots.  The
    forward-Euler Dirichlet-Neumann scheme is judged by its interior von
    Neumann condition d <= 1/2 on both sides (independent of r), without a
    scan: where d <= 1/2 its interface scan adds no further restriction, and
    where d > 1/2 gks_scan raises ScanError.
    """
    if scheme.coupling == "dn-explicit":
        return p.d_minus <= 0.5 and p.d_plus <= 0.5
    if scheme.coupling == "one-way":
        return len(gks_scan(scheme, p, scan)) == 0
    return _two_way_count(scheme, p, None if scan is None else scan.radius_max) == 0


# --- closed forms for the one-way schemes ---


def one_way_explicit_roots(beta, d):
    """Both temporal roots of the explicit-flux one-way boundary mode.

    The discriminant (beta - d)^2 + 4 beta^2 d is nonnegative, so the roots
    are always real.
    """
    _require_positive("d", d)
    _require_nonnegative("beta", beta)
    # with b = beta/d, big = (b + 1)/2 + sqrt(((b - 1)/2)^2 + beta^2/d): every
    # term is positive and at most big, so none overflows unless big does
    b = beta / d
    big = 0.5 * b + 0.5 + math.hypot(0.5 * b - 0.5, beta / math.sqrt(d))
    # the roots multiply to b(1 - beta), so small = (1 - beta) / (big/b); the
    # ratio, from c = d/beta, is at least 1 and finite wherever small is not
    # below the normal range, and the quotient avoids the cancellation in
    # (beta + d) - sqrt(disc) near beta = 0 or 1
    if beta == 0.0:
        small = 0.0
    else:
        c = d / beta
        small = (1.0 - beta) / (0.5 * c + 0.5 + math.hypot(0.5 - 0.5 * c, math.sqrt(d)))
    return _polish_quadratic_root(big, beta, d), _polish_quadratic_root(small, beta, d)


def _polish_quadratic_root(root, beta, d):
    """One Newton step on d A^2 - (beta + d) A + beta(1 - beta), done exactly.

    The closed form is off by up to a few ulp.  Near beta = 1 the residual
    divides by a nearly cancelling kappa, so each ulp of the small root moves
    it far; the exact step leaves the correctly rounded root.
    """
    if not np.isfinite(root):  # beta and d are finite: one_way_explicit_roots checks them
        return root
    a, b, dd = Fraction(float(root)), Fraction(float(beta)), Fraction(float(d))
    slope = 2 * dd * a - (b + dd)
    if slope == 0:
        return root
    q = dd * a * a - (b + dd) * a + b * (1 - b)
    return float(a - q / slope)


def one_way_explicit_bound(d):
    """Largest stable beta of the explicit-flux one-way scheme: 1 + sqrt(1 + 2d)."""
    _require_positive("d", d)
    return 1.0 + np.sqrt(1.0 + 2.0 * d)


def beljaars_bound(d):
    """Empirical stability margin 2 + sqrt(d)^1.1 used operationally."""
    _require_nonnegative("d", d)
    return 2.0 + np.sqrt(d) ** 1.1
