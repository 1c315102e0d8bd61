"""Generalized Cesaro machinery.

Three layers live here:

1. The averaging operator P and the numeric generalized Cesaro limit
   (``average_P``, ``clim``).  A ``SampledPath`` holds real samples as
   float64 and complex ones as complex128, and each step works in that
   dtype, except the plain-mode z-fit, which reads a complex copy.  Clim
   removes geometric eigenfunctions z^n (z = (s0 - sigma0) -/+ iT along the
   lower/upper contour) and averages the residual until a classical limit
   appears.  When the path is known to be driven by a period-C phase (the
   root-ladder symbols), a period-aware profile extraction is used instead
   of repeated averaging.  Inside a phase bin z is affine in the period
   index, so one Vandermonde in the scaled period index serves all bins: a
   single weighted least-squares solve over the first- and last-quarter
   periods recovers the coefficient profiles gamma_n(alpha) of f as a
   polynomial in z.  The constant content is integrated exactly, and the
   zero-mean z^2 profile content is assigned its Cesaro value
   -i*sgn*(s0-sigma0)*mean(W) where W is the antiderivative of the profile
   anchored at alpha = 0.  The extraction streams the path in chunks of whole
   periods and holds only the quarter rows, one chunk buffer and two floats
   per period, never the whole path.  Its quarter rows are stored as complex
   whatever the dtype, so the solve reads the same matrix for real samples
   as for their complex copies.

2. The closed-form limit table for the ladder symbols alpha^n, k, k*alpha^n,
   z*alpha^n, k^2, k^2*alpha, z^2*alpha, k^3 on both contours, a numeric
   verification harness for it, and the per-factor regularized values
   r^(lambda)(s0, mu) at mu in {0, -1, -2}.

3. The critical-line counting pipeline: N(T) = (2g/C)T + S(T), the pieces
   S1, S2, Q with their period averages, and the assembly of r(s0, mu) for
   mu in {0, -1, -2} including X_epsilon.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .curve_model import _check_conjugation, vertical_spacing
from .errors import (
    InvalidInputError,
    NoClimError,
    UnsupportedMuError,
    ValidationError,
    _computed,
    _finite,
    _floats,
    _point,
    _reals,
    _require_finite,
    _require_int,
    _require_range,
    _require_tol,
)

_PAIR_TOL = 1e-12

#: each ladder symbol: its expansion degree in z, fixed by the proof chain
#: k -> k*alpha^n -> z*alpha^n -> k^2 -> k^2*alpha^n -> z^2*alpha^n -> k^3,
#: and its samples from k, alpha, z and the power n (z is None for the
#: symbols that do not use it)
_LADDER_SYMBOLS = {
    "alpha_n": (1, lambda k, alpha, z, n: alpha**n),
    "k": (1, lambda k, alpha, z, n: k),
    "k_alpha": (1, lambda k, alpha, z, n: k * alpha),
    "k_alpha2": (1, lambda k, alpha, z, n: k * alpha**2),
    "z_alpha": (1, lambda k, alpha, z, n: z * alpha),
    "z_alpha2": (1, lambda k, alpha, z, n: z * alpha**2),
    "k2": (2, lambda k, alpha, z, n: k**2),
    "k2_alpha": (2, lambda k, alpha, z, n: k**2 * alpha),
    "z2_alpha": (2, lambda k, alpha, z, n: z**2 * alpha),
    "k3": (3, lambda k, alpha, z, n: k * k * k),
}

SYMBOL_DEGREE = {symbol: degree for symbol, (degree, _) in _LADDER_SYMBOLS.items()}

LEMMA_SYMBOLS = tuple(_LADDER_SYMBOLS)


@dataclass(frozen=True, eq=False)
class SampledPath:
    """Uniform samples of a real- or complex-valued function of the height T.

    samples[n] = f(t0 + n*dt), as float64 if real and complex128 if complex.
    """

    t0: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        _require_range(self.t0, "t0", 0.0)
        _require_range(self.dt, "dt", 0.0, lo_open=True)
        samples = np.asarray(self.samples)
        if samples.dtype.kind not in "biufc":
            raise InvalidInputError("samples must be real or complex numbers")
        samples = samples.astype(complex if samples.dtype.kind == "c" else float, copy=False)
        if samples.ndim != 1 or len(samples) < 2:
            raise InvalidInputError("samples must be a 1-d sequence of length >= 2")
        object.__setattr__(self, "samples", _finite(samples))

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.samples))


@dataclass(frozen=True)
class ClimReport:
    """Result of a numeric generalized Cesaro limit."""

    value: complex
    removed_eigen: tuple
    p_power: int
    """The number of Cesaro means taken.  Plain mode applies P that many times.
    Profile mode reports 1, because its value is the period mean of the
    fitted profiles, a first Cesaro mean; it applies P no times."""
    residual_flatness: float
    """How far the path is from the model the value is read from (see ``clim``).
    A plain record: ``clim`` builds it only once the flatness passes."""


def average_P(path: SampledPath) -> SampledPath:
    """Apply the Cesaro averaging operator P[f](T) = (1/T) int_0^T f.

    The integral is a cumulative trapezoid on the sample grid; f is treated
    as 0 on [0, t0) when t0 > 0.  At T = 0 the average is f(0) (the limit).
    The result has the path's dtype, so a real path stays real.
    """
    f = path.samples
    t = path.times
    out = np.empty_like(f)
    np.cumsum(0.5 * (f[1:] + f[:-1]) * path.dt, out=out[1:])
    # t0 >= 0 and dt > 0, so only t[0] can be zero
    out[1:] /= t[1:]
    out[0] = f[0] if t[0] == 0.0 else 0.0
    return SampledPath(t0=path.t0, dt=path.dt, samples=out)


def _contour_sign(direction: str) -> float:
    """1.0 on the lower contour, -1.0 on the upper: z = (s0 - sigma0) - sign*iT."""
    if direction == "lower":
        return 1.0
    if direction == "upper":
        return -1.0
    raise InvalidInputError(f"direction must be 'lower' or 'upper', got {direction!r}")


def _geometric_z(times: np.ndarray, s0: complex, sigma0: float, direction: str):
    return (s0 - sigma0) - 1j * _contour_sign(direction) * times


def _z_coefficients(coef, s, c):
    """z-monomial coefficients of sum_j coef[j] * T**j, where T = s*(z - c).

    The polynomial index runs along the first axis of ``coef``; ``c``
    broadcasts against ``coef[0]``, so one call shifts a whole batch of
    polynomials, each around its own centre.
    """
    out = np.zeros_like(coef)
    for j in range(len(coef)):
        bj = coef[j] * s**j
        for m in range(j + 1):
            out[m] = out[m] + math.comb(j, m) * bj * (-c) ** (j - m)
    return out


#: whole periods per chunk of the streamed profile Clim; at 128 phase bins a
#: chunk is 32768 samples, 512 KiB per complex temporary
_CHUNK_PERIODS = 256

#: default flatness tolerance of a Clim, the one the lemma table is verified at
_FLAT_TOL = 1e-7

#: highest degree of the polynomial in the phase that a profile is fitted with
_MAX_PHASE_DEGREE = 8

_EPS = sys.float_info.epsilon


def _chunk_spans(lo, hi):
    """Consecutive [a, b) of at most ``_CHUNK_PERIODS`` periods covering [lo, hi)."""
    return ((a, min(a + _CHUNK_PERIODS, hi)) for a in range(lo, hi, _CHUNK_PERIODS))


def _entry(table: dict, key, what: str):
    """table[key], or InvalidInputError when key names no entry (a list included)."""
    if isinstance(key, str) and key in table:
        return table[key]
    raise InvalidInputError(f"unknown {what} {key!r}")


def _bin_grid(t0, dt, period, phase):
    """k_b, alpha_b = divmod(t0 + b*dt - phase, period) over the bins b of one
    period; dt must divide the period into 2 <= nbin < 2**53 of them, which
    is checked before any bin is built."""
    count = period / dt
    nbin = int(round(count)) if count < 2**53 else 0
    if nbin < 2 or abs(nbin * dt - period) > 1e-9 * period:
        raise InvalidInputError(
            f"dt = {dt} must divide the period {period} into an integer "
            "number of samples, from 2 to 2**53 - 1"
        )
    return np.divmod(t0 + dt * np.arange(nbin) - phase, period)


def _clim_profile(
    source, n, t0, dt, s0, sigma0, direction, degree, period, phase, flat_tol,
    phase_degree=None,
):
    """Period-aware Clim: the profiles gamma_n(alpha) of f as a polynomial in z.

    ``source(i0, i1)`` returns the samples f[i0:i1] of a path of n samples,
    f[i] = f(t0 + i*dt).  The samples of the full periods form an (nfull,
    nbin) matrix, one row per period and one column per phase bin b.  Down a
    column z is affine in the period index p, z = z_b -/+ i*(nbin*dt)*p on the
    lower/upper contour, so one Vandermonde in p (scaled by a power of two
    >= nfull), over the first- and last-quarter rows, serves every bin: it is
    factored once, and one solve fits all columns at once.  The raw samples
    grow like T^degree, and so does their rounding; unweighted, the late rows
    would bury the O(1) low-order coefficients in their noise.  So each row
    is weighted by (1 + p)^-degree, and one double-precision solve holds the
    low-order coefficients to rounding level at any path length.  A binomial
    shift around z_b turns the p-coefficients of each column into the
    z-monomial profiles gamma_n(b), which feed only the value: their period
    means.  Ladder samples are built on the same bin grid (``_bin_grid``), so
    down a column they are exactly polynomials in p.

    Each period mean is the exact integral of a polynomial in the phase,
    fitted over the bins at ``phase_degree`` (by default min(degree + 2, 8),
    which covers every ladder symbol but alpha_n, whose profile alpha^n
    needs n).  The fit goes up to degree 8 and needs more distinct bin
    phases than its degree, or InvalidInputError is raised before the path
    is read; a large |phase| or t0 rounds the bin phases t0 + b*dt - phase
    together.

    The path is streamed in two passes over chunks of ``_CHUNK_PERIODS``
    whole periods, and every sample read from the source is checked to be
    finite.  Pass one keeps the quarter rows for the fit, so the value does
    not depend on the chunk length.  Pass two checks the fit on the whole
    path: it reuses the kept rows, reads the middle half and the trailing
    partial period (row p = nfull), and predicts each row from the fit
    itself, by Horner's rule in the scaled period index p/scale, the basis
    the solve was made in.  With the fit's weights w_p = (1 + p)^-degree, the
    flatness is max w_p|f - prediction| / max w_p|f| (0 for an all-zero
    path), and the Clim is rejected unless it is at most ``flat_tol``.  Both
    are maxima, so neither depends on the chunk length, and the memory is
    the quarter rows, one chunk buffer (Horner's rule, the residual and the
    moduli are written into it in place) and two floats per period.

    The source returns float64 or complex128 samples, one dtype for the
    whole path, as a ``SampledPath`` holds them.  The quarter rows are
    stored as complex either way, real samples filling the real parts.  So
    the solve reads, bit for bit, the matrix it reads for the
    samples' complex copies: a real-only matrix of half the columns could
    round differently, since a BLAS may pick its kernel by matrix size
    (OpenBLAS does, at 2100 to 7000 periods of 128 bins).  The storage also
    has one byte size whatever the dtype, so Clims of real and of complex
    samples in turn ask the allocator for blocks of one size.  Pass two
    works in the samples' dtype: real rows are predicted from the real part
    of the fit, whose imaginary part is the fit of zero columns, and so read
    the same residuals and the same flatness as their complex copies.

    The guard bounds what the profiles miss relative to the weighted
    samples.  Content that grows like p^degree but is no polynomial in p is
    rejected from ``flat_tol`` of the samples upward; smaller content passes
    and goes into the value.  Ladder samples are exact polynomials in p, so
    on them the flatness is at rounding level.
    """
    if not period < n * dt:
        # checked before the bins are built, of which there may be 1e20
        raise NoClimError(
            f"the period {period} is longer than the path, {n} samples at dt = {dt}; "
            "at least 50 periods are needed for the averages to flatten",
            residual_flatness=math.inf,
        )
    _, alpha_b = _bin_grid(t0, dt, period, phase)
    nbin = len(alpha_b)
    if phase_degree is None:
        phase_degree = min(degree + 2, _MAX_PHASE_DEGREE)
    if phase_degree > _MAX_PHASE_DEGREE:
        raise InvalidInputError(
            f"the phase fit goes up to degree {_MAX_PHASE_DEGREE}, not {phase_degree} "
            "(alpha_n needs degree n)"
        )
    # the fit reads the bins in phase order
    order = np.argsort(alpha_b)
    phases = alpha_b[order] / period
    distinct = 1 + np.count_nonzero(np.diff(phases))
    if distinct <= phase_degree:
        raise InvalidInputError(
            f"{distinct} distinct phases in {nbin} bins cannot fit a degree-{phase_degree} "
            "phase profile: take more bins per period, or a smaller tau0 or t0"
        )
    nfull = (n - 1) // nbin
    if nfull < 50:
        raise NoClimError(
            f"path spans only {nfull} full periods; at least 50 are needed "
            "for the averages to flatten",
            residual_flatness=math.inf,
        )
    nq = nfull // 4
    if degree + 1 > 2 * nq:
        raise InvalidInputError(f"degree {degree} needs {degree + 1} quarter rows, not {2 * nq}")

    def periods(p0, p1):
        return _finite(source(p0 * nbin, p1 * nbin)).reshape(-1, nbin)

    # Pass one: the first- and last-quarter rows, the only ones the fit reads,
    # stored as complex; ``rows`` views them in the samples' own dtype.
    p = np.r_[0:nq, nfull - nq : nfull]
    kept = np.empty((2 * nq, nbin), dtype=complex)
    for first, out in ((0, kept[:nq]), (nfull - nq, kept[nq:])):
        for a, b in _chunk_spans(0, nq):
            f = periods(first + a, first + b)
            out[a:b] = f
    rows = kept if np.iscomplexobj(f) else kept.real
    # one weight per row; the fit folds its rows' weights into Q, since
    # weighting a copy of the rows would double the memory of the fit
    w = (1.0 + np.arange(nfull + 1)) ** -degree
    wq = w[p][:, None]
    scale = 1 << (nfull - 1).bit_length()
    Q, R = np.linalg.qr(np.vander(p / scale, degree + 1, increasing=True) * wq)
    # real and imaginary parts as separate columns: the Vandermonde is real
    fit = np.linalg.solve(R, (Q * wq).T @ kept.view(float)).view(complex)
    coef = fit / (dt * nbin * scale) ** np.arange(degree + 1)[:, None]
    sign = -1j * _contour_sign(direction)
    zb = _geometric_z(t0 + dt * np.arange(nbin), s0, sigma0, direction)

    # the period means of the z-monomial profiles, each by exact quadrature
    # of a polynomial fitted over the phase alpha/period in [0, 1); profiles
    # that leave the doubles (they grow like (s0 - sigma0)^degree) raise
    # instead of warning
    with np.errstate(all="ignore"):
        gam = _z_coefficients(coef, 1.0 / sign, zb)
        fits = np.array([np.polynomial.polynomial.polyfit(phases, g[order], phase_degree)
                         for g in gam])
    _finite(fits, "the phase fit of the profiles", {"s0": s0, "sigma0": sigma0})
    m = np.arange(phase_degree + 1)
    means = [complex(np.sum(c / (m + 1))) for c in fits]
    value = means[0]
    if degree >= 2:
        # The zero-mean period-C content q(alpha) multiplying z^2 has Cesaro
        # value sign*(s0-sigma0)*mean(W_q), sign = -/+i on the lower/upper
        # contour and W_q the antiderivative of q anchored at 0.
        p2 = fits[2].copy()
        p2[0] -= means[2]
        mean_w = period * np.sum(p2 / ((m + 1) * (m + 2)))
        value += sign * (s0 - sigma0) * mean_w

    # Pass two: predict every row from the fit by Horner's rule in the scaled
    # period index, the basis it was solved in, and keep each row's largest
    # residual and largest sample.
    def chunks():
        for a, b in _chunk_spans(0, 2 * nq):
            yield p[a:b], rows[a:b]
        for a, b in _chunk_spans(nq, nfull - nq):
            yield np.arange(a, b), periods(a, b)
        yield np.array([nfull]), _finite(source(nfull * nbin, n))[None, :]

    # real rows are predicted from the real part of the fit and take their
    # moduli in place; complex rows need a float buffer for theirs
    work = np.empty((_CHUNK_PERIODS, nbin), dtype=rows.dtype)
    if rows.dtype == float:
        fit, moduli = fit.real, work
    else:
        moduli = np.empty(work.shape)
    res, mag = np.empty(nfull + 1), np.empty(nfull + 1)
    for pc, f in chunks():
        height, width = f.shape
        x = (pc / scale)[:, None]
        predicted = work[:height, :width]
        np.multiply(fit[degree, :width], x, out=predicted)
        for nn in range(degree - 1, 0, -1):
            predicted += fit[nn, :width]
            predicted *= x
        predicted += fit[0, :width]
        residual = np.subtract(f, predicted, out=predicted)
        out = moduli[:height, :width]
        res[pc] = np.max(np.abs(residual, out=out), axis=1)
        mag[pc] = np.max(np.abs(f, out=out), axis=1)
    # weighted like the fit, so the late rows do not hide the early ones
    peak = np.max(w * mag)
    flat = float(np.max(w * res) / peak) if peak else 0.0
    if not flat <= flat_tol:  # False for a NaN flatness
        raise NoClimError(
            f"profile residual not flat: {flat:.3g}", residual_flatness=flat
        )
    return ClimReport(
        value=complex(value),
        removed_eigen=tuple(enumerate(means))[1:],
        p_power=1,
        residual_flatness=flat,
    )


def clim(
    path: SampledPath,
    s0,
    sigma0: float,
    direction: str,
    max_eigen: int,
    max_p: int,
    *,
    period: float | None = None,
    phase: float = 0.0,
    flat_tol: float = _FLAT_TOL,
) -> ClimReport:
    """Numeric generalized Cesaro limit of a sampled path.

    With ``period`` given (ladder symbols), the period-aware profile method
    is used with expansion degree max_eigen, and ``max_p`` is unused.  Its
    flatness is the largest fit residual relative to the largest sample,
    both weighted by (1 + p)^-max_eigen, p the period index; it must be at
    most flat_tol.  The phase bins of a period must have more distinct
    phases than min(max_eigen + 2, 8), the degree of the phase fit, and the
    first and last quarter of the nfull full periods, 2*(nfull // 4) rows,
    must number at least max_eigen + 1.

    Otherwise (plain mode) coefficients of z^n (n = 1..max_eigen) are fitted
    and removed, then P is applied up to max_p times until the tail of the
    path is flat: its flatness, the largest deviation of the last 10% from
    their mean, must be at most flat_tol * (1 + |tail mean|).  The fit is a
    least-squares polynomial in the centred height (T - T_mid)/T_half, one
    (max_eigen + 1)-square solve of the normal equations per stage, on a
    complex copy of the samples; at max_eigen = 0 a real path stays real.
    The samples must number at least max_eigen + 1.  Past either bound
    InvalidInputError is raised before the path is read.  Each stage's fit
    is carried from the path to z = 0, where the centred height has modulus
    |c|/T_half, c = z(T_mid): the rounding of each fitted coefficient, eps
    times the fit's size (the sum of their moduli), grows by that modulus per
    power.  Summed over the stages, this carried rounding must also be at
    most flat_tol * (1 + |value|), or NoClimError is raised with it as the
    flatness: a huge |s0| leaves the value nothing but rounding.
    """
    s0 = _point(s0)
    sign = _contour_sign(direction)
    _require_int(max_p, "max_p", 0)
    _require_tol(flat_tol, "flat_tol")
    _require_finite(sigma0=sigma0, phase=phase)

    if period is not None:
        _require_range(period, "period", 0.0, lo_open=True)
        # the fit's own bound on max_eigen is checked in _clim_profile
        _require_int(max_eigen, "max_eigen", 1)
        return _clim_profile(
            lambda i0, i1: path.samples[i0:i1], len(path.samples), path.t0, path.dt,
            s0, sigma0, direction, max_eigen, period, phase, flat_tol,
        )

    # max_eigen + 1 fit coefficients need as many samples
    _require_int(max_eigen, "max_eigen", 0, len(path.samples) - 1)
    f = np.ascontiguousarray(path.samples, dtype=complex if max_eigen > 0 else None)
    removed = np.zeros(max_eigen + 1, dtype=complex)
    if max_eigen > 0:
        # the fit is in the centred height x = (T - T_mid)/T_half, with
        # T - T_mid = i*sign*(z - c) and c = z(T_mid); V is the same at
        # every stage
        times = path.times
        t_mid, t_half = 0.5 * (times[-1] + times[0]), 0.5 * (times[-1] - times[0])
        V = np.vander((times - t_mid) / t_half, max_eigen + 1, increasing=True)
        gram = V.T @ V
        scale = t_half ** np.arange(max_eigen + 1)
        c = _geometric_z(t_mid, s0, sigma0, direction)
        # the growth of the fit's rounding on its way to z = 0, summed over
        # the powers; in Python floats, whose overflow is inf and not a warning
        reach, power, gain = math.hypot(c.real, c.imag) / float(t_half), 1.0, 0.0
        for _ in range(max_eigen):
            power *= reach
            gain += power
    flat, carried = math.inf, 0.0
    for stage in range(max_p + 1):
        if max_eigen > 0:
            # real and imaginary parts as two real columns; the fitted
            # polynomial is sum_n pz[n] z^n, so removing it and adding back
            # pz[0] removes the n >= 1 terms without forming powers of z.
            # The residual is written over the fit, so no copy outlives it.
            coef = np.linalg.solve(gram, V.T @ f.view(float).reshape(-1, 2))
            fit = coef.view(complex).ravel()
            pz = _computed("the z-fit", {"s0": s0, "sigma0": sigma0},
                           _z_coefficients, fit / scale, 1j * sign, c)
            carried += _EPS * float(np.sum(np.abs(fit))) * gain
            fitted = (V @ coef).view(complex).ravel()
            fitted -= pz[0]
            f = np.subtract(f, fitted, out=fitted)
            removed += pz
        tail = f[int(0.9 * len(f)):]
        mean = complex(tail.mean())
        flat = float(np.max(np.abs(tail - mean)))
        bound = flat_tol * (1.0 + abs(mean))
        if flat <= bound:  # False for a NaN flatness
            if carried > bound:  # NaN only for an all-zero fit at an infinite reach
                raise NoClimError(
                    f"the z-fit carries rounding {carried:.3g} to z = 0 at s0 = {s0}",
                    residual_flatness=carried,
                )
            return ClimReport(
                value=mean,
                removed_eigen=tuple(
                    (n, complex(removed[n])) for n in range(1, max_eigen + 1)
                ),
                p_power=stage,
                residual_flatness=flat,
            )
        f = average_P(SampledPath(path.t0, path.dt, f)).samples
    raise NoClimError(
        f"no classical limit after {max_p} averagings (flatness {flat:.3g})",
        residual_flatness=flat,
    )


def _closed_form_table(direction: str, a: complex, c: complex, tau0, C) -> dict:
    """Closed forms of the symbols but alpha_n on one contour, a = s0 - r0, c = s0 - sigma0."""
    sgn = _contour_sign(direction)
    w = -sgn * 1j * a
    return _computed("the closed-form table", {"s0 - r0": a, "s0 - sigma0": c}, lambda: {
        "k": (w - C / 2.0) / C,
        "k2": (-a * a + sgn * 1j * C * a + C * C / 3.0) / C**2,
        "k3": (sgn * 1j * C * C * c / 4.0 + sgn * 1j * a**3 + 1.5 * C * a * a
               - sgn * 1j * C * C * a - C**3 / 4.0) / C**3,
        "k_alpha": w / 2.0 - C / 3.0,
        "k_alpha2": C * w / 3.0 - C * C / 4.0,
        "k2_alpha": -a * a / (2.0 * C) + sgn * 7j * a / 12.0 + C / 4.0 + sgn * tau0 / 12.0,
        "z_alpha": 0.0 + 0.0j,
        "z_alpha2": 0.0 + 0.0j,
        "z2_alpha": sgn * 1j * C * C * c / 12.0,
    })


def lemma_closed_form(
    symbol: str,
    direction: str,
    n: int,
    s0,
    r0,
    sigma0: float,
    tau0: float,
    C: float,
) -> complex:
    """Closed-form generalized Cesaro limit of a ladder symbol.

    Lower contour: z = (s0 - sigma0) - iT with T = C*k + tau0 + alpha;
    upper: z~ = (s0 - sigma0) + iT~ with T~ = C*k~ - tau0 + alpha~.

    s0, r0, sigma0 and tau0 must be finite numbers, C finite and positive,
    and alpha_n's power n an integer >= 1; any other input, NaN included,
    raises InvalidInputError naming the argument before the table is built.
    The table of the symbols other than alpha_n is built whole and checked
    whole, so an input at which any entry leaves the doubles (k3 grows like
    |s0 - r0|^3, and C^2 underflows to 0 at C = 1e-308) raises
    InvalidInputError for each of them; alpha_n raises when C^n overflows.
    """
    _contour_sign(direction)
    _entry(SYMBOL_DEGREE, symbol, "lemma symbol")
    _require_range(C, "C", 0.0, lo_open=True)
    s0, r0 = _point(s0), _point(r0, "r0")
    _require_finite(sigma0=sigma0, tau0=tau0)
    if symbol != "alpha_n":
        return _closed_form_table(direction, s0 - r0, s0 - sigma0, tau0, C)[symbol]
    _require_int(n, "n", 1)
    return _computed("alpha_n", {"C": C, "n": n}, lambda: C**n / (n + 1.0))


@dataclass(frozen=True)
class LemmaParams:
    """Ladder configuration for one lemma verification run."""

    q: int
    sigma0: float
    tau0: float
    s0: complex
    direction: str = "lower"
    n: int = 1
    t0: float = 0.0

    def __post_init__(self):
        vertical_spacing(self.q)  # q must be a prime power
        _contour_sign(self.direction)  # direction must name a contour
        _point(self.s0)
        _require_finite(sigma0=self.sigma0, tau0=self.tau0)
        _require_range(self.t0, "t0", 0.0)
        # the power of alpha_n; checked here so a bad n fails before any path work
        _require_int(self.n, "n", 1)

    @property
    def phase(self) -> float:
        """Phase of the ladder: tau0 on the lower contour, -tau0 on the upper."""
        return _contour_sign(self.direction) * self.tau0


@dataclass(frozen=True)
class LemmaVerification:
    symbol: str
    direction: str
    closed_form: complex
    numeric: complex
    abs_diff: float
    passed: bool
    report: ClimReport


def _sample_count(T_max: float, t0: float, dt: float, shift=0.0):
    """Number of heights t0 + (shift + i)*dt <= T_max, and the first of them:
    at least 2, and below 2**53, past which neither the index i nor a ladder
    index k = p + k_b is an exact double.  dt is checked before the shift."""
    _require_range(dt, "dt", 0.0, lo_open=True)
    _require_finite(T_max=T_max)
    if shift:
        t0 = t0 + shift * dt
    steps = (T_max - t0) / dt
    if not 1.0 <= steps < 2**53 - 1:
        raise InvalidInputError(
            f"T_max = {T_max} must give 2 to 2**53 - 1 samples from t0 = {t0} at dt = {dt}"
        )
    return int(math.floor(steps)) + 1, t0


def _ladder_length(symbol: str, params: LemmaParams, T_max: float, dt: float, shift=0.0):
    """Validate a ladder path request whose samples start shift*dt past
    params.t0; return the params of that start, the sample count, the period
    and the bin table."""
    _entry(_LADDER_SYMBOLS, symbol, "lemma symbol")
    n, t0 = _sample_count(T_max, params.t0, dt, shift)
    if shift:
        params = replace(params, t0=t0)
    C = vertical_spacing(params.q)
    return params, n, C, _bin_grid(params.t0, dt, C, params.phase)


def _ladder_block(symbol: str, params: LemmaParams, bins, dt: float, i0: int, i1: int):
    """Samples [i0, i1) of the ladder path of a symbol, bins its bin table.

    Sample i = p*nbin + b lies in period p and phase bin b: its ladder index
    is k = p + k_b and its phase alpha = alpha_b (``_bin_grid``), and only z
    reads its height t0 + dt*i.  The block is built as whole periods, one row
    per period, by broadcasting the bin table against the period indices, and
    then cut to [i0, i1).  A sample depends on its own index only, so a block
    is bitwise the same slice of ``ladder_path(...).samples``.  The symbols
    that do not read z are real and come back as float64; z_alpha, z_alpha2
    and z2_alpha come back as complex128.
    """
    k_b, alpha_b = bins
    nbin = len(k_b)
    p0, p1 = i0 // nbin, -(-i1 // nbin)
    p = np.arange(p0, p1)[:, None]
    z = None
    if symbol.startswith("z"):
        T = params.t0 + dt * (p * nbin + np.arange(nbin))
        z = _geometric_z(T, complex(params.s0), params.sigma0, params.direction)
    expr = _LADDER_SYMBOLS[symbol][1]
    rows = expr(p + k_b, alpha_b, z, params.n)
    if rows.ndim == 1:  # alpha_n reads only the phase: one row for every period
        rows = np.broadcast_to(rows, (p1 - p0, nbin))
    return rows.reshape(-1)[i0 - p0 * nbin : i1 - p0 * nbin]


def ladder_path(symbol: str, params: LemmaParams, T_max: float, dt: float) -> SampledPath:
    """Exact sampled path of a ladder symbol on the chosen contour; dt must divide C."""
    _, n, _, bins = _ladder_length(symbol, params, T_max, dt)
    return SampledPath(params.t0, dt, _ladder_block(symbol, params, bins, dt, 0, n))


def verify_lemma(
    symbol: str, params: LemmaParams, T_max: float, dt: float, tol: float
) -> LemmaVerification:
    """Compare the numeric Clim of a ladder symbol against its closed form.

    The value is the profile-mode ``clim`` of the ladder path, computed
    without building the path: the profile extraction streams its samples.
    alpha_n is verified for n = 1 .. 8, the degrees the phase fit reaches;
    a larger n raises InvalidInputError.  A symbol passes when abs_diff <=
    tol * (1 + |closed form|): the closed forms of k, k2, k2_alpha and k3
    grow like tau0, tau0^2 and tau0^3, and the rounding of the value with them.
    """
    _require_tol(tol, "tol")
    # Sample at step midpoints so no sample lands exactly on a ladder jump,
    # where rounding decides whether a bin's phase reads 0 or C.
    shifted, n, C, bins = _ladder_length(symbol, params, T_max, dt, shift=0.5)
    # before any path work, so a closed form that overflows fails fast
    r0 = complex(params.sigma0, params.tau0)
    cf = lemma_closed_form(
        symbol, params.direction, params.n, params.s0, r0, params.sigma0, params.tau0, C
    )
    report = _clim_profile(
        functools.partial(_ladder_block, symbol, shifted, bins, dt), n, shifted.t0, dt,
        complex(params.s0), params.sigma0, params.direction, SYMBOL_DEGREE[symbol],
        C, params.phase, _FLAT_TOL,
        # alpha_n's profile is alpha^n; the default phase degree, 3 for a
        # degree-1 symbol, covers every other profile
        phase_degree=max(3, params.n) if symbol == "alpha_n" else None,
    )
    diff = abs(report.value - cf)
    return LemmaVerification(
        symbol=symbol,
        direction=params.direction,
        closed_form=cf,
        numeric=report.value,
        abs_diff=diff,
        passed=diff <= tol * (1.0 + abs(cf)),
        report=report,
    )


def _check_mu(mu) -> None:
    if mu not in (0, -1, -2):
        raise UnsupportedMuError(f"mu must be 0, -1 or -2, got {mu}")


def _ladder_partial_limit(mu: int, a: complex, direction: str, tau0, C):
    """Clim of the one-sided partial-sum polynomial N_{+,mu} or N_{-,mu}.

    Lower direction gives N_+ (roots with imaginary part in [0, T), so k+1
    terms); upper gives N_- (imaginary parts in (-T, 0), k~ terms).  The
    Clims of k, k^2 and k^3 are read from one closed-form table per contour,
    built once per call.  That table is the seam where numeric Clims of the
    ladder paths, each with its flatness, could stand in for the closed forms.
    """
    sgn = _contour_sign(direction)
    _check_mu(mu)
    # the closed forms depend on s0 only through a and c = s0 - sigma0 = a + i*tau0
    L = _closed_form_table(direction, a, a + 1j * tau0, tau0, C)
    count = 1.0 if sgn > 0 else 0.0  # the j = 0 root is in N_+
    if mu == 0:
        return L["k"] + count
    if mu == -1:
        return a * (L["k"] + count) - sgn * 1j * (C / 2.0) * (L["k2"] + L["k"])
    return (
        a * a * (L["k"] + count)
        - sgn * 1j * C * a * (L["k2"] + L["k"])
        - C * C * (L["k3"] / 3.0 + L["k2"] / 2.0 + L["k"] / 6.0)
    )


def r_lambda_cesaro(factor, q, s0, mu: int) -> complex:
    """Per-factor regularized root-side value at mu in {0, -1, -2}: exactly 0.

    The value is e^(i*pi*mu) * nu * (N_+ + N_-), where N_+ and N_- are the
    Cesaro limits of the one-sided partial sums, polynomials in k and k~.
    Through the closed-form lemma table N_- = -N_+, so the value is zero.
    Both limits are still evaluated independently, and the zero is returned
    only after they are checked to cancel to 1e-9 * (1 + |N_+|).
    """
    s0 = _point(s0, min_re=1.0)
    _require_finite(mu=mu)
    C = vertical_spacing(q)
    a = s0 - complex(factor.sigma0, factor.tau0)
    n_plus = _ladder_partial_limit(mu, a, "lower", factor.tau0, C)
    n_minus = _ladder_partial_limit(mu, a, "upper", factor.tau0, C)
    if abs(n_plus + n_minus) > 1e-9 * (1.0 + abs(n_plus)):
        raise ValidationError(
            f"one-sided limits fail to cancel: N+ = {n_plus}, N- = {n_minus}"
        )
    return 0j


@dataclass(frozen=True)
class CountingFunction:
    """Critical-line root counting data: period C, genus g, step positions."""

    C: float
    g: int
    kappas: tuple


def make_counting(g: int, C: float, kappas) -> CountingFunction:
    """Validate and build a CountingFunction.

    kappas are the base-root imaginary parts in (0, C) on the critical line;
    the multiset must be symmetric under kappa -> C - kappa, that is the
    roots 1/2 + i*kappa closed under conjugation, checked as ``make_curve``
    checks it.
    """
    _require_int(g, "genus", 1)
    _require_range(C, "C", 0.0, lo_open=True)
    kappas = sorted(_floats(kappas, "kappas", count=2 * g))
    for k in kappas:
        if not _PAIR_TOL < k < C - _PAIR_TOL:
            raise ValidationError(f"kappa = {k} must lie strictly inside (0, {C})")
    _check_conjugation([(0.5, k) for k in kappas], C)
    return CountingFunction(C=float(C), g=int(g), kappas=tuple(kappas))


def _heightwise(fn):
    """Let an evaluator written for an array of heights take one height too.

    A float in gives a float out.  It is evaluated as a one-element array, so
    it rounds exactly as the same height inside a longer array would (NumPy's
    scalar powers can round differently from its array powers).  A height
    that is not a finite real number raises InvalidInputError.
    """

    @functools.wraps(fn)
    def evaluator(cf: CountingFunction, T):
        T = _reals(T, "heights")
        values = fn(cf, _finite(np.atleast_1d(T), "heights"))
        return float(values[0]) if T.ndim == 0 else values

    return evaluator


@_heightwise
def s_eval(cf: CountingFunction, T):
    """Periodic residual S(T) = N(alpha) - (2g/C)*alpha, alpha = T mod C.

    On the steps the midpoint value is returned, which makes trapezoid
    quadrature of S unbiased when steps coincide with sample points.
    """
    alpha = T % cf.C
    # N(alpha): the steps at or below alpha, with half weight exactly on a step
    count = np.zeros_like(alpha)
    for k in cf.kappas:
        count += np.where(
            alpha > k + _PAIR_TOL, 1.0, np.where(np.abs(alpha - k) <= _PAIR_TOL, 0.5, 0.0)
        )
    return count - (2.0 * cf.g / cf.C) * alpha


@_heightwise
def s1_eval(cf: CountingFunction, T):
    """First antiderivative S1(T) = int_0^alpha S; periodic, S1(0) = S1(C) = 0."""
    alpha = T % cf.C
    acc = -(cf.g / cf.C) * alpha * alpha
    for k in cf.kappas:
        acc += np.maximum(0.0, alpha - k)
    return acc


def s1_av(cf: CountingFunction) -> float:
    """Period mean of S1; for one step pair {kappa, C-kappa} this is
    kappa^2/C - kappa + C/6."""
    acc = -cf.g * cf.C / 3.0
    for k in cf.kappas:
        acc += (cf.C - k) ** 2 / (2.0 * cf.C)
    return acc


def _q_of_phase(cf: CountingFunction, alpha):
    """Q at phases alpha = T mod C that are already reduced."""
    acc = np.zeros_like(alpha)
    for k in cf.kappas:
        acc += 0.5 * np.maximum(0.0, alpha - k) ** 2
    return acc


@_heightwise
def q_eval(cf: CountingFunction, T):
    """Periodic piece Q(alpha) = sum_i max(0, alpha - kappa_i)^2 / 2."""
    return _q_of_phase(cf, T % cf.C)


def q_av(cf: CountingFunction) -> float:
    """Period mean of Q; equals (C/2)*S1av + g*C^2/12."""
    return sum((cf.C - k) ** 3 / (6.0 * cf.C) for k in cf.kappas)


@_heightwise
def s2_eval(cf: CountingFunction, T):
    """Second antiderivative S2(T) = S1av*(T - alpha) + int_0^alpha S1."""
    alpha = T % cf.C
    inner = _q_of_phase(cf, alpha) - (cf.g / (3.0 * cf.C)) * alpha**3
    return s1_av(cf) * (T - alpha) + inner


# the evaluators' bodies, which take the heights unchecked (functools.wraps
# keeps them as __wrapped__)
_S, _S1, _S2 = (fn.__wrapped__ for fn in (s_eval, s1_eval, s2_eval))

#: each counting-path kind as one expression in the heights t
_COUNTING_EXPR = {
    "S": _S,
    "tS": lambda cf, t: t * _S(cf, t),
    "t2S": lambda cf, t: t * t * _S(cf, t),
    "S1": _S1,
    "tS1": lambda cf, t: t * _S1(cf, t),
    "S2": _S2,
}


def counting_path(cf: CountingFunction, kind: str, t_max: float, dt: float) -> SampledPath:
    """Sampled path of a counting-pipeline combination on [0, t_max].

    kind is one of S, tS, t2S, S1, tS1, S2.  Step functions are sampled with
    the midpoint convention of ``s_eval``.  The heights dt * i are built from
    the checked dt and count, so the evaluators' bodies take them unchecked.
    """
    expr = _entry(_COUNTING_EXPR, kind, "path kind")
    t = dt * np.arange(_sample_count(t_max, 0.0, dt)[0])
    return SampledPath(t0=0.0, dt=dt, samples=expr(cf, t))


@dataclass(frozen=True)
class CriticalLineResult:
    """Assembled critical-line value r(s0, mu) and its pieces."""

    mu: int
    value: complex
    x_epsilon: complex | None
    pieces: dict


def r_critical_line(cf: CountingFunction, s0, mu: int, epsilons) -> CriticalLineResult:
    """Critical-line value r(s0, mu) for mu in {0, -1, -2}: exactly 0.

    N(T) = Ncheck(T) + S(T) with Ncheck = (2g/C)T, and each of the Ncheck
    and S blocks combines one Cesaro limit per contour.  On the lower
    contour, with b = s0 - 1/2, the limits under plain averaging (``clim``
    without a period: the z^n fit removed, then P applied) are:

        mu = 0:   Clim Ncheck = -(2g/C) i b,  Clim S = 0
        mu = -1:  Clim (T Ncheck - Ncheck1) = -(g/C) b^2,  Clim (T S - S1) = -S1av
        mu = -2:  Clim (T^2 Ncheck - 2T Ncheck1 + 2 Ncheck2) = (2g/3C) i b^3,
                  Clim T^2 S = 0,  Clim TS1 = Clim S2 = -i b S1av

    At mu = 0 and -2 the blocks add the two contours, and the upper contour
    gives the exact negative of each lower limit.  At mu = -1 the blocks
    subtract them, and the upper contour gives the same limit.  So under
    plain averaging the mu = -2 S combination T^2 S - 2 TS1 + 2 S2 is 0 on
    each contour.  The profile rule the lemma table is verified with
    (``clim`` with period C, which gives zero-mean z^2 content its Cesaro
    value, as for z2_alpha) reads Clim T^2 S = i sgn b S1av instead, sgn = 1
    on the lower contour and -1 on the upper.  Under it that combination is
    i sgn b S1av on each contour, and only the sum over the two contours
    vanishes.  The zero returned is that two-contour sum, under either rule.
    For mu = -2 the value is X_epsilon = sum eps_i^2 * Clim of the two-sided
    root count, which is zero because its one-sided limits cancel per root
    ladder (see ``r_lambda_cesaro``).
    """
    _point(s0, min_re=1.0)
    _require_finite(mu=mu)
    _floats(epsilons, "epsilons", count=2 * cf.g)
    _check_mu(mu)
    return CriticalLineResult(
        mu=mu,
        value=0j,
        x_epsilon=0j if mu == -2 else None,
        pieces={"ncheck_block": 0j, "s_block": 0j},
    )


def x_epsilon_equispaced(sigma0: float) -> complex:
    """X_epsilon for an equi-spaced off-line root family at Re(s) = sigma0: 0.

    All roots share eps = sigma0 - 1/2, so X_eps = eps^2 * Clim of the
    two-sided root count, which vanishes because the one-sided count limits
    are exact negatives.  The roots of a curve zeta function lie in the
    strip 0 <= Re(s) <= 1, so sigma0 must lie in [0, 1].
    """
    _require_range(sigma0, "sigma0", 0.0, 1.0)
    return 0j
