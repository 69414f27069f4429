"""Histogramming, mixture fitting, classification and QE back-calculation.

The measured carrier values follow a Poisson-weighted train of Gaussians:
component ``l`` sits at ``l`` electrons with weight ``pois_pmf(l; n)`` and a
shared width ``sigma`` set by the readout noise,

    density(x) = 1/(sqrt(2 pi) sigma)
                 * sum_{l=0}^{l_max} pois_pmf(l; n) exp(-(x-l)^2 / 2 sigma^2).

Only ``(n, sigma)`` are free: the component means are pinned to the integer
electron grid (gain calibration happens upstream, so the x axis is already
in electrons) and the weights are tied through the single Poisson mean.
Fitting climbs the log-likelihood from one E-step to the next. Each E-step
gives, besides the log-likelihood, the expectation-maximization (EM) image
of the point, which has closed-form updates for both parameters and never
lowers the log-likelihood, and the 2x2 observed information, which follows
from moments of the component responsibilities by Louis's identity (Louis
1982, J. R. Stat. Soc. B 44:226). ``fit_mixture`` takes Newton steps on it
where it is positive definite and the step raises the log-likelihood, and
otherwise falls back to EM accelerated with SQUAREM (Varadhan & Roland 2008,
Scand. J. Stat. 35:335), an EM/Newton hybrid in the manner of Jamshidian &
Jennrich (1997, J. R. Stat. Soc. B 59:569). Plain EM converges linearly, at
the rate of the fraction of missing information, which approaches 1 as the
peaks overlap; the Newton steps converge quadratically, and the information
at the returned point gives the standard error of ``n`` without a pass of
its own. Every entry point that takes a point ``(n, sigma)`` first sets it
up through ``_cutoff``, which refuses with ``ValueError`` an ``n`` not
finite and >= 0 and a ``sigma`` not finite and > 0, and takes ``l_max=None``
for the cutoff ``max(20, ceil(2 n) + 2)``; the likelihood, which takes
``ln n``, also refuses ``n = 0``.

Every likelihood pass (``fit_mixture``, ``log_likelihood``,
``log_likelihood_grad``, ``mixture_density``) has one set-up, ``_passes``,
and runs over events in chunks of ``_EVENT_CHUNK`` through
one workspace (:class:`_Workspace`): one buffer, whose log-terms are turned
in place into exponentials, and ``_PASS_VECTORS`` chunk vectors that hold
the pass's per-event values. No cell is normalised into a responsibility:
the EM statistics and the information come from each event's moments of
its exponentials (``_moment_sums``), built in the chunk vectors.
``fit_mixture`` allocates the workspace once and every pass reuses it, so a
pass allocates no float array of the chunk's size. The buffer is
component-major: a ``(k, chunk)`` array whose row ``j`` holds component
``lo + j`` of every event. Each step of the pass is then one whole-block
operation or one operation per component row, each a long contiguous vector
over the events; the sum and the moments over the components add one row,
or one pair of rows, at a time, in a fixed order, and the maximum, exact in
any order, is one reduction over the rows.

Each event is evaluated only at the band of ``2B + 1`` components around its
nearest integer that can reach its log-sum-exp (``_band_half_width``). ``B``
grows with sigma and with the steepest step of the Poisson log-weights, and
every component left out lies more than ``37 + ln(l_max + 1)`` below the
nearest kept one, so together they stay below half an ulp of the event's
sum. At the usual sigma of a third of an electron that is 7 of the 21 or 31
components. Where the band would cover every component, the pass is the band
of all ``l_max + 1`` components from ``lo = 0``, which gives the bits of a
plain full sum. One ``np.exp`` covers the whole buffer: banded cells lie
near their event's maximum, so numpy's slow subnormal results, common in
full sums over steep weights, are rare there. No sum over the components
goes through BLAS, whose rounding can change with its thread count, and the
Newton step solves its 2x2 system in closed form, so the fit gives the same
bytes for any thread count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from ._bounds import refuse_over_limit

#: Lower clamp on the fitted sigma (electrons); prevents zero-variance
#: collapse on degenerate data. Far below any physical readout width.
SIGMA_FLOOR = 0.01

#: Lower clamp on the fitted Poisson mean; keeps logs defined when the data
#: contain no light at all.
_N_FLOOR = 1e-9

_EVENT_CHUNK = 1 << 16
#: The arrays an estimator call counts against ``_bounds.MAX_BYTES``, with
#: room for the small arrays beside them: ``_WEIGHT_ARRAYS`` of ``l_max + 1``
#: doubles (at most four held), ``_CHUNK_VECTORS`` of a likelihood pass's
#: chunk beside its buffer (the workspace's ``_PASS_VECTORS`` and at most two
#: more) and ``_EDGE_ARRAYS`` the length of the bin edges (at most four: the
#: counts, edges, CDF and term buffer).
_WEIGHT_ARRAYS = 4
_CHUNK_VECTORS = 10
_PASS_VECTORS = 8
_EDGE_ARRAYS = 5
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
#: A chunk sums its EM statistics row by row once some event's second moment
#: about the band's middle row exceeds this many times the chunk's mean
#: squared residual (``_moment_sums``); below it the moment expansion keeps
#: ``sum(r d^2)`` to about 1e-13 relative.
_EXPANSION_LIMIT = 256.0

#: The fit stops once the Newton decrement ``g^T I^-1 g / 2`` of an accepted
#: point, or the log-likelihood gained between two accepted points, is
#: below this, or after ``_EM_ITERATIONS`` passes.
_EM_TOL = 1e-8
_EM_ITERATIONS = 500
#: A SQUAREM step length above this is taken as -1, the plain EM step.
#: Backtracking halves ``alpha + 1``, so it gets here from any finite start.
_SQUAREM_EM_ALPHA = -1.01

#: Histogram peaks are at least this many electrons apart and stand out by
#: this fraction of the tallest bin.
_PEAK_SEPARATION = 0.5
_PEAK_PROMINENCE = 0.02


class InsufficientDataError(ValueError):
    """Too few events for the requested operation."""


class ConvergenceError(RuntimeError):
    """The EM log-likelihood decreased, which a correct update cannot do."""


@dataclass(frozen=True)
class Histogram:
    """Binned carrier values.

    ``origin`` is the left edge of ``counts[0]``; bins are aligned so their
    centers fall on multiples of ``bin_width`` (photon-number positions).
    """

    bin_width: float
    origin: float
    counts: np.ndarray

    @property
    def total(self) -> int:
        """Number of binned events."""
        return int(self.counts.sum())

    @property
    def bin_centers(self) -> np.ndarray:
        return self.origin + (np.arange(len(self.counts)) + 0.5) * self.bin_width

    @property
    def bin_edges(self) -> np.ndarray:
        return self.origin + np.arange(len(self.counts) + 1) * self.bin_width


@dataclass(frozen=True)
class MixtureFit:
    """Result of :func:`fit_mixture`.

    ``n_iterations`` counts the E-step passes; ``stderr_n`` is the asymptotic
    standard error of ``n_hat``, ``sqrt((I^-1)_nn)`` of the observed
    information ``I`` at the returned point, NaN where that is not a
    positive number. ``degenerate`` is None, or says why that standard
    error does not hold: ``n_hat`` sits at its floor, or ``I`` is not
    positive definite. It does not change what ``converged`` means.
    """

    n_hat: float
    sigma_hat: float
    l_max: int
    log_likelihood: float
    n_iterations: int
    converged: bool
    stderr_n: float
    degenerate: str | None = None


def build_histogram(events, bin_width: float) -> Histogram:
    """Bin finite events on a grid whose bin centers sit on multiples of the width.

    Raises ``ValueError`` for a non-finite or non-positive ``bin_width``,
    non-finite events, or a range whose ``_EDGE_ARRAYS`` arrays of bin
    edges would need ``_bounds.MAX_BYTES`` or more.
    """
    if not (np.isfinite(bin_width) and bin_width > 0):
        raise ValueError(f"bin_width must be finite and > 0, got {bin_width}")
    events = np.asarray(events, dtype=float)
    if events.size == 0:
        raise InsufficientDataError("cannot histogram an empty event list")
    if not np.isfinite(events).all():
        raise ValueError("cannot histogram non-finite events")
    grid, first, n_bins = _grid(events, bin_width)
    refuse_over_limit(
        _EDGE_ARRAYS * (n_bins + 1),
        f"bin_width {bin_width} gives {n_bins:.3g} bins over [{events.min()}, "
        f"{events.max()}]; binning and comparing them",
    )
    # in place: the grid and its int64 cast are the only event-length arrays
    grid -= first
    counts = np.bincount(grid.astype(np.int64), minlength=int(n_bins))
    return Histogram(
        bin_width=bin_width,
        origin=(float(first) - 0.5) * bin_width,
        counts=counts.astype(np.int64, copy=False),
    )


def _grid(events, bin_width: float):
    """Float grid indices of events (bin 0 centred on 0), the first and the bin count.

    A range too wide for the grid gives an infinite or NaN bin count.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.floor((events + 0.5 * bin_width) / bin_width)
        first = grid.min()
        return grid, first, grid.max() - first + 1.0


def _cutoff(n: float, sigma: float, l_max: int | None = None) -> int:
    """The set-up of a point ``(n, sigma)``: ``l_max``, by default ``max(20, ceil(2 n) + 2)``.

    Refuses, in this order, an ``n`` that gives no finite default, an ``n``
    not finite and >= 0, a ``sigma`` not finite and > 0, and a cutoff whose
    ``_WEIGHT_ARRAYS`` arrays of ``l_max + 1`` doubles reach the limit.
    """
    if l_max is None:
        if not math.isfinite(2.0 * float(n)):
            raise ValueError(f"mean {n} gives no finite l_max")
        l_max = max(20, math.ceil(2.0 * float(n)) + 2)
    if not 0.0 <= n < math.inf:
        raise ValueError(f"n must be finite and >= 0, got {n}")
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    refuse_over_limit(_WEIGHT_ARRAYS * (l_max + 1), f"a call at l_max {l_max}")
    return l_max


def _log_factorials(l_max: int) -> np.ndarray:
    """``ln l!`` for ``l = 0 .. l_max``."""
    log_fact = np.arange(1.0, l_max + 2.0)
    return special.gammaln(log_fact, out=log_fact)


def _log_poisson_weights(n: float, log_fact: np.ndarray) -> np.ndarray:
    """``l ln n - n - ln l!`` for ``l = 0 .. l_max``; ``-n`` at 0, with no ``0 ln n``.

    ``log_fact`` holds the ``ln l!`` (:func:`_log_factorials`).
    """
    log_w = np.arange(float(log_fact.size))
    np.multiply(log_w[1:], np.log(n) if n != 0 else -np.inf, out=log_w[1:])
    np.subtract(log_w, n, out=log_w)
    return np.subtract(log_w, log_fact, out=log_w)


class _Workspace:
    """Kernel buffers for one chunk of ``n_events`` events, reused across passes.

    Refuses, before allocating anything, an ``l_max`` below 1 or one whose
    pass would hold ``_bounds.MAX_BYTES`` or more, counting the buffer,
    the weight and chunk arrays (the ``_PASS_VECTORS`` chunk vectors of
    ``vectors`` among them), and two of numpy's iterator buffers, which a
    broadcast over a short event axis fills. The buffer is laid out
    component-major: a pass over ``k`` components of a chunk of ``c`` events
    views its first ``k * c`` cells as a C-contiguous ``(k, c)`` array whose
    row ``j`` holds component ``lo + j`` of every event. ``rows`` holds the
    offsets ``0 .. l_max`` as floats and ``log_fact`` their ``ln l!``, which
    every pass's Poisson log-weights share.
    """

    def __init__(self, n_events: int, l_max: int):
        if not l_max >= 1:
            raise ValueError(f"l_max must be >= 1, got {l_max}")
        chunk = min(n_events, _EVENT_CHUNK)
        cells = chunk * (l_max + 1)
        refuse_over_limit(cells + _WEIGHT_ARRAYS * (l_max + 1) + _CHUNK_VECTORS * chunk
                          + 2 * np.getbufsize(), f"a pass over {n_events} events at l_max {l_max}")
        # the vectors first: below the buffer on the heap, they keep no freed
        # buffer from going back to the system
        self.vectors = np.empty(_PASS_VECTORS * chunk)  # event vectors, then the moments
        self.rows = np.arange(l_max + 1.0)
        self.log_fact = _log_factorials(l_max)
        self.a = np.empty(cells)  # log-terms -> exponentials -> moment terms


def _band_half_width(n: float, sigma: float, l_max: int) -> int | None:
    """Half-width ``B`` of the component band, or None where it covers them all.

    The band of an event at ``x`` is the ``2B + 1`` components from ``c - B``
    to ``c + B``, ``c = clip(rint(x), B, l_max - B)``. ``B`` is the smallest
    integer with ``B >= 2 sigma^2 g`` and ``(B + 1)(B / (2 sigma^2) - g) > T``,
    where ``g = max(|ln n|, |ln(n / l_max)|)`` bounds the step
    ``ln w_{l+1} - ln w_l = ln(n / (l + 1))`` of the log-weights and
    ``T = 37 + ln(l_max + 1)``.

    Why no dropped term reaches the event's sum: let ``p`` be the kept component
    nearest ``x`` and ``l`` a dropped one, say above the band (below is the
    mirror image). Components exist above the band only if ``c < l_max - B``,
    so ``c >= rint(x)`` and ``p <= c``, hence ``D = l - p >= B + 1``; and
    ``p - x >= -1/2`` (``p`` is ``rint(x)``, or 0 above an ``x`` below -1/2).
    Then ``(x - l)^2 - (x - p)^2 = D (D + 2 (p - x)) >= D (D - 1)`` and
    ``ln w_l - ln w_p <= g D``, so the log-term of ``l`` lies below that of
    ``p`` by at least ``D ((D - 1) / (2 sigma^2) - g)``, which for
    ``D >= B + 1 >= 2 sigma^2 g + 1`` is at least ``(B + 1)(B / (2 sigma^2) - g)
    > T``. The at most ``l_max + 1`` dropped terms together stay below
    ``e^-37 < 2^-53`` of the kept sum, half an ulp. This holds for
    clipped centres and for events outside ``[0, l_max]`` alike.
    """
    two_var = 2.0 * sigma * sigma
    if not 0.0 < two_var < np.inf:
        return None
    g = max(abs(math.log(n)), abs(math.log(n) - math.log(l_max)))
    if not 2.0 * two_var * g + 1.0 < l_max + 1:
        return None
    t = 37.0 + math.log(l_max + 1.0)
    b = math.ceil(two_var * g)
    while 2 * b + 1 < l_max + 1:
        if (b + 1) * (b / two_var - g) > t:
            return b
        b += 1
    return None


def _component_sum(rows, out):
    """The sum of the rows of a ``(k, c)`` array into ``out``, added one row at a time, in order."""
    np.copyto(out, rows[0])
    for row in rows[1:]:
        np.add(out, row, out=out)
    return out


def _chunk_softmax(x, log_w, sigma, ws, k):
    """Log-sum-exp over a band of ``k`` components for one chunk ``x`` of events.

    Event ``i`` is evaluated at the ``k`` components from ``lo_i``, where
    ``lo = clip(rint(x), h, l_max + 1 - k + h) - h`` and ``h = k // 2``: the
    band of :func:`_band_half_width` for ``k = 2B + 1``, and every component,
    from ``lo = 0``, for ``k = l_max + 1``.
    Fills ``ws`` in place and returns ``lo``, the shifted events ``x - lo``
    and the ``(k, x.size)`` view ``e`` of the buffer's first ``k * x.size``
    cells, whose row ``j`` holds the shifted exponential ``exp(a - m)`` of
    component ``lo + j`` of every event (``a`` its log-term, ``m`` the event's
    largest log-term, 0 where it is not finite). Also returns the event
    vectors ``(lse, s)``, ``s`` the sum of the rows of ``e`` in row order, and
    ``vectors``, the ``(_PASS_VECTORS, x.size)`` view of the workspace's chunk
    vectors, which hold every event vector of the pass: ``s``, ``lse`` and
    the shifted events are its rows 0 to 2, valid until the next row
    operation on them. Events whose log-terms are all -inf get lse = -inf and
    s = 0. Every step is a whole-block operation or one per row, each over
    the contiguous event axis. The caller runs it with numpy's floating-point
    errors ignored: an event far outside its band overflows its log-terms,
    and one with s = 0 takes the log of 0.
    """
    half = k // 2
    vectors = ws.vectors[: _PASS_VECTORS * x.size].reshape(_PASS_VECTORS, x.size)
    s, lse, shifted, m = vectors[:4]
    # fmax and fmin send a NaN event to a valid band; its column stays NaN
    c = np.rint(x, out=m)
    np.fmax(c, half, out=c)
    np.fmin(c, log_w.size - k + half, out=c)
    lo = c.astype(np.intp)
    lo -= half
    np.subtract(x, lo, out=shifted)
    a = ws.a[: k * x.size].reshape(k, x.size)
    np.subtract(shifted, ws.rows[:k, None], out=a)
    np.divide(a, sigma, out=a)
    np.square(a, out=a)
    np.multiply(a, 0.5, out=a)
    # lo + j <= l_max always; "clip" lets take write straight into out
    for j in range(k):
        log_w[j:].take(lo, out=m, mode="clip")
        np.subtract(m, a[j], out=a[j])
    # a maximum is exact in any order, unlike the sums, which go row by row
    np.maximum.reduce(a, axis=0, out=m)
    if not np.isfinite(m).all():
        m[~np.isfinite(m)] = 0.0
    np.subtract(a, m, out=a)
    np.exp(a, out=a)
    _component_sum(a, s)
    np.log(s, out=lse)
    np.add(m, lse, out=lse)
    return lo, shifted, a, lse, s, vectors


def _passes(events, n, sigma, l_max, ws=None):
    """The iterator of :func:`_chunk_softmax` over the chunks of one pass at ``(n, sigma)``.

    Sets the point and the pass up when called, not at the first chunk. The
    caller iterates it under ``np.errstate(all="ignore")``.
    """
    # ln n needs n > 0; checked before the cutoff, every bad n gets one message
    if not 0.0 < n < math.inf:
        raise ValueError(f"n must be finite and > 0, got {n}")
    l_max = _cutoff(n, sigma, l_max)
    if ws is None:
        ws = _Workspace(events.size, l_max)
    half_width = _band_half_width(n, sigma, l_max)
    k = l_max + 1 if half_width is None else 2 * half_width + 1
    log_w = _log_poisson_weights(n, ws.log_fact[: l_max + 1])
    return (_chunk_softmax(events[start : start + _EVENT_CHUNK], log_w, sigma, ws, k)
            for start in range(0, events.size, _EVENT_CHUNK))


def mixture_density(x, n: float, sigma: float, l_max: int | None = None):
    """Poisson-weighted Gaussian mixture density at ``x`` (per electron).

    Computed in log space so that large ``l_max`` and far tails do not
    underflow term-by-term. The density integrates to the Poisson mass below
    the cutoff (slightly less than 1), matching the truncated sum.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    chunks = _passes(x_arr, n, sigma, l_max)
    lse = np.empty(x_arr.size)
    with np.errstate(all="ignore"):
        for i, (_, _, _, chunk_lse, _, _) in enumerate(chunks):
            lse[i * _EVENT_CHUNK : (i + 1) * _EVENT_CHUNK] = chunk_lse
    lse -= np.log(sigma)
    lse -= _LOG_SQRT_2PI
    out = np.exp(lse, out=lse)
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


def log_likelihood(events, n: float, sigma: float, l_max: int | None = None) -> float:
    """Total log-likelihood of the events under the mixture.

    Uses log-sum-exp per event: the pass's ``lse`` alone, the bits of
    :func:`_em_pass`'s log-likelihood without its moments. If any event's
    density underflows to zero the function warns and returns ``-inf``.
    """
    events = np.asarray(events, dtype=float)
    if events.size == 0:
        raise InsufficientDataError("log_likelihood needs at least one event")
    chunks = _passes(events, n, sigma, l_max)
    log_norm = -np.log(sigma) - _LOG_SQRT_2PI
    ll = 0.0
    with np.errstate(all="ignore"):
        for _, _, _, lse, _, _ in chunks:
            ll += float(np.add(lse, log_norm, out=lse).sum())
    if ll == float("-inf"):
        warnings.warn("mixture density underflowed to zero for some events", RuntimeWarning,
                      stacklevel=2)
    return ll


def log_likelihood_grad(
    events, n: float, sigma: float, l_max: int | None = None
) -> tuple[float, float]:
    """Gradient of :func:`log_likelihood` with respect to ``(n, sigma)``.

    Closed form in the EM statistics: ``sum(r l)/n - N`` and
    ``sum(r d^2)/sigma^3 - N/sigma`` for ``N`` events.
    """
    events = np.asarray(events, dtype=float)
    sum_rl, sum_rsq = _em_pass(events, n, sigma, l_max)[1:3]
    return _gradient(events.size, n, sigma, sum_rl, sum_rsq)


def _gradient(size, n, sigma, sum_rl, sum_rsq):
    """The score ``(sum(r l)/n - N, (sum(r d^2)/sigma^2 - N)/sigma``), with no power of sigma."""
    return sum_rl / n - size, (sum_rsq / sigma / sigma - size) / sigma


def _em_pass(events, n, sigma, l_max, ws=None):
    """One E-step: log-likelihood, sufficient statistics and observed information.

    Returns ``(ll, sum(r l), sum(r d^2), (i_nn, i_ns, i_ss))`` over
    responsibilities ``r`` and residuals ``d = x - l``, the last item the
    observed information of ``(n, sigma)`` at this point, NaN where ll is
    -inf. The statistics and the information come from moments of each
    event's exponentials (:func:`_moment_sums`), so the pass holds one
    ``(k, chunk)`` buffer and normalises no cell of it. Chunks come in a
    fixed order, so the sums do not depend on how the event array was
    produced. ``ws`` is a :class:`_Workspace` for these events and
    ``l_max``; without one the pass allocates its own.
    """
    chunks = _passes(events, n, sigma, l_max, ws)
    log_norm = -np.log(sigma) - _LOG_SQRT_2PI
    ll = 0.0
    sums = [0.0] * 5
    # only an event far outside its band overflows, and one with no density
    # takes the log of 0
    with np.errstate(all="ignore"):
        for lo, shifted, e, lse, s, vectors in chunks:
            ll += float(np.add(lse, log_norm, out=lse).sum())
            for i, term in enumerate(_moment_sums(lo, shifted, e, s, vectors, n)):
                sums[i] += term
    sum_rl, sum_rsq, sum_nn, sum_cov, sum_var = sums
    if ll == -math.inf:  # an event with no density here: no information either
        return ll, sum_rl, sum_rsq, (math.nan, math.nan, math.nan)
    # each division by sigma on its own, so no power of it overflows
    sum_ss = 3.0 * (sum_rsq / sigma / sigma) - sum_var / sigma / sigma / sigma / sigma
    info = (sum_nn / n / n, -sum_cov / n / sigma / sigma / sigma,
            (sum_ss - events.size) / sigma / sigma)
    return ll, sum_rl, sum_rsq, info


def _moment_sums(lo, shifted, e, s, vectors, n):
    """One chunk's EM and information sums from event moments; ``vectors`` and ``s`` overwritten.

    ``e`` holds the unnormalised exponentials of the ``k`` band rows and
    ``s`` their sum (:func:`_chunk_softmax`); no cell is divided by ``s``.
    Each event gets the moments ``c_p = sum_j e_j u_j^p / s`` (``p <= 4``)
    of ``u_j = j - h`` about row ``h = min(k // 2, round(n))``: the band's
    middle row, where a banded event has its nearest integer, or, where the
    band is every component from 0, the row of the Poisson mean, near which
    the responsibilities of a wide sigma lie. Rows ``h + delta`` and ``h -
    delta`` share ``u^2`` and ``u^4`` and have opposite ``u`` and ``u^3``,
    so the moments add the pair's sum and difference, or the one row that
    exists. With ``d = x - lo - h``, ``E[l] = lo + h + c_1`` and the
    residual is ``x - l = d - u``, so ``E[(x - l)^2] = (d - c_1)^2 +
    Var(l)``, ``Var(l) = c_2 - c_1^2``, in electrons: no power of sigma is
    formed. Returns ``(sum(r l), sum(r d^2))`` and the three sums of the
    information below; an event with ``s = 0`` (no finite log-term) has
    responsibilities 0, so it adds nothing to the first and ``(0 d) d`` to
    the second, which is NaN for an infinite event.

    The moments lose what lies below ``eps c_2``, and ``lo + h + c_1``
    what lies below ``eps (lo + h)``: little for an event whose mass lies
    near row ``h``. A chunk where ``sum(r l)`` falls below a quarter of
    ``sum(lo + h)``, or where some event's ``c_2`` exceeds
    ``_EXPANSION_LIMIT`` times the mean ``E[(x - l)^2]``, sums both
    statistics row by row instead, from terms that are all >= 0: ``lo +
    sum_j j e_j / s`` and ``sum_j e_j (x - lo - j)^2 / s``. That keeps both
    to about 1e-13 relative, also where the mass sits at a clipped band's
    edge or far below the Poisson mean. Runs under the pass's ``np.errstate``,
    like :func:`_chunk_softmax`: only an event far outside its band overflows.

    The information's three sums, for Louis's identity (Louis 1982), are
    those of ``E[l] - Var(l)``, ``Cov(l, (x - l)^2)`` and ``Var((x
    - l)^2)``. With ``v = Var(l)`` and ``A = c_3 - c_1 c_2 = Cov(u, u^2)``,
    ``Cov(l, (x - l)^2) = A - 2 d v`` and ``Var((x - l)^2) = c_4 - c_2^2 -
    4 d A + 4 d^2 v``. The complete-data scores are ``l / n - 1`` and ``(t^2
    - 1) / sigma`` (``t = (x - l) / sigma``), and their derivatives ``-l /
    n^2``, 0 and ``(1 - 3 t^2) / sigma^2``, so an event adds ``(E[l] -
    Var(l)) / n^2``, ``-Cov(l, t^2) / (n sigma)`` and ``(3 E[t^2] - 1 -
    Var(t^2)) / sigma^2`` to the information.
    """
    k, size = e.shape
    h = min(k // 2, round(n))
    _, c1, shifted, c2, c3, c4, even, odd = vectors
    for delta in range(1, max(h, k - 1 - h) + 1):
        up, down = h + delta, h - delta
        # the pair's sum and difference; at delta 1 straight into c2 and c1
        pair_sum, pair_diff = (c2, c1) if delta == 1 else (even, odd)
        if 0 <= down and up < k:
            np.add(e[up], e[down], out=pair_sum)
            np.subtract(e[up], e[down], out=pair_diff)
        elif up < k:
            np.copyto(pair_sum, e[up])
            np.copyto(pair_diff, e[up])
        else:
            np.copyto(pair_sum, e[down])
            np.negative(e[down], out=pair_diff)
        if delta == 1:
            np.copyto(c3, c1)
            np.copyto(c4, c2)
            continue
        delta2 = float(delta * delta)
        np.add(c1, np.multiply(odd, delta, out=odd), out=c1)
        np.add(c2, np.multiply(even, delta2, out=even), out=c2)
        np.add(c3, np.multiply(odd, delta2, out=odd), out=c3)
        np.add(c4, np.multiply(even, delta2, out=even), out=c4)
    lo_sum = int(lo.sum())
    live = size
    if not s.all():
        dead = s == 0.0
        s[dead] = 1.0  # every e of such an event is 0, and so is every moment
        live -= int(np.count_nonzero(dead))
        lo_sum -= int(lo[dead].sum())
    inv_s = np.divide(1.0, s, out=s)
    for moment in (c1, c2, c3, c4):
        np.multiply(moment, inv_s, out=moment)
    centres = lo_sum + h * live  # sum(lo + h) over the events with s > 0
    sum_rl = float(centres) + float(c1.sum())
    var, sq = even, odd
    # sq <- E[(x - l)^2] = (d - c1)^2 + Var(l), with d = x - lo - h
    np.subtract(c2, np.multiply(c1, c1, out=var), out=var)
    np.subtract(np.subtract(shifted, h, out=sq), c1, out=sq)
    np.add(np.square(sq, out=sq), var, out=sq)
    if live < size:
        sq[dead] = 0.0 * shifted[dead]
    sum_rsq = float(sq.sum())
    if sum_rl < centres / 4.0 or c2.max() > _EXPANSION_LIMIT / size * sum_rsq:
        # both sums row by row: sum_j j e_j, and (e_j (x - lo - j)) (x - lo - j),
        # which is 0, not NaN, for an event with s = 0 and a finite x
        np.copyto(var, e[1])
        for j in range(2, k):
            np.add(var, np.multiply(e[j], j, out=sq), out=var)
        sum_rl = float(lo_sum) + float(np.multiply(var, inv_s, out=var).sum())
        np.multiply(np.multiply(e[0], shifted, out=var), shifted, out=var)
        for j in range(1, k):
            np.subtract(shifted, j, out=sq)
            np.add(var, np.multiply(np.multiply(e[j], sq, out=e[j]), sq, out=e[j]), out=var)
        sum_rsq = float(np.multiply(var, inv_s, out=var).sum())
        np.subtract(c2, np.multiply(c1, c1, out=var), out=var)
    d, tmp = np.subtract(shifted, h, out=shifted), sq
    sum_nn = float(np.subtract(c1, var, out=tmp).sum()) + centres
    # c3 <- A - d v, tmp <- A - 2 d v, with A = c3 - c1 c2 = Cov(u, u^2)
    np.subtract(c3, np.multiply(c1, c2, out=tmp), out=c3)
    np.subtract(c3, np.multiply(d, var, out=tmp), out=c3)
    sum_cov = float(np.subtract(c3, tmp, out=tmp).sum())
    # c4 <- c4 - 4 d (A - d v) - c2^2
    np.multiply(c3, d, out=c3)
    np.multiply(c3, 4.0, out=c3)
    np.subtract(c4, c3, out=c4)
    np.subtract(c4, np.multiply(c2, c2, out=c2), out=c4)
    return sum_rl, sum_rsq, sum_nn, sum_cov, float(c4.sum())


def fit_mixture(events, l_max: int | None = None) -> MixtureFit:
    """Maximum-likelihood fit of ``(n, sigma)`` by Newton steps, with EM and SQUAREM behind them.

    One pass runs the E-step at a point. It distributes each event over the
    integer components and gives the point's log-likelihood, its gradient,
    its observed information ``I`` (:func:`_moment_sums`) and its EM
    image: the M-step's Poisson mean from the responsibility-weighted
    component indices and width from the responsibility-weighted squared
    residuals (clamped at ``_N_FLOOR`` and ``SIGMA_FLOOR``). The fit starts
    from ``n = max(sample mean, 0.05)`` and ``sigma = 0.3``.

    At each accepted point t0 with log-likelihood ll0 and gradient g, the
    fit stops if ``I`` is positive definite and the Newton decrement
    ``g^T I^-1 g / 2`` is below ``_EM_TOL`` (1e-8), with no further pass.
    Otherwise, where ``I`` is positive definite, it proposes the Newton step
    ``t0 + I^-1 g``, or the EM image where the EM step gains more to first
    order, ``g^T (t1 - t0) > g^T I^-1 g``, as it does far from the optimum
    on well-separated peaks. The 2x2 inverse is in closed form.

    Where ``I`` is not positive definite (far from the optimum it need not
    be), or the Newton proposal is refused, the fit runs a SQUAREM cycle from
    t0. Its image t1 gave ll0's pass. A pass at t1 gives ll1 and t2. With r =
    t1 - t0, v = t2 - t1 - r and the step length a = min(-|r|/|v|, -1), the
    cycle proposes t0 - 2 a r + a^2 v; if that is refused, a becomes
    (a - 1)/2 and the cycle proposes again. Once a is above
    ``_SQUAREM_EM_ALPHA`` (-1.01) the cycle proposes t2, the plain EM step
    (a = -1). The fit also stops when a cycle's accepted point differs from
    t0 in log-likelihood by less than ``_EM_TOL``, and a cycle whose first
    EM image t1 is already that close accepts t1 and stops without a
    proposal. A point whose log-likelihood is -inf (an event whose density
    underflows at every point) takes no Newton step, and if its EM image is
    -inf too the fit stops there with ``converged=False``.

    One accept rule decides every step, against the log-likelihood ll to
    beat: ll0 at the Newton site and for t1, ll1 for the cycle's proposals.
    An EM step (the EM image, t1 or t2) is always accepted, but raises
    ``ConvergenceError`` if its log-likelihood is below ll - 1e-8 (1 + |ll|).
    Any other proposal runs a pass only if n >= ``_N_FLOOR`` and sigma >=
    ``SIGMA_FLOOR`` are finite, and is accepted if its log-likelihood is at
    least ll.
    ``n_iterations`` counts every pass, rejected proposals included, and at
    most ``_EM_ITERATIONS`` (500) are run; a fit that reaches the cap
    returns the last accepted point with ``converged=False``.

    ``l_max`` is the Poisson cutoff; by default it is
    ``max(20, ceil(2 * sample mean) + 2)``, well above the data.
    ``stderr_n`` is ``sqrt((I^-1)_nn)`` at the returned point, from its own
    pass: the standard error costs no pass.

    Raises
    ------
    InsufficientDataError
        Fewer than 50 events.
    ValueError
        A non-finite sample mean (a NaN or infinite event, or a sum that
        overflows); an ``l_max`` below 1 or one whose E-step would hold
        ``_bounds.MAX_BYTES`` or more; or a sample mean above ``l_max / 2``,
        where the cutoff would truncation-bias the Poisson mean.
    ConvergenceError
        An EM step lowered the log-likelihood, which a correct update cannot
        do.
    """
    events = np.asarray(events, dtype=float)
    if events.size < 50:
        raise InsufficientDataError(f"fit_mixture needs >= 50 events, got {events.size}")
    with np.errstate(over="ignore"):
        sample_mean = float(np.mean(events))
    if not np.isfinite(sample_mean):
        raise ValueError(f"the sample mean of the events is {sample_mean}, not finite")
    # the start point, whose cutoff is the sample mean's for any finite mean
    theta = (max(sample_mean, 0.05), 0.3)
    l_max = _cutoff(*theta, l_max)
    ws = _Workspace(events.size, l_max)
    if sample_mean > l_max / 2.0:
        raise ValueError(
            f"sample mean {sample_mean:.3g} exceeds l_max/2 = {l_max / 2}; "
            "increase l_max to avoid truncation bias"
        )
    passes = 0

    # points, images and steps are (n, sigma) pairs of floats
    def em_map(theta):
        """One E-step at ``theta``: ``(ll, image, proposal, decrement, information)``.

        The proposal is the point to try next: the Newton step from
        ``theta``, or the EM image where that gains more to first order; None
        where the information is not positive definite.
        """
        nonlocal passes
        passes += 1
        n, sigma = theta
        ll, sum_rl, sum_rsq, info = _em_pass(events, n, sigma, l_max, ws)
        image = (max(sum_rl / events.size, _N_FLOOR),
                 max(float(np.sqrt(sum_rsq / events.size)), SIGMA_FLOOR))
        g_n, g_s = _gradient(events.size, n, sigma, sum_rl, sum_rsq)
        step, decrement = _newton(g_n, g_s, info)
        if step is None:
            return ll, image, None, decrement, info
        # far from the optimum the EM step can reach further than the local
        # quadratic model, whose gain to first order is g^T I^-1 g
        em_gain = g_n * (image[0] - n) + g_s * (image[1] - sigma)
        if em_gain > 2.0 * decrement:
            return ll, image, image, decrement, info
        return ll, image, (n + step[0], sigma + step[1]), decrement, info

    def attempt(proposal, ll_from, em_step):
        """``(proposal, *em_map(proposal))`` if the accept rule takes it, else None."""
        if not (em_step or (_N_FLOOR <= proposal[0] < math.inf
                            and SIGMA_FLOOR <= proposal[1] < math.inf)):
            return None
        state = em_map(proposal)
        if em_step and state[0] < ll_from - 1e-8 * (1.0 + abs(ll_from)):
            raise ConvergenceError(
                f"EM log-likelihood decreased ({ll_from} -> {state[0]}); "
                "this indicates a broken update"
            )
        return (proposal, *state) if em_step or state[0] >= ll_from else None

    # theta is the last accepted point, ll its log-likelihood, image its EM
    # image, and proposal, decrement and info those of its Newton step
    ll, image, proposal, decrement, info = em_map(theta)
    converged = False
    while passes < _EM_ITERATIONS:
        if proposal is not None and ll > -math.inf:
            if decrement < _EM_TOL:
                converged = True
                break
            # an EM image proposed here needs no bounds: a finite decrement
            # means finite sums
            accepted = attempt(proposal, ll, proposal is image)
            if accepted:
                theta, ll, image, proposal, decrement, info = accepted
                continue
            if passes >= _EM_ITERATIONS:
                break
        # a SQUAREM cycle from theta
        first = attempt(image, ll, True)
        ll_image, image2 = first[1], first[2]
        if abs(ll_image - ll) < _EM_TOL or not ll_image > -math.inf:
            # converged, or a point of -inf whose EM image gained nothing finite
            converged = ll_image > -math.inf
            theta, ll, image, proposal, decrement, info = first
            break
        r = (image[0] - theta[0], image[1] - theta[1])
        v = (image2[0] - image[0] - r[0], image2[1] - image[1] - r[1])
        norm_v = math.hypot(*v)
        alpha = min(-math.hypot(*r) / norm_v, -1.0) if norm_v > 0 else -1.0
        while passes < _EM_ITERATIONS:
            em_step = alpha > _SQUAREM_EM_ALPHA
            if em_step:
                point = image2
            else:
                two_alpha, alpha2 = 2.0 * alpha, alpha**2
                point = (theta[0] - two_alpha * r[0] + alpha2 * v[0],
                         theta[1] - two_alpha * r[1] + alpha2 * v[1])
            accepted = attempt(point, ll_image, em_step)
            if accepted:
                converged = abs(accepted[1] - ll) < _EM_TOL
                theta, ll, image, proposal, decrement, info = accepted
                break
            alpha = (alpha - 1.0) / 2.0
        if converged:
            break

    stderr_n, degenerate = _standard_error(theta[0], info)
    return MixtureFit(
        n_hat=theta[0],
        sigma_hat=theta[1],
        l_max=l_max,
        log_likelihood=ll,
        n_iterations=passes,
        converged=converged,
        stderr_n=stderr_n,
        degenerate=degenerate,
    )


def _newton(g_n, g_s, info):
    """``(step, decrement)`` of the Newton step ``I^-1 g`` at one point.

    ``I`` is the 2x2 observed information ``(i_nn, i_ns, i_ss)`` and ``g``
    the gradient, both of ``(n, sigma)``; the inverse is in closed form, so
    no BLAS or LAPACK call is made. Where ``I`` is not positive definite
    (:func:`_positive_definite`) it is ``(None, nan)``; otherwise the step is
    None unless the decrement ``g^T I^-1 g / 2`` is finite.
    """
    if not _positive_definite(info):
        return None, math.nan
    i_nn, i_ns, i_ss = info
    det = i_nn * i_ss - i_ns * i_ns
    step = (i_ss * g_n - i_ns * g_s) / det, (i_nn * g_s - i_ns * g_n) / det
    decrement = 0.5 * (g_n * step[0] + g_s * step[1])
    return (step if math.isfinite(decrement) else None), decrement


def _positive_definite(info):
    """Whether ``(i_nn, i_ns, i_ss)`` has ``i_nn > 0``, ``0 < det < inf`` and a finite ``i_ss``."""
    i_nn, i_ns, i_ss = info
    det = i_nn * i_ss - i_ns * i_ns
    return i_nn > 0.0 and 0.0 < det < math.inf and math.isfinite(i_ss)


def _standard_error(n_hat, info):
    """``(stderr_n, degenerate)`` of a fit from the information ``I`` at its point.

    ``stderr_n`` is ``sqrt((I^-1)_nn)``, NaN unless that is a positive
    number. ``degenerate`` names why the usual asymptotic standard error
    does not hold, or is None: ``n_hat`` at its floor ``_N_FLOOR``, a
    boundary of the parameter space (Self & Liang 1987, J. Am. Stat. Assoc.
    82:605), or an ``I`` that is not finite and positive definite.
    """
    i_nn, i_ns, i_ss = info
    det = i_nn * i_ss - i_ns * i_ns
    var_n = i_ss / det if det != 0.0 else math.nan
    reasons = []
    if n_hat <= _N_FLOOR:
        reasons.append(f"n_hat is at its floor {_N_FLOOR}")
    if not _positive_definite(info):
        reasons.append("the observed information is not positive definite")
    stderr_n = math.sqrt(var_n) if math.isfinite(var_n) and var_n > 0.0 else math.nan
    return stderr_n, "; ".join(reasons) or None


def map_boundaries(n: float, sigma: float, l_max: int | None = None) -> np.ndarray:
    """Decision boundaries of the MAP classifier between l and l+1.

    With a shared width the pairwise log-posterior difference is linear in
    x, so the boundary sits at ``l + 1/2 + sigma^2 ln(P(l)/P(l+1))`` =
    ``l + 1/2 + sigma^2 ln((l+1)/n)``; boundaries shift toward the
    lower-prior component.
    """
    l_max = _cutoff(n, sigma, l_max)
    out = np.arange(1.0, l_max + 1.0)  # l + 1
    with np.errstate(divide="ignore"):  # n = 0 puts every boundary at +inf
        np.divide(out, n, out=out)
    np.log(out, out=out)
    np.multiply(out, sigma**2, out=out)
    return np.add(out, np.arange(0.5, l_max), out=out)


def classify(x, n: float, sigma: float, mode: str = "nearest", l_max: int | None = None):
    """Assign carrier values to photon numbers.

    ``nearest`` rounds to the closest non-negative integer (ties upward);
    ``map`` maximizes the Poisson-weighted component posterior over
    ``l <= l_max``.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if mode == "nearest":
        out = np.maximum(np.floor(x_arr + 0.5), 0.0).astype(np.int64)
    elif mode == "map":
        bounds = map_boundaries(n, sigma, l_max)
        out = np.searchsorted(bounds, x_arr, side="right").astype(np.int64)
    else:
        raise ValueError(f"mode must be 'nearest' or 'map', got {mode!r}")
    return int(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


def discrimination_error(
    n: float, sigma: float, mode: str = "nearest", l_max: int | None = None
) -> float:
    """Expected misclassification probability under the mixture model.

    Averages ``Pr[classify(l + eps) != l]`` over the Poisson weights, with
    ``eps`` Gaussian of width ``sigma``; closed form via the normal CDF.
    In nearest mode the l=0 component can only err upward (negative values
    round to zero), and at ``n = 0``, the only one left, gives ``ndtr(-0.5 / sigma)``; map
    mode gives 0 there. Noiseless, at ``sigma = 0``, no component errs: the
    point is checked at ``sigma = 1`` and the error is 0.
    """
    noiseless = sigma == 0
    l_max = _cutoff(n, 1.0 if noiseless else sigma, l_max)
    if noiseless:
        return 0.0
    if mode not in ("nearest", "map"):
        raise ValueError(f"mode must be 'nearest' or 'map', got {mode!r}")
    if mode == "nearest":
        q = special.ndtr(-0.5 / sigma)
        per_comp = np.full(l_max + 1, 2.0 * q)
        per_comp[0] = q
    else:
        # the region of l is [bounds[l - 1], bounds[l]), unbounded below 0 and above l_max
        bounds = map_boundaries(n, sigma, l_max)
        per_comp = np.empty(l_max + 1)  # (floor - l) / sigma, then its ndtr
        upper = np.arange(l_max + 1.0)  # (l - ceiling) / sigma, then its ndtr
        per_comp[0] = -np.inf
        np.subtract(bounds, upper[1:], out=per_comp[1:])
        np.subtract(upper[:-1], bounds, out=upper[:-1])
        upper[-1] = -np.inf
        np.divide(per_comp, sigma, out=per_comp)
        np.divide(upper, sigma, out=upper)
        np.add(special.ndtr(per_comp, out=per_comp), special.ndtr(upper, out=upper),
               out=per_comp)
        del bounds, upper  # the weights below take their place
    weights = _log_poisson_weights(n, _log_factorials(l_max))
    np.exp(weights, out=weights)
    return float(np.sum(np.multiply(weights, per_comp, out=per_comp)))


def estimate_qe(
    n_hat: float, mean_photons_at_fiber: float, eta_c: float, stderr_n: float | None = None
):
    """Back-calculate quantum efficiency from a fitted carrier mean.

    Returns ``n_hat / (mean_photons_at_fiber * eta_c)``; with ``stderr_n``
    given, returns ``(qe, qe_stderr)`` with the error propagated through the
    same linear map.
    """
    denom = mean_photons_at_fiber * eta_c
    if not denom > 0:
        raise ValueError(
            "mean_photons_at_fiber * eta_c must be > 0, got "
            f"{mean_photons_at_fiber} * {eta_c}"
        )
    qe = n_hat / denom
    if stderr_n is None:
        return qe
    return qe, stderr_n / denom


def expected_bin_counts(
    hist: Histogram, n: float, sigma: float, l_max: int | None = None
) -> np.ndarray:
    """Model-predicted counts per histogram bin (total times the bin mass).

    The mixture CDF at the bin edges is summed into one buffer the length of
    the edges, component by component in ``l`` order, skipping components
    whose weight underflows to 0 (they would add exactly 0). The result is
    written into the term buffer, as ``build_histogram`` counts.
    """
    l_max = _cutoff(n, sigma, l_max)
    edges = hist.bin_edges
    weights = np.exp(_log_poisson_weights(n, _log_factorials(l_max)))
    cdf_at_edges = np.zeros(edges.size)
    term = np.empty(edges.size)
    for l in np.flatnonzero(weights):
        w = weights[l]
        np.subtract(edges, l, out=term)
        np.divide(term, sigma, out=term)
        special.ndtr(term, out=term)
        np.multiply(term, w, out=term)
        np.add(cdf_at_edges, term, out=cdf_at_edges)
    counts = np.subtract(cdf_at_edges[1:], cdf_at_edges[:-1], out=term[:-1])
    return np.multiply(counts, hist.total, out=counts)


def goodness_of_fit(hist: Histogram, fit: MixtureFit) -> tuple[float, int]:
    """Pearson chi-square of a histogram against a converged fit.

    Bins are merged left to right until every expected count reaches 5 (a
    trailing remainder is folded into the last group); degrees of freedom
    are the merged bins minus one minus the two fitted parameters, k - 3 of
    k groups. The fit uses the ungrouped events, not these counts, so the
    statistic lies between chi2(k - 3) and chi2(k - 1) (Chernoff & Lehmann
    1954, Ann. Math. Statist. 25:579), and a p-value read against ``dof``
    overstates significance: at 1 e bins (about 8 dof) p < 0.05 in 7.5% of
    correct fits of 2e4 events at n 2.22, sigma 0.33. At 0.1 e bins (53-88
    dof) the difference is negligible.
    """
    if not fit.converged:
        raise ValueError("goodness_of_fit requires a converged fit")
    expected = expected_bin_counts(hist, fit.n_hat, fit.sigma_hat, fit.l_max)
    obs_groups: list[float] = []
    exp_groups: list[float] = []
    o_acc = 0.0
    e_acc = 0.0
    for o, e in zip(hist.counts, expected):
        o_acc += o
        e_acc += e
        if e_acc >= 5.0:
            obs_groups.append(o_acc)
            exp_groups.append(e_acc)
            o_acc = 0.0
            e_acc = 0.0
    if e_acc > 0.0 and obs_groups:
        obs_groups[-1] += o_acc
        exp_groups[-1] += e_acc
    if len(obs_groups) < 4:
        raise ValueError(
            f"only {len(obs_groups)} merged bins with expected counts >= 5; "
            "need at least 4 for a chi-square test"
        )
    obs = np.asarray(obs_groups)
    exp = np.asarray(exp_groups)
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    dof = len(obs_groups) - 1 - 2
    return chi2, dof


def sigma_from_dark(dark_events) -> float:
    """Unbiased sample standard deviation of dark-run events (electrons)."""
    dark_events = np.asarray(dark_events, dtype=float)
    if dark_events.size < 2:
        raise InsufficientDataError(
            f"sigma_from_dark needs >= 2 events, got {dark_events.size}"
        )
    return float(np.std(dark_events, ddof=1))


def histogram_peaks(hist: Histogram) -> np.ndarray:
    """Centers (electrons) of local maxima in a histogram.

    Peaks must be at least ``_PEAK_SEPARATION`` (0.5) electrons apart and
    stand out by ``_PEAK_PROMINENCE`` (0.02) of the tallest bin; used to
    check that the multipeak structure resolves individual photon numbers.
    """
    # imported here so that importing the package does not load scipy.signal
    from scipy.signal import find_peaks

    counts = hist.counts.astype(float)
    distance = max(1, int(round(_PEAK_SEPARATION / hist.bin_width)))
    peaks, _ = find_peaks(
        counts, distance=distance, prominence=_PEAK_PROMINENCE * counts.max()
    )
    return hist.bin_centers[peaks]
