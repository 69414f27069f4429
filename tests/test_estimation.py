import ast
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from cipdsim import (
    InsufficientDataError,
    MixtureFit,
    build_histogram,
    classify,
    discrimination_error,
    estimate_qe,
    expected_bin_counts,
    fit_mixture,
    goodness_of_fit,
    histogram_peaks,
    log_likelihood,
    log_likelihood_grad,
    map_boundaries,
    mixture_density,
    sigma_from_dark,
)
from cipdsim import _bounds, estimation
from cipdsim.estimation import SIGMA_FLOOR, ConvergenceError, _em_pass, _Workspace


def draw_mixture_events(n, sigma, size, seed):
    """Independent generator for synthetic datasets: the model itself."""
    rng = np.random.default_rng(seed)
    return rng.poisson(n, size) + rng.normal(0.0, sigma, size)


def oracle_density(x, n, sigma, l_max=20):
    """Plain direct summation, independent of the log-space implementation."""
    ls = np.arange(l_max + 1)
    return float(np.sum(stats.poisson.pmf(ls, n) * stats.norm.pdf(x, ls, sigma)))


def largest_accepted(call, accepted, refused):
    """The largest size from ``accepted`` up to below ``refused`` that ``call`` accepts.

    Bisects: ``call(accepted)`` must succeed, and ``call`` must refuse every
    size from the first refused one up with a ``ValueError``.
    """
    call(accepted)
    with pytest.raises(ValueError):
        call(refused)
    while refused - accepted > 1:
        mid = (accepted + refused) // 2
        try:
            call(mid)
            accepted = mid
        except ValueError:
            refused = mid
    return accepted


class TestBuildHistogram:
    def test_small_example(self):
        h = build_histogram([0.0, 0.0, 1.0], 1.0)
        assert list(h.counts) == [2, 1]
        assert h.bin_centers == pytest.approx([0.0, 1.0])
        assert h.total == 3

    def test_bins_center_on_integers(self):
        h = build_histogram([-0.04, 0.04, 0.96, 1.04], 0.1)
        assert h.bin_centers[0] == pytest.approx(0.0)
        assert h.bin_centers[-1] == pytest.approx(1.0)
        assert h.counts[0] == 2 and h.counts[-1] == 2

    def test_empty_events_rejected(self):
        with pytest.raises(InsufficientDataError):
            build_histogram([], 0.1)
        with pytest.raises(ValueError):
            build_histogram([1.0], 0.0)

    @pytest.mark.parametrize("width", [np.inf, np.nan])
    def test_non_finite_width_rejected(self, width):
        with pytest.raises(ValueError, match="bin_width"):
            build_histogram([0.0, 1.0], width)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_event_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                build_histogram([0.0, bad, 1.0], 0.1)

    @pytest.mark.parametrize("events, width", [([0.0, 1e300], 0.1),
                                               ([-1e308, 1e308], 1e-10)])
    def test_huge_range_rejected_without_warning(self, events, width):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^bin_width {width} gives .* bins over"):
                build_histogram(events, width)

    def test_narrow_range_far_from_zero(self):
        h = build_histogram([1e300, 1e300], 0.1)
        assert list(h.counts) == [2]
        assert h.bin_centers[0] == pytest.approx(1e300)

    def test_bin_count_bound(self, monkeypatch):
        # five arrays of 19 edges fit below 100 doubles, of 20 edges do not
        monkeypatch.setattr(_bounds, "MAX_BYTES", 8 * 100)
        assert estimation._EDGE_ARRAYS == 5
        assert len(build_histogram([0.0, 1.7], 0.1).counts) == 18
        with pytest.raises(ValueError, match="19 bins over .* the limit is 800$"):
            build_histogram([0.0, 1.8], 0.1)

    def test_peak_stays_below_the_limit(self, monkeypatch):
        # a histogram at the largest bin count build_histogram accepts, and
        # the model counts for it, together stay below the limit
        limit = 1 << 20
        monkeypatch.setattr(_bounds, "MAX_BYTES", limit)
        n_bins = largest_accepted(lambda n: build_histogram([0.0, n - 1.0], 1.0), 1, limit // 8)
        tracemalloc.start()
        try:
            hist = build_histogram([0.0, n_bins - 1.0], 1.0)
            expected = expected_bin_counts(hist, 1.0, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(hist.counts) == len(expected) == n_bins
        assert peak < limit

    def test_holds_two_arrays_of_the_events_length(self):
        # the float grid and its int64 cast; the events are the caller's
        events = draw_mixture_events(2.5, 0.3, 200_000, seed=21)
        grid = np.floor((events + 0.05) / 0.1)
        want = np.bincount((grid - grid.min()).astype(np.int64))
        del grid
        tracemalloc.start()
        try:
            hist = build_histogram(events, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hist.counts.tobytes() == want.tobytes()
        assert peak < 2.5 * events.nbytes

    def test_700_events_modal_bin_near_low_integers(self):
        events = draw_mixture_events(1.07, 0.3, 700, seed=1)
        h = build_histogram(events, 0.1)
        mode_center = h.bin_centers[np.argmax(h.counts)]
        assert min(abs(mode_center - 0.0), abs(mode_center - 1.0)) <= 0.1 + 1e-9

    def test_multipeak_structure_resolved_to_four_carriers(self):
        events = draw_mixture_events(2.85, 0.33, 10**5, seed=33)
        h = build_histogram(events, 0.1)
        peaks = histogram_peaks(h)
        for k in range(5):
            assert np.min(np.abs(peaks - k)) <= 0.15, f"no peak near {k}"


class TestMixtureDensity:
    def test_dim_source_limit_is_pure_gaussian(self):
        xs = np.linspace(-1.0, 1.0, 21)
        got = mixture_density(xs, 1e-9, 0.3)
        want = stats.norm.pdf(xs, 0.0, 0.3)
        assert got == pytest.approx(want, rel=1e-6)

    def test_value_at_one_electron(self):
        # direct-summation oracle gives 0.4909 for x=1, n=1.07, sigma=0.3
        got = mixture_density(1.0, 1.07, 0.3, 20)
        assert got == pytest.approx(oracle_density(1.0, 1.07, 0.3), rel=1e-10)
        assert got == pytest.approx(0.491, abs=5e-4)

    @pytest.mark.parametrize("x", [-0.7, 0.0, 0.49, 2.5, 11.0])
    def test_matches_oracle_everywhere(self, x):
        assert mixture_density(x, 2.55, 0.33) == pytest.approx(
            oracle_density(x, 2.55, 0.33), rel=1e-10
        )

    def test_integrates_to_poisson_mass_below_cutoff(self):
        val, err = integrate.quad(
            lambda x: mixture_density(x, 2.85, 0.33, 20), -8.0, 28.0, limit=500
        )
        assert err < 1e-7
        assert abs(val - stats.poisson.cdf(20, 2.85)) < 1e-8
        assert abs(val - 1.0) < 1e-6  # tail above 20 is negligible at n=2.85

    def test_nonnegative(self):
        xs = np.linspace(-5, 25, 301)
        assert np.all(mixture_density(xs, 2.85, 0.33) >= 0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mixture_density(0.0, 0.0, 0.3)
        with pytest.raises(ValueError):
            mixture_density(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            mixture_density(0.0, 1.0, 0.3, l_max=0)


class TestLogLikelihood:
    def test_single_event_dim_limit(self):
        # ln(1 / (sqrt(2 pi) * 0.3)) = 0.28503
        got = log_likelihood([0.0], 1e-12, 0.3)
        assert got == pytest.approx(0.2850, abs=1e-4)

    def test_permutation_invariant(self):
        events = draw_mixture_events(2.55, 0.33, 5000, seed=3)
        shuffled = np.random.default_rng(4).permutation(events)
        a = log_likelihood(events, 2.55, 0.33)
        b = log_likelihood(shuffled, 2.55, 0.33)
        assert math.isclose(a, b, rel_tol=1e-12)

    def test_underflow_returns_neg_inf_with_warning(self):
        with pytest.warns(RuntimeWarning, match="underflow"):
            assert log_likelihood([1e200], 1.0, 0.1) == float("-inf")

    def test_gradient_matches_finite_differences(self):
        events = draw_mixture_events(2.55, 0.33, 1000, seed=5)
        n, sigma = 2.55, 0.33
        g_n, g_s = log_likelihood_grad(events, n, sigma)
        h = 1e-6
        fd_n = (log_likelihood(events, n + h, sigma) - log_likelihood(events, n - h, sigma)) / (2 * h)
        fd_s = (log_likelihood(events, n, sigma + h) - log_likelihood(events, n, sigma - h)) / (2 * h)
        assert g_n == pytest.approx(fd_n, rel=1e-4)
        assert g_s == pytest.approx(fd_s, rel=1e-4)


def _sequential_sum(rows):
    """The rows of a ``(k, N)`` array added one after another, in row order."""
    total = rows[0]
    for row in rows[1:]:
        total = total + row
    return total


def _reference_softmax(w, d, sigma):
    """``(lse, e, s)`` of the ``(k, N)`` log-weights ``w`` and residuals ``d``, one exp."""
    with np.errstate(over="ignore"):
        a = w - 0.5 * (d / sigma) ** 2
    m = np.max(a, axis=0)
    safe_m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(a - safe_m)
    s = _sequential_sum(e)
    with np.errstate(divide="ignore"):
        lse = safe_m + np.log(s)
    return lse, e, s


def _responsibilities(e, s):
    """``e / s``, 0 for an event whose ``s`` is 0."""
    with np.errstate(invalid="ignore"):
        r = e / s
    r[:, s == 0.0] = 0.0
    return r


def _reference_chunks(events, n, sigma, l_max):
    """The E-step over every component as one exp over fresh arrays, kept literally.

    Row ``l`` of the ``(l_max + 1, N)`` arrays holds component ``l`` of every
    event; its log-sum-exp has the bits of the kernel's where the kernel's
    band covers every component.
    """
    ls = np.arange(l_max + 1)
    log_w = ls * np.log(n) - n - special.gammaln(ls + 1.0)
    for start in range(0, events.size, 1 << 16):
        d = events[start : start + (1 << 16)] - ls[:, None]
        lse, e, s = _reference_softmax(log_w[:, None], d, sigma)
        yield d, lse, _responsibilities(e, s)


def _band_reference_chunks(events, n, sigma, l_max):
    """The E-step over the kernel's band kept literally: a plain ``(k, N)`` gather, one exp.

    Event ``x`` sums the ``k = 2b + 1`` components from ``lo = c - b``,
    ``c = clip(rint(x), b, l_max - b)``, or every component from ``lo = 0``
    where the rule bands nothing, row ``j`` holding component ``lo + j``.
    Yields ``(lo, x - lo, lse, e, s)``. Takes no NaN events.
    """
    b = estimation._band_half_width(n, sigma, l_max)
    k = l_max + 1 if b is None else 2 * b + 1
    ls = np.arange(l_max + 1)
    log_w = ls * np.log(n) - n - special.gammaln(ls + 1.0)
    cols = np.arange(k)
    for start in range(0, events.size, 1 << 16):
        x = events[start : start + (1 << 16)]
        lo = np.clip(np.rint(x), k // 2, l_max - k + 1 + k // 2).astype(np.int64) - k // 2
        shifted = x - lo
        lse, e, s = _reference_softmax(log_w[lo + cols[:, None]], shifted - cols[:, None], sigma)
        yield lo, shifted, lse, e, s


def reference_em_pass(events, n, sigma, l_max):
    """``(ll, sum(r l), sum(r d^2))`` summed over every component."""
    ls = np.arange(l_max + 1)
    log_norm = -np.log(sigma) - 0.5 * np.log(2.0 * np.pi)
    ll = sum_rl = sum_rsq = 0.0
    for d, lse, r in _reference_chunks(events, n, sigma, l_max):
        ll += float(np.sum(lse + log_norm))
        # sum_l l sum_i r_li, the event sums over contiguous rows
        sum_rl += float(np.sum(np.array([np.sum(row) for row in r]) * ls))
        sum_rsq += float(np.sum(r * d * d))
    return ll, sum_rl, sum_rsq


def banded_reference_em_pass(events, n, sigma, l_max):
    """The pass the kernel must reproduce bit for bit, from each event's band moments.

    ``sum(r l)`` is the sum of ``lo + h + c1`` and ``sum(r d^2)`` that of
    ``(d - c1)^2 + (c2 - c1^2)`` over the moments ``c_p`` of ``j - h`` about
    row ``h = min(k // 2, round(n))`` (``d = x - lo - h``), each added pair
    by pair of rows ``h +- delta`` in order of ``delta`` and multiplied by
    ``1 / s``. Where ``sum(r l)`` falls below a quarter of ``sum(lo + h)``
    or some ``c2`` exceeds ``_EXPANSION_LIMIT`` times the chunk's mean
    squared residual, both are summed row by row instead: ``lo + sum_j j
    e_j / s`` and ``sum_j e_j (x - lo - j)^2 / s``. An event with ``s = 0``
    adds nothing to ``sum(r l)`` and ``(0 d) d`` to ``sum(r d^2)``.
    """
    log_norm = -np.log(sigma) - 0.5 * np.log(2.0 * np.pi)
    ll = sum_rl = sum_rsq = 0.0
    for lo, shifted, lse, e, s in _band_reference_chunks(events, n, sigma, l_max):
        k = e.shape[0]
        h = min(k // 2, round(n))
        ll += float(np.sum(lse + log_norm))
        dead = s == 0.0
        inv_s = 1.0 / np.where(dead, 1.0, s)
        pairs = [(e[h + delta] + e[h - delta], e[h + delta] - e[h - delta])
                 if 0 <= h - delta and h + delta < k
                 else (e[h + delta], e[h + delta]) if h + delta < k
                 else (e[h - delta], -e[h - delta])
                 for delta in range(1, max(h, k - 1 - h) + 1)]
        c1 = _sequential_sum([diff * float(i) for i, (_, diff) in enumerate(pairs, start=1)])
        c2 = _sequential_sum([total * float(i * i) for i, (total, _) in enumerate(pairs, start=1)])
        c1, c2 = c1 * inv_s, c2 * inv_s
        centres = int(np.sum(lo[~dead])) + h * int(np.sum(~dead))
        chunk_rl = float(centres) + float(np.sum(c1))
        d = shifted - h
        with np.errstate(all="ignore"):
            sq = np.where(dead, 0.0 * d, np.square(d - c1) + (c2 - c1 * c1))
            chunk_rsq = float(np.sum(sq))
            # where the expansion cancels, both sums row by row
            if (chunk_rl < centres / 4.0
                    or np.max(c2) > estimation._EXPANSION_LIMIT / d.size * chunk_rsq):
                m1 = _sequential_sum(e[1:] * np.arange(1.0, k)[:, None])
                chunk_rl = float(np.sum(lo[~dead])) + float(np.sum(m1 * inv_s))
                rows = [e[j] * (shifted - j) * (shifted - j) for j in range(k)]
                chunk_rsq = float(np.sum(_sequential_sum(rows) * inv_s))
        sum_rl += chunk_rl
        sum_rsq += chunk_rsq
    return ll, sum_rl, sum_rsq


def _two_buffer_chunks(x, n, sigma, l_max):
    """The E-step of the two-buffer kernel over one chunk, kept literally, fresh arrays.

    Returns ``lo``, the residuals ``d``, the responsibilities ``r`` (both
    ``(k, N)``), ``lse`` and ``s``.
    """
    half_width = estimation._band_half_width(n, sigma, l_max)
    k = l_max + 1 if half_width is None else 2 * half_width + 1
    log_w = estimation._log_poisson_weights(n, estimation._log_factorials(l_max))
    half = k // 2
    c = np.rint(x)
    np.fmax(c, half, out=c)
    np.fmin(c, log_w.size - k + half, out=c)
    lo = c.astype(np.intp)
    lo -= half
    shifted = x - lo
    d = np.empty((k, x.size))
    a = np.empty((k, x.size))
    for j in range(k):
        np.take(log_w[j:], lo, out=d[j], mode="clip")
    for j in range(k):
        np.subtract(shifted, j, out=a[j])
    with np.errstate(over="ignore"):
        np.divide(a, sigma, out=a)
        np.square(a, out=a)
        np.multiply(a, 0.5, out=a)
        np.subtract(d, a, out=a)
    for j in range(k):
        np.subtract(shifted, j, out=d[j])
    m = a[0].copy()
    for j in range(1, k):
        np.maximum(m, a[j], out=m)
    m[~np.isfinite(m)] = 0.0
    np.subtract(a, m, out=a)
    np.exp(a, out=a)
    s = estimation._component_sum(a, np.empty(x.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        lse = np.log(s)
    np.add(m, lse, out=lse)
    with np.errstate(invalid="ignore"):
        np.divide(a, s, out=a)
    a[:, s == 0.0] = 0.0
    return lo, d, a, lse, s


def _two_buffer_information_terms(lo, d, r, n, sigma):
    """One chunk's sums for the information from the responsibilities, kept literally."""
    k, size = r.shape
    h = min(k // 2, round(n))
    q1, q2, q3, q4, even, odd = np.empty((6, size))
    for delta in range(1, max(h, k - 1 - h) + 1):
        z = delta / sigma
        z2 = z * z
        if 0 <= h - delta and h + delta < k:
            np.add(r[h + delta], r[h - delta], out=even)
            np.subtract(r[h + delta], r[h - delta], out=odd)
        elif h + delta < k:
            np.copyto(even, r[h + delta])
            np.copyto(odd, r[h + delta])
        else:
            np.copyto(even, r[h - delta])
            np.negative(r[h - delta], out=odd)
        if delta == 1:
            np.multiply(odd, z, out=q1)
            np.multiply(q1, z2, out=q3)
            np.multiply(even, z2, out=q2)
            np.multiply(q2, z2, out=q4)
            continue
        for q, term, power in ((q1, odd, z), (q3, odd, z2), (q2, even, z2), (q4, even, z2)):
            np.multiply(term, power, out=term)
            np.add(q, term, out=q)
    with np.errstate(all="ignore"):
        np.multiply(q1, q2, out=even)
        np.subtract(q3, even, out=q3)
        np.multiply(q1, q1, out=even)
        np.subtract(q2, even, out=even)
        np.multiply(even, sigma, out=odd)
        np.subtract(q1, odd, out=odd)
        np.multiply(odd, sigma, out=odd)
        np.add(odd, lo, out=odd)
        sum_nn = float(np.sum(odd)) + h * size
        np.divide(d[h], sigma, out=odd)
        np.multiply(even, odd, out=even)
        np.subtract(q3, even, out=q3)
        np.subtract(q3, even, out=even)
        sum_cov = float(np.sum(even))
        np.multiply(q3, odd, out=q3)
        np.multiply(q3, 4.0, out=q3)
        np.subtract(q3, q4, out=q3)
        np.multiply(q1, -2.0, out=q1)
        np.add(q1, odd, out=q1)
        np.multiply(q1, odd, out=q1)
        np.add(q1, q2, out=q1)
        np.multiply(q1, 3.0, out=q1)
        np.add(q1, q3, out=q1)
        np.multiply(q2, q2, out=q2)
        np.add(q1, q2, out=q1)
        return sum_nn, sum_cov, float(np.sum(q1))


def two_buffer_em_pass(events, n, sigma, l_max):
    """``(ll, sum(r l), sum(r d^2), info)`` of the two-buffer kernel, kept literally.

    It holds the responsibilities ``r = e / s`` in a second ``(k, N)``
    buffer beside the residuals ``d``, takes ``sum(r l)`` and ``sum(r d^2)``
    from sweeps over both, and the information from the moments of ``r`` in
    units of sigma: an oracle for every value the one-buffer kernel gives.
    """
    log_norm = -np.log(sigma) - 0.5 * np.log(2.0 * np.pi)
    ll = sum_rl = sum_rsq = 0.0
    terms = [0.0, 0.0, 0.0]
    for start in range(0, events.size, 1 << 16):
        lo, d, r, lse, s = _two_buffer_chunks(events[start : start + (1 << 16)], n, sigma,
                                              l_max)
        ll += float(np.sum(lse + log_norm))
        sum_rl += float(np.sum(np.sum(r, axis=1) * np.arange(r.shape[0])))
        sum_rl += float(np.sum(estimation._component_sum(r, np.empty(s.size)) * lo))
        for i, term in enumerate(_two_buffer_information_terms(lo, d, r, n, sigma)):
            terms[i] += term
        sum_rsq += float(np.sum((r * d) * d))
    sum_nn, sum_cov, sum_ss = terms
    info = (sum_nn / n / n, -sum_cov / n, (sum_ss - events.size) / sigma / sigma)
    return ll, sum_rl, sum_rsq, info


def reference_log_likelihood(events, n, sigma, l_max):
    ll = banded_reference_em_pass(events, n, sigma, l_max)[0]
    if ll == float("-inf"):
        warnings.warn("mixture density underflowed to zero", RuntimeWarning)
    return ll


def reference_density(x, n, sigma, l_max):
    """The mixture density from the full-sum log-sum-exp of each ``x``."""
    lse = np.concatenate([lse for _, lse, _ in _reference_chunks(x, n, sigma, l_max)])
    return np.exp(lse - np.log(sigma) - 0.5 * np.log(2.0 * np.pi))


def assert_kernel_matches_reference(events, n, sigma, l_max):
    """Exact equality with the banded reference, with and without a reused workspace."""
    want = banded_reference_em_pass(events, n, sigma, l_max)
    assert _em_pass(events, n, sigma, l_max)[:3] == want
    # a workspace that already holds another pass must not leak into this one
    ws = _Workspace(events.size, l_max)
    _em_pass(events, 0.5 * n + 1.0, 2.0 * sigma, l_max, ws)
    assert _em_pass(events, n, sigma, l_max, ws)[:3] == want
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert log_likelihood(events, n, sigma, l_max) == reference_log_likelihood(
            events, n, sigma, l_max
        )
    assert_agrees_with_two_buffer_pass(events, n, sigma, l_max)


def assert_band_matches_full_sum(events, n, sigma, l_max):
    """Every kernel entry point within 1e-12 of the full sum; equal where nothing is banded."""
    want = reference_em_pass(events, n, sigma, l_max)
    got = _em_pass(events, n, sigma, l_max)[:3]
    if estimation._band_half_width(n, sigma, l_max) is None:
        assert got[0] == want[0]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, equal_nan=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ll = log_likelihood(events, n, sigma, l_max)
    np.testing.assert_allclose(ll, want[0], rtol=1e-12, atol=0)
    # each gradient term to 1e-12 of its size: their difference may cancel
    big = (want[1] / n + events.size, want[2] / sigma**3 + events.size / sigma)
    got_grad = log_likelihood_grad(events, n, sigma, l_max)
    want_grad = (want[1] / n - events.size, want[2] / sigma**3 - events.size / sigma)
    for g, w, scale in zip(got_grad, want_grad, big):
        assert abs(g - w) <= 1e-12 * abs(scale) or (np.isnan(g) and np.isnan(w))
    # densities below the normal range keep too few bits for a relative bound
    np.testing.assert_allclose(mixture_density(events, n, sigma, l_max),
                               reference_density(events, n, sigma, l_max),
                               rtol=1e-12, atol=np.finfo(float).tiny)


def two_buffer_magnitudes(events, n, sigma, l_max):
    """What the moment pass adds up for ``sum(r d^2)`` and each information entry.

    The pass expands each event's sums in moments of ``u = l - lo - h``
    about row ``h = min(k // 2, round(n))`` and in its residual ``d = x - lo
    - h`` at that row. Where the event's mass lies far from row ``h`` the
    terms of the expansion are far larger than their sum, and so is its
    rounding error. With ``b = |d| + |u|`` these bound the terms: ``sum E[b^2]``
    for ``sum(r d^2)``; ``sum (lo + h + E[|u| + u^2]) / n^2``, ``sum E[b^3]
    / (n sigma^3)`` and ``(3 sum E[b^2] / sigma^2 + sum E[b^4] / sigma^4 +
    N) / sigma^2`` for the information, each expectation over the two-buffer
    pass's responsibilities.
    """
    rsq = nn = ns = ss2 = ss4 = 0.0
    for start in range(0, events.size, 1 << 16):
        lo, d, r, _, _ = _two_buffer_chunks(events[start : start + (1 << 16)], n, sigma,
                                            l_max)
        k = r.shape[0]
        h = min(k // 2, round(n))
        u = np.abs(np.arange(k) - h)[:, None]
        with np.errstate(all="ignore"):
            b = np.abs(d[h]) + u
            live = r > 0.0
            rsq += float(np.sum(r * b**2, where=live))
            nn += float(np.sum(lo + h)) + float(np.sum(r * (u + u * u), where=live))
            ns += float(np.sum(r * b**3, where=live))
            ss2 += float(np.sum(r * (b / sigma) ** 2, where=live))
            ss4 += float(np.sum(r * (b / sigma) ** 4, where=live))
    return rsq, (nn / n / n, ns / n / sigma**3, (3.0 * ss2 + ss4 + events.size) / sigma**2)


def assert_agrees_with_two_buffer_pass(events, n, sigma, l_max):
    """ll bit for bit; the EM statistics and the information close to the two-buffer pass.

    Where ll is -inf the information is NaN. ``sum(r l)`` is a sum of terms >= 0 in both passes and agrees to 1e-13
    relative. ``sum(r d^2)`` agrees to 1e-13 and each information entry to
    1e-12 of what the moment pass adds up for it (``two_buffer_magnitudes``),
    which for events near their band's middle row is about the value itself;
    the two-buffer pass's moments in units of sigma are themselves up to
    7e-13 off a long double reference in ``i_ns`` and ``i_ss``.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # 0 * inf, as the two-buffer pass
        ll, sum_rl, sum_rsq, info = _em_pass(events, n, sigma, l_max)
        want = two_buffer_em_pass(events, n, sigma, l_max)
        rsq_scale, info_scale = two_buffer_magnitudes(events, n, sigma, l_max)
    assert ll == want[0] or (np.isnan(ll) and np.isnan(want[0]))
    np.testing.assert_allclose(sum_rl, want[1], rtol=1e-13, atol=0, equal_nan=True)
    checks = [(sum_rsq, want[2], 1e-13 * rsq_scale)]
    if ll == -np.inf:  # some event has no density: the point has no information
        assert np.isnan(info).all()
    else:
        checks += zip(info, want[3], np.multiply(1e-12, info_scale))
    for got, value, bound in checks:
        with np.errstate(invalid="ignore"):
            assert (got == value or (np.isnan(got) and np.isnan(value))
                    or abs(got - value) <= bound), (sum_rsq, info, want)


class TestExactKernel:
    """The workspace E-step against the single-exp references and the two-buffer pass."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        size=st.integers(1, 3000),
        l_max=st.integers(1, 40),
        log10_n=st.floats(-9.0, math.log10(20.0)),
        sigma=st.floats(0.01, 5.0),
        outliers=st.lists(st.sampled_from([-50.0, 1e3, 1e200]), max_size=3),
    )
    def test_matches_reference(self, seed, size, l_max, log10_n, sigma, outliers):
        n = 10.0**log10_n
        rng = np.random.default_rng(seed)
        events = rng.poisson(min(n, 0.4 * l_max), size) + rng.normal(0.0, sigma, size)
        events[rng.integers(0, size, len(outliers))] = outliers
        assert_kernel_matches_reference(events, n, sigma, l_max)
        assert_band_matches_full_sum(events, n, sigma, l_max)

    # weights falling by e^-24 per component: a band of a few sigma loses
    # the components that carry events near 20
    @pytest.mark.parametrize("sigma", [0.6, 1.0])
    def test_steep_weights(self, sigma):
        events = 20.0 + np.random.default_rng(16).normal(0.0, 1.0, 200)
        assert_kernel_matches_reference(events, 1e-9, sigma, 40)
        assert_band_matches_full_sum(events, 1e-9, sigma, 40)

    @pytest.mark.parametrize("n, sigma, l_max", [(2.55, 0.33, 20), (10.18, 0.33, 30),
                                                 (1e-9, 0.26, 20), (5.0, 0.6, 40)])
    def test_band_is_narrower_than_the_cutoff(self, n, sigma, l_max):
        events = draw_mixture_events(min(n, 10.0), sigma, 5000, seed=17)
        events[:3] = (-50.0, 1e3, 1e200)
        assert 2 * estimation._band_half_width(n, sigma, l_max) + 1 < l_max + 1
        assert_kernel_matches_reference(events, n, sigma, l_max)
        assert_band_matches_full_sum(events, n, sigma, l_max)

    # the model's own events: no chunk takes the row sums, and the moment
    # sums and the row sums differ in the last bits here
    @pytest.mark.parametrize("n, sigma, l_max", [(2.55, 0.33, 20), (10.18, 0.33, 30)])
    def test_events_of_the_model(self, n, sigma, l_max):
        events = draw_mixture_events(n, sigma, 5000, seed=17)
        assert_kernel_matches_reference(events, n, sigma, l_max)
        assert_band_matches_full_sum(events, n, sigma, l_max)

    # at 1e150 every log-term of an event rounds to the same value, so the
    # band and the full sum weigh its components alike but over other rows
    @pytest.mark.parametrize("n, sigma, l_max", [(2.55, 0.33, 20), (1e-9, 0.26, 20),
                                                 (2.85, 2.0, 21), (10.18, 0.6, 40)])
    def test_outliers_agree_with_the_two_buffer_pass(self, n, sigma, l_max):
        events = draw_mixture_events(min(n, 10.0), sigma, 3000, seed=28)
        events[:5] = (-50.0, 1e3, 1e150, -1e150, 1e200)
        assert_agrees_with_two_buffer_pass(events, n, sigma, l_max)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_events_match_the_full_sum(self, bad):
        events = draw_mixture_events(2.55, 0.33, 100, seed=18)
        events[[0, 57, 99]] = bad
        assert estimation._band_half_width(2.55, 0.33, 20) is not None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # 0 * inf, as the full sum
            got = _em_pass(events, 2.55, 0.33, 20)[:3]
            want = reference_em_pass(events, 2.55, 0.33, 20)
            density = mixture_density(events, 2.55, 0.33, 20)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, equal_nan=True)
        np.testing.assert_allclose(density, reference_density(events, 2.55, 0.33, 20),
                                   rtol=1e-12, atol=0, equal_nan=True)
        assert_agrees_with_two_buffer_pass(events, 2.55, 0.33, 20)

    def test_subnormal_and_zero_cells(self):
        # with n = 1, sigma = 1 and l_max = 1 the l = 1 cell of event x sits
        # x - 0.5 below the row max, so the first grid puts cells across the
        # whole subnormal range; the second keeps sum(r l) subnormal, where
        # additions are exact, around the underflow-to-zero point -745.13
        assert estimation._band_half_width(1.0, 1.0, 1) is None
        for lo, hi in ((-747.0, -706.0), (-746.0, -744.0)):
            events = np.linspace(lo, hi, 20001) + 0.5
            assert_kernel_matches_reference(events, 1.0, 1.0, 1)
            assert _em_pass(events, 1.0, 1.0, 1)[1] > 0.0

    def test_chunk_boundary_and_underflow_warning(self):
        events = draw_mixture_events(2.55, 0.33, (1 << 16) + 1, seed=12)
        assert_kernel_matches_reference(events, 2.4, 0.3, 20)
        events[-1] = 1e200  # the one event of the second chunk underflows
        with pytest.warns(RuntimeWarning, match="underflow"):
            assert log_likelihood(events, 2.4, 0.3) == float("-inf")
        assert _em_pass(events, 2.4, 0.3, 20)[:3] == banded_reference_em_pass(events, 2.4, 0.3, 20)

    @pytest.mark.parametrize("n, sigma, l_max", [(2.55, 0.33, 20), (1e-9, 0.26, 20),
                                                 (2.85, 2.0, 21), (5.0, 0.6, 40)])
    @pytest.mark.parametrize("outlier", [None, 1e3, 1e200])
    def test_log_likelihood_is_the_pass_ll(self, n, sigma, l_max, outlier):
        # log_likelihood sums the pass's lse alone; 1e200 has no density, so -inf
        events = draw_mixture_events(min(n, 10.0), sigma, 3000, seed=29)
        if outlier is not None:
            events[7] = outlier
        want = _em_pass(events, n, sigma, l_max)[0]
        assert (want == -np.inf) == (outlier == 1e200)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = log_likelihood(events, n, sigma, l_max)
        assert got == want
        assert [str(w.message) for w in caught] == (
            ["mixture density underflowed to zero for some events"] if want == -np.inf else [])

    # numpy's axis-0 add.reduce matches the row order in these shapes except
    # for a lone event at k >= 16, where it adds pairwise
    @pytest.mark.parametrize("l_max, size", [(15, 1), (20, 1), (40, 1), (20, (1 << 16) + 1)])
    def test_softmax_sums_the_rows_in_order(self, l_max, size):
        n, sigma = 2.0, 3.0
        assert estimation._band_half_width(n, sigma, l_max) is None  # k = l_max + 1
        # the last chunk's lone event is the same in both sizes
        events = np.concatenate([draw_mixture_events(n, sigma, size - 1, seed=31),
                                 draw_mixture_events(n, sigma, 1, seed=30)])
        got = estimation._passes(events, n, sigma, l_max)
        want = _band_reference_chunks(events, n, sigma, l_max)
        chunks = 0
        with np.errstate(all="ignore"):
            for (_, _, e, lse, s, _), (_, _, want_lse, _, want_s) in zip(got, want, strict=True):
                assert e.shape[0] == l_max + 1
                assert lse.tobytes() == want_lse.tobytes()
                assert s.tobytes() == want_s.tobytes()
                chunks += 1
        assert chunks == 1 + size // (1 << 16)


class TestFitMixture:
    def test_recovers_generating_parameters(self):
        events = draw_mixture_events(2.55, 0.33, 10**5, seed=6)
        fit = fit_mixture(events)
        assert fit.converged
        assert abs(fit.n_hat - 2.55) < 0.02
        assert abs(fit.sigma_hat - 0.33) < 0.01

    def test_small_sample_within_three_stderr(self):
        events = draw_mixture_events(1.07, 0.30, 700, seed=7)
        fit = fit_mixture(events)
        assert fit.converged
        assert abs(fit.n_hat - 1.07) <= 3 * fit.stderr_n

    def test_degenerate_all_zero_events(self):
        fit = fit_mixture(np.zeros(100))
        assert fit.converged
        assert fit.sigma_hat == SIGMA_FLOOR
        assert fit.n_hat <= 0.01

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_mixture(np.zeros(49))

    def test_degenerate_fit_names_its_reason(self):
        # events far below zero converge to an n_hat near its floor where the
        # information is not positive definite; all-zero events put n_hat at
        # the floor itself; converged keeps its meaning
        fit = fit_mixture(np.random.default_rng(1).normal(-50.0, 50.0, 500))
        assert fit.converged and np.isnan(fit.stderr_n)
        assert fit.degenerate == "the observed information is not positive definite"
        fit = fit_mixture(np.zeros(100))
        assert fit.converged and fit.n_hat == estimation._N_FLOOR
        assert fit.degenerate.startswith(f"n_hat is at its floor {estimation._N_FLOOR}")
        fit = fit_mixture(draw_mixture_events(1.07, 0.3, 700, seed=7))
        assert fit.degenerate is None and np.isfinite(fit.stderr_n)

    def test_bright_data_needs_larger_cutoff(self):
        events = draw_mixture_events(10.18, 0.33, 200, seed=8)
        with pytest.raises(ValueError, match="l_max"):
            fit_mixture(events, l_max=20)
        fit = fit_mixture(events, l_max=30)
        assert fit.converged

    def test_default_cutoff_follows_the_data(self):
        events = draw_mixture_events(12.0, 0.3, 2000, seed=11)
        mean = float(np.mean(events))
        fit = fit_mixture(events)
        assert fit.converged
        assert fit.l_max == max(20, math.ceil(2.0 * mean) + 2) > 20
        assert abs(fit.n_hat - 12.0) < 0.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_event_rejected(self, bad):
        events = draw_mixture_events(1.0, 0.3, 1000, seed=12)
        events[500] = bad
        with pytest.raises(ValueError, match="not finite"):
            fit_mixture(events)
        with pytest.raises(ValueError, match="not finite"):
            fit_mixture(events, l_max=20)

    def test_astronomical_outliers_end_the_fit(self):
        # +-1e150 pull sigma up near 1e149, where sigma**3 overflows a Python
        # float; at +-1e160 every point has a log-likelihood of -inf
        events = draw_mixture_events(1.0, 0.3, 500, seed=26)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_mixture(np.concatenate([events, [1e150, -1e150]]), l_max=40)
            assert isinstance(fit, MixtureFit)
            assert np.isfinite(fit.log_likelihood)
            fit = fit_mixture(np.concatenate([events, [1e160, -1e160]]), l_max=40)
        assert fit.log_likelihood == -np.inf
        assert not fit.converged
        assert fit.n_iterations <= 3
        assert np.isnan(fit.stderr_n)
        assert fit.degenerate is not None

    def test_gradient_at_a_huge_sigma(self):
        events = draw_mixture_events(1.0, 0.3, 500, seed=26)
        g_n, g_s = log_likelihood_grad(events, 1.0, 1e200)
        assert np.isfinite(g_n) and g_s == pytest.approx(-events.size / 1e200, rel=1e-6)

    def test_stderr_scales_with_sample_size(self):
        small = fit_mixture(draw_mixture_events(2.55, 0.33, 1000, seed=10))
        large = fit_mixture(draw_mixture_events(2.55, 0.33, 16000, seed=10))
        assert large.stderr_n < small.stderr_n
        # 1/sqrt(N) scaling, loosely
        assert large.stderr_n == pytest.approx(small.stderr_n / 4, rel=0.35)


def finite_difference_information(events, n, sigma, l_max):
    """``(i_nn, i_ns, i_ss)``: minus the central difference of the gradient, symmetrised."""
    h_n, h_s = 1e-5 * n, 1e-5 * sigma
    gn_p = log_likelihood_grad(events, n + h_n, sigma, l_max)
    gn_m = log_likelihood_grad(events, n - h_n, sigma, l_max)
    gs_p = log_likelihood_grad(events, n, sigma + h_s, l_max)
    gs_m = log_likelihood_grad(events, n, sigma - h_s, l_max)
    i_ns = -0.5 * ((gn_p[1] - gn_m[1]) / (2 * h_n) + (gs_p[0] - gs_m[0]) / (2 * h_s))
    return -(gn_p[0] - gn_m[0]) / (2 * h_n), i_ns, -(gs_p[1] - gs_m[1]) / (2 * h_s)


def assert_information_matches_finite_differences(events, n, sigma, l_max):
    """Each entry within 1e-5 of its scale, ``sqrt(|I_aa I_bb|)`` for the entry ``(a, b)``."""
    ll, sum_rl, sum_rsq, info = _em_pass(events, n, sigma, l_max)
    assert (ll, sum_rl, sum_rsq) == _em_pass(events, n, sigma, l_max)[:3]
    want = finite_difference_information(events, n, sigma, l_max)
    scale = (abs(want[0]), math.sqrt(abs(want[0] * want[2])), abs(want[2]))
    for got_i, want_i, scale_i in zip(info, want, scale):
        assert abs(got_i - want_i) <= 1e-5 * scale_i, (info, want)


def reference_information(events, n, sigma, l_max):
    """Louis's information from each event's central moments over every component."""
    ls = np.arange(l_max + 1)[:, None]
    i_nn = i_ns = i_ss = 0.0
    for d, _, r in _reference_chunks(events, n, sigma, l_max):
        t2 = (d / sigma) ** 2
        mean_l, mean_t2 = np.sum(r * ls, axis=0), np.sum(r * t2, axis=0)
        var_l = np.sum(r * (ls - mean_l) ** 2, axis=0)
        var_t2 = np.sum(r * (t2 - mean_t2) ** 2, axis=0)
        cov = np.sum(r * (ls - mean_l) * (t2 - mean_t2), axis=0)
        i_nn += float(np.sum(mean_l - var_l)) / n**2
        i_ns -= float(np.sum(cov)) / (n * sigma)
        i_ss += float(np.sum(3.0 * mean_t2 - 1.0 - var_t2)) / sigma**2
    return i_nn, i_ns, i_ss


class TestObservedInformation:
    """The information of the E-step moments against the differenced gradient."""

    @pytest.mark.parametrize("sigma", [0.1, 0.33, 0.6])
    @pytest.mark.parametrize("n", [1.07, 2.85, 10.18])
    def test_matches_finite_differences(self, n, sigma):
        events = draw_mixture_events(n, sigma, 2000, seed=int(100 * n + 10 * sigma))
        l_max = 30 if n > 10 else 20
        # at the generating point and away from it, where it need not be positive
        for point in ((n, sigma), (1.3 * n, 0.7 * sigma)):
            assert_information_matches_finite_differences(events, *point, l_max)

    # an even number of components leaves row 0 without its mirror row
    @pytest.mark.parametrize("l_max", [20, 21])
    def test_full_band(self, l_max):
        events = draw_mixture_events(2.85, 2.0, 2000, seed=23)
        assert estimation._band_half_width(2.85, 2.0, l_max) is None
        assert_information_matches_finite_differences(events, 2.85, 2.0, l_max)

    @pytest.mark.parametrize("sigma", [0.33, 2.0])
    def test_outliers(self, sigma):
        # the band of an outlier is clipped at an end of the cutoff
        events = draw_mixture_events(2.85, 0.33, 2000, seed=24)
        events[:4] = (-50.0, -50.0, 1e3, 1e3)
        assert_information_matches_finite_differences(events, 2.85, sigma, 20)

    # a mean near 0: each event's l is nearly always 0, so E[l] - Var(l) is
    # about E[l]^2, far below either, and moments about a distant row lose
    # it. At sigma 69 the events say almost nothing about n, the sum of
    # E[l]^2 - E[l(l - 1)] is 1/5000 of either, and 1e-6 of it is what the
    # raw moments of one pass keep
    @pytest.mark.parametrize("n, sigma, rel", [(1e-4, 2.0, 1e-8), (1e-6, 69.0, 1e-6),
                                               (2.85, 0.33, 1e-8)])
    def test_matches_the_central_moments(self, n, sigma, rel):
        events = draw_mixture_events(n, sigma, 2000, seed=27)
        info = _em_pass(events, n, sigma, 20)[3]
        want = reference_information(events, n, sigma, 20)
        scale = (abs(want[0]), math.sqrt(abs(want[0] * want[2])), abs(want[2]))
        for got_i, want_i, scale_i in zip(info, want, scale):
            assert abs(got_i - want_i) <= rel * scale_i, (info, want)

    def test_stderr_is_the_inverse_information_at_the_fit(self):
        events = draw_mixture_events(2.55, 0.33, 5000, seed=25)
        fit = fit_mixture(events)
        i_nn, i_ns, i_ss = finite_difference_information(events, fit.n_hat, fit.sigma_hat,
                                                         fit.l_max)
        var_n = i_ss / (i_nn * i_ss - i_ns * i_ns)
        assert fit.stderr_n == pytest.approx(math.sqrt(var_n), rel=1e-6)


def test_newton_takes_no_step_at_an_infinite_determinant():
    # det = 1e400 overflows: the step I^-1 g would read 0, a false convergence
    assert estimation._newton(1.0, 1.0, (1e200, 0.0, 1e200))[0] is None


def test_newton_steps_exactly_where_the_information_is_positive_definite():
    values = (0.0, 1.0, -1.0, 1e200, -1e200, 1e-200, -1e-200, np.inf, -np.inf, np.nan)
    for info in itertools.product(values, repeat=3):
        step, _ = estimation._newton(1.0, 1.0, info)
        _, degenerate = estimation._standard_error(1.0, info)
        not_pd = degenerate == "the observed information is not positive definite"
        assert (step is None) == not_pd, info


def plain_em(events, l_max):
    """The EM loop of acceptance criterion 6, run to the fit's pass cap.

    Returns the last log-likelihood and whether it changed by less than
    1e-8 before the cap.
    """
    n, sig = max(float(np.mean(events)), 0.05), 0.3
    prev = -np.inf
    for _ in range(estimation._EM_ITERATIONS):
        ll, s_rl, s_rsq = _em_pass(events, n, sig, l_max)[:3]
        if abs(ll - prev) < 1e-8:
            return ll, True
        prev = ll
        n = max(s_rl / events.size, 1e-9)
        sig = max(math.sqrt(s_rsq / events.size), 0.01)
    return ll, False


GRID_SIGMAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
GRID_MEANS = (0.5, 1.0, 2.0, 5.0, 10.0)


class TestSquarem:
    """The accelerated fit: few passes where EM crawls, never a worse optimum."""

    # at these seeds plain EM runs into its 500-pass cap at sigma 0.5 and 0.6
    # with n = 10, and in the 2e4-event cell, where the Newton steps take 9
    # to 11 passes; at sigma 0.1 plain EM takes 4-5 passes, and the fit,
    # which takes the EM step where it gains more than the Newton step, 4
    @pytest.mark.parametrize("i", range(len(GRID_SIGMAS)))
    def test_grid_row_converges_in_under_100_passes(self, i):
        bound = 6 if GRID_SIGMAS[i] == 0.1 else 19
        for j, n in enumerate(GRID_MEANS):
            fit = fit_mixture(draw_mixture_events(n, GRID_SIGMAS[i], 700, seed=10 * i + j))
            assert fit.converged, (GRID_SIGMAS[i], n)
            assert fit.n_iterations <= bound, (GRID_SIGMAS[i], n, fit.n_iterations)

    def test_slow_em_cell_converges_in_under_100_passes(self):
        fit = fit_mixture(draw_mixture_events(5.1, 0.5, 20000, seed=0))
        assert fit.converged
        assert fit.n_iterations < 20

    @pytest.mark.parametrize("sigma", [0.26, 0.4])
    @pytest.mark.parametrize("n", [1.07, 2.85, 10.18])
    def test_likelihood_at_least_plain_em(self, n, sigma):
        events = draw_mixture_events(n, sigma, 5000, seed=int(100 * n + 10 * sigma))
        l_max = 30 if np.mean(events) > 10 else 20
        fit = fit_mixture(events, l_max=l_max)
        em_ll, em_converged = plain_em(events, l_max)
        assert fit.converged and em_converged
        assert fit.log_likelihood >= em_ll - 1e-8 * (1.0 + abs(em_ll))

    def test_iterations_count_every_pass(self, monkeypatch):
        calls = []

        def counting_pass(*args, **kwargs):
            calls.append(args[1:3])
            return _em_pass(*args, **kwargs)

        monkeypatch.setattr(estimation, "_em_pass", counting_pass)
        fit = fit_mixture(draw_mixture_events(2.0, 0.5, 700, seed=42))
        # the standard error comes from the last accepted pass, with no pass of its own
        assert len(calls) == fit.n_iterations
        # and the fit runs no pass twice at one point
        assert len(set(calls)) == fit.n_iterations

    def test_an_em_step_that_lowers_the_likelihood_raises(self, monkeypatch):
        # a broken M-step: sum(r l) half what it is, so the EM image of every
        # point lies at half the Poisson mean it should
        def broken_pass(*args, **kwargs):
            ll, sum_rl, *rest = _em_pass(*args, **kwargs)
            return (ll, 0.5 * sum_rl, *rest)

        monkeypatch.setattr(estimation, "_em_pass", broken_pass)
        with pytest.raises(ConvergenceError, match="log-likelihood decreased"):
            fit_mixture(draw_mixture_events(2.0, 0.3, 700, seed=42))

    def test_cap_returns_the_last_accepted_point(self, monkeypatch):
        events = draw_mixture_events(5.0, 0.5, 700, seed=42)
        full = fit_mixture(events)
        monkeypatch.setattr(estimation, "_EM_ITERATIONS", 6)
        capped = fit_mixture(events)
        assert not capped.converged
        assert capped.n_iterations == 6
        assert capped.log_likelihood == log_likelihood(events, capped.n_hat, capped.sigma_hat)
        assert capped.log_likelihood < full.log_likelihood


#: The likelihood entry points that take a point ``(n, sigma)``.
POINT_ENTRY_POINTS = {
    "log_likelihood": log_likelihood,
    "log_likelihood_grad": log_likelihood_grad,
    "mixture_density": mixture_density,
}

#: Every estimator entry point that runs the likelihood kernel, called on
#: ``events`` with the cutoff ``l_max`` (at ``n = 1``, ``sigma = 0.3``).
KERNEL_ENTRY_POINTS = {
    "fit_mixture": lambda events, l_max: fit_mixture(events, l_max=l_max).log_likelihood,
    **{name: lambda events, l_max, f=f: f(events, 1.0, 0.3, l_max)
       for name, f in POINT_ENTRY_POINTS.items()},
}


@pytest.mark.parametrize("n, sigma", [*((n, 0.3) for n in (0.0, -1.0, np.nan, np.inf)),
                                      *((1.0, s) for s in (0.0, -0.3, np.nan, np.inf))])
@pytest.mark.parametrize("entry", sorted(POINT_ENTRY_POINTS))
def test_point_entry_points_refuse_bad_parameters(entry, n, sigma):
    # one check for all three, before any numpy warning or division
    events = draw_mixture_events(1.0, 0.3, 100, seed=19)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite and > 0"):
            POINT_ENTRY_POINTS[entry](events, n, sigma)


#: The entry points beside the likelihood that take a point ``(n, sigma)``,
#: called with a histogram, the point and the cutoff ``l_max``.
MODEL_ENTRY_POINTS = {
    "map_boundaries": lambda hist, n, sigma, l_max: map_boundaries(n, sigma, l_max),
    "classify": lambda hist, n, sigma, l_max: classify(0.4, n, sigma, "map", l_max),
    "discrimination_error": lambda hist, n, sigma, l_max: discrimination_error(
        n, sigma, "map", l_max),
    "discrimination_error_nearest": lambda hist, n, sigma, l_max: discrimination_error(
        n, sigma, "nearest", l_max),
    "expected_bin_counts": lambda hist, n, sigma, l_max: expected_bin_counts(
        hist, n, sigma, l_max),
}


@pytest.mark.parametrize("name, n, sigma", [*(("n", n, 0.3) for n in (-1.0, np.nan, np.inf)),
                                            *(("sigma", 1.0, s) for s in (-0.3, np.nan, np.inf))])
@pytest.mark.parametrize("entry", sorted(MODEL_ENTRY_POINTS))
def test_model_entry_points_refuse_bad_parameters(monkeypatch, entry, name, n, sigma):
    # the one check of _cutoff, before any warning or array
    hist = build_histogram([0.0, 1.0, 2.0], 0.1)

    def refuse(*args, **kwargs):
        raise AssertionError("a refused point allocated an array")

    for attr in ("empty", "arange", "zeros", "full"):
        monkeypatch.setattr(np, attr, refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be finite and "):
            MODEL_ENTRY_POINTS[entry](hist, n, sigma, 20)


def test_expected_bin_counts_of_a_dark_source():
    # n = 0 is a point of the model: all the mass sits in the l = 0 peak
    hist = build_histogram(draw_mixture_events(0.0, 0.3, 1000, seed=3), 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = expected_bin_counts(hist, 0.0, 0.3)
    assert np.all(counts >= 0.0)
    edges = hist.bin_edges
    want = hist.total * (special.ndtr(edges[-1] / 0.3) - special.ndtr(edges[0] / 0.3))
    assert counts.sum() == pytest.approx(want, rel=1e-12)


class TestWorkspaceBound:
    """Every kernel entry point refuses a cutoff whose buffers exceed the limit."""

    LIMIT = 1 << 20
    N_EVENTS = 200

    @pytest.fixture
    def small_limit(self, monkeypatch):
        monkeypatch.setattr(_bounds, "MAX_BYTES", self.LIMIT)

    def largest_l_max(self):
        # the buffer of N x (l_max + 1), the weight arrays, the chunk vectors
        # and two of numpy's iterator buffers, in doubles
        def doubles(l_max):
            return ((self.N_EVENTS + estimation._WEIGHT_ARRAYS) * (l_max + 1)
                    + estimation._CHUNK_VECTORS * self.N_EVENTS + 2 * np.getbufsize())

        fixed = doubles(-1)
        l_max = (self.LIMIT // 8 - fixed - 1) // (doubles(0) - fixed) - 1
        assert doubles(l_max) * 8 < self.LIMIT <= doubles(l_max + 1) * 8
        return l_max

    @pytest.mark.usefixtures("small_limit")
    @pytest.mark.parametrize("entry", sorted(KERNEL_ENTRY_POINTS))
    def test_refused_just_above_the_limit(self, entry):
        events = draw_mixture_events(1.0, 0.3, self.N_EVENTS, seed=13)
        l_max = self.largest_l_max()
        result = KERNEL_ENTRY_POINTS[entry](events, l_max)
        assert np.all(np.isfinite(result))
        with pytest.raises(ValueError, match=f"l_max {l_max + 1} needs") as info:
            KERNEL_ENTRY_POINTS[entry](events, l_max + 1)
        assert str(self.LIMIT) in str(info.value)

    @pytest.mark.usefixtures("small_limit")
    @pytest.mark.parametrize("entry, sigma", [
        *(pytest.param(entry, None, id=entry) for entry in sorted(KERNEL_ENTRY_POINTS)),
        *(pytest.param(entry, 5.0, id=f"{entry}-full-band") for entry in sorted(POINT_ENTRY_POINTS)),
    ])
    def test_peak_stays_below_the_limit(self, entry, sigma):
        # at the largest cutoff the entry point accepts, the buffer and every
        # array beside it count; at sigma 5 the band is every component, with
        # its band start and shifted events beside it
        events = draw_mixture_events(1.0, 0.3, self.N_EVENTS, seed=13)
        if sigma is None:
            call = KERNEL_ENTRY_POINTS[entry]
        else:
            def call(events, l_max):
                return POINT_ENTRY_POINTS[entry](events, 1.0, sigma, l_max)
        l_max = largest_accepted(lambda l_max: call(events, l_max), self.largest_l_max(),
                                 self.LIMIT // 8)
        if sigma is not None:
            assert estimation._band_half_width(1.0, sigma, l_max) is None
        tracemalloc.start()
        try:
            result = call(events, l_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(result))
        assert peak < self.LIMIT

    def test_a_full_chunk_takes_l_max_500(self):
        # one buffer of 65536 x 501 doubles and the vectors beside it stay
        # below 256 MiB; the pass touches only the band's rows of it
        events = draw_mixture_events(1.0, 0.3, estimation._EVENT_CHUNK, seed=29)
        assert np.isfinite(log_likelihood(events, 1.0, 0.3, 500))
        with pytest.raises(ValueError, match="l_max 501 needs"):
            log_likelihood(events, 1.0, 0.3, 501)

    @pytest.mark.parametrize("l_max", [0, -3, 10**12])
    @pytest.mark.parametrize("entry", sorted(KERNEL_ENTRY_POINTS))
    def test_refused_before_any_allocation(self, monkeypatch, entry, l_max):
        events = draw_mixture_events(1.0, 0.3, self.N_EVENTS, seed=15)

        def refuse(*args, **kwargs):
            raise AssertionError("a refused cutoff allocated an array")

        monkeypatch.setattr(np, "empty", refuse)
        monkeypatch.setattr(np, "arange", refuse)
        with pytest.raises(ValueError, match="l_max"):
            KERNEL_ENTRY_POINTS[entry](events, l_max)


#: Entry points that hold ``l_max + 1`` component weights but run no
#: likelihood kernel, called with the cutoff ``l_max``.
WEIGHT_ENTRY_POINTS = {
    "map_boundaries": lambda l_max: map_boundaries(1.0, 0.3, l_max),
    "classify": lambda l_max: classify(0.4, 1.0, 0.3, "map", l_max),
    "discrimination_error": lambda l_max: discrimination_error(1.0, 0.3, "map", l_max),
    "discrimination_error_nearest": lambda l_max: discrimination_error(
        1.0, 0.3, "nearest", l_max
    ),
    "expected_bin_counts": lambda l_max: expected_bin_counts(
        build_histogram([0.0, 1.0, 2.0], 0.1), 1.0, 0.3, l_max
    ),
}


class TestWeightBound:
    """Every explicit cutoff is refused once the weight arrays of one call would reach the limit."""

    LIMIT = 8 * 1000

    @staticmethod
    def largest_l_max(limit):
        """The largest cutoff whose ``_WEIGHT_ARRAYS`` weight arrays stay below ``limit``."""
        arrays = estimation._WEIGHT_ARRAYS
        l_max = limit // (8 * arrays) - 2
        assert arrays * (l_max + 1) * 8 < limit <= arrays * (l_max + 2) * 8
        return l_max

    @pytest.mark.parametrize("entry", sorted(WEIGHT_ENTRY_POINTS))
    def test_refused_just_above_the_limit(self, monkeypatch, entry):
        monkeypatch.setattr(_bounds, "MAX_BYTES", self.LIMIT)
        l_max = self.largest_l_max(self.LIMIT)
        assert np.all(np.isfinite(WEIGHT_ENTRY_POINTS[entry](l_max)))
        with pytest.raises(ValueError, match=f"l_max {l_max + 1} needs") as info:
            WEIGHT_ENTRY_POINTS[entry](l_max + 1)
        assert str(self.LIMIT) in str(info.value)

    @pytest.mark.parametrize("entry", sorted(WEIGHT_ENTRY_POINTS))
    def test_refused_before_any_allocation(self, monkeypatch, entry):
        def refuse(*args, **kwargs):
            raise AssertionError("a refused cutoff allocated an array")

        for name in ("empty", "arange", "zeros", "full"):
            monkeypatch.setattr(np, name, refuse)
        # 2**25 doubles are 256 MiB, the limit
        with pytest.raises(ValueError, match="l_max"):
            WEIGHT_ENTRY_POINTS[entry](2**25 - 1)

    @pytest.mark.parametrize("entry", sorted(WEIGHT_ENTRY_POINTS))
    def test_peak_stays_below_the_limit(self, monkeypatch, entry):
        # every array a call holds at once counts, not one array of weights
        limit = 1 << 22
        monkeypatch.setattr(_bounds, "MAX_BYTES", limit)
        l_max = self.largest_l_max(limit)
        tracemalloc.start()
        try:
            result = WEIGHT_ENTRY_POINTS[entry](l_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(result))
        assert peak < limit


class TestClassify:
    def test_low_value_goes_to_zero(self):
        assert classify(0.2, 1.07, 0.3, "nearest") == 0
        assert classify(0.2, 1.07, 0.3, "map") == 0

    def test_nearest_examples(self):
        assert classify(3.4, 1.07, 0.3, "nearest") == 3
        assert classify(-0.7, 1.07, 0.3, "nearest") == 0   # clamps at zero
        assert classify(0.5, 1.07, 0.3, "nearest") == 1    # ties break upward
        assert classify(1.5, 1.07, 0.3, "nearest") == 2

    def test_map_boundary_value(self):
        # posterior equality between 0 and 1: x* = 1/2 + sigma^2 ln(P0/P1)
        b = map_boundaries(1.07, 0.3)[0]
        assert b == pytest.approx(0.4939, abs=1e-3)
        eps = 1e-6
        assert classify(b - eps, 1.07, 0.3, "map") == 0
        assert classify(b + eps, 1.07, 0.3, "map") == 1

    def test_map_boundary_by_bisection(self):
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if classify(mid, 1.07, 0.3, "map") == 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(0.4939, abs=1e-3)

    def test_equal_priors_boundary_at_half_integer(self):
        # at n = 1 the 0 and 1 components have equal weight
        assert map_boundaries(1.0, 0.3)[0] == pytest.approx(0.5, abs=1e-12)
        assert classify(0.499, 1.0, 0.3, "map") == classify(0.499, 1.0, 0.3, "nearest")

    def test_vectorized(self):
        xs = np.array([-0.2, 0.6, 2.49, 2.51])
        assert list(classify(xs, 1.07, 0.3, "nearest")) == [0, 1, 2, 3]

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            classify(0.5, 1.0, 0.3, "other")


class TestDiscriminationError:
    def test_vanishes_with_noise(self):
        assert discrimination_error(2.0, 0.0, "nearest") == 0.0
        assert discrimination_error(2.0, 1e-9, "map") < 1e-12

    def test_interior_dominated_limit(self):
        # bright source: every component errs two-sided, 2 Phi(-0.5/0.33)
        got = discrimination_error(30.0, 0.33, "nearest", l_max=80)
        assert got == pytest.approx(0.1297, abs=1e-3)

    def test_reference_intensity_against_monte_carlo(self):
        got = discrimination_error(1.07, 0.26, "nearest")
        rng = np.random.default_rng(314159)
        l = rng.poisson(1.07, 10**7)
        x = l + rng.normal(0.0, 0.26, 10**7)
        mc = np.mean(np.maximum(np.floor(x + 0.5), 0).astype(int) != l)
        assert abs(got - mc) < 0.001
        assert got == pytest.approx(0.04513, abs=5e-4)  # frozen from the oracle

    def test_map_against_monte_carlo(self):
        got = discrimination_error(1.07, 0.3, "map")
        rng = np.random.default_rng(271828)
        l = rng.poisson(1.07, 10**7)
        x = l + rng.normal(0.0, 0.3, 10**7)
        bounds = map_boundaries(1.07, 0.3)
        mc = np.mean(np.searchsorted(bounds, x, side="right") != l)
        assert abs(got - mc) < 0.001

    def test_map_beats_nearest(self):
        # MAP is the Bayes rule for these priors
        for n in (0.5, 1.07, 2.85):
            assert discrimination_error(n, 0.3, "map") <= discrimination_error(
                n, 0.3, "nearest"
            ) + 1e-12

    def test_dark_source(self):
        # only the l = 0 component is left: it errs upward in nearest mode and
        # never in map mode, whose boundaries are all at +inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert discrimination_error(0.0, 0.25, "nearest") == special.ndtr(-0.5 / 0.25)
            assert discrimination_error(0.0, 0.25, "map") == 0.0
            assert np.all(map_boundaries(0.0, 0.25) == np.inf)

    @pytest.mark.parametrize("n", [-1.0, np.nan, np.inf])
    @pytest.mark.parametrize("mode", ["nearest", "map"])
    def test_bad_mean_rejected(self, mode, n):
        with pytest.raises(ValueError, match="n must be finite and >= 0"):
            discrimination_error(n, 0.3, mode, l_max=20)

    @pytest.mark.parametrize("mode", ["nearest", "map"])
    def test_monotone_in_sigma(self, mode):
        grid = np.arange(0.05, 0.601, 0.05)
        vals = [discrimination_error(1.07, s, mode) for s in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestDefaultCutoff:
    """``l_max=None`` derives the Poisson cutoff from the mean, as the fit does."""

    @pytest.mark.parametrize("n", [0.05, 1.07, 2.85, 9.0])
    def test_twenty_up_to_a_mean_of_nine(self, n):
        assert estimation._cutoff(n, 0.3) == 20
        assert discrimination_error(n, 0.3, "map") == discrimination_error(
            n, 0.3, "map", l_max=20
        )
        xs = np.linspace(-1.0, 25.0, 101)
        np.testing.assert_array_equal(
            mixture_density(xs, n, 0.3), mixture_density(xs, n, 0.3, l_max=20)
        )

    def test_bright_mean_is_not_truncated(self):
        assert estimation._cutoff(30.0, 0.3) == 62
        assert classify(25.0, 30.0, 0.3, "map") == 25
        # interior components dominate: every one errs two-sided
        assert discrimination_error(70.0, 0.3) == pytest.approx(
            2.0 * special.ndtr(-0.5 / 0.3), abs=1e-6
        )

    @pytest.mark.parametrize("mean", [np.nan, np.inf, 1e9])
    def test_unusable_mean_rejected(self, mean):
        with pytest.raises(ValueError, match="l_max"):
            classify(0.0, mean, 0.3, "map")

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1.07, 2.85, 15.0, 30.0]),
        sigma=st.floats(0.1, 0.6),
        u=st.floats(0.0, 1.0),
    )
    def test_map_is_the_posterior_argmax(self, n, sigma, u):
        # x anywhere from below zero to four Poisson deviations above the mean
        x = -3.0 + u * (n + 4.0 * math.sqrt(n) + 3.0)
        ls = np.arange(400.0)
        log_post = ls * math.log(n) - n - special.gammaln(ls + 1.0) - (x - ls) ** 2 / (
            2.0 * sigma**2
        )
        top2 = np.sort(log_post)[-2:]
        assume(top2[1] - top2[0] > 1e-9)  # not on a boundary up to rounding
        assert classify(x, n, sigma, "map") == int(np.argmax(log_post))


class TestEstimateQe:
    def test_back_calculation(self):
        assert estimate_qe(1.28, 2.0, 0.8) == pytest.approx(0.80)

    def test_zero_signal(self):
        assert estimate_qe(0.0, 2.0, 0.8) == 0.0

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            estimate_qe(1.0, 0.0, 0.8)

    def test_stderr_propagation(self):
        qe, err = estimate_qe(1.28, 2.0, 0.8, stderr_n=0.08)
        assert qe == pytest.approx(0.80)
        assert err == pytest.approx(0.05)


class TestGoodnessOfFit:
    def test_self_model_chi2_distribution(self):
        """Fitting data from the model itself gives chi2/dof near 1.

        100 seeded replications at 1e4 events; at least 95 must land in
        [0.5, 1.7] (the comfortable central band of the chi-square).
        """
        hits = 0
        for seed in range(100):
            events = draw_mixture_events(2.55, 0.33, 10**4, seed=1000 + seed)
            fit = fit_mixture(events)
            chi2, dof = goodness_of_fit(build_histogram(events, 0.1), fit)
            if 0.5 <= chi2 / dof <= 1.7:
                hits += 1
        assert hits >= 95

    def test_expected_counts_normalize(self):
        events = draw_mixture_events(2.55, 0.3, 10**4, seed=11)
        hist = build_histogram(events, 0.1)
        expected = expected_bin_counts(hist, 2.55, 0.3)
        assert abs(expected.sum() - hist.total) / hist.total < 0.001

    def test_expected_counts_memory_bounded(self):
        # 2002 edges by 1001 components: a dense CDF matrix would take 16 MB
        hist = build_histogram(np.arange(2001) * 0.1, 0.1)
        edges = hist.bin_edges
        tracemalloc.start()
        try:
            got = expected_bin_counts(hist, 2.55, 0.3, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the edges, the CDF and term buffers, the weights and the result
        assert peak < 8 * edges.nbytes
        ls = np.arange(1001)
        cdf = special.ndtr((edges[:, None] - ls) / 0.3) @ stats.poisson.pmf(ls, 2.55)
        want = hist.total * np.diff(cdf)
        bright = want > 1e-3 * want.max()
        assert got[bright] == pytest.approx(want[bright], rel=1e-9, abs=0)

    def test_wrong_sigma_is_rejected(self):
        events = draw_mixture_events(2.55, 0.3, 10**4, seed=12)
        hist = build_histogram(events, 0.1)
        wrong = MixtureFit(
            n_hat=2.55, sigma_hat=0.6, l_max=20, log_likelihood=0.0,
            n_iterations=1, converged=True, stderr_n=0.0,
        )
        chi2, dof = goodness_of_fit(hist, wrong)
        assert chi2 / dof > 3

    def test_requires_convergence(self):
        events = draw_mixture_events(2.55, 0.3, 1000, seed=13)
        hist = build_histogram(events, 0.1)
        unconverged = MixtureFit(
            n_hat=2.55, sigma_hat=0.3, l_max=20, log_likelihood=0.0,
            n_iterations=500, converged=False, stderr_n=0.0,
        )
        with pytest.raises(ValueError, match="converged"):
            goodness_of_fit(hist, unconverged)

    def test_too_few_populated_bins(self):
        hist = build_histogram(np.zeros(100), 1.0)
        fit = MixtureFit(
            n_hat=1e-6, sigma_hat=0.01, l_max=20, log_likelihood=0.0,
            n_iterations=1, converged=True, stderr_n=0.0,
        )
        with pytest.raises(ValueError, match="merged bins"):
            goodness_of_fit(hist, fit)


#: Fits a bright case (n = 100, so l_max = 202 over about 8000 bins of
#: 0.01 e) and prints the bytes of its results
BRIGHT_FIT_BYTES = """
import hashlib
import numpy as np
from cipdsim import build_histogram, expected_bin_counts, fit_mixture
rng = np.random.default_rng(0)
events = rng.poisson(100, 4000) + rng.normal(0.0, 0.33, 4000)
fit = fit_mixture(events)
counts = expected_bin_counts(build_histogram(events, 0.01), fit.n_hat,
                             fit.sigma_hat, fit.l_max)
print(np.array([fit.n_hat, fit.sigma_hat, fit.log_likelihood]).tobytes().hex())
print(hashlib.sha256(counts.tobytes()).hexdigest())
"""


def test_fit_bytes_do_not_depend_on_blas_threads():
    outputs = {}
    for threads in ("1", "2", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        res = subprocess.run([sys.executable, "-c", BRIGHT_FIT_BYTES], env=env,
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        outputs[threads] = res.stdout
    assert outputs["2"] == outputs["1"]
    assert outputs["4"] == outputs["1"]


#: Calls whose rounding can follow the BLAS thread count.
BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot", "linalg"}


def test_estimation_makes_no_blas_call():
    # the fit's 2x2 solve and every sum over the components stay in plain
    # numpy ufuncs and Python floats, so the fit bytes do not follow the
    # BLAS thread count
    tree = ast.parse(Path(estimation.__file__).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in BLAS_CALLS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in BLAS_CALLS:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.alias) and BLAS_CALLS & set(node.name.split(".")):
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.ImportFrom) and BLAS_CALLS & set((node.module or "").split(".")):
            found.append((node.lineno, node.module))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
    assert found == []


class TestSigmaFromDark:
    def test_constant_sequence(self):
        assert sigma_from_dark(np.full(10, 0.7)) == 0.0

    def test_two_events(self):
        assert sigma_from_dark([0.0, 1.0]) == pytest.approx(0.7071, abs=1e-4)

    def test_gaussian_sample(self):
        rng = np.random.default_rng(14)
        assert sigma_from_dark(rng.normal(0, 0.26, 10**5)) == pytest.approx(0.26, abs=0.005)

    def test_insufficient(self):
        with pytest.raises(InsufficientDataError):
            sigma_from_dark([1.0])


class TestFitRecoveryGrid:
    """Synthetic fits recover both parameters (scaled-down nightly version).

    The full-size statement (1e5 events, 100 seeds per grid point) runs for
    many minutes; 1e4 events and 20 seeds exercise the same property with
    the same 3-sigma coverage expectation.
    """

    @pytest.mark.parametrize("n_true", [1.07, 2.55, 2.85])
    @pytest.mark.parametrize("sigma_true", [0.30, 0.33])
    def test_recovery_within_three_stderr(self, n_true, sigma_true):
        ok = 0
        trials = 20
        for seed in range(trials):
            events = draw_mixture_events(n_true, sigma_true, 10**4, seed=500 + seed)
            fit = fit_mixture(events)
            if (
                fit.converged
                and abs(fit.n_hat - n_true) <= 3 * fit.stderr_n
                and abs(fit.sigma_hat - sigma_true) <= 0.02
            ):
                ok += 1
        assert ok >= trials - 1
