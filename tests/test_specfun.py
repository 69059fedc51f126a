import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lissim import (
    DomainError,
    InvalidArgumentError,
    Precision,
    j1_over_x,
    sinc_unnormalized,
)
from lissim.specfun import _J1_BRANCH_CUTOFF, _j1_asymptotic, _j1_small
from oracles import j1_series_oracle

FIRST_J1_ZERO = 3.8317059702075123


def test_sinc_reference_points():
    assert sinc_unnormalized(0.0) == 1.0
    assert abs(sinc_unnormalized(np.pi)) <= 1e-15
    assert sinc_unnormalized(np.pi / 2) == pytest.approx(2.0 / np.pi, rel=1e-15)


def test_sinc_even_and_bounded():
    xs = np.linspace(0.0, 60.0, 4001)
    vals = sinc_unnormalized(xs)
    assert np.array_equal(vals, sinc_unnormalized(-xs))
    assert np.all(np.abs(vals) <= 1.0)


def test_kernels_quadratic_continuity_at_zero():
    # both kernels have a quadratic leading correction with constant <= 1
    for eps in (1e-3, 1e-4, 1e-5):
        assert abs(sinc_unnormalized(eps) - 1.0) <= eps * eps
        assert abs(j1_over_x(eps) - 0.5) <= eps * eps


def test_j1_over_x_reference_points():
    assert j1_over_x(0.0) == 0.5
    expected = j1_series_oracle(1.0, 40) / 1.0
    assert j1_over_x(1.0) == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(0.4400505857, rel=1e-9)
    assert abs(j1_over_x(FIRST_J1_ZERO)) <= 1e-10


def test_j1_over_x_even_exactly():
    xs = np.linspace(0.05, 25.0, 500)
    assert np.array_equal(j1_over_x(xs), j1_over_x(-xs))


def test_j1_over_x_matches_series_oracle_on_grid():
    xs = np.arange(1, 2001) * 0.01
    vals = j1_over_x(xs)
    worst = 0.0
    for x, v in zip(xs[::7], vals[::7]):  # every 7th point; the full grid runs in acceptance
        ref = j1_series_oracle(float(x), 60) / float(x)
        worst = max(worst, abs(v - ref) / abs(ref))
    assert worst <= 1e-12


def test_branch_overlap_at_cutoff():
    xs = np.linspace(_J1_BRANCH_CUTOFF - 0.25, _J1_BRANCH_CUTOFF + 0.25, 101)
    small = _j1_small(xs)
    asym = _j1_asymptotic(xs)
    assert np.max(np.abs(small - asym) / np.abs(small)) <= 1e-11


def test_extended_matches_double_within_rounding():
    prec = Precision.extended(128)
    for x in np.arange(0.01, 20.0, 0.37):
        dd = j1_over_x(float(x))
        ee = float(j1_over_x(float(x), prec))
        assert dd == pytest.approx(ee, rel=5e-15, abs=5e-18)


def test_series_oracle_basics():
    assert j1_series_oracle(0.0, 10) == 0.0
    assert j1_series_oracle(2.0, 40) == pytest.approx(0.5767248, rel=1e-6)
    assert j1_series_oracle(-2.0, 40) == -j1_series_oracle(2.0, 40)


def test_series_oracle_domain_limits():
    with pytest.raises(DomainError):
        j1_series_oracle(31.0, 40)
    with pytest.raises(InvalidArgumentError):
        j1_series_oracle(1.0, 0)


def test_precision_parsing_and_validation():
    assert Precision.parse("double") == Precision()
    assert Precision.parse("ext:128") == Precision.extended(128)
    assert Precision.parse("ext:128").mantissa_bits == 128
    with pytest.raises(InvalidArgumentError):
        Precision.parse("quad")
    for spec in (5, None, ["double"]):
        with pytest.raises(InvalidArgumentError, match="must be a string"):
            Precision.parse(spec)
    with pytest.raises(InvalidArgumentError):
        Precision.extended(32)


def test_extended_context_is_shared_per_width():
    a = Precision.extended(192).arithmetic().ctx
    b = Precision.extended(192).arithmetic().ctx
    assert a is b
    assert a.prec == 192


def test_threads_asking_at_once_get_the_one_context_of_the_width():
    # 200 bits is asked for by no other test, so the first of these
    # threads to take the lock builds the width's arithmetic
    threads = 8
    barrier = threading.Barrier(threads, timeout=60)

    def context():
        barrier.wait()
        return Precision.extended(200).arithmetic().ctx

    with ThreadPoolExecutor(threads) as pool:
        contexts = [f.result(timeout=60) for f in [pool.submit(context) for _ in range(threads)]]
    assert all(c is contexts[0] for c in contexts)
    assert contexts[0] is Precision.extended(200).arithmetic().ctx
    assert contexts[0].prec == 200
    assert Precision().arithmetic().ctx is None
