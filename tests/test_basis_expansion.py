"""Moment decomposition versus the polynomial basis, term by term."""

import numpy as np
import pytest

from motifdiff.diffusion import (BasisExpansionReport, random_symmetric,
                                 verify_basis_expansion)
from motifdiff.errors import CapacityError, InputError
from motifdiff.graphs import Dataset

from conftest import make_random_graph


def dataset(n, size, seed):
    rng = np.random.default_rng(seed)
    return Dataset(graphs=tuple(make_random_graph(n, 0.5, rng)
                                for _ in range(size)))


def test_identity_holds_at_small_sizes():
    rng = np.random.default_rng(0)
    for n in (2, 3):
        ds = dataset(n, 2, n)
        W = random_symmetric(n, rng)
        for k in range(4):
            rep = verify_basis_expansion(W, k, ds)
            assert rep.order == k and rep.n == n
            assert rep.max_discrepancy <= 1e-9
            assert rep.f_moment.shape == (n, n)


def test_order_zero_scalar_side_is_one():
    ds = dataset(3, 2, 1)
    W = random_symmetric(3, np.random.default_rng(2))
    rep = verify_basis_expansion(W, 0, ds)
    # <pi(A), W>^0 averages to exactly 1 on both sides
    assert rep.g_moment == 1.0
    assert rep.g_basis == pytest.approx(1.0, abs=1e-14)


def test_caps_and_input_errors():
    ds = dataset(3, 1, 0)
    W = random_symmetric(3, np.random.default_rng(0))
    # at the caps (n = 6, k = 4) the identity is checked; one past, refused
    W6 = random_symmetric(6, np.random.default_rng(0))
    assert verify_basis_expansion(W6, 1, dataset(6, 1, 0)).max_discrepancy <= 1e-9
    assert verify_basis_expansion(W, 4, ds).max_discrepancy <= 1e-9
    with pytest.raises(CapacityError):
        verify_basis_expansion(random_symmetric(7, np.random.default_rng(0)),
                               1, dataset(7, 1, 0))
    with pytest.raises(CapacityError):
        verify_basis_expansion(W, 5, ds)
    with pytest.raises(InputError):
        verify_basis_expansion(W, -1, ds)
    with pytest.raises(InputError):
        verify_basis_expansion(W, 1, dataset(4, 1, 0))  # no 3-node graphs


def test_report_accessors():
    rep = BasisExpansionReport(
        order=1, n=2,
        f_moment=np.array([[0.0, 1.0], [1.0, 0.0]]),
        f_basis=np.array([[0.0, 1.5], [1.0, 0.0]]),
        g_moment=2.0, g_basis=2.25)
    assert rep.f_discrepancy == pytest.approx(0.5)
    assert rep.g_discrepancy == pytest.approx(0.25)
    assert rep.max_discrepancy == pytest.approx(0.5)
