"""Moment decomposition versus the polynomial basis, term by term."""

import numpy as np
import pytest

from motifdiff.diffusion import random_symmetric, verify_basis_expansion
from motifdiff.errors import CapacityError, InputError
from motifdiff.graphs import Dataset

from conftest import make_random_graph


def dataset(n, size, seed):
    rng = np.random.default_rng(seed)
    return Dataset(graphs=tuple(make_random_graph(n, 0.5, rng)
                                for _ in range(size)))


def discrepancy(f_moment, f_basis, g_moment, g_basis):
    """The larger gap between the two sides, matrix and scalar."""
    return max(np.abs(f_moment - f_basis).max(), abs(g_moment - g_basis))


def test_identity_holds_at_small_sizes():
    rng = np.random.default_rng(0)
    for n in (2, 3):
        ds = dataset(n, 2, n)
        W = random_symmetric(n, rng)
        for k in range(4):
            sides = verify_basis_expansion(W, k, ds)
            assert discrepancy(*sides) <= 1e-9
            assert sides[0].shape == (n, n)


def test_order_zero_scalar_side_is_one():
    ds = dataset(3, 2, 1)
    W = random_symmetric(3, np.random.default_rng(2))
    _, _, g_moment, g_basis = verify_basis_expansion(W, 0, ds)
    # <pi(A), W>^0 averages to exactly 1 on both sides
    assert g_moment == 1.0
    assert g_basis == pytest.approx(1.0, abs=1e-14)


def test_caps_and_input_errors():
    ds = dataset(3, 1, 0)
    W = random_symmetric(3, np.random.default_rng(0))
    # at the caps (n = 6, k = 4) the identity is checked; one past, refused
    W6 = random_symmetric(6, np.random.default_rng(0))
    assert discrepancy(*verify_basis_expansion(W6, 1, dataset(6, 1, 0))) <= 1e-9
    assert discrepancy(*verify_basis_expansion(W, 4, ds)) <= 1e-9
    with pytest.raises(CapacityError):
        verify_basis_expansion(random_symmetric(7, np.random.default_rng(0)),
                               1, dataset(7, 1, 0))
    with pytest.raises(CapacityError):
        verify_basis_expansion(W, 5, ds)
    with pytest.raises(InputError):
        verify_basis_expansion(W, -1, ds)
    with pytest.raises(InputError):
        verify_basis_expansion(W, 1, dataset(4, 1, 0))  # no 3-node graphs

