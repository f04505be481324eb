"""Tests for the truncated Fock-space operator kernels."""

import numpy as np
import pytest
import scipy.linalg

from spqm import fock


def test_canonical_operators_smallest():
    ops = fock.canonical_operators(2)
    assert np.array_equal(ops.a, np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(ops.a_dag, ops.a.conj().T)


def test_h_osc_diagonal():
    ops = fock.canonical_operators(8)
    assert np.allclose(np.diag(ops.h_osc), np.arange(8) + 0.5)
    assert np.allclose(ops.h_osc, ops.a_dag @ ops.a + 0.5 * np.eye(8))


def test_commutator_truncation_artifact():
    ops = fock.canonical_operators(8)
    comm = ops.a @ ops.a_dag - ops.a_dag @ ops.a
    expected = np.eye(8)
    expected[-1, -1] = -7.0
    assert np.allclose(comm, expected, atol=1e-14)


def test_quadratures_hermitian_exact():
    ops = fock.canonical_operators(12)
    for x in (ops.q, ops.p, ops.h_osc):
        assert np.array_equal(x, x.conj().T)
    assert np.allclose(ops.q, (ops.a + ops.a_dag) / np.sqrt(2))
    assert np.allclose(ops.p, -1j * (ops.a - ops.a_dag) / np.sqrt(2))


def test_dimension_guard():
    with pytest.raises(ValueError):
        fock.canonical_operators(1)


def test_displacement_zero_is_identity():
    assert np.allclose(fock.displacement_operator(6, 0.0), np.eye(6))


def test_displacement_unitary_interior():
    d = fock.displacement_operator(30, 1.0)
    block = (d.conj().T @ d)[:15, :15]
    assert np.linalg.norm(block - np.eye(15)) <= 1e-8


@pytest.mark.parametrize("alpha", [np.full(3, 0.2 + 0.1j), np.zeros(5)])
def test_displacement_is_scalar_only(alpha):
    with pytest.raises(ValueError, match="one alpha at a time"):
        fock.displacement_operator(3, alpha)


@pytest.mark.parametrize("dim", [2, 4, 30, 60])
def test_displacement_matches_expm(dim):
    ops = fock.canonical_operators(dim)
    for alpha in (0.3, 1.0 - 0.5j, -2.0j, 2.5 + 1.5j):
        want = scipy.linalg.expm(ops.a_dag * alpha - ops.a * np.conj(alpha))
        got = fock.displacement_operator(dim, alpha)
        assert np.max(np.abs(got - want)) <= 1e-13


def test_displacement_rejects_nonfinite():
    with pytest.raises(fock.NumericalDomainError):
        fock.displacement_operator(4, complex(np.nan, 0.0))


def test_displacement_normal_ordered_form():
    # D_alpha = e^{-|alpha|^2/2} e^{alpha a_dag} e^{-alpha* a}
    dim, alpha = 30, 1.0
    ops = fock.canonical_operators(dim)
    d = fock.displacement_operator(dim, alpha)
    ordered = (np.exp(-0.5 * abs(alpha) ** 2)
               * fock.matrix_exponential(alpha * ops.a_dag)
               @ fock.matrix_exponential(-np.conj(alpha) * ops.a))
    assert np.linalg.norm((d - ordered)[:15, :15]) <= 1e-8


def test_displacement_composition():
    # D_a D_b = e^{(a b* - a* b)/2} D_{a+b} on the interior block.
    dim = 30
    rng = np.random.default_rng(7)
    for _ in range(3):
        a = rng.normal(scale=0.5) + 1j * rng.normal(scale=0.5)
        b = rng.normal(scale=0.5) + 1j * rng.normal(scale=0.5)
        lhs = fock.displacement_operator(dim, a) @ fock.displacement_operator(dim, b)
        rhs = (np.exp((a * np.conj(b) - np.conj(a) * b) / 2)
               * fock.displacement_operator(dim, a + b))
        assert np.linalg.norm(fock.interior_block(lhs - rhs)) <= 1e-8


def test_matrix_exponential_trivial_cases():
    assert np.allclose(fock.matrix_exponential(np.zeros((3, 3))), np.eye(3))
    x = np.diag([-1.0, -2.0])
    assert np.allclose(fock.matrix_exponential(x), np.diag(np.exp([-1.0, -2.0])))


def test_matrix_exponential_nilpotent_taylor():
    a = fock.canonical_operators(3).a * 0.7
    taylor = np.eye(3) + a + a @ a / 2  # a^3 = 0 at dim 3
    assert np.allclose(fock.matrix_exponential(a), taylor, atol=1e-15)


def test_matrix_exponential_rejects_nonfinite():
    x = np.zeros((2, 2))
    x[0, 1] = np.inf
    with pytest.raises(fock.NumericalDomainError):
        fock.matrix_exponential(x)


def test_conjugation_identity():
    # e^{-r Ho} a e^{r Ho} = a e^r on the top-left half block.
    dim = 30
    ops = fock.canonical_operators(dim)
    for r in (0.0, 1.0, 3.0):
        lhs = (fock.matrix_exponential(-r * ops.h_osc) @ ops.a
               @ fock.matrix_exponential(r * ops.h_osc))
        assert np.linalg.norm((lhs - ops.a * np.exp(r))[:15, :15]) <= 1e-8


def test_ladder_exponential_matches_dense():
    rng = np.random.default_rng(3)
    c = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    for dim in (2, 3, 7, 16, 40):
        got = fock.ladder_exponential(dim, c)
        assert got.shape == (2, 3, dim, dim)
        a_dag = fock.canonical_operators(dim).a_dag
        want = np.array([[fock.matrix_exponential(ci * a_dag) for ci in row]
                         for row in c])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_ladder_exponential_tables_are_shared_read_only():
    c = 0.4 - 0.9j
    first = fock.ladder_exponential(9, c)
    first[:] = 0  # the caller's result is its own
    again = fock.ladder_exponential(9, c)
    assert np.max(np.abs(again - fock.ladder_exponential(9, [c])[0])) == 0
    assert again[8, 0] != 0
    for table in fock._ladder_tables(9):
        with pytest.raises(ValueError):
            table[0] = 1


def test_ladder_exponential_rejects_nonfinite():
    for c in (np.nan, [0.1, np.inf]):
        with pytest.raises(fock.NumericalDomainError):
            fock.ladder_exponential(4, c)


def test_interior_block_shape():
    assert fock.interior_dim(8) == 4
    assert fock.interior_dim(7) == 4
    m = np.arange(16.0).reshape(4, 4)
    assert np.array_equal(fock.interior_block(m), m[:2, :2])
