import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heconet.config import DEFAULT_TOLERANCES
from heconet.leontief import (NonProductiveEconomyError, SingularSystemError, SquareEio,
                              coefficients_from_flows, leontief_inverse,
                              solve, spectral_radius)

from conftest import ECONOMY_M_MINUS, ECONOMY_Y
from oracles import eig_radius, neumann_output


def test_coefficients_one_sector():
    a = coefficients_from_flows(np.array([[2.0]]), np.array([4.0]))
    assert np.array_equal(a, [[0.5]])


def test_coefficients_reject_nonpositive_output():
    with pytest.raises(ValueError, match="sector 1"):
        coefficients_from_flows(np.ones((2, 2)), np.array([3.0, 0.0]))
    with pytest.raises(ValueError):
        coefficients_from_flows(np.ones((1, 1)), np.array([-2.0]))


def test_spectral_radius_against_eigenvalues():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = rng.integers(1, 6)
        a = rng.random((n, n)) * rng.random()
        assert spectral_radius(a) == pytest.approx(eig_radius(a), abs=1e-8)


def test_spectral_radius_periodic_structure():
    # permutation-like matrix: eigenvalues +-0.9 of equal modulus
    a = np.array([[0.0, 0.9], [0.9, 0.0]])
    assert spectral_radius(a) == pytest.approx(0.9, abs=1e-9)
    assert spectral_radius(np.zeros((0, 0))) == 0.0


def test_spectral_radius_of_block_triangular_matrices():
    # Every diagonal block is positive with rows summing to its radius,
    # so the radius of the whole is the largest block radius by
    # construction.  The blocks come within 1e-6 of each other and are
    # coupled above the diagonal, where the eigenvalues of the whole
    # matrix are ill-conditioned.
    rng = np.random.default_rng(49)
    for _ in range(50):
        sizes = rng.integers(1, 16, size=int(rng.integers(2, 5)))
        radii = 1.0 - rng.uniform(0.0, 1e-6, size=sizes.size)
        n = int(sizes.sum())
        a = np.triu(rng.random((n, n)) * rng.uniform(0.0, 0.5))
        for start, size, radius in zip(np.cumsum(sizes) - sizes, sizes, radii):
            block = rng.uniform(0.1, 1.0, size=(size, size))
            a[start:start + size, start:start + size] = \
                block * (radius / block.sum(axis=1, keepdims=True))
        order = rng.permutation(n)
        a = a[np.ix_(order, order)]
        assert spectral_radius(a) == pytest.approx(radii.max(), abs=1e-9)
        assert eig_radius(a) == pytest.approx(radii.max(), abs=1e-9)
    with pytest.raises(NonProductiveEconomyError) as err:
        leontief_inverse(a * (1.0 + 2e-6))
    assert err.value.radius == pytest.approx(radii.max() * (1.0 + 2e-6), abs=1e-9)


def test_inverse_identity_for_zero_coefficients():
    assert np.allclose(leontief_inverse(np.zeros((3, 3))), np.eye(3))


def test_inverse_known_two_sector():
    a = np.array([[0.2, 0.3], [0.4, 0.1]])
    b = leontief_inverse(a)
    assert np.allclose(b @ (np.eye(2) - a), np.eye(2), atol=1e-12)
    assert np.all(b >= 0)


def test_nonproductive_rejected():
    with pytest.raises(NonProductiveEconomyError) as err:
        leontief_inverse(np.array([[1.0]]))
    assert err.value.radius >= 1.0
    with pytest.raises(NonProductiveEconomyError):
        leontief_inverse(np.array([[0.5, 0.6], [0.6, 0.5]]))


def test_periodic_economy_decided_exactly():
    # a two-cycle: every eigenvalue has the largest modulus
    b = leontief_inverse(np.array([[0.0, 0.9], [0.9, 0.0]]))
    assert np.allclose(b, np.array([[1.0, 0.9], [0.9, 1.0]]) / 0.19, atol=1e-12)
    with pytest.raises(NonProductiveEconomyError) as err:
        leontief_inverse(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert err.value.radius == pytest.approx(1.0, abs=1e-12)


def test_empty_economy_is_productive():
    assert leontief_inverse(np.zeros((0, 0))).shape == (0, 0)
    x, phi = solve(SquareEio(a=np.zeros((0, 0)), f=np.zeros((1, 0))), np.zeros(0))
    assert x.shape == (0,) and np.array_equal(phi, [0.0])


def block_economy(corner):
    """A productive 30-sector block beside one sector of coefficient ``corner``."""
    a = np.zeros((31, 31))
    a[:30, :30] = 0.999 / 30
    a[30, 30] = corner
    return a


def test_block_economy_beyond_one_is_rejected():
    # rho = 1.000001 sits in one sector beside a 30-sector block of
    # radius 0.999, so the two leading eigenvalues nearly coincide
    a = block_economy(1.000001)
    with pytest.raises(NonProductiveEconomyError, match="spectral radius 1.000001 >="):
        leontief_inverse(a)
    with pytest.raises(NonProductiveEconomyError):
        solve(SquareEio(a=a, f=np.ones((1, 31))), np.ones(31))
    assert leontief_inverse(block_economy(0.999999))[30, 30] == pytest.approx(1e6, rel=1e-9)


def test_rejection_report_names_the_threshold():
    threshold = 1.0 - DEFAULT_TOLERANCES.productive_margin
    assert str(NonProductiveEconomyError(1.25, threshold)) == \
        "economy is not productive: spectral radius 1.25 >= 0.999999999"
    # a reported radius that rounds below the threshold is not claimed
    # to reach it
    assert str(NonProductiveEconomyError(0.9999999985, threshold)) == \
        "economy is not productive: spectral radius is not below 0.999999999 " \
        "(eigenvalues give 0.9999999985)"
    with pytest.raises(NonProductiveEconomyError) as err:
        leontief_inverse(np.array([[1.0 - 5e-10]]))
    assert err.value.threshold == threshold


def test_residual_checks_raise_singular_system_error():
    # round-off leaves residuals of about 1e-16 here, far above 1e-300
    tol = DEFAULT_TOLERANCES.replace(inverse_residual=1e-300)
    a = np.array([[0.2, 0.3], [0.4, 0.1]])
    with pytest.raises(SingularSystemError, match="inverse residual .* exceeds 1.000e-300"):
        leontief_inverse(a, tol)
    # the solve's bound is inverse_residual (1 + max|y|) = 8e-300
    with pytest.raises(SingularSystemError, match="solve residual .* exceeds 8.000e-300"):
        solve(SquareEio(a=a, f=np.ones((1, 2))), [3.0, 7.0], tol)


def test_productivity_margin_boundary():
    with pytest.raises(NonProductiveEconomyError):
        leontief_inverse(np.array([[1.0 - 5e-10]]))
    b = leontief_inverse(np.array([[1.0 - 1e-6]]))
    assert b[0, 0] == pytest.approx(1e6, rel=1e-6)


def test_solve_passthrough_economy():
    eio = SquareEio(a=np.zeros((3, 3)), f=np.eye(3))
    y = np.array([1.0, 2.0, 3.0])
    x, phi = solve(eio, y)
    assert np.allclose(x, y)
    assert np.allclose(phi, y)


def test_solve_three_sector_collapse():
    # one-technology-per-sector economy: columns 1, 2, 4 of the
    # six-technology coefficient block
    cols = [0, 1, 3]
    a = ECONOMY_M_MINUS[:3][:, cols]
    f = ECONOMY_M_MINUS[3:][:, cols]
    eio = SquareEio(a=a, f=f, labels=("man", "cons", "ag"),
                    factor_labels=("capital", "water"))
    x, phi = solve(eio, ECONOMY_Y)
    b = leontief_inverse(a)
    assert np.allclose(x, b @ ECONOMY_Y, atol=1e-10)
    assert np.allclose(x, neumann_output(a, ECONOMY_Y), atol=1e-8)
    assert np.allclose(phi, f @ x, atol=1e-12)


def test_solve_validates_demand():
    eio = SquareEio(a=np.zeros((2, 2)), f=np.ones((1, 2)))
    with pytest.raises(ValueError):
        solve(eio, np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        solve(eio, np.array([1.0, 2.0, 3.0]))


def test_square_eio_validation():
    with pytest.raises(ValueError):
        SquareEio(a=np.zeros((2, 3)), f=np.zeros((1, 2)))
    with pytest.raises(ValueError):
        SquareEio(a=np.full((1, 1), -0.1), f=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        SquareEio(a=np.zeros((2, 2)), f=np.zeros((1, 3)))
    with pytest.raises(ValueError):
        SquareEio(a=np.zeros((2, 2)), f=np.zeros((1, 2)), labels=("only-one",))


def test_square_eio_defaults_and_readonly():
    eio = SquareEio(a=np.zeros((2, 2)), f=np.zeros((1, 2)))
    assert eio.labels == ("s1", "s2")
    assert eio.factor_labels == ("f1",)
    with pytest.raises(ValueError):
        eio.a[0, 0] = 1.0


def test_caller_array_not_mutated():
    a = np.zeros((2, 2))
    SquareEio(a=a, f=np.zeros((1, 2)))
    a[0, 0] = 0.5         # must stay writable: constructor copies
    assert a[0, 0] == 0.5


@given(st.integers(1, 4), st.floats(0.05, 0.85), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_solve_matches_series_on_random_productive(n, target, seed):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n))
    rho = eig_radius(a)
    if rho > 0:
        a *= target / rho
    y = rng.random(n) * 5
    eio = SquareEio(a=a, f=np.ones((1, n)))
    x, phi = solve(eio, y)
    assert np.allclose(x, neumann_output(a, y, terms=2000), atol=1e-6)
    assert phi[0] == pytest.approx(float(np.sum(x)), abs=1e-9)


def dense_draw(rng):
    n = int(rng.integers(1, 13))
    return rng.random((n, n))


def sparse_draw(rng):
    n = int(rng.integers(2, 21))
    return rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.05, 0.4))


def periodic_draw(rng):
    # a weighted cycle through every sector in a random order
    n = int(rng.integers(2, 21))
    order = rng.permutation(n)
    a = np.zeros((n, n))
    a[order, np.roll(order, -1)] = rng.uniform(0.5, 1.5, n)
    return a


def reducible_draw(rng):
    # block upper triangular, with symmetrically permuted sectors; one
    # diagonal block has the largest radius and the others come within
    # 1e-5 to 1e-1 of it
    sizes = rng.integers(1, 16, size=int(rng.integers(2, 4)))
    radii = 1.0 - 10.0 ** rng.uniform(-5, -1, size=len(sizes))
    radii[rng.integers(len(sizes))] = 1.0
    n = int(sizes.sum())
    a = np.triu(rng.random((n, n)) * rng.uniform(0.0, 0.2))
    for start, size, radius in zip(np.cumsum(sizes) - sizes, sizes, radii):
        block = rng.random((size, size))
        a[start:start + size, start:start + size] = block * (radius / eig_radius(block))
    order = rng.permutation(n)
    return a[np.ix_(order, order)]


def test_productivity_decision_matches_eigenvalues_near_one(record_property):
    # every draw is scaled to a radius within 1e-6 of 1, where the margin
    # 1 - m lies; the verdict must be the eigenvalues' on each of them
    threshold = 1.0 - DEFAULT_TOLERANCES.productive_margin
    rng = np.random.default_rng(2026)
    draws = skipped = 0
    wrong = []
    for draw in (dense_draw, sparse_draw, periodic_draw, reducible_draw):
        for _ in range(600):
            a = draw(rng)
            rho = eig_radius(a)
            if rho == 0:
                continue
            a *= (1.0 + rng.uniform(-1e-6, 1e-6)) / rho
            rho = eig_radius(a)
            draws += 1
            if abs(rho - threshold) < 1e-9:
                skipped += 1
                continue
            try:
                leontief_inverse(a)
                accepted = True
            except SingularSystemError:
                # the residual check may refuse a nearly singular I - a;
                # the decision itself accepted the economy
                accepted = True
            except NonProductiveEconomyError:
                accepted = False
            if accepted != (rho < threshold):
                wrong.append((draw.__name__, a.shape[0], rho))
    record_property("near_margin_skipped", skipped)
    assert draws >= 2000 and skipped <= draws // 100, (draws, skipped)
    assert not wrong, f"{len(wrong)} of {draws} verdicts wrong ({skipped} skipped): {wrong[:5]}"
