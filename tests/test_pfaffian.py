import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingring.pfaffian import PfaffianConditionWarning, _product, pfaffian_batch


def pfaffian(a):
    """Pfaffian of one matrix: the batch of one."""
    return pfaffian_batch(np.asarray(a)[None])[0]


def random_skew(rng, n, complex_entries=True):
    a = rng.normal(size=(n, n))
    if complex_entries:
        a = a + 1j * rng.normal(size=(n, n))
    return a - a.T


def pairing_sum(a):
    """Brute-force Pfaffian as the signed sum over perfect matchings.

    Sums sgn(p) * prod a[p(2i), p(2i+1)] over all pairings, the textbook
    definition; exponential cost, so only usable as an oracle for small n.
    """
    n = a.shape[0]
    total = 0.0 + 0j
    for perm in itertools.permutations(range(n)):
        if any(perm[2 * i] > perm[2 * i + 1] for i in range(n // 2)):
            continue
        if any(perm[2 * i] > perm[2 * i + 2] for i in range(n // 2 - 1)):
            continue
        sign = 1
        seen = list(perm)
        for i in range(n):  # parity via selection sort transpositions
            j = seen.index(i, i)
            if j != i:
                seen[i], seen[j] = seen[j], seen[i]
                sign = -sign
        term = sign
        for i in range(n // 2):
            term = term * a[perm[2 * i], perm[2 * i + 1]]
        total += term
    return total


def test_two_by_two():
    a = np.array([[0.0, 3.5], [-3.5, 0.0]])
    assert pfaffian(a) == pytest.approx(3.5)


def test_four_by_four_closed_form():
    # Pf = a f - b e + c d for the generic 4x4 skew matrix
    a, b, c, d, e, f = 1.2, -0.7, 0.3, 2.1, 0.9, -1.4
    m = np.array([
        [0, a, b, c],
        [-a, 0, d, e],
        [-b, -d, 0, f],
        [-c, -e, -f, 0],
    ])
    assert pfaffian(m) == pytest.approx(a * f - b * e + c * d)


def test_empty_matrix_is_one():
    assert pfaffian(np.zeros((0, 0))) == 1.0


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_matches_pairing_sum(n):
    rng = np.random.default_rng(n)
    a = random_skew(rng, n)
    ref = pairing_sum(a)
    assert pfaffian(a) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("n", [2, 4, 8, 12, 16, 20])
def test_square_equals_determinant(n):
    rng = np.random.default_rng(100 + n)
    a = random_skew(rng, n)
    assert pfaffian(a) ** 2 == pytest.approx(np.linalg.det(a), rel=1e-9)


def test_congruence_transform():
    # Pf(B m B^T) = det(B) Pf(m)
    rng = np.random.default_rng(7)
    m = random_skew(rng, 8)
    b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    lhs = pfaffian(b @ m @ b.T)
    rhs = np.linalg.det(b) * pfaffian(m)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_simultaneous_pair_swap_flips_sign():
    rng = np.random.default_rng(3)
    m = random_skew(rng, 6)
    swapped = m.copy()
    swapped[[1, 4], :] = swapped[[4, 1], :]
    swapped[:, [1, 4]] = swapped[:, [4, 1]]
    assert pfaffian(swapped) == pytest.approx(-pfaffian(m), rel=1e-12)


def test_direct_sum_multiplies():
    rng = np.random.default_rng(5)
    a, b = random_skew(rng, 4), random_skew(rng, 6)
    m = np.zeros((10, 10), dtype=complex)
    m[:4, :4] = a
    m[4:, 4:] = b
    assert pfaffian(m) == pytest.approx(pfaffian(a) * pfaffian(b), rel=1e-10)


def test_zero_column_gives_zero_silently():
    rng = np.random.default_rng(9)
    m = random_skew(rng, 6)
    m[:, 2] = 0.0
    m[2, :] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pfaffian(m) == 0.0


def test_underflow_pivot_warns():
    m = np.array([[0.0, 1e-305], [-1e-305, 0.0]])
    with pytest.warns(PfaffianConditionWarning):
        assert pfaffian(m) == 0.0


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 4, 6, 10]), seed=st.integers(0, 2**31))
def test_batch_matches_independent_references(n, seed):
    # neither reference shares code with the elimination: Pf^2 = det at
    # every size, and the pairing sum (sign included) where it is cheap
    rng = np.random.default_rng(seed)
    stack = np.array([random_skew(rng, n) for _ in range(5)])
    got = pfaffian_batch(stack)
    det = np.linalg.det(stack)
    np.testing.assert_allclose(got ** 2, det,
                               atol=1e-10 * max(np.abs(det).max(), 1.0))
    if n <= 6:
        ref = np.array([pairing_sum(m) for m in stack])
        np.testing.assert_allclose(got, ref,
                                   atol=1e-10 * max(np.abs(ref).max(), 1.0))


def test_batch_retires_singular_members():
    rng = np.random.default_rng(21)
    stack = np.array([random_skew(rng, 8) for _ in range(4)])
    stack[1] = 0.0
    stack[3, :, 5] = 0.0
    stack[3, 5, :] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pfaffian_batch(stack)
    assert got[1] == 0.0 and got[3] == 0.0
    assert got[0] == pytest.approx(pfaffian(stack[0]), rel=1e-10)
    assert got[2] == pytest.approx(pfaffian(stack[2]), rel=1e-10)


@pytest.mark.parametrize("n", [2, 4, 6, 10, 24])
def test_rhs_solves_the_system_with_the_same_pfaffian(n):
    rng = np.random.default_rng(n)
    stack = np.array([random_skew(rng, n) for _ in range(4)])
    if n > 2:
        stack[0, 0, 1] = stack[0, 1, 0] = 0.0     # forces a pivot swap at step 0
    rhs = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
    mant, expo, x = pfaffian_batch(stack, rhs)
    np.testing.assert_array_equal(mant * 2.0 ** expo, pfaffian_batch(stack))
    np.testing.assert_allclose(np.einsum("bij,bj->bi", stack, x), rhs, rtol=0, atol=1e-12)


def test_rhs_of_retired_member_is_zero():
    rng = np.random.default_rng(5)
    stack = np.array([random_skew(rng, 6), np.zeros((6, 6))])
    pf, _, x = pfaffian_batch(stack, np.ones((2, 6)))
    assert pf[1] == 0.0
    np.testing.assert_array_equal(x[1], 0.0)
    np.testing.assert_allclose(stack[0] @ x[0], np.ones(6), atol=1e-12)
    pf, _, x = pfaffian_batch(np.zeros((1, 4, 4)), np.ones((1, 4)))
    assert pf[0] == 0.0 and not x.any()


@pytest.mark.parametrize("with_rhs", [False, True])
def test_exponent_is_carried_past_double_range(with_rhs):
    # 2x2 blocks 1e200, 1e200, 1e-200, 1e-200: Pf = 1, while the running
    # product of pivots passes 1e400 on the way
    scales = [1e200, 1e200, 1e-200, 1e-200]
    stack = np.zeros((1, 8, 8), dtype=complex)
    for i, a in enumerate(scales):
        stack[0, 2 * i, 2 * i + 1], stack[0, 2 * i + 1, 2 * i] = a, -a
    if not with_rhs:
        assert pfaffian_batch(stack)[0] == pytest.approx(1.0, rel=1e-15)
        return
    rhs = np.arange(1.0, 9.0)[None] * (1.0 + 0.5j)
    mant, expo, x = pfaffian_batch(stack, rhs)
    assert mant[0] * 2.0 ** expo[0] == pytest.approx(1.0, rel=1e-15)
    np.testing.assert_allclose(np.einsum("bij,bj->bi", stack, x), rhs, rtol=1e-15)


def test_out_of_range_pfaffian_saturates_instead_of_nan():
    stack = np.zeros((1, 8, 8))
    for i in range(4):
        stack[0, 2 * i, 2 * i + 1], stack[0, 2 * i + 1, 2 * i] = 1e200, -1e200
    assert pfaffian_batch(stack)[0] == np.inf
    assert pfaffian_batch(1.0 / np.where(stack, stack, np.inf))[0] == 0.0


def test_product_of_no_factors_is_one():
    mant, expo = _product(np.ones((3, 0), dtype=complex))
    np.testing.assert_array_equal(mant, 1.0)
    np.testing.assert_array_equal(expo, 0)


def test_product_carries_the_exponent_and_the_exact_phase():
    # 1500 factors of 2^-700 e^(i theta): 2^-1050000 is far below double range
    theta = 0.3
    mant, expo = _product(np.full(1500, np.exp(1j * theta) * 2.0 ** -700))
    assert 0.5 <= abs(mant) < 1.0
    assert expo in (-1050000, -1049999)
    assert mant * 2.0 ** (expo + 1050000) == pytest.approx(np.exp(1500j * theta), rel=1e-12)


def test_product_matches_numpy_within_range():
    # 1100 factors per row: three 512-factor groups, the last one partial
    rng = np.random.default_rng(11)
    z = np.exp(rng.uniform(-0.7, 0.7, (3, 1100)) + 1j * rng.uniform(-np.pi, np.pi, (3, 1100)))
    mant, expo = _product(z)
    np.testing.assert_allclose(mant * 2.0 ** expo, np.prod(z, axis=-1), rtol=1e-12)


def test_rhs_shape_must_match_the_stack():
    with pytest.raises(ValueError, match="rhs"):
        pfaffian_batch(np.zeros((2, 4, 4)), np.zeros((2, 3)))
    pf, expo, x = pfaffian_batch(np.zeros((3, 0, 0)), np.zeros((3, 0)))
    assert x.shape == (3, 0) and np.all(pf == 1.0) and not expo.any()


def test_batch_degenerate_shapes():
    np.testing.assert_array_equal(pfaffian_batch(np.zeros((3, 0, 0))), np.ones(3))
    assert pfaffian_batch(np.zeros((0, 4, 4))).size == 0


def test_batch_rejects_bad_shapes():
    with pytest.raises(ValueError):
        pfaffian_batch(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        pfaffian_batch(np.zeros((2, 3, 3)))


def test_rejects_odd_dimension():
    with pytest.raises(ValueError, match="even"):
        pfaffian(np.zeros((3, 3)))


class TestSkewMatrix:
    """Shapes a stack of skew-symmetric matrices must have."""

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="stack"):
            pfaffian_batch(np.zeros((1, 2, 3)))

    def test_rejects_odd_dim(self):
        with pytest.raises(ValueError, match="even"):
            pfaffian_batch(np.zeros((2, 3, 3)))


# Panel boundaries: the elimination delays its rank-2 updates over
# PANEL_STEPS pivot steps (2 * PANEL_STEPS columns) and applies them to the
# trailing block at each panel's end, so sizes around 32 and 64 columns
# exercise the first and second flush.
PANEL_SIZES = [30, 32, 34, 64, 66, 98]


def paired_skew(rng, n, size=3):
    """Random skew stack whose (2i, 2i+1) entries dominate, so every pivot
    stays in place unless a test plants a larger entry."""
    stack = 0.01 * np.array([random_skew(rng, n) for _ in range(size)])
    for i in range(0, n, 2):
        stack[:, i, i + 1] += 10.0
        stack[:, i + 1, i] -= 10.0
    return stack


def solve(stack, rhs):
    """(Pfaffian, x) of pfaffian_batch with a right-hand side."""
    mant, expo, x = pfaffian_batch(stack, rhs)
    return mant * 2.0 ** expo, x


def assert_pf_squared_is_det(pf, stack):
    sign, logdet = np.linalg.slogdet(stack)
    np.testing.assert_allclose(pf ** 2, sign * np.exp(logdet), rtol=1e-11)


@pytest.mark.parametrize("n", PANEL_SIZES)
@pytest.mark.parametrize("with_rhs", [False, True])
def test_panel_sizes_match_determinant_and_solve(n, with_rhs):
    rng = np.random.default_rng(200 + n)
    stack = np.array([random_skew(rng, n) for _ in range(3)])
    stack[0, 0, 1] = stack[0, 1, 0] = 0.0     # forces a pivot swap at step 0
    if not with_rhs:
        assert_pf_squared_is_det(pfaffian_batch(stack), stack)
        return
    rhs = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    pf, x = solve(stack, rhs)
    assert_pf_squared_is_det(pf, stack)
    np.testing.assert_allclose(np.einsum("bij,bj->bi", stack, x), rhs, rtol=0, atol=1e-11)


@pytest.mark.parametrize("n", [34, 64, 66, 98])
def test_pivot_row_beyond_the_panel(n):
    # step 0 must fetch row n-1 (past the first panel); from n = 66 on,
    # step 34 must fetch row n-2 (past the second).  Moving those rows in
    # place by hand is a product of transpositions, so the Pfaffian only
    # changes sign with each and x is permuted along.
    rng = np.random.default_rng(n)
    stack = paired_skew(rng, n)
    swaps = [(1, n - 1)] + ([(35, n - 2)] if n >= 66 else [])
    for k, far in swaps:
        stack[:, far, k - 1] = 100.0
        stack[:, k - 1, far] = -100.0
    rhs = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    pf, x = solve(stack, rhs)
    perm = np.arange(n)
    for k, far in swaps:
        perm[[k, far]] = perm[[far, k]]
    in_place, y = solve(stack[:, perm][:, :, perm], rhs[:, perm])
    np.testing.assert_allclose(pf, (-1) ** len(swaps) * in_place, rtol=1e-12)
    np.testing.assert_allclose(x[:, perm], y, rtol=0, atol=1e-12)
    assert_pf_squared_is_det(pf, stack)
    np.testing.assert_allclose(np.einsum("bij,bj->bi", stack, x), rhs, rtol=0, atol=1e-11)


def test_member_retired_in_the_second_panel():
    # a zero row and column at index 40 leave column 40 empty at step 40,
    # inside the second panel (columns 32-63)
    rng = np.random.default_rng(66)
    stack = paired_skew(rng, 66)
    stack[1, 40, :] = stack[1, :, 40] = 0.0
    rhs = rng.normal(size=(3, 66)) + 1j * rng.normal(size=(3, 66))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pf, x = solve(stack, rhs)
    assert pf[1] == 0.0 and not x[1].any()
    for i in (0, 2):
        alone, y = solve(stack[i:i + 1], rhs[i:i + 1])
        np.testing.assert_array_equal(pf[i], alone[0])
        np.testing.assert_array_equal(x[i], y[0])
    assert_pf_squared_is_det(pf[[0, 2]], stack[[0, 2]])


def test_guard_warning_in_the_second_panel():
    # row and column 40 scaled by 1e-305: step 40's pivot column is
    # nonzero but below PIVOT_GUARD
    rng = np.random.default_rng(67)
    stack = paired_skew(rng, 66)
    stack[1, 40, :] *= 1e-305
    stack[1, :, 40] *= 1e-305
    with pytest.warns(PfaffianConditionWarning):
        got = pfaffian_batch(stack)
    assert got[1] == 0.0
    np.testing.assert_array_equal(got[[0, 2]], pfaffian_batch(stack[[0, 2]]))


@pytest.mark.parametrize("n", PANEL_SIZES)
def test_panel_sizes_are_bitwise_reproducible(n):
    # the rhs border and the batch size never touch the bits of the result
    rng = np.random.default_rng(300 + n)
    stack = np.array([random_skew(rng, n) for _ in range(4)])
    rhs = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
    pf, x = solve(stack, rhs)
    np.testing.assert_array_equal(pf, pfaffian_batch(stack))
    for i in range(4):
        alone, y = solve(stack[i:i + 1], rhs[i:i + 1])
        np.testing.assert_array_equal(pf[i], alone[0])
        np.testing.assert_array_equal(x[i], y[0])
        np.testing.assert_array_equal(pfaffian_batch(stack[i:i + 1])[0], pf[i])
