import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordercones import hermitian
from ordercones.errors import DimensionMismatch, DomainError, InvalidInput, NotHermitian
from ordercones.hermitian import (
    CLUSTER_TOL,
    HermitianMatrix,
    _abs2,
    _pauli_parts,
    classify,
    func_calc,
    lattice_ops,
    matrix_abs_many,
    nonnegative_sqrt,
    projection_decomposition,
    projection_decomposition_many,
    spectral,
)

S0 = np.eye(2, dtype=complex)
S1 = np.array([[0, 1], [1, 0]], dtype=complex)
S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
S3 = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return HermitianMatrix((m + m.conj().T) / 2)


def test_construction_symmetrizes_tiny_noise():
    a = HermitianMatrix([[1.0, 0.5 + 1e-14j], [0.5, 2.0]])
    assert np.allclose(a.mat, a.mat.conj().T)


def test_construction_keeps_the_largest_finite_entries_finite():
    a = HermitianMatrix([[1e308, 0], [0, -1e308]])
    assert np.isfinite(a.mat).all()
    assert a.mat.tolist() == [[1e308, 0], [0, -1e308]]
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = m + 1e-13 * rng.normal(size=(2, 2)) + m.conj().T
        assert HermitianMatrix(m).mat.tobytes() == ((m + m.conj().T) / 2.0).tobytes()


@pytest.mark.parametrize(
    "op",
    [
        lambda: HermitianMatrix([[1e308, 0], [0, 0]]) - HermitianMatrix([[-1e308, 0], [0, 0]]),
        lambda: HermitianMatrix([[1e308, 0], [0, 0]]) + [[1e308, 0], [0, 0]],
        lambda: 10.0 * HermitianMatrix([[0, 1e308], [1e308, 0]]),
        lambda: math.inf * HermitianMatrix([[1, 0], [0, 0]]),
    ],
    ids=["sub", "add", "rmul", "rmul-inf"],
)
def test_arithmetic_past_the_largest_float_is_invalid_input_without_a_warning(op):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput):
            op()


def test_construction_rejects_far_from_hermitian():
    with pytest.raises(NotHermitian):
        HermitianMatrix([[0, 1], [0, 0]])


def test_spectral_diagonal_sorted_ascending():
    dec = spectral(HermitianMatrix.diag([2, 1]))
    assert dec.eigenvalues.tolist() == [1.0, 2.0]


def test_spectral_sigma1_matches_characteristic_polynomial():
    # oracle: roots of t^2 - tr t + det for the 2x2 case
    tr = float(np.trace(S1).real)
    det = float(np.linalg.det(S1).real)
    disc = np.sqrt(tr * tr - 4 * det)
    roots = sorted([(tr - disc) / 2, (tr + disc) / 2])
    dec = spectral(HermitianMatrix(S1))
    assert np.allclose(dec.eigenvalues, roots, atol=1e-12)


def test_spectral_identity_degenerate():
    dec = spectral(HermitianMatrix(S0))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0])
    assert np.allclose(dec.eigenvectors @ dec.eigenvectors.conj().T, np.eye(2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_spectral_reconstruction_and_orthonormality(n):
    rng = np.random.default_rng(n)
    for _ in range(50):
        a = random_hermitian(rng, n)
        dec = spectral(a)
        assert np.all(np.diff(dec.eigenvalues) >= -1e-12)
        assert np.max(np.abs(dec.reconstruct() - a.mat)) <= 1e-9
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-9


def test_func_calc_identity_returns_input():
    rng = np.random.default_rng(1)
    a = random_hermitian(rng, 3)
    assert func_calc(a, lambda x: x).allclose(a, tol=1e-9)


def test_abs_of_sigma3_is_identity():
    assert func_calc(HermitianMatrix(S3), abs).allclose(S0, tol=1e-12)


def test_sqrt_of_scaled_identity():
    assert func_calc(HermitianMatrix(4 * S0), nonnegative_sqrt).allclose(2 * S0, tol=1e-12)


def test_abs_of_sigma3_minus_sigma1():
    # oracle: (S3 - S1)^2 = 2 I, so the positive square root is sqrt(2) I
    d = S3 - S1
    assert np.allclose(d @ d, 2 * S0)
    assert func_calc(HermitianMatrix(d), abs).allclose(np.sqrt(2) * S0, tol=1e-12)


def test_sqrt_rejects_negative_spectrum():
    with pytest.raises(DomainError):
        func_calc(HermitianMatrix.diag([-1.0, 1.0]), nonnegative_sqrt)


def test_lattice_ops_commuting_componentwise():
    join, meet = lattice_ops(HermitianMatrix.diag([3, 0]), HermitianMatrix.diag([1, 2]))
    assert join.allclose(np.diag([3.0, 2.0]), tol=1e-12)
    assert meet.allclose(np.diag([1.0, 0.0]), tol=1e-12)


def test_lattice_ops_pauli_closed_form():
    join, _ = lattice_ops(HermitianMatrix(S3), HermitianMatrix(S1))
    assert join.allclose((S3 + S1) / 2 + (np.sqrt(2) / 2) * S0, tol=1e-12)


def _abs_closed_form(d: np.ndarray) -> np.ndarray:
    """|d| of a self-adjoint 2x2 d on Python floats: h*1 + k*(d - t*1), with t the halved trace,
    r the traceless length, h = max(|t|, r) and k = clip(t / r, -1, 1), or sign(t) at r = 0."""
    t, v3 = (d[0, 0].real + d[1, 1].real) / 2.0, (d[0, 0].real - d[1, 1].real) / 2.0
    v1, v2 = d[1, 0].real, d[1, 0].imag
    r = math.sqrt(v1 * v1 + v2 * v2 + v3 * v3)
    k = min(max(t / r, -1.0), 1.0) if r else math.copysign(1.0, t) if t else 0.0
    off = complex(k * d[0, 1].real, k * d[0, 1].imag)
    return np.array([[max(abs(t), r) + k * v3, off], [off.conjugate(), max(abs(t), r) - k * v3]])


@pytest.mark.parametrize("gap", [0.0, 0.5e-10, 1.5e-10, 3e-10, 1.0])
@pytest.mark.parametrize("n", [2, 3])
def test_lattice_ops_equals_the_unhalved_pair_bit_for_bit(n, gap):
    # Around the cluster tolerance too: a - b with eigenvalues gap apart.  At
    # 2x2 |a - b| is the closed form, at 3x3 the functional calculus.
    rng = np.random.default_rng(n)
    for _ in range(30):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        b = random_hermitian(rng, n)
        a = HermitianMatrix(b.mat + (q * (rng.normal() + gap * np.arange(n))) @ q.conj().T)
        gap_abs = _abs_closed_form(a.mat - b.mat) if n == 2 else func_calc(a - b, abs).mat
        mid, half_gap = (a.mat + b.mat) / 2.0, gap_abs / 2.0
        join, meet = lattice_ops(a, b)
        assert np.array_equal(join.mat, HermitianMatrix(mid + half_gap).mat)
        assert np.array_equal(meet.mat, HermitianMatrix(mid - half_gap).mat)


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_pauli_parts_halve_each_diagonal_bit_for_bit(scale):
    mats = np.array([random_hermitian(np.random.default_rng(k), 2).mat for k in range(200)]) * scale
    a, d = mats[:, 0, 0].real, mats[:, 1, 1].real
    for parts in (_pauli_parts(mats), np.array([_pauli_parts(m) for m in mats]).T):
        assert np.array_equal(parts[0], (a + d) / 2.0) and np.array_equal(parts[3], (a - d) / 2.0)


def test_join_with_self_is_self():
    rng = np.random.default_rng(2)
    a = random_hermitian(rng, 2)
    join, meet = lattice_ops(a, a)
    assert join.allclose(a, tol=1e-12) and meet.allclose(a, tol=1e-12)


def test_lattice_ops_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lattice_ops(HermitianMatrix.diag([1, 2]), HermitianMatrix.diag([1, 2, 3]))


def _lattice_stacks(seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Two (count, 2, 2) stacks of generic, scalar, equal-pair and commuting rows, each matrix
    at its own power-of-two scale 2**k, k in [-60, 60]."""
    rng = np.random.default_rng(seed)
    a = np.array([random_hermitian(rng, 2).mat for _ in range(count)])
    b = np.array([random_hermitian(rng, 2).mat for _ in range(count)])
    a[0::5] = np.diag(rng.normal(size=2))  # a commuting pair
    b[0::5] = np.diag(rng.normal(size=2))
    a[1::5] = rng.normal() * S0  # a scalar a
    b[2::5] = a[2::5]  # an equal pair, then at another scale: comparable
    scale = np.ldexp(1.0, rng.integers(-60, 61, size=(2, count)))[..., None, None]
    return a * scale[0], b * scale[1]


def test_lattice_ops_of_stacks_are_the_one_pair_results_bit_for_bit():
    a, b = _lattice_stacks(11, 200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        join, meet = lattice_ops(a, b)
        for i in range(len(a)):
            one_join, one_meet = lattice_ops(a[i], b[i])
            assert join[i].tobytes() == one_join.mat.tobytes() and meet[i].tobytes() == one_meet.mat.tobytes()


def _reading_bits(x: HermitianMatrix) -> tuple[bytes, bytes, bytes]:
    m, s = x._scaled
    return m.tobytes(), np.float64(s).tobytes(), x.mat.tobytes()


def test_library_made_results_read_as_the_constructor_reads_them():
    # The one-pair join and meet and the spectral projections skip the
    # constructor's checks, but not its reading: the same m, s and mat bits.
    a, b = _lattice_stacks(12, 300)
    a[3::7] = [[1.0, -0.0], [0.0, -0.0]]  # signed zeros
    b[4::7] = [[-0.0, 0.5 - 0.0j], [0.5 + 0.0j, -0.0]]
    near = np.array([[1e308, 0.0], [0.0, -1e308]]), np.array([[-1e308, 0.5e308], [0.5e308, 1e308]])
    pairs = list(zip(a, b)) + [near, near[::-1], (0.8e308 * S1, -0.8e308 * S2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, y in pairs:
            results = list(lattice_ops(HermitianMatrix(x), HermitianMatrix(y)))
            pos = x @ x.conj().T if np.abs(x).max() < 1e150 else np.abs(x).max() * np.array([[1.0, 0.5j], [-0.5j, 0.25]])
            results += [proj for _, proj in projection_decomposition(HermitianMatrix(pos))]
            for r in results:
                assert _reading_bits(r) == _reading_bits(HermitianMatrix(r.mat))


def test_lattice_ops_of_two_prebuilt_matrices_reads_no_input(monkeypatch):
    a, b = HermitianMatrix([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -3.0]]), HermitianMatrix([[0.5, 1.0j], [-1.0j, 2.0]])
    want = [x.mat.tobytes() for x in lattice_ops(a, b)]

    def refuse(*args, **kwargs):
        raise AssertionError("a prebuilt matrix was read again")

    monkeypatch.setattr(hermitian, "_read_matrix", refuse)
    assert [x.mat.tobytes() for x in lattice_ops(a, b)] == want


def test_lattice_ops_of_empty_stacks_are_empty():
    join, meet = lattice_ops(np.zeros((0, 2, 2)), np.zeros((0, 2, 2)))
    assert join.shape == meet.shape == (0, 2, 2)


@pytest.mark.parametrize(
    "a, b, error",
    [
        (np.zeros((3, 2, 3)), np.zeros((3, 2, 3)), DimensionMismatch),
        (np.zeros((3, 3, 3)), np.zeros((3, 3, 3)), DimensionMismatch),
        (np.zeros((3, 2, 2)), np.zeros((4, 2, 2)), DimensionMismatch),
        (np.zeros((3, 2, 2)), np.zeros((2, 2)), DimensionMismatch),
        (np.array([S0, [[np.nan, 0], [0, 0]], S1]), np.zeros((3, 2, 2)), InvalidInput),
        (np.zeros((3, 2, 2)), np.array([S0, S1, [[0, 1], [0, 0]]]), NotHermitian),
        (np.array([S0, 1.5e308 * (S1 + S3)]), np.array([S0, -1.5e308 * (S1 + S3)]), DomainError),
    ],
    ids=["non-square", "3x3", "mismatched", "stack-and-one", "nan", "non-hermitian", "past-the-largest-float"],
)
def test_lattice_ops_refuse_a_bad_stack(a, b, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            lattice_ops(a, b)


def _same(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


_FOLD_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, -2.5, 5e-324, -5e-324, 1e308]


@pytest.mark.parametrize("k", [*range(1, 9), 9, 64])  # folded up to 8, the row reduction past it
def test_fold_has_the_bits_of_the_row_reduction(k):
    rng = np.random.default_rng(40 + k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shape in ((0, k), (1, k), (2000, k), (3, 5, k), (2, 0, k), (2, 3, 4, k)):
            a = rng.choice(_FOLD_VALUES, size=shape)
            assert _same(hermitian._fold(np.minimum, a), a.min(axis=-1))
            assert _same(hermitian._fold(np.maximum, a), a.max(axis=-1))
            if k <= 8:  # the fold's bits do not depend on the layout; the row reduction's may, at signed zeros
                assert _same(hermitian._fold(np.minimum, np.asfortranarray(a)), a.min(axis=-1))
        for _ in range(50):
            row = rng.choice(_FOLD_VALUES, size=k)
            assert _same(hermitian._fold(np.minimum, row), row.min())
            assert _same(hermitian._fold(np.maximum, row), row.max())


def test_stack_scale_is_the_largest_part_of_each_matrix():
    # The stack branch of _read_matrix folds each 2x2 matrix's parts row by row, then
    # its two rows; the whole-matrix reduction it replaced is the reference, bit for bit.
    rng = np.random.default_rng(40)
    finite = [0.0, -0.0, 1.0, -2.5, 0.75, 5e-324, -5e-324, 1e-300, 1e308, -1e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shape in ((0, 2, 2), (1, 2, 2), (3000, 2, 2), (4, 5, 2, 2)):
            a = rng.choice(finite, size=shape) + 1j * rng.choice(finite, size=shape)
            parts = a.view(float)
            big = np.abs(parts).max(axis=(-2, -1), keepdims=True, initial=0.0)
            assert _same(hermitian._fold(np.maximum, hermitian._fold(np.maximum, np.abs(parts)))[..., None, None], big)
            m, s = hermitian._read_matrix(a)
            assert _same(s, hermitian._scale(big))
            assert _same(m, hermitian._times(a, 1.0 / hermitian._scale(big)))
            for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, -np.inf)):
                if not a.size:
                    continue
                b = a.copy()
                b.reshape(-1)[rng.integers(b.size)] = bad
                with pytest.raises(InvalidInput, match="finite"):
                    hermitian._read_matrix(b)
                with pytest.raises(InvalidInput, match="finite"):
                    hermitian._read_matrix(b, hermitian=True)


def test_closed_form_abs_is_positive_with_the_square_of_its_matrix():
    a, b = _lattice_stacks(12, 500)
    d = np.concatenate([a - b, a, np.zeros((1, 2, 2))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _abs2(d)
        for row, one in zip(d, got):
            assert one.tobytes() == _abs2(row).tobytes()
    s = np.abs(d.view(float)).max(axis=(1, 2))
    assert (np.linalg.eigvalsh(got)[:, 0] >= -1e-15 * s).all()
    assert (np.abs(got @ got - d @ d).max(axis=(1, 2)) <= 1e-14 * s * s).all()


def test_join_plus_meet_equals_sum():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)
        join, meet = lattice_ops(a, b)
        assert np.max(np.abs((join.mat + meet.mat) - (a.mat + b.mat))) <= 1e-12


def test_symmetry_and_shift_covariance():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)
        k = float(rng.normal())
        jab, mab = lattice_ops(a, b)
        jba, mba = lattice_ops(b, a)
        assert jab.allclose(jba, tol=1e-12) and mab.allclose(mba, tol=1e-12)
        jsh, msh = lattice_ops(a + k * S0, b + k * S0)
        assert jsh.allclose(jab.mat + k * S0, tol=1e-9)
        assert msh.allclose(mab.mat + k * S0, tol=1e-9)


def test_commuting_pair_matches_pointwise_extremes():
    # diagonal in a common basis: the pair acts componentwise on joint
    # eigenvalues, matching the pointwise join/meet of the function side
    # through the diagonal embedding
    from ordercones.isotone_cone import Generator, Join, Meet, eval_expr

    rng = np.random.default_rng(5)
    for _ in range(30):
        da = rng.normal(size=3)
        db = rng.normal(size=3)
        pointwise_max = eval_expr(Join(Generator(0), Generator(1)), [da, db])
        pointwise_min = eval_expr(Meet(Generator(0), Generator(1)), [da, db])
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        a = HermitianMatrix(q @ np.diag(da) @ q.conj().T)
        b = HermitianMatrix(q @ np.diag(db) @ q.conj().T)
        join, meet = lattice_ops(a, b)
        assert join.allclose(q @ np.diag(pointwise_max) @ q.conj().T, tol=1e-9)
        assert meet.allclose(q @ np.diag(pointwise_min) @ q.conj().T, tol=1e-9)


def test_pair_operations_are_not_associative_in_general():
    # fixed witness triple: the operations stop being lattice operations
    # as soon as the matrices fail to commute
    def join(x, y):
        return lattice_ops(HermitianMatrix(x), HermitianMatrix(y))[0].mat

    lhs = join(join(S3, S1), S2)
    rhs = join(S3, join(S1, S2))
    assert np.max(np.abs(lhs - rhs)) > 1e-6


def test_classify_examples():
    c = classify(HermitianMatrix(S3))
    assert c.norm == pytest.approx(1.0) and not c.positive
    c = classify(HermitianMatrix(S0 + S3))
    assert c.positive and not c.positive_invertible
    c = classify(HermitianMatrix(2 * S0))
    assert c.positive_invertible and c.norm == pytest.approx(2.0)


def test_func_calc_monotone_on_diagonals():
    rng = np.random.default_rng(6)
    for _ in range(30):
        d = rng.normal(size=4)
        a = HermitianMatrix.diag(d)
        out = func_calc(a, np.tanh)
        assert np.allclose(np.diag(out.mat).real, np.tanh(d), atol=1e-12)
        for i in range(4):
            for j in range(4):
                if d[i] <= d[j]:
                    assert out.mat[i, i].real <= out.mat[j, j].real + 1e-12


def test_projection_decomposition_reconstructs():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        for _ in range(20):
            d = np.abs(rng.normal(size=n)) + 0.01
            q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            a = HermitianMatrix(q @ np.diag(d) @ q.conj().T)
            total = np.zeros((n, n), dtype=complex)
            for coeff, proj in projection_decomposition(a):
                assert coeff >= -1e-12
                assert np.max(np.abs(proj.mat @ proj.mat - proj.mat)) <= 1e-9
                total += coeff * proj.mat
            assert np.max(np.abs(total - a.mat)) <= 1e-9


def test_matrix_json_round_trip():
    rng = np.random.default_rng(8)
    a = random_hermitian(rng, 2)
    assert HermitianMatrix.from_json(a.to_json()).allclose(a, tol=0.0)


def test_matrix_abs_many_matches_the_scalar():
    rng = np.random.default_rng(9)
    mats = np.stack([random_hermitian(rng, 2).mat for _ in range(50)])
    got = matrix_abs_many(mats)
    for m, g in zip(mats, got):
        assert np.max(np.abs(func_calc(m, abs).mat - g)) <= 1e-12


# Scalar against batch for projection_decomposition_many, over the spectral
# shapes its cluster and drop rules separate.

_EXAMPLES = settings(derandomize=True, max_examples=60, deadline=None)
_size = st.floats(1e-3, 10.0)
_direction = st.one_of(
    st.sampled_from([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1),
)


@st.composite
def _psd_rows(draw):
    """(kind, matrix): the Pauli form c*s0 + r*k.s of one positive 2x2 matrix."""
    kind = draw(st.sampled_from(["generic", "identity", "cluster", "singular"]))
    k = np.array(draw(_direction))
    k /= np.linalg.norm(k)
    if kind == "identity":  # r = 0; at c <= tol there are no terms at all
        c, r = draw(st.one_of(st.sampled_from([0.0, 1e-13]), _size)), 0.0
    elif kind == "cluster":  # 0 < 2r <= CLUSTER_TOL * c < CLUSTER_TOL * s: one spectral cluster
        c = draw(_size)
        r = c * draw(st.floats(1e-15, 0.4 * CLUSTER_TOL))
    elif kind == "singular":  # lowest eigenvalue 0: its term is dropped
        r = draw(_size)
        c = r
    else:
        r = draw(_size)
        c = r + draw(_size)
    v = r * k
    return kind, c * S0 + v[0] * S1 + v[1] * S2 + v[2] * S3


@_EXAMPLES
@given(st.lists(_psd_rows(), min_size=1, max_size=8))
def test_projection_decomposition_many_matches_the_scalar(rows):
    mats = np.stack([m for _, m in rows])
    coeffs, projs, kept = projection_decomposition_many(mats)
    assert (coeffs[~kept] == 0.0).all()
    for i, (kind, m) in enumerate(rows):
        terms = projection_decomposition(m)
        assert kept[i].sum() == len(terms)
        for (coeff, proj), t in zip(terms, np.flatnonzero(kept[i])):
            assert abs(coeff - coeffs[i, t]) <= 1e-12
            assert np.max(np.abs(proj.mat - projs[i, t])) <= 1e-12
        total = (coeffs[i, :, None, None] * projs[i]).sum(axis=0)
        assert np.max(np.abs(total - m)) <= 1e-9
        if kind in ("identity", "cluster"):
            assert not kept[i, 1]
            assert kept[i, 0] == (np.trace(m).real > 0.0)  # any positive multiple of the identity is kept
        if kind == "singular":
            assert not kept[i, 0] and kept[i, 1]


@pytest.mark.parametrize("top", [0, 1], ids=["top-first", "top-second"])
def test_diagonal_input_has_exact_eigenvectors(top):
    d = np.diag([2.0, 1.0][:: 1 if top == 0 else -1])
    proj = np.zeros((2, 2))
    proj[top, top] = 1.0
    terms = projection_decomposition(d)
    assert [c for c, _ in terms] == [1.0, 1.0] and terms[1][1].mat.tolist() == proj.tolist()
    coeffs, projs, kept = projection_decomposition_many(d[None])
    assert projs[0, 1].tobytes() == terms[1][1].mat.tobytes() and kept.all()
    assert abs(spectral(d).eigenvectors).tolist() == [[top, 1 - top], [1 - top, top]]
    assert func_calc(np.diag([-1e-11, 1e-11]), abs).mat.tolist() == np.diag([1e-11, 1e-11]).tolist()


def _power_above(m: np.ndarray) -> float:
    """The power of two just above the largest real or imaginary part of m."""
    return 2.0 ** np.frexp(np.abs(m.view(float)).max())[1]


@_EXAMPLES
@given(st.lists(_psd_rows(), min_size=1, max_size=6), st.data())
def test_projection_decomposition_many_rejects_a_bad_row(rows, data):
    mats = np.stack([m for _, m in rows])
    row = data.draw(st.integers(0, len(rows) - 1))
    fault = data.draw(st.sampled_from(["non-psd", "nan", "non-hermitian"]))
    # A fault of 2 * shift * t, where t is the power of two just above the largest part of the row
    # before it: the faulty row's own scale s is then at most 2 * t, so the fault is at least
    # 2e-12 * s, above PSD_TOL * s and HERMITICITY_TOL * s.
    shift = data.draw(st.floats(2e-12, 0.5))
    if fault == "non-psd":  # lowest eigenvalue -2 * shift * t
        n = mats[row] - np.linalg.eigvalsh(mats[row])[0] * S0
        mats[row] = n - 2.0 * shift * _power_above(n) * S0
    elif fault == "nan":
        mats[row, data.draw(st.integers(0, 1)), 0] = np.nan
    else:  # an off-diagonal gap of 2 * shift * t
        mats[row, 0, 1] += 2.0 * shift * _power_above(mats[row])
    error = NotHermitian if fault == "non-hermitian" else InvalidInput
    with pytest.raises(error):
        projection_decomposition(mats[row])
    with pytest.raises(error):
        projection_decomposition_many(mats)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3, 3), (4, 2, 3), (4, 2, 2, 1)])
def test_projection_decomposition_many_rejects_a_wrong_shape(shape):
    with pytest.raises(DimensionMismatch):
        projection_decomposition_many(np.zeros(shape))


def test_projection_decomposition_many_of_no_rows_is_empty():
    coeffs, projs, kept = projection_decomposition_many(np.zeros((0, 2, 2)))
    assert coeffs.shape == (0, 2) and projs.shape == (0, 2, 2, 2) and kept.shape == (0, 2)


@pytest.mark.parametrize("x", [1e154, 1e200, 1e300])
def test_projection_decomposition_many_of_huge_entries_as_scalar(x):
    # the squares of the traceless part overflow; its length must not
    a = np.array([[3 * x, x], [x, 3 * x]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coeffs, projs, kept = projection_decomposition_many(a[None])
        terms = projection_decomposition(a)
    assert coeffs[0][kept[0]].tolist() == [coeff for coeff, _ in terms]
    for t, (_, proj) in zip(np.flatnonzero(kept[0]), terms):
        assert np.array_equal(projs[0, t], proj.mat)


@st.composite
def _hermitian_rows(draw):
    """(kind, matrix): c*s0 + r*k.s for a generic, scalar, one-cluster,
    singular or indefinite 2x2 hermitian matrix."""
    kind = draw(st.sampled_from(["generic", "identity", "cluster", "singular", "indefinite"]))
    k = np.array(draw(_direction))
    k /= np.linalg.norm(k)
    sign = draw(st.sampled_from([1.0, -1.0]))
    if kind == "identity":
        c, r = sign * draw(st.one_of(st.sampled_from([0.0, 1e-13]), _size)), 0.0
    elif kind == "cluster":  # 0 < 2r <= CLUSTER_TOL: the scalar takes one spectral value
        c, r = sign * draw(_size), draw(st.floats(1e-15, 0.4 * CLUSTER_TOL))
    elif kind == "singular":  # an eigenvalue at 0
        r = draw(_size)
        c = sign * r
    elif kind == "indefinite":  # eigenvalues of both signs
        r = draw(_size)
        c = sign * r * draw(st.floats(0.0, 0.99))
    else:
        c, r = sign * draw(_size), draw(_size)
    v = r * k
    return kind, c * S0 + v[0] * S1 + v[1] * S2 + v[2] * S3


@_EXAMPLES
@given(st.lists(_hermitian_rows(), min_size=1, max_size=8))
def test_matrix_abs_many_matches_the_scalar_row_by_row(rows):
    mats = np.stack([m for _, m in rows])
    got = matrix_abs_many(mats)
    assert got.shape == mats.shape
    for (kind, m), g in zip(rows, got):
        scale = max(1.0, float(np.max(np.abs(m))))
        # Within a cluster the scalar takes |mean| of the two eigenvalues,
        # which differs from the exact |m| by at most their gap.
        tol = CLUSTER_TOL if kind == "cluster" else 1e-12 * scale
        assert np.max(np.abs(func_calc(m, abs).mat - g)) <= tol
