"""Self-adjoint complex matrices: spectra, functional calculus, min/max pairs.

Sizes of interest are tiny (2 to 4); the 2x2 path uses the closed
trigonometric form so that the sphere geometry downstream is exact, larger
sizes go through LAPACK.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, DomainError, InvalidInput, NotHermitian, float_array

__all__ = [
    "HermitianMatrix",
    "SpectralDecomp",
    "Classification",
    "spectral",
    "func_calc",
    "lattice_ops",
    "classify",
    "matrix_abs_many",
    "nonnegative_sqrt",
    "projection_decomposition",
    "projection_decomposition_many",
]

# Each tolerance applies to m = a / s (see _read_matrix), so it is relative to s.
HERMITICITY_TOL = 1e-12
CLUSTER_TOL = 1e-10
# Lowest eigenvalue allowed below 0 in a positive matrix, and the largest
# lowest-level coefficient a projection decomposition drops.
PSD_TOL = 1e-12


# 2**e, kept between 2**-1022 and 2**1022 (so that 2 * s is a float), for each exponent e that frexp gives
_POWERS = np.ldexp(1.0, np.arange(-1073, 1025).clip(-1022, 1022))


def _scale(big):
    """The power of two in _POWERS just above a float big >= 0, or elementwise for an array; 1 for inf or NaN.

    math.frexp reads a float in 0.1 us, np.frexp an array; np.frexp of a float takes 2 us (x86-64, numpy 2.4).
    """
    return _POWERS[(math.frexp(big) if isinstance(big, float) else np.frexp(big))[1] + 1073]


def _times(m: np.ndarray, k) -> np.ndarray:
    """m times powers of two k, part by part: exact, signed zeros included, wherever it stays normal."""
    return (np.ascontiguousarray(m).view(float) * k).view(complex)


def _read_matrix(a: np.ndarray, hermitian: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(m, s) with a = m * s, for a complex square matrix, or a stack of them on the last two axes.

    s is _scale of the largest real or imaginary part of each matrix (a
    float for one matrix, shape (..., 1, 1) for a stack), so m rounds as a
    does wherever both stay normal, no product of its entries overflows, and
    a tolerance applied to m is relative to s.  A NaN or infinite entry is
    InvalidInput.  With hermitian, a matrix more than HERMITICITY_TOL * s
    from self-adjoint is NotHermitian, and m is made exactly self-adjoint.
    """
    parts = np.ascontiguousarray(a).view(float)
    if a.ndim == 2:  # one matrix on Python floats: 1.3 us against 4 us for the reduction (x86-64, numpy 2.4)
        parts = parts.ravel().tolist()
        big, total = max(map(abs, parts), default=0.0), sum(parts)
        finite = big < math.inf and total == total  # a max may pass over a NaN, a sum cannot
    else:
        big = np.abs(parts).max(axis=(-2, -1), keepdims=True, initial=0.0)
        finite = (big < np.inf).all()
    if not finite:
        raise InvalidInput("matrix entries must be finite")
    s = _scale(big)
    if not hermitian:
        return _times(a, 1.0 / s), s
    half, adjoint = _halves(a, s)
    gap = 2.0 * np.abs(half - adjoint).max(initial=0.0)
    if not gap <= HERMITICITY_TOL:
        raise NotHermitian(f"matrix is {gap:.2e} of its scale away from self-adjoint")
    return half + adjoint, s


def _halves(a: np.ndarray, s) -> tuple[np.ndarray, np.ndarray]:
    """a / 2s and its adjoint, whose sum is the self-adjoint m with a = m * s (see _read_matrix)."""
    half = a / (2.0 * s)  # one complex division, whose signed zeros are those of a / 2.0
    return half, half.conj().swapaxes(-1, -2)


class HermitianMatrix:
    """A square complex matrix equal to its conjugate transpose.

    Input within 1e-12 * s of self-adjoint is symmetrized, anything further
    off is rejected, where s is the power of two just above the largest real
    or imaginary part of an entry (see _read_matrix).
    """

    def __init__(self, entries):
        a = np.array(entries, dtype=complex)  # a copy, which mat reads again
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidInput(f"matrix must be square, got shape {a.shape}")
        m, s = _read_matrix(a, hermitian=True)
        self._entries, self._scaled, self.n = a, (m, float(s)), len(m)

    @classmethod
    def _made(cls, a: np.ndarray) -> "HermitianMatrix":
        """A finite, self-adjoint square complex array that this module has just computed, read as __init__ reads it.

        The same scale s and the same half + adjoint sum give the same _scaled
        and mat bits, but the array is neither copied nor checked for finite
        entries or for its gap from self-adjoint (a 2x2 reads in 4 us against
        11 us, x86-64, numpy 2.4): the caller made it and nothing else holds
        it.  Its callers are the one-pair join and meet of lattice_ops, which
        checks them finite, and the spectral projections of
        projection_decomposition.  Input from outside the module goes
        through __init__.
        """
        s = float(_scale(max(map(abs, a.view(float).ravel().tolist()))))
        half, adjoint = _halves(a, s)
        out = cls.__new__(cls)
        out._entries, out._scaled, out.n = a, (half + adjoint, s), len(a)
        return out

    @functools.cached_property
    def mat(self) -> np.ndarray:
        """m * s, made when first asked for, and the input itself wherever it equals its adjoint: its signed
        zeros, and its subnormal parts, which m rounds next to parts of order s."""
        mat = np.where(self._entries == self._entries.conj().T, self._entries, _times(*self._scaled))
        mat.setflags(write=False)
        return mat

    @np.errstate(over="ignore", invalid="ignore")  # inf past the largest float, which the constructor refuses
    def __add__(self, other):
        return HermitianMatrix(self.mat + _as_hermitian(other).mat)

    @np.errstate(over="ignore", invalid="ignore")
    def __sub__(self, other):
        return HermitianMatrix(self.mat - _as_hermitian(other).mat)

    @np.errstate(over="ignore", invalid="ignore")
    def __rmul__(self, scalar: float):
        return HermitianMatrix(float(scalar) * self.mat)

    def __repr__(self):
        return f"HermitianMatrix({self.mat.tolist()!r})"

    def allclose(self, other, tol: float = 1e-9) -> bool:
        return bool(np.max(np.abs(self.mat - _as_hermitian(other).mat)) <= tol)

    def to_json(self) -> dict:
        return {"n": self.n, "re": self.mat.real.tolist(), "im": self.mat.imag.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "HermitianMatrix":
        return cls(complex_matrix_from_json(data))

    @classmethod
    def diag(cls, values) -> "HermitianMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))


def complex_matrix_from_json(data: dict) -> np.ndarray:
    """Parse {"n":..,"re":[[..]],"im":[[..]]} into a complex array."""
    if not isinstance(data, dict) or "re" not in data:
        raise InvalidInput('matrix JSON must be an object with a "re" key')
    re = float_array(data["re"], "matrix re part")
    im = float_array(data.get("im", np.zeros_like(re)), "matrix im part")
    if re.shape != im.shape:
        raise DimensionMismatch("re and im parts must share a shape")
    return re + 1j * im


def _as_hermitian(a) -> HermitianMatrix:
    return a if isinstance(a, HermitianMatrix) else HermitianMatrix(a)


def _read_stack(mats) -> tuple[np.ndarray, np.ndarray]:
    """_read_matrix of an (N, 2, 2) stack of self-adjoint matrices; another shape is DimensionMismatch."""
    m = np.asarray(mats, dtype=complex)
    if m.ndim != 3 or m.shape[1:] != (2, 2):
        raise DimensionMismatch(f"need an (N, 2, 2) stack, got shape {m.shape}")
    return _read_matrix(m, hermitian=True)


@dataclass(frozen=True)
class SpectralDecomp:
    """Ascending eigenvalues with aligned orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def to_json(self) -> dict:
        return {
            "eigenvalues": self.eigenvalues.tolist(),
            "eigenvectors_re": self.eigenvectors.real.tolist(),
            "eigenvectors_im": self.eigenvectors.imag.tolist(),
        }


def _pauli_parts(m: np.ndarray) -> tuple:
    """Pauli coordinates (c, v1, v2, v3) with m = c*s0 + v.s: scalars for one
    2x2 matrix, (N,) arrays for an (N, 2, 2) stack."""
    t = m.T  # t[j, i] is entry (i, j): a scalar for one matrix, where m[..., i, j] is a 0-d array
    a, d = t[0, 0].real, t[1, 1].real
    return (a + d) / 2.0, t[0, 1].real, t[0, 1].imag, (a - d) / 2.0


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """conj(x) . y over the last axis, each row rounded as np.linalg.norm's 1-D dot rounds it alone.

    The stacked product takes that dot once per row, in any memory layout;
    a plain matmul of rows, or np.linalg.norm with an axis, sums in another order.
    """
    if x.dtype.kind == "c":
        x = x.conj()
    return x @ y if x.ndim == 1 else (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _finite_length(v: np.ndarray) -> float:
    """_finite_lengths of one real or complex 1-D v, as a Python float."""
    parts = v.tolist() if v.dtype.kind != "c" else v.real.tolist() + v.imag.tolist()
    big = max(map(abs, parts))
    if not big < math.inf:  # an infinite entry, or a NaN one that came first
        return big
    s = float(_scale(big))
    if s != 1.0:  # a Bloch or unit vector mostly has s = 1, and the division costs 0.7 us (x86-64, numpy 2.4)
        v = v / s
    return math.sqrt(_dots(v, v).real) * s


def _finite_lengths(vs: np.ndarray, square_sums: bool = False) -> np.ndarray:
    """The Euclidean length of each row of vs (..., k), finite wherever it fits a float.

    Each row's length is rounded as np.linalg.norm rounds the row alone
    (_dots); with square_sums the squares are summed left to right instead,
    the rounding of the 2x2 spectrum and of hull vertex lengths, whose
    emitted bytes depend on it.  A row whose plain square sum lies in
    [2**-900, 2**900] keeps its plain length: no square there overflows,
    and one that leaves the normal range is rounded to within 2**-1074, far
    below the sum's last bit.  The other rows (zero, tiny, huge or not
    finite) are measured by _scaled_lengths, whose length has the plain
    one's bits wherever no square leaves the normal range.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # rows past the plain range go through _scaled_lengths
        r = np.asarray(_plain_lengths(vs, square_sums))  # writable, also for one row
    odd = ~((r >= 2.0**-450) & (r <= 2.0**450))  # the square sum outside [2**-900, 2**900], inf or NaN
    if odd.any():
        r[odd] = _scaled_lengths(vs[odd], square_sums)
    return r


def _plain_lengths(vs: np.ndarray, square_sums: bool) -> np.ndarray:
    """Each row's length by the rounding rule of _finite_lengths, on the entries as they are."""
    return np.linalg.norm(vs, axis=-1) if square_sums else np.sqrt(_dots(vs, vs).real)


def _scaled_lengths(vs: np.ndarray, square_sums: bool) -> np.ndarray:
    """_plain_lengths of each row of vs (N, k) over _scale of its largest part, scaled back; inf past the largest float."""
    parts = np.abs(vs) if vs.dtype.kind != "c" else np.abs(np.concatenate([vs.real, vs.imag], axis=-1))
    big = functools.reduce(np.maximum, parts.T).T  # each row's largest part, 5x faster than .max(axis=-1)
    finite = big < np.inf
    vs = np.where(finite[:, None], vs, 0.0)
    s = _scale(big)
    r = _plain_lengths(vs / s[:, None], square_sums) * s
    return np.where(finite, r, big)


def _spectrum(a) -> tuple[list[float], np.ndarray, float]:
    """Ascending eigenvalues of m, aligned eigenvector columns, and s, for a = m * s read as one matrix.

    A 2x2 m takes the closed form on its Pauli coordinates: eigenvalues c +- r,
    eigenvectors from the polar angles of the traceless part, and r by the
    square_sums rule of _finite_lengths on Python floats (3 us against 15 us
    for a one-row _finite_lengths, x86-64, numpy 2.4).
    """
    m, s = _as_hermitian(a)._scaled
    if len(m) != 2:
        vals, vecs = np.linalg.eigh(m)
        return vals.tolist(), vecs, s
    c, v1, v2, v3 = map(float, _pauli_parts(m))
    r = math.sqrt(v1 * v1 + v2 * v2 + v3 * v3)
    if r == 0.0:
        return [c, c], np.eye(2, dtype=complex), s
    if v1 == v2 == 0.0:  # diagonal m: exact 0/1 eigenvectors, e0 on top when v3 > 0
        return [c - r, c + r], np.eye(2, dtype=complex)[::-1 if v3 > 0.0 else 1], s
    theta = float(np.arccos(min(max(v3 / r, -1.0), 1.0)))
    phi = float(np.arctan2(v2, v1))
    co, si = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return [c - r, c + r], np.array([[-np.exp(-1j * phi) * si, co], [co, np.exp(1j * phi) * si]]), s


def spectral(a) -> SpectralDecomp:
    """Eigendecomposition with eigenvalues ascending."""
    vals, vecs, s = _spectrum(a)
    return SpectralDecomp(np.array([v * s for v in vals]), vecs)  # inf past the largest float, no warning


def _clusters(values: list[float]) -> list[list[int]]:
    """Indices of ascending values, grouped where each is within CLUSTER_TOL of the one before."""
    groups: list[list[int]] = []
    for i, v in enumerate(values):
        if groups and v - values[groups[-1][-1]] <= CLUSTER_TOL:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def func_calc(a, f: Callable[[float], float]) -> HermitianMatrix:
    """Apply a real scalar function through the spectrum.

    Eigenvalues within 1e-10 * s (s as in HermitianMatrix) are one spectral
    point, their mean; the result depends only on the spectral projectors,
    so the eigenvector ambiguity inside a degenerate cluster is immaterial.
    A point within 1e-10 * s below 0 where f raises ValueError (as
    nonnegative_sqrt does below 0) is taken as 0.
    """
    vals, vecs, s = _spectrum(a)
    out = np.zeros((len(vals), len(vals)), dtype=complex)
    for group in _clusters(vals):
        lam = sum(vals[i] for i in group) / len(group)
        try:
            try:
                val = f(lam * s)
            except ValueError:
                if not -CLUSTER_TOL <= lam < 0.0:
                    raise
                val = f(0.0)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"function undefined at eigenvalue {lam * s!r}: {exc}") from exc
        val = float(val)
        if not np.isfinite(val):
            raise DomainError(f"function not finite at eigenvalue {lam * s!r}")
        vecs_g = vecs[:, group]
        out += val * (vecs_g @ vecs_g.conj().T)
    return HermitianMatrix(out)


def matrix_abs_many(mats: np.ndarray) -> np.ndarray:
    """|m| for a stack of hermitian 2x2 matrices, through LAPACK."""
    vals, vecs = np.linalg.eigh(mats)
    return (vecs * np.abs(vals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)


def nonnegative_sqrt(x: float) -> float:
    """Square root of a spectral point; ValueError below 0, where func_calc takes points down to -1e-10 * s as 0."""
    if x < 0.0:
        raise ValueError("negative spectral point")
    return math.sqrt(x)


def _hk(t, r):
    """h = max(|t|, r) and k = t / h (t = 0 where h = 0), elementwise, for t the halved trace and r the traceless
    length of a self-adjoint 2x2 d, so that |d| = h*1 + k*(d - t*1); k = clip(t / r, -1, 1), or sign(t) at r = 0."""
    h = np.maximum(np.abs(t), r)
    return h, t / np.where(h > 0.0, h, 1.0)


def _abs2(d: np.ndarray) -> np.ndarray:
    """|d| of a self-adjoint 2x2 d, or of each matrix of an (N, 2, 2) stack, by the rule of _hk."""
    t, v1, v2, v3 = _pauli_parts(d)
    h, k = _hk(t, np.sqrt(v1 * v1 + v2 * v2 + v3 * v3))
    out = _times(d, k[..., None, None])  # the off-diagonal k*v1 -+ i*k*v2
    out[..., 0, 0], out[..., 1, 1] = h + k * v3, h - k * v3
    return out


def lattice_ops(a, b):
    """The pair ((a+b)/2 + |a-b|/2, (a+b)/2 - |a-b|/2), sharing one |a-b|: HermitianMatrix for one pair,
    (N, 2, 2) arrays for two (N, 2, 2) stacks, row by row.

    Genuine lattice join/meet only when a and b commute; still well defined
    and order-theoretically meaningful in general.  Each pair is taken over
    the larger scale s of the two (see HermitianMatrix), so no sum overflows;
    a join or meet past the largest float is DomainError.  |a-b| is _abs2 at
    2x2, with no cluster tolerance, and func_calc(a - b, abs) above.
    """
    (ma, sa), (mb, sb) = (
        _read_stack(x) if not isinstance(x, HermitianMatrix) and np.ndim(x) == 3 else _as_hermitian(x)._scaled
        for x in (a, b)
    )
    if ma.shape != mb.shape:
        raise DimensionMismatch(f"shapes differ: {ma.shape} vs {mb.shape}")
    s = np.maximum(sa, sb)
    ma, mb = ma / (2.0 * (s / sa)), mb / (2.0 * (s / sb))  # a / 2s and b / 2s
    mid, d = ma + mb, ma - mb
    half_gap = _abs2(d) if d.shape[-1] == 2 else func_calc(HermitianMatrix(d), abs).mat
    with np.errstate(over="ignore"):
        join, meet = pair = _times(np.array([mid + half_gap, mid - half_gap]), s)
    if not np.isfinite(pair).all():
        raise DomainError("join or meet is past the largest float")
    return (join, meet) if ma.ndim == 3 else (HermitianMatrix._made(join), HermitianMatrix._made(meet))


@dataclass(frozen=True)
class Classification:
    norm: float
    positive: bool
    positive_invertible: bool


def classify(a) -> Classification:
    """Operator norm and spectral positivity flags, the lowest eigenvalue against +-1e-12 * s."""
    vals, _, s = _spectrum(a)
    return Classification(max(map(abs, vals)) * s, positive=vals[0] >= -1e-12, positive_invertible=vals[0] > 1e-12)


def projection_decomposition(a) -> list[tuple[float, HermitianMatrix]]:
    """Positive span over spectral projections of a positive matrix.

    With ascending spectral levels v_1 < v_2 < ..., the matrix equals
    v_1 * P(>=1) + sum_k (v_k - v_{k-1}) * P(>=k) where P(>=k) projects on
    the eigenspaces at or above level k; P(>=1) is the identity and its
    term is dropped when v_1 is at most PSD_TOL * s.
    """
    vals, vecs, s = _spectrum(a)
    if vals[0] < -PSD_TOL:
        raise InvalidInput("matrix must be positive semidefinite")
    groups = _clusters(vals)
    terms: list[tuple[float, HermitianMatrix]] = []
    prev = 0.0
    for k, group in enumerate(groups):
        lam = sum(vals[i] for i in group) / len(group)
        coeff = lam - prev
        tail = [i for g in groups[k:] for i in g]
        tail_vecs = vecs[:, tail]
        proj = HermitianMatrix._made(tail_vecs @ tail_vecs.conj().T)
        if k > 0 or coeff > PSD_TOL:
            terms.append((coeff * s, proj))
        prev = lam
    return terms


def projection_decomposition_many(mats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """projection_decomposition for an (N, 2, 2) stack of positive matrices.

    Returns (coeffs, projs, kept) of shapes (N, 2), (N, 2, 2, 2) and (N, 2).
    Row i's terms are (coeffs[i, t], projs[i, t]) for the t with kept[i, t],
    in the scalar's order: t = 0 is the lowest level times the identity
    projection (dropped when at most PSD_TOL * s), t = 1 the gap to the top
    eigenvalue times the projection on its eigenvector (present only when
    the spectrum is two clusters).  Dropped terms have coefficient 0, so
    summing coeffs * projs over t rebuilds each row.  This is the 2x2 closed
    form of `spectral` on the whole stack, each row over its own scale s, so
    values match the scalar path.
    """
    m, s = _read_stack(mats)
    c, v1, v2, v3 = _pauli_parts(m)
    r = np.linalg.norm(np.stack([v1, v2, v3], axis=1), axis=1)
    low, high = c - r, c + r
    if not (low >= -PSD_TOL).all():
        raise InvalidInput("matrices must be positive semidefinite")
    theta = np.arccos(np.clip(v3 / np.where(r == 0.0, 1.0, r), -1.0, 1.0))
    phi = np.arctan2(v2, v1)
    co, si = np.cos(theta / 2.0), np.sin(theta / 2.0)
    plus = np.stack([co + 0j, np.exp(1j * phi) * si], axis=1)
    minus = np.stack([-np.exp(-1j * phi) * si, co + 0j], axis=1)
    vecs = np.stack([minus, plus], axis=2)
    vecs[(v1 == 0.0) & (v2 == 0.0) & (v3 > 0.0)] = np.eye(2)[::-1]  # diagonal rows, as in _spectrum
    vecs[(v1 == 0.0) & (v2 == 0.0) & ~(v3 > 0.0) | (r == 0.0)] = np.eye(2)
    plus = vecs[:, :, 1]
    projs = np.stack(
        [vecs @ vecs.conj().transpose(0, 2, 1), plus[:, :, None] @ plus.conj()[:, None, :]],
        axis=1,
    )
    projs = _times(*_read_matrix(projs, hermitian=True))
    split = ~(high - low <= CLUSTER_TOL)
    base = np.where(split, low, (low + high) / 2.0)
    kept = np.stack([base > PSD_TOL, split], axis=1)
    coeffs = np.where(kept, np.stack([base, high - low], axis=1) * s[:, 0], 0.0)
    return coeffs, projs, kept
