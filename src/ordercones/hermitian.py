"""Self-adjoint complex matrices: spectra, functional calculus, min/max pairs.

Sizes of interest are tiny (2 to 4); the 2x2 path uses the closed
trigonometric form so that the sphere geometry downstream is exact, larger
sizes go through LAPACK.
"""
from __future__ import annotations

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
    "matrix_abs",
    "matrix_abs_many",
    "nonnegative_sqrt",
    "projection_decomposition",
    "projection_decomposition_many",
]

HERMITICITY_TOL = 1e-12
CLUSTER_TOL = 1e-10
# Lowest eigenvalue allowed below 0 in a positive matrix, and the largest
# lowest-level coefficient a projection decomposition drops.
PSD_TOL = 1e-12


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """m, or a stack of them on the last two axes, made exactly self-adjoint.

    Input within HERMITICITY_TOL of self-adjoint is symmetrized, anything
    further off is rejected.
    """
    gap = np.abs(m - m.conj().swapaxes(-1, -2)).max(initial=0.0)
    if not gap <= HERMITICITY_TOL:  # NaN or inf whenever an entry is non-finite
        if not np.isfinite(m).all():
            raise InvalidInput("matrix entries must be finite")
        raise NotHermitian(f"matrix is {gap:.2e} away from self-adjoint")
    m = m / 2.0  # halved first, so entries near the largest floats cannot overflow
    return m + m.conj().swapaxes(-1, -2)


class HermitianMatrix:
    """A square complex matrix equal to its conjugate transpose.

    Input within 1e-12 of self-adjoint is symmetrized, anything further
    off is rejected.
    """

    def __init__(self, entries):
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInput(f"matrix must be square, got shape {m.shape}")
        m = _symmetrized(m)
        m.setflags(write=False)
        self.mat = m

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def __add__(self, other):
        return HermitianMatrix(self.mat + _raw(other))

    def __sub__(self, other):
        return HermitianMatrix(self.mat - _raw(other))

    def __rmul__(self, scalar: float):
        return HermitianMatrix(float(scalar) * self.mat)

    def __repr__(self):
        return f"HermitianMatrix({self.mat.tolist()!r})"

    def allclose(self, other, tol: float = 1e-9) -> bool:
        return bool(np.max(np.abs(self.mat - _raw(other))) <= tol)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "re": self.mat.real.tolist(),
            "im": self.mat.imag.tolist(),
        }

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


def _raw(a) -> np.ndarray:
    return a.mat if isinstance(a, HermitianMatrix) else np.asarray(a, dtype=complex)


def _as_hermitian(a) -> HermitianMatrix:
    return a if isinstance(a, HermitianMatrix) else HermitianMatrix(a)


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
    # Halved before they meet, so diagonals near the largest floats cannot
    # overflow; outside the subnormals this is (a +- d) / 2 bit for bit.
    a, d = t[0, 0].real / 2.0, t[1, 1].real / 2.0
    return a + d, t[0, 1].real, t[0, 1].imag, a - d


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """conj(x) . y over the last axis, each row rounded as np.linalg.norm's 1-D dot rounds it alone.

    The stacked product takes that dot once per row, in any memory layout;
    a plain matmul of rows, or np.linalg.norm with an axis, sums in another order.
    """
    x = x.conj()
    return x @ y if x.ndim == 1 else (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _finite_length(v: np.ndarray) -> float:
    """_finite_lengths of one real or complex 1-D v, on Python floats where no square can overflow.

    Entries below 1e150 square to below 1e300, so no sum of fewer than 1e8
    squares overflows: such a v skips the errstate, which costs more than this check.
    """
    parts = v.tolist() if v.dtype.kind != "c" else v.real.tolist() + v.imag.tolist()
    if max(map(abs, parts)) < 1e150:
        return math.sqrt(_dots(v, v).real)
    return float(_finite_lengths(v[None])[0])


def _finite_lengths(vs: np.ndarray, square_sums: bool = False) -> np.ndarray:
    """The Euclidean length of each row of vs (..., k), finite wherever it fits a float.

    Each row is rounded as np.linalg.norm rounds it alone (_dots).  With square_sums
    the squares are summed left to right instead, the rounding of the 2x2 spectrum
    and of hull vertex lengths, whose emitted bytes depend on it.  A row whose squares
    overflow (entries from about 1e154; a complex dot then gives NaN) is measured times
    2**-600 and scaled back: a power of two scales exactly, so finite lengths keep their bits.
    """
    length = (lambda a: np.linalg.norm(a, axis=-1)) if square_sums else (lambda a: np.sqrt(_dots(a, a).real))
    with np.errstate(over="ignore", invalid="ignore"):
        r = length(vs)
        over = ~(r < np.inf)
        if over.any():
            r[over] = length(vs[over] * 2.0**-600) * 2.0**600
    return r


def _spectral2(m: np.ndarray) -> SpectralDecomp:
    # Closed form on the Pauli coordinates: eigenvalues c +- r, eigenvectors
    # from the polar angles of the traceless part.
    # Python floats overflow to inf without a warning.
    c, v1, v2, v3 = map(float, _pauli_parts(m))
    # The square_sums rule of _finite_lengths on Python floats: 3 us per scalar
    # spectrum against 15 us for a one-row _finite_lengths (x86-64, numpy 2.4).
    for scale in (1.0, 2.0**-600):
        x, y, z = v1 * scale, v2 * scale, v3 * scale
        if (r := math.sqrt(x * x + y * y + z * z) / scale) < math.inf:
            break
    if r == 0.0:
        return SpectralDecomp(np.array([c, c]), np.eye(2, dtype=complex))
    theta = float(np.arccos(np.clip(v3 / r, -1.0, 1.0)))
    phi = float(np.arctan2(v2, v1))
    co, si = np.cos(theta / 2.0), np.sin(theta / 2.0)
    plus = np.array([co, np.exp(1j * phi) * si])
    minus = np.array([-np.exp(-1j * phi) * si, co])
    vecs = np.column_stack([minus, plus])
    return SpectralDecomp(np.array([c - r, c + r]), vecs)


def spectral(a) -> SpectralDecomp:
    """Eigendecomposition with eigenvalues ascending."""
    a = _as_hermitian(a)
    if a.n == 2:
        return _spectral2(a.mat)
    vals, vecs = np.linalg.eigh(a.mat)
    return SpectralDecomp(np.asarray(vals, dtype=float), vecs)


def _clusters(values: np.ndarray, tol: float = CLUSTER_TOL) -> list[list[int]]:
    groups: list[list[int]] = []
    values = values.tolist()  # a gap past the largest float is inf, without a warning
    for i, v in enumerate(values):
        if groups and v - values[groups[-1][-1]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def func_calc(a, f: Callable[[float], float]) -> HermitianMatrix:
    """Apply a real scalar function through the spectrum.

    Eigenvalues within 1e-10 are treated as one spectral point; the result
    depends only on the spectral projectors, so the eigenvector ambiguity
    inside a degenerate cluster is immaterial.
    """
    return _func_calc(_as_hermitian(a), f, CLUSTER_TOL)


def _func_calc(a: HermitianMatrix, f: Callable[[float], float], tol: float) -> HermitianMatrix:
    """func_calc with eigenvalues within tol taken as one spectral point."""
    dec = spectral(a)
    out = np.zeros((a.n, a.n), dtype=complex)
    for group in _clusters(dec.eigenvalues, tol):
        lam = float(np.mean(dec.eigenvalues[group]))
        try:
            val = f(lam)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"function undefined at eigenvalue {lam!r}: {exc}") from exc
        val = float(val)
        if not np.isfinite(val):
            raise DomainError(f"function not finite at eigenvalue {lam!r}")
        vecs = dec.eigenvectors[:, group]
        out += val * (vecs @ vecs.conj().T)
    return HermitianMatrix(out)


def matrix_abs(a) -> HermitianMatrix:
    return func_calc(a, abs)


def matrix_abs_many(mats: np.ndarray) -> np.ndarray:
    """|m| for a stack of hermitian 2x2 matrices, through LAPACK."""
    vals, vecs = np.linalg.eigh(mats)
    return (vecs * np.abs(vals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)


def nonnegative_sqrt(x: float) -> float:
    """Square root of a spectral point; values within CLUSTER_TOL below 0 count as 0."""
    if x < -CLUSTER_TOL:
        raise ValueError("negative spectral point")
    return float(np.sqrt(max(x, 0.0)))


def lattice_ops(a, b) -> tuple[HermitianMatrix, HermitianMatrix]:
    """The pair ((a+b)/2 + |a-b|/2, (a+b)/2 - |a-b|/2), sharing one |a-b|.

    Genuine lattice join/meet only when a and b commute; still well defined
    and order-theoretically meaningful in general.
    """
    a, b = _as_hermitian(a), _as_hermitian(b)
    if a.n != b.n:
        raise DimensionMismatch(f"sizes differ: {a.n} vs {b.n}")
    # Halved first, so entries near the largest floats cannot overflow: halving
    # is exact and |.| is positively homogeneous.  The halved difference is
    # clustered at half the tolerance, so it makes the decisions |a - b| makes.
    a, b = a.mat / 2.0, b.mat / 2.0
    mid = a + b
    half_gap = _func_calc(HermitianMatrix(a - b), abs, CLUSTER_TOL / 2.0).mat
    return HermitianMatrix(mid + half_gap), HermitianMatrix(mid - half_gap)


@dataclass(frozen=True)
class Classification:
    norm: float
    positive: bool
    positive_invertible: bool


def classify(a) -> Classification:
    """Operator norm and spectral positivity flags."""
    dec = spectral(_as_hermitian(a))
    low = float(dec.eigenvalues[0])
    return Classification(
        norm=float(np.max(np.abs(dec.eigenvalues))),
        positive=low >= -1e-12,
        positive_invertible=low > 1e-12,
    )


def projection_decomposition(a) -> list[tuple[float, HermitianMatrix]]:
    """Positive span over spectral projections of a positive matrix.

    With ascending spectral levels v_1 < v_2 < ..., the matrix equals
    v_1 * P(>=1) + sum_k (v_k - v_{k-1}) * P(>=k) where P(>=k) projects on
    the eigenspaces at or above level k; P(>=1) is the identity and its
    term is dropped when v_1 is zero.
    """
    a = _as_hermitian(a)
    dec = spectral(a)
    if dec.eigenvalues[0] < -PSD_TOL:
        raise InvalidInput("matrix must be positive semidefinite")
    groups = _clusters(dec.eigenvalues)
    terms: list[tuple[float, HermitianMatrix]] = []
    prev = 0.0
    for k, group in enumerate(groups):
        lam = float(np.mean(dec.eigenvalues[group]))
        coeff = lam - prev
        tail = [i for g in groups[k:] for i in g]
        vecs = dec.eigenvectors[:, tail]
        proj = HermitianMatrix(vecs @ vecs.conj().T)
        if k > 0 or coeff > PSD_TOL:
            terms.append((coeff, proj))
        prev = lam
    return terms


def projection_decomposition_many(mats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """projection_decomposition for an (N, 2, 2) stack of positive matrices.

    Returns (coeffs, projs, kept) of shapes (N, 2), (N, 2, 2, 2) and (N, 2).
    Row i's terms are (coeffs[i, t], projs[i, t]) for the t with kept[i, t],
    in the scalar's order: t = 0 is the lowest level times the identity
    projection (dropped when at most PSD_TOL), t = 1 the gap to the top
    eigenvalue times the projection on its eigenvector (present only when
    the spectrum is two clusters).  Dropped terms have coefficient 0, so
    summing coeffs * projs over t rebuilds each row.  This is the 2x2
    closed form of `spectral` on the whole stack, so values match the
    scalar path.
    """
    m = np.asarray(mats, dtype=complex)
    if m.ndim != 3 or m.shape[1:] != (2, 2):
        raise DimensionMismatch(f"need an (N, 2, 2) stack, got shape {m.shape}")
    c, v1, v2, v3 = _pauli_parts(_symmetrized(m))
    r = _finite_lengths(np.stack([v1, v2, v3], axis=1), square_sums=True)
    low, high = c - r, c + r
    if not (low >= -PSD_TOL).all():
        raise InvalidInput("matrices must be positive semidefinite")
    theta = np.arccos(np.clip(v3 / np.where(r == 0.0, 1.0, r), -1.0, 1.0))
    phi = np.arctan2(v2, v1)
    co, si = np.cos(theta / 2.0), np.sin(theta / 2.0)
    plus = np.stack([co + 0j, np.exp(1j * phi) * si], axis=1)
    minus = np.stack([-np.exp(-1j * phi) * si, co + 0j], axis=1)
    vecs = np.stack([minus, plus], axis=2)
    vecs[r == 0.0] = np.eye(2)
    projs = np.stack(
        [vecs @ vecs.conj().transpose(0, 2, 1), plus[:, :, None] @ plus.conj()[:, None, :]],
        axis=1,
    )
    projs = _symmetrized(projs)
    split = ~(high - low <= CLUSTER_TOL)
    base = np.where(split, low, (low + high) / 2.0)
    kept = np.stack([base > PSD_TOL, split], axis=1)
    coeffs = np.where(kept, np.stack([base, high - low], axis=1), 0.0)
    return coeffs, projs, kept
