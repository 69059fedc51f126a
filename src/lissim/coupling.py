"""Mutual-coupling impedance matrices and the linear algebra on them.

The impedance matrix Z is real, symmetric, and positive semidefinite up
to roundoff: its quadratic form ``i^H Z i`` is the total radiated power
of excitation currents ``i`` (constant factors removed).  Entries are
``sin(k r)/(k r)`` for isotropic elements and ``J1(k r)/(k r)`` for
planar ones, with ``r`` the element separation.

Everything here is precision-generic.  Machine-double matrices are dense
numpy arrays backed by LAPACK; extended-precision matrices are mpmath
matrices with a cyclic Jacobi eigensolver, which works unchanged at any
mantissa width and preserves the relative accuracy of the small
eigenvalues that make these matrices interesting.

Extended-precision solves use the mirror symmetry of lattice layouts.
A centered lattice is invariant under y -> -y and z -> -z, so Z commutes
with both mirrors and splits exactly into four parity sectors, one per
character (+-1, +-1) of the mirror group, each about N/4 square.  The
solve projects the right-hand side onto the sectors, skips those it
does not excite (a broadside terminal excites only the even-even one),
factors each remaining sector block once, and checks the residual
against the full Z.  Layouts without lattice indices have one orbit per
element, a single sector, and the sector block is Z itself.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from scipy.linalg import lu_factor, lu_solve as _lapack_lu_solve
from scipy.spatial.distance import cdist

from .errors import (
    EmptySpectrumError,
    IllConditionedSolveError,
    InvalidArgumentError,
    InvalidGeometryError,
    NumericalFailureError,
)
from .geometry import ArrayGeometry, ElementKind
from .specfun import MP_LOCK, Precision, j1_over_x, sinc_unnormalized

_JACOBI_MAX_SWEEPS = 100
_SOLVE_RESIDUAL_RTOL = 1e-8
# the extra working bits mpmath's own lu_solve uses for factor and substitution
_LU_GUARD_BITS = 10
# value of each parity character on (identity, y mirror, z mirror, both),
# the column order of ImpedanceMatrix.orbits
_PARITIES = ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))


class ImpedanceMatrix:
    """Real symmetric N x N mutual-coupling matrix with cached spectrum.

    Instances are immutable after construction; the eigendecomposition
    is computed once on first use behind a lock, after which reads are
    concurrency-safe.

    Attributes
    ----------
    entries : ndarray or mpmath matrix
        The matrix itself; numpy float64 under machine double, an mpmath
        matrix under extended precision.
    kind : ElementKind
        Element model the kernel belongs to.
    precision : Precision
        Arithmetic the entries were built in.
    orbits : ndarray of int, shape (M, 4)
        Element orbits under the layout's mirror symmetries, as returned
        by :meth:`ArrayGeometry.mirror_orbits`: row k holds the images of
        one element under the identity, the y mirror, the z mirror and
        both, and Z is invariant under each of these permutations.  The
        extended-precision solve works in the parity sectors they
        define.  :func:`impedance` attaches the layout's orbits to
        extended-precision matrices, whose entries it builds from the
        lattice offsets, so the invariance is exact.  Defaults to one
        orbit per element (no symmetry used).
    """

    def __init__(self, entries, kind: ElementKind, precision: Precision, ctx=None,
                 orbits=None):
        self.kind = kind
        self.precision = precision
        self._ctx = ctx if ctx is not None else precision.context()
        self.entries = entries
        if not precision.is_extended:
            self.entries.setflags(write=False)
        if orbits is None:
            orbits = np.column_stack([np.arange(self.n)] * 4)
        self.orbits = orbits
        self.orbits.setflags(write=False)
        self._eig = None
        self._eig_lock = threading.Lock()

    @property
    def n(self) -> int:
        if self.precision.is_extended:
            return self.entries.rows
        return self.entries.shape[0]

    @property
    def context(self):
        return self._ctx

    def eigendecomposition(self):
        """Cached ``(eigenvalues descending, orthonormal U)``."""
        # lock order is always MP_LOCK, then the per-matrix cache lock
        if self.precision.is_extended:
            with MP_LOCK, self._eig_lock:
                if self._eig is None:
                    self._eig = _jacobi_eigh(self.context, self.entries)
                return self._eig
        with self._eig_lock:
            if self._eig is None:
                self._eig = _sym_eig_impl(self)
            return self._eig

    def matvec(self, v):
        if self.precision.is_extended:
            return self.entries * v
        return self.entries @ v

    def as_float_array(self) -> np.ndarray:
        """Entries rounded to float64 (e.g. for text dumps)."""
        if not self.precision.is_extended:
            return np.array(self.entries)
        n = self.n
        out = np.empty((n, n))
        for a in range(n):
            for b in range(n):
                out[a, b] = float(self.entries[a, b])
        return out


def _kernel_double(kind: ElementKind, x: np.ndarray) -> np.ndarray:
    if kind is ElementKind.ISOTROPIC:
        return sinc_unnormalized(x)
    return j1_over_x(x)


def _kernel_mp(ctx, kind: ElementKind, x):
    if x == 0:
        return ctx.mpf(1) if kind is ElementKind.ISOTROPIC else ctx.mpf(1) / 2
    if kind is ElementKind.ISOTROPIC:
        return ctx.sin(x) / x
    return ctx.besselj(1, x) / x


def _impedance_double(geom: ArrayGeometry) -> np.ndarray:
    r = cdist(geom.positions, geom.positions)
    if geom.n > 1:
        off = r + np.diag(np.full(geom.n, np.inf))
        if np.min(off) == 0.0:
            raise InvalidGeometryError("duplicate element positions make Z exactly singular")
    return _kernel_double(geom.kind, geom.wavenumber * r)


def _impedance_extended(geom: ArrayGeometry, precision: Precision):
    ctx = precision.context()
    with MP_LOCK:
        return _impedance_extended_locked(ctx, geom)


def _impedance_extended_locked(ctx, geom: ArrayGeometry):
    n = geom.n
    k = 2 * ctx.pi / ctx.mpf(geom.wavelength)
    dy = ctx.mpf(geom.dy)
    dz = ctx.mpf(geom.dz)
    Z = ctx.matrix(n, n)
    cache = {}
    lattice = geom.lattice_indices
    pos = geom.positions
    for a in range(n):
        for b in range(a, n):
            if lattice is not None:
                # exact integer offsets on the lattice: one kernel
                # evaluation per distinct |di|, |dj| pair
                key = (abs(int(lattice[a, 0] - lattice[b, 0])),
                       abs(int(lattice[a, 1] - lattice[b, 1])))
            else:
                key = (abs(pos[a, 0] - pos[b, 0]), abs(pos[a, 1] - pos[b, 1]),
                       abs(pos[a, 2] - pos[b, 2]))
            v = cache.get(key)
            if v is None:
                if a == b:
                    v = _kernel_mp(ctx, geom.kind, ctx.mpf(0))
                elif lattice is not None:
                    r = ctx.sqrt((key[0] * dy) ** 2 + (key[1] * dz) ** 2)
                    if r == 0:
                        raise InvalidGeometryError(
                            "duplicate element positions make Z exactly singular")
                    v = _kernel_mp(ctx, geom.kind, k * r)
                else:
                    r = ctx.sqrt(ctx.mpf(key[0]) ** 2 + ctx.mpf(key[1]) ** 2
                                 + ctx.mpf(key[2]) ** 2)
                    if r == 0:
                        raise InvalidGeometryError(
                            "duplicate element positions make Z exactly singular")
                    v = _kernel_mp(ctx, geom.kind, k * r)
                cache[key] = v
            Z[a, b] = v
            Z[b, a] = v
    return Z, ctx


def impedance(geom: ArrayGeometry, precision: Precision = Precision()) -> ImpedanceMatrix:
    """Build the mutual-coupling matrix for a layout.

    Entries are ``kernel(k * ||p_a - p_b||)`` where the kernel is the
    unnormalized sinc (isotropic) or ``J1(x)/x`` (planar); the diagonal
    is therefore 1 or 1/2.  The matrix is symmetric by construction.

    Raises
    ------
    InvalidGeometryError
        If two elements coincide (the kernel argument 0 off the diagonal
        would make Z exactly singular).
    """
    if precision.is_extended:
        Z, ctx = _impedance_extended(geom, precision)
        return ImpedanceMatrix(Z, geom.kind, precision, ctx=ctx, orbits=geom.mirror_orbits())
    return ImpedanceMatrix(_impedance_double(geom), geom.kind, precision)


def _jacobi_eigh(ctx, A):
    """Cyclic Jacobi eigendecomposition of a symmetric mpmath matrix.

    Returns eigenvalues (descending) and the orthonormal eigenvector
    matrix.  Converges when the off-diagonal Frobenius norm reaches the
    rounding floor of the working precision; capped at
    ``_JACOBI_MAX_SWEEPS`` sweeps.  Works on plain row lists internally;
    mpmath-matrix element access is dict-backed and would dominate the
    runtime.
    """
    n = A.rows
    a = [[A[i, j] for j in range(n)] for i in range(n)]
    one = ctx.mpf(1)
    zero = ctx.mpf(0)
    v = [[one if i == j else zero for j in range(n)] for i in range(n)]
    eps = ctx.mpf(2) ** (1 - ctx.prec)
    norm_a = ctx.sqrt(ctx.fsum(x * x for row in a for x in row))
    if norm_a == 0:
        return [zero] * n, ctx.eye(n)
    # rotations this small cannot move the off-diagonal mass above the
    # convergence floor, so they are safe to skip
    rot_tol = eps * norm_a / (4 * n)
    off = None
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = ctx.sqrt(2 * ctx.fsum(a[i][j] ** 2 for i in range(n) for j in range(i + 1, n)))
        if off <= eps * norm_a:
            break
        for p in range(n - 1):
            ap = a[p]
            vp = v[p]
            for q in range(p + 1, n):
                apq = ap[q]
                if abs(apq) <= rot_tol:
                    continue
                aq = a[q]
                vq = v[q]
                tau = (aq[q] - ap[p]) / (2 * apq)
                t = (1 if tau >= 0 else -1) / (abs(tau) + ctx.sqrt(1 + tau * tau))
                c = 1 / ctx.sqrt(1 + t * t)
                s = t * c
                for i in range(n):  # columns p and q of the symmetric a
                    aip = a[i][p]
                    aiq = a[i][q]
                    a[i][p] = c * aip - s * aiq
                    a[i][q] = s * aip + c * aiq
                for i in range(n):  # rows p and q
                    api = ap[i]
                    aqi = aq[i]
                    ap[i] = c * api - s * aqi
                    aq[i] = s * api + c * aqi
                for i in range(n):  # accumulated rotations, stored row-wise
                    vpi = vp[i]
                    vqi = vq[i]
                    vp[i] = c * vpi - s * vqi
                    vq[i] = s * vpi + c * vqi
    else:
        raise NumericalFailureError(
            f"Jacobi eigensolver did not converge in {_JACOBI_MAX_SWEEPS} sweeps",
            residual=float(off / norm_a),
        )
    order = sorted(range(n), key=lambda i: a[i][i], reverse=True)
    eigenvalues = [a[i][i] for i in order]
    U = ctx.matrix(n, n)
    for col, src in enumerate(order):
        vrow = v[src]
        for row in range(n):
            U[row, col] = vrow[row]
    return eigenvalues, U


def _sym_eig_impl(Z: ImpedanceMatrix):
    try:
        w, u = np.linalg.eigh(Z.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    return w[::-1].copy(), u[:, ::-1].copy()


def sym_eig(Z: ImpedanceMatrix):
    """Eigendecomposition ``Z = U diag(s) U^T``.

    Returns
    -------
    eigenvalues
        Sorted descending; ndarray under machine double, list of mpf
        under extended precision.
    U
        Orthonormal eigenvectors as matrix columns, ordered to match.
    """
    return Z.eigendecomposition()


def _clamped_spectrum(Z: ImpedanceMatrix):
    """Eigenvalues with negative roundoff clamped to zero."""
    s, U = Z.eigendecomposition()
    if Z.precision.is_extended:
        zero = Z.context.mpf(0)
        return [v if v > 0 else zero for v in s], U
    return np.maximum(s, 0.0), U


def condition_number(Z: ImpedanceMatrix) -> float:
    """Ratio of the largest to the smallest eigenvalue magnitude.

    Z is symmetric PSD up to roundoff, so its eigenvalues are its
    singular values; negative roundoff eigenvalues count as zero.  An
    exactly zero smallest eigenvalue reports ``inf`` rather than raising.
    """
    s, _ = _clamped_spectrum(Z)
    s_max = s[0]
    s_min = s[-1] if not Z.precision.is_extended else s[-1]
    if s_max <= 0:
        raise InvalidArgumentError("condition number needs at least one nonzero eigenvalue")
    if s_min == 0:
        return math.inf
    return float(s_max / s_min)


def truncated_inverse(Z: ImpedanceMatrix, s_min_threshold: float):
    """Pseudo-inverse keeping only eigenvalues strictly above a threshold.

    ``sum over s_n > threshold of u_n u_n^T / s_n``; symmetric PSD.  With
    threshold 0 on a full-rank matrix this is the exact inverse up to
    solver tolerance.

    Raises
    ------
    EmptySpectrumError
        If no eigenvalue clears the threshold.
    """
    if s_min_threshold < 0:
        raise InvalidArgumentError(f"threshold must be >= 0, got {s_min_threshold!r}")
    s, U = _clamped_spectrum(Z)
    if Z.precision.is_extended:
        keep = [i for i, v in enumerate(s) if v > s_min_threshold]
        if not keep:
            raise EmptySpectrumError(f"no eigenvalue above threshold {s_min_threshold!r}")
        with MP_LOCK:
            return _rank_inverse_mp(Z.context, s, U, keep)
    keep = np.flatnonzero(s > s_min_threshold)
    if keep.size == 0:
        raise EmptySpectrumError(f"no eigenvalue above threshold {s_min_threshold!r}")
    uk = U[:, keep]
    return (uk / s[keep]) @ uk.T


def rank_truncated_inverse(Z: ImpedanceMatrix, modes: int):
    """Pseudo-inverse keeping the ``modes`` largest eigenvalues.

    Count-based companion to :func:`truncated_inverse`; modes with
    (clamped) zero eigenvalues are never inverted even if requested.
    """
    if not 1 <= modes <= Z.n:
        raise InvalidArgumentError(f"modes must be in 1..{Z.n}, got {modes!r}")
    s, U = _clamped_spectrum(Z)
    if Z.precision.is_extended:
        keep = [i for i in range(modes) if s[i] > 0]
        if not keep:
            raise EmptySpectrumError("all requested modes have zero eigenvalue")
        with MP_LOCK:
            return _rank_inverse_mp(Z.context, s, U, keep)
    keep = np.flatnonzero(s[:modes] > 0)
    if keep.size == 0:
        raise EmptySpectrumError("all requested modes have zero eigenvalue")
    uk = U[:, keep]
    return (uk / s[keep]) @ uk.T


def _rank_inverse_mp(ctx, s, U, keep):
    n = U.rows
    out = ctx.matrix(n, n)
    for idx in keep:
        inv = 1 / s[idx]
        col = [U[r, idx] for r in range(n)]
        for a in range(n):
            ca = inv * col[a]
            for b in range(a, n):
                v = out[a, b] + ca * col[b]
                out[a, b] = v
                out[b, a] = v
    return out


def _residual_norms_double(Zm, x, h):
    r = h - Zm @ x
    return np.linalg.norm(r), r


def solve(Z: ImpedanceMatrix, h, precision: Precision | None = None):
    """Solve ``Z x = h`` with one pass of iterative refinement.

    The relative residual ``||Zx - h|| / ||h||`` must come out at or
    below 1e-8 in the working arithmetic, otherwise an
    :class:`IllConditionedSolveError` carrying the achieved residual and
    a condition-number estimate is raised.

    Machine double factors Z with LAPACK.  Extended precision factors
    one block per parity sector of ``Z.orbits`` that h excites (see the
    module docstring) and checks the residual against the full Z; the
    refinement step projects the residual into the same sectors.

    Parameters
    ----------
    Z : ImpedanceMatrix
    h : ndarray or mpmath matrix
        Right-hand side, matching Z's representation.
    precision : Precision, optional
        Must agree with ``Z.precision`` when given; the working
        arithmetic always follows the matrix.
    """
    if precision is not None and precision != Z.precision:
        raise InvalidArgumentError(
            f"solve precision {precision.spec()} does not match matrix precision "
            f"{Z.precision.spec()}; build Z at the precision you want to solve in"
        )
    if Z.precision.is_extended:
        return _solve_extended(Z, h)
    return _solve_double(Z, h)


def _solve_double(Z: ImpedanceMatrix, h):
    h = np.asarray(h)
    if h.shape != (Z.n,):
        raise InvalidArgumentError(f"right-hand side must have shape ({Z.n},), got {h.shape}")
    norm_h = np.linalg.norm(h)
    if norm_h == 0:
        return np.zeros_like(h)
    try:
        lu, piv = lu_factor(Z.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"LU factorization failed: {exc}") from exc
    x = _lapack_lu_solve((lu, piv), h)
    res, r = _residual_norms_double(Z.entries, x, h)
    # one refinement pass; keep whichever iterate has the smaller residual
    x_ref = x + _lapack_lu_solve((lu, piv), r)
    res_ref, _ = _residual_norms_double(Z.entries, x_ref, h)
    if res_ref < res:
        x, res = x_ref, res_ref
    if not res <= _SOLVE_RESIDUAL_RTOL * norm_h:
        raise IllConditionedSolveError(
            f"solve residual {res / norm_h:.3e} exceeds {_SOLVE_RESIDUAL_RTOL:.0e}",
            residual=float(res / norm_h),
            kappa_estimate=condition_number(Z),
        )
    return x


def _solve_extended(Z: ImpedanceMatrix, h):
    if not (hasattr(h, "rows") and h.rows == Z.n and h.cols == 1):
        raise InvalidArgumentError(f"right-hand side must be an mpmath column of length {Z.n}")
    with MP_LOCK:
        ctx = Z.context
        norm_h = ctx.norm(h)
        if norm_h == 0:
            return ctx.matrix(Z.n, 1)
        # factor each sector the right-hand side excites once, and reuse
        # the factors for the refinement step and the condition estimate
        factored = []
        for parity in _PARITIES:
            sector = _sector_orbits(Z.orbits, parity)
            if sector and any(_project(ctx, h, members) != 0 for members in sector):
                with ctx.extraprec(_LU_GUARD_BITS):
                    lu, piv = ctx.LU_decomp(_sector_block(ctx, Z.entries, sector),
                                            overwrite=True)
                factored.append((sector, lu, piv))

        def apply_inverse(v):
            """Z^-1 v on the factored sectors; v's other components are dropped."""
            x = ctx.matrix(Z.n, 1)
            with ctx.extraprec(_LU_GUARD_BITS):
                for sector, lu, piv in factored:
                    b = ctx.matrix([_project(ctx, v, members) for members in sector])
                    y = ctx.U_solve(lu, ctx.L_solve(lu, b, piv))
                    for members, y_p in zip(sector, y):
                        for j, sign in members:
                            x[j] += y_p if sign > 0 else -y_p
            return x

        x = apply_inverse(h)
        r = h - Z.entries * x
        res = ctx.norm(r)
        x_ref = x + apply_inverse(r)
        res_ref = ctx.norm(h - Z.entries * x_ref)
        if res_ref < res:
            x, res = x_ref, res_ref
        if not res <= _SOLVE_RESIDUAL_RTOL * norm_h:
            raise IllConditionedSolveError(
                f"solve residual {float(res / norm_h):.3e} exceeds {_SOLVE_RESIDUAL_RTOL:.0e}"
                f" at {Z.precision.spec()}",
                residual=float(res / norm_h),
                kappa_estimate=float(ctx.mnorm(Z.entries, 1)
                                     * _norm1_estimate(ctx, apply_inverse, Z.n)),
            )
        return x


def _sector_orbits(orbits, parity):
    """The orbits a parity sector holds, each as its ``(element, sign)`` pairs.

    An orbit drops out of a sector whose character is -1 on a mirror
    that fixes the orbit's elements: its sector vector would equal
    minus itself.
    """
    sector = []
    for images in orbits.tolist():
        members = {}
        for j, sign in zip(images, parity):
            if members.setdefault(j, sign) != sign:
                break
        else:
            sector.append(list(members.items()))
    return sector


def _project(ctx, v, members):
    """Component of v on one orbit's sector vector: the signed mean over the orbit.

    The sum is exact before its one rounding, so a component that
    symmetry makes zero comes out exactly zero.
    """
    return ctx.fsum(v[j] if sign > 0 else -v[j] for j, sign in members) / len(members)


def _sector_block(ctx, entries, sector):
    """Z restricted to a sector: ``A[p, q] = sum over q's members of sign * Z[r_p, member]``.

    ``r_p`` is the first member of orbit p.  With x equal to
    ``sign * y_q`` on q's members, ``(Z x)[r_p] = (A y)[p]``.
    """
    m = len(sector)
    A = ctx.matrix(m, m)
    for p, row_orbit in enumerate(sector):
        r = row_orbit[0][0]
        for q, members in enumerate(sector):
            A[p, q] = ctx.fsum(entries[r, j] if sign > 0 else -entries[r, j]
                               for j, sign in members)
    return A


def _norm1_estimate(ctx, apply_inverse, n):
    """Hager-Higham lower estimate of the 1-norm of a symmetric operator.

    Higham's refinement of Hager's method (ACM TOMS 670, LAPACK
    ``xLACON``): at most five power-method-like steps, each one or two
    products with the operator, then one product with an alternating
    test vector; real arithmetic throughout.
    """
    def apply(v):
        return [ctx.re(c) for c in apply_inverse(ctx.matrix(v))]

    def sign(v):
        return [1 if c >= 0 else -1 for c in v]

    def norm1(v):
        return ctx.fsum(abs(c) for c in v)

    v = apply([ctx.mpf(1) / n] * n)
    if n == 1:
        return abs(v[0])
    est = norm1(v)
    xi = sign(v)
    x = apply(xi)  # the operator is symmetric: its transpose is itself
    j = max(range(n), key=lambda i: abs(x[i]))
    for _ in range(4):
        v = apply([1 if i == j else 0 for i in range(n)])
        est_old, est = est, norm1(v)
        if sign(v) == xi or est <= est_old:
            break
        xi = sign(v)
        x = apply(xi)
        j_last, j = j, max(range(n), key=lambda i: abs(x[i]))
        if x[j_last] == abs(x[j]):
            break
    alt = apply([(-1) ** i * (1 + ctx.mpf(i) / (n - 1)) for i in range(n)])
    return max(est, 2 * norm1(alt) / (3 * n))


def quadratic_form(Z: ImpedanceMatrix, i):
    """Real radiated-power quadratic form ``Re(i^H Z i)``."""
    if Z.precision.is_extended:
        with MP_LOCK:
            ctx = Z.context
            acc = (i.T.conjugate() * (Z.entries * i))[0, 0]
            return ctx.re(acc)
    iv = np.asarray(i)
    return float(np.real(np.vdot(iv, Z.entries @ iv)))


def write_matrix_text(Z: ImpedanceMatrix, path) -> None:
    """Dump entries as plain text: one row per line, 17 significant digits."""
    arr = Z.as_float_array()
    with open(path, "w") as fh:
        for row in arr:
            fh.write(" ".join(f"{v:.17g}" for v in row))
            fh.write("\n")
