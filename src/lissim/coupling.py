"""Mutual-coupling impedance matrices and the linear algebra on them.

The impedance matrix Z is real, symmetric, and positive semidefinite up
to roundoff: its quadratic form ``i^H Z i`` is the total radiated power
of excitation currents ``i`` (constant factors removed).  Entries are
``sin(k r)/(k r)`` for isotropic elements and ``J1(k r)/(k r)`` for
planar ones, with ``r`` the element separation.

Everything here is precision-generic, and every matrix and vector is a
numpy array: float64 or complex128 under machine double, backed by
LAPACK, and an object array of the precision's mpmath numbers under
extended precision.  There a cyclic Jacobi eigensolver works unchanged
at any mantissa width.  It starts from the LAPACK eigenbasis of each
block rounded to double, made orthonormal in the working precision, and
needs 3-4 sweeps from there.  On the sector blocks of a 20-element line
(kappa up to 1e30) its eigenvalues agree with a 640-bit decomposition of
the same 256-bit blocks to about 1e-64 relative, the smallest included;
Jacobi from the unit basis is only absolutely accurate there, to about
``eps kappa`` relative on the smallest eigenvalue.  Extended inner
products are ``fdot``, one rounding each.

Both precisions build Z of a lattice layout from its table of distinct
lattice offsets: one kernel value per ``(|di|, |dj|)`` pair, then a
gather.  So Z is exactly invariant under the layout's mirrors y -> -y
and z -> -z, and it splits exactly into four parity sectors, one per
character (+-1, +-1) of the mirror group, each about N/4 square.  The
eigendecomposition and the solve work on the sector blocks
``B_s = E_s^T Z E_s`` in both precisions: the eigensolver decomposes each
block and merges the spectra; the solve projects the right-hand side
onto the sectors, skips those it does not excite (a broadside terminal
excites only the even-even one), factors each remaining block once, and
checks the residual against the full Z.  Layouts without lattice
indices have one orbit per element, a single sector, and the sector
block is Z itself, bit for bit.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_solve as _lapack_lu_solve
from scipy.spatial.distance import cdist

from .errors import (
    CapacityError,
    EmptySpectrumError,
    IllConditionedSolveError,
    InvalidArgumentError,
    InvalidGeometryError,
    NumericalFailureError,
)
from .geometry import ArrayGeometry, ElementKind
from .specfun import MP_LOCK, Precision, j1_over_x, sinc_unnormalized

_JACOBI_MAX_SWEEPS = 100
# a block whose off-diagonal norm is at most this share of its Frobenius
# norm is diagonal to double precision: Jacobi keeps the unit start basis
_WARM_START_OFF_RTOL = 2.0 ** -52
_SOLVE_RESIDUAL_RTOL = 1e-8
# the extra working bits mpmath's own lu_solve uses for factor and substitution
_LU_GUARD_BITS = 10
# value of each parity character on (identity, y mirror, z mirror, both),
# the column order of ImpedanceMatrix.orbits
_PARITIES = ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))


class _Sector:
    """One parity sector of Z: the orbits it holds and its orthonormal basis E.

    Column p of E holds orbit p's members, each with its sign under the
    sector's character, scaled by ``1/sqrt(|orbit|)``.  Products with E
    are signed sums over an orbit's four images (identity, y mirror,
    z mirror, both) in fixed pairs, ``(v0 +- v1) +- (v2 +- v3)``, in
    which an image that repeats counts ``4/|orbit|`` times.  So a
    component that the symmetry makes zero comes out exactly zero, the
    block of an exactly invariant Z is exactly symmetric, and with one
    orbit per element every product is exact and the block is Z itself.

    ``sqrt`` maps a list of orbit sizes to their square roots in the
    matrix's arithmetic; the methods take numpy arrays of floats, or
    object arrays of mpmath numbers, to match.
    """

    def __init__(self, parity, orbits, sqrt):
        self.parity = parity
        # (m, 4) element indices in the column order of _PARITIES
        self.images = np.array(orbits, dtype=int)
        # an orbit's size is 4 over the number of mirrors that fix its elements
        self.roots = sqrt([4 // images.count(images[0]) for images in orbits])

    def _signed_sum(self, image):
        _, sign_y, sign_z, _ = self.parity

        def pair(a, b, sign):
            return a + b if sign > 0 else a - b

        return pair(pair(image(0), image(1), sign_y), pair(image(2), image(3), sign_y), sign_z)

    def project(self, v):
        """``E^T v`` for a vector v over the elements."""
        return self._signed_sum(lambda k: v[self.images[:, k]]) * (self.roots / 4)

    def block(self, entries):
        """``E^T Z E``, gathered from the rows of the orbits' first members."""
        first = self.images[:, :1]
        half = self.roots / 2
        return (self._signed_sum(lambda k: entries[first, self.images[:, k]])
                * np.outer(half, half))

    def expand(self, y, out, columns=None):
        """Write ``E y`` into the rows of out (or into the given columns of a matrix)."""
        scaled = (y.T / self.roots).T
        negated = -scaled
        for k, sign in enumerate(self.parity):
            rows = self.images[:, k]
            out[rows if columns is None else np.ix_(rows, columns)] = (
                scaled if sign > 0 else negated)
        return out


def _sectors(orbits, sqrt):
    """The nonempty parity sectors of a layout's mirror orbits.

    An orbit drops out of a sector whose character is -1 on a mirror
    that fixes the orbit's elements: its sector vector would equal
    minus itself.
    """
    sectors = []
    for parity in _PARITIES:
        held = [images for images in orbits.tolist()
                if all(sign > 0 or image != images[0] for image, sign in zip(images, parity))]
        if held:
            sectors.append(_Sector(parity, held, sqrt))
    return sectors


class ImpedanceMatrix:
    """Real symmetric N x N mutual-coupling matrix with cached spectrum.

    Instances are immutable after construction; the eigendecomposition
    is computed once on first use behind a lock, after which reads are
    concurrency-safe.

    Attributes
    ----------
    entries : ndarray, shape (N, N), read-only
        The matrix itself: float64 under machine double, an object array
        of the precision's mpmath numbers under extended precision.
    kind : ElementKind
        Element model the kernel belongs to.
    precision : Precision
        Arithmetic the entries were built in.
    orbits : ndarray of int, shape (M, 4)
        Element orbits under the layout's mirror symmetries, as returned
        by :meth:`ArrayGeometry.mirror_orbits`: row k holds the images of
        one element under the identity, the y mirror, the z mirror and
        both, and Z must be exactly invariant under each of these
        permutations.  They define the parity sectors in which the
        eigendecomposition and the solve work, in both precisions.
        :func:`impedance` attaches the layout's orbits and builds lattice
        entries from the lattice offsets, so the invariance is exact.
        Defaults to one orbit per element: a single sector whose block
        is Z itself.
    """

    def __init__(self, entries, kind: ElementKind, precision: Precision, orbits=None):
        if not (isinstance(entries, np.ndarray) and entries.ndim == 2
                and entries.shape[0] == entries.shape[1]):
            raise InvalidArgumentError(
                "entries must be a square numpy array, of mpmath numbers under extended precision")
        self.kind = kind
        self.precision = precision
        self._ctx = precision.context()
        entries.setflags(write=False)
        self.entries = entries
        # the square roots of the orbit sizes (1, 2 or 4) in Z's arithmetic
        if precision.is_extended:
            with MP_LOCK:
                roots = {m: self._ctx.sqrt(m) for m in (1, 2, 4)}

            def sqrt(sizes):
                return np.array([roots[m] for m in sizes], dtype=object)
        else:
            sqrt = np.sqrt
        if orbits is None:
            orbits = np.column_stack([np.arange(self.n)] * 4)
        self.orbits = orbits
        self.orbits.setflags(write=False)
        self._sectors = _sectors(orbits, sqrt)
        self._eig = None
        self._eig_lock = threading.Lock()

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def context(self):
        return self._ctx

    def eigendecomposition(self):
        """Cached ``(eigenvalues descending, orthonormal U)``, computed per sector."""
        # lock order is always MP_LOCK, then the per-matrix cache lock
        with _arithmetic(self), self._eig_lock:
            if self._eig is None:
                self._eig = _sector_eigh(self)
            return self._eig

    def as_float_array(self) -> np.ndarray:
        """Entries rounded to float64 (e.g. for text dumps)."""
        return self.entries.astype(float)


def _arithmetic(Z: ImpedanceMatrix):
    """The lock to hold while computing in Z's arithmetic: ``MP_LOCK``, or none in double."""
    return MP_LOCK if Z.precision.is_extended else contextlib.nullcontext()


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


def _lattice_extent(geom: ArrayGeometry):
    """Lattice indices shifted to start at 0, and the extent ``(n_y, n_z)`` they span."""
    rel = geom.lattice_indices - geom.lattice_indices.min(axis=0)
    n_y, n_z = (int(v) for v in rel.max(axis=0) + 1)
    if np.bincount(rel[:, 0] * n_z + rel[:, 1]).max() > 1:
        raise InvalidGeometryError("duplicate element positions make Z exactly singular")
    return rel, n_y, n_z


def _gather_offsets(rel, table):
    """``Z[a, b] = table[|di|, |dj|]`` for the lattice offset of every element pair."""
    def axis_offsets(i):
        d = np.subtract.outer(i, i)
        return np.abs(d, out=d)

    flat = axis_offsets(rel[:, 0])
    flat *= table.shape[1]
    flat += axis_offsets(rel[:, 1])
    return table.ravel()[flat]


def _impedance_double(geom: ArrayGeometry) -> np.ndarray:
    if geom.lattice_indices is not None:
        # one kernel value per distinct lattice offset, then one gather
        rel, n_y, n_z = _lattice_extent(geom)
        r = np.sqrt((np.arange(n_y)[:, None] * geom.dy) ** 2
                    + (np.arange(n_z)[None, :] * geom.dz) ** 2)
        return _gather_offsets(rel, _kernel_double(geom.kind, geom.wavenumber * r))
    r = cdist(geom.positions, geom.positions)
    if geom.n > 1:
        off = r + np.diag(np.full(geom.n, np.inf))
        if np.min(off) == 0.0:
            raise InvalidGeometryError("duplicate element positions make Z exactly singular")
    return _kernel_double(geom.kind, geom.wavenumber * r)


def _impedance_extended(ctx, geom: ArrayGeometry):
    """Z as an object array of the context's numbers; call under ``MP_LOCK``."""
    n = geom.n
    k = 2 * ctx.pi / ctx.mpf(geom.wavelength)
    if geom.lattice_indices is not None:
        # exact integer offsets on the lattice: one kernel evaluation per
        # distinct |di|, |dj| pair, then one gather
        rel, n_y, n_z = _lattice_extent(geom)
        dy = ctx.mpf(geom.dy)
        dz = ctx.mpf(geom.dz)
        table = np.array([[_kernel_mp(ctx, geom.kind,
                                      k * ctx.sqrt((a * dy) ** 2 + (b * dz) ** 2))
                           for b in range(n_z)] for a in range(n_y)], dtype=object)
        return _gather_offsets(rel, table)
    Z = np.empty((n, n), dtype=object)
    cache = {}
    pos = geom.positions
    for a in range(n):
        for b in range(a, n):
            key = (abs(pos[a, 0] - pos[b, 0]), abs(pos[a, 1] - pos[b, 1]),
                   abs(pos[a, 2] - pos[b, 2]))
            v = cache.get(key)
            if v is None:
                r = ctx.sqrt(ctx.mpf(key[0]) ** 2 + ctx.mpf(key[1]) ** 2
                             + ctx.mpf(key[2]) ** 2)
                if r == 0 and a != b:
                    raise InvalidGeometryError(
                        "duplicate element positions make Z exactly singular")
                v = _kernel_mp(ctx, geom.kind, k * r)
                cache[key] = v
            Z[a, b] = Z[b, a] = v
    return Z


def _physical_memory_bytes():
    """The machine's physical memory in bytes, or None where the system does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None


def impedance(geom: ArrayGeometry, precision: Precision = Precision()) -> ImpedanceMatrix:
    """Build the mutual-coupling matrix for a layout.

    Entries are ``kernel(k * ||p_a - p_b||)`` where the kernel is the
    unnormalized sinc (isotropic) or ``J1(x)/x`` (planar); the diagonal
    is therefore 1 or 1/2.  The matrix is symmetric by construction.
    Lattice layouts are built from the kernel's values at their distinct
    lattice offsets, so Z is exactly invariant under the layout's
    mirrors, whose orbits the matrix carries (see
    :attr:`ImpedanceMatrix.orbits`).

    Raises
    ------
    InvalidGeometryError
        If two elements coincide (the kernel argument 0 off the diagonal
        would make Z exactly singular).
    CapacityError
        If the dense matrix, 8 bytes per entry, would not fit in the
        machine's physical memory.
    """
    memory = _physical_memory_bytes()
    if memory is not None and 8 * geom.n ** 2 > memory:
        raise CapacityError(
            f"a dense {geom.n} x {geom.n} coupling matrix needs {8 * geom.n ** 2 / 2 ** 30:.1f}"
            f" GiB, more than the {memory / 2 ** 30:.1f} GiB of physical memory")
    if precision.is_extended:
        with MP_LOCK:
            entries = _impedance_extended(precision.context(), geom)
    else:
        entries = _impedance_double(geom)
    return ImpedanceMatrix(entries, geom.kind, precision, orbits=geom.mirror_orbits())


def _off_norm(ctx, a):
    """Frobenius norm of the off-diagonal part of a symmetric row list."""
    n = len(a)
    return ctx.sqrt(2 * ctx.fsum(a[i][j] ** 2 for i in range(n) for j in range(i + 1, n)))


def _double_basis(ctx, a):
    """An eigenbasis of ``a`` from LAPACK in double, orthonormal in the working precision.

    Returns the basis vectors as rows: the double ``eigh`` eigenvectors,
    each made orthogonal to the ones before it and normalized by
    Gram-Schmidt done twice, so orthonormal to the working precision.
    """
    _, q = _lapack_eigh(np.array(a, dtype=float))
    rows = []
    for column in q.T:
        x = [ctx.mpf(c) for c in column]
        for _ in range(2):
            for r in rows:
                c = ctx.fdot(r, x)
                x = [xi - c * ri for xi, ri in zip(x, r)]
        scale = 1 / ctx.sqrt(ctx.fdot(x, x))
        rows.append([xi * scale for xi in x])
    return rows


def _congruence(ctx, a, v):
    """``V A V^T`` for the symmetric row list a and the basis rows v, exactly symmetric.

    Every entry is formed with one rounding (``fdot`` of a row of v with
    ``A v_j``, itself rounded once per entry).
    """
    av = [[ctx.fdot(row, vj) for row in a] for vj in v]
    b = [[None] * len(v) for _ in v]
    for i, vi in enumerate(v):
        for j in range(i, len(v)):
            b[i][j] = b[j][i] = ctx.fdot(vi, av[j])
    return b


def _jacobi_eigh(ctx, A):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix of mpmath numbers.

    ``A`` is a square numpy object array.  Returns the eigenvalues
    (descending, a list) and the orthonormal eigenvectors as the columns
    of a numpy object array.

    The sweeps (:func:`_jacobi_sweeps`) start from the double ``eigh``
    basis made orthonormal in the working precision
    (:func:`_double_basis`), with A rotated into it: the mixed-precision
    Jacobi of Higham, Tisseur, Webb and Zhou (SIAM J. Matrix Anal. Appl.
    42, 2021).  The rotated A is off-diagonal only to about 1e-16 of its
    norm, so the quadratically convergent sweeps finish in 3-4 sweeps,
    where the unit start basis needs 8-10 on the sector blocks of a
    20-element line.  A block already diagonal to double precision
    (off-diagonal norm at most ``2^-52 ||A||_F``, as on a half-wavelength
    isotropic line, whose spectrum is degenerate) keeps the unit start
    basis, and with it the eigenvectors the sweeps find from there.
    Works on plain row lists internally, which index faster than the
    object array.
    """
    a = [list(row) for row in A.tolist()]
    n = len(a)
    norm_a = ctx.sqrt(ctx.fsum(x * x for row in a for x in row))
    if norm_a != 0 and _off_norm(ctx, a) > _WARM_START_OFF_RTOL * norm_a:
        v = _double_basis(ctx, a)
        a = _congruence(ctx, a, v)
    else:
        v = [[ctx.one if i == j else ctx.zero for j in range(n)] for i in range(n)]
    return _jacobi_sweeps(ctx, a, v, norm_a)


def _jacobi_sweeps(ctx, a, v, norm_a):
    """Cyclic Jacobi sweeps on the symmetric row list a, from the start basis rows v.

    a and v are rotated in place.  ``norm_a`` is the Frobenius norm of
    the matrix a holds, up to rounding.  Converges when the off-diagonal
    Frobenius norm reaches the rounding floor ``eps norm_a`` of the
    working precision; capped at ``_JACOBI_MAX_SWEEPS`` sweeps.  Returns
    what :func:`_jacobi_eigh` returns.
    """
    n = len(a)
    if norm_a == 0:
        return [ctx.zero] * n, np.array(v, dtype=object)
    eps = ctx.mpf(2) ** (1 - ctx.prec)
    # rotations this small cannot move the off-diagonal mass above the
    # convergence floor, so they are safe to skip
    rot_tol = eps * norm_a / (4 * n)
    off = None
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = _off_norm(ctx, a)
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
    return [a[i][i] for i in order], np.array([v[i] for i in order], dtype=object).T


def _block_eigh(Z: ImpedanceMatrix, block):
    """Eigenvalues (descending) and eigenvectors (columns) of one sector block."""
    if Z.precision.is_extended:
        return _jacobi_eigh(Z.context, block)
    w, u = _lapack_eigh(block)
    return w[::-1], u[:, ::-1]


def _lapack_eigh(block):
    """LAPACK ``eigh`` of a float64 block: eigenvalues ascending, eigenvectors as columns."""
    try:
        return np.linalg.eigh(block)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc


def _sector_eigh(Z: ImpedanceMatrix):
    """Eigendecomposition of Z from those of its sector blocks.

    Each block's eigenvectors are carried back with E_s, and the
    eigenvalues of all sectors are merged in descending order by a
    stable sort, so a single sector gives exactly the dense result.
    """
    parts = [(sector, *_block_eigh(Z, sector.block(Z.entries))) for sector in Z._sectors]
    values = [v for _, block_values, _ in parts for v in block_values]
    order = sorted(range(Z.n), key=values.__getitem__, reverse=True)
    column = np.empty(Z.n, dtype=int)
    column[order] = np.arange(Z.n)
    if Z.precision.is_extended:
        dtype, zero = object, Z.context.zero
    else:
        dtype, zero = float, 0.0
    s = np.array(values, dtype=dtype)[order]
    U = np.full((Z.n, Z.n), zero, dtype=dtype)
    start = 0
    for sector, block_values, vectors in parts:
        sector.expand(vectors, U, column[start:start + len(block_values)])
        start += len(block_values)
    s.setflags(write=False)
    U.setflags(write=False)
    return s, U


def sym_eig(Z: ImpedanceMatrix):
    """Eigendecomposition ``Z = U diag(s) U^T``.

    Returns
    -------
    eigenvalues : ndarray, shape (N,)
        Sorted descending.
    U : ndarray, shape (N, N)
        Orthonormal eigenvectors as columns, ordered to match.

    Both are float64 under machine double and object arrays of mpmath
    numbers under extended precision; both are read-only, since they are
    the matrix's cached spectrum.
    """
    return Z.eigendecomposition()


def _clamped_spectrum(Z: ImpedanceMatrix):
    """Eigenvalues with negative roundoff clamped to zero."""
    s, U = Z.eigendecomposition()
    return np.maximum(s, 0.0), U


def condition_number(Z: ImpedanceMatrix) -> float:
    """Ratio of the largest to the smallest eigenvalue magnitude.

    Z is symmetric PSD up to roundoff, so its eigenvalues are its
    singular values; negative roundoff eigenvalues count as zero.  An
    exactly zero smallest eigenvalue reports ``inf`` rather than raising.
    """
    s, _ = _clamped_spectrum(Z)
    s_max = s[0]
    s_min = s[-1]
    if s_max <= 0:
        raise InvalidArgumentError("condition number needs at least one nonzero eigenvalue")
    if s_min == 0:
        return math.inf
    return float(s_max / s_min)


def _modes_above(Z: ImpedanceMatrix, s_min_threshold: float):
    """The clamped spectrum and the indices of its eigenvalues strictly above a threshold."""
    if s_min_threshold < 0:
        raise InvalidArgumentError(f"threshold must be >= 0, got {s_min_threshold!r}")
    s, U = _clamped_spectrum(Z)
    keep = [i for i, v in enumerate(s) if v > s_min_threshold]
    if not keep:
        raise EmptySpectrumError(f"no eigenvalue above threshold {s_min_threshold!r}")
    return s, U, keep


def _leading_modes(Z: ImpedanceMatrix, modes: int):
    """The clamped spectrum and the indices of its ``modes`` largest nonzero eigenvalues."""
    if not 1 <= modes <= Z.n:
        raise InvalidArgumentError(f"modes must be in 1..{Z.n}, got {modes!r}")
    s, U = _clamped_spectrum(Z)
    keep = [i for i in range(modes) if s[i] > 0]
    if not keep:
        raise EmptySpectrumError("all requested modes have zero eigenvalue")
    return s, U, keep


def _modal_inverse(Z: ImpedanceMatrix, s, U, keep):
    """``sum over kept n of u_n u_n^T / s_n``."""
    with _arithmetic(Z):
        uk = U[:, keep]
        return (uk / s[keep]) @ uk.T


def _modal_sums(ctx, s, U, keep, h):
    """The running sum of ``(u_k^T h / s_k) u_k`` over the modes in keep, after each one.

    Extended precision; call under ``MP_LOCK``.  Yields the same list,
    updated in place.
    """
    n = len(U)
    x = [ctx.zero] * n
    for idx in keep:
        u = U[:, idx]
        coef = ctx.fdot(u, h) / s[idx]
        for r in range(n):
            x[r] += coef * u[r]
        yield x


def _modal_solve(Z: ImpedanceMatrix, s, U, keep, h):
    """``U_k (U_k^T h / s_k)`` over the kept modes: O(N k), no N x N pseudo-inverse."""
    if Z.precision.is_extended:
        with MP_LOCK:
            *_, x = _modal_sums(Z.context, s, U, keep, h)
            return np.array(x, dtype=object)
    uk = U[:, keep]
    return uk @ ((uk.T @ np.asarray(h)) / s[keep])


def _rank_solves(Z: ImpedanceMatrix, h):
    """``rank_truncated_solve(Z, h, m)`` for m = 1..N, bit for bit, in one pass.

    The spectrum is descending, so the modes rank m keeps are the
    nonzero ones among the first m.  Under extended precision rank m's
    current is the running sum of :func:`_modal_solve` after those
    modes, so the N currents cost one rank-N solve.  Machine double
    keeps one BLAS product per rank, whose summation order a running sum
    would not reproduce.
    """
    s, U, keep = _leading_modes(Z, Z.n)
    if not Z.precision.is_extended:
        return [_modal_solve(Z, s, U, keep[:m], h) for m in range(1, Z.n + 1)]
    with MP_LOCK:
        currents = [np.array(x, dtype=object) for x in _modal_sums(Z.context, s, U, keep, h)]
        # ranks past the last nonzero eigenvalue keep the same modes
        return currents + [currents[-1].copy() for _ in range(Z.n - len(keep))]


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
    return _modal_inverse(Z, *_modes_above(Z, s_min_threshold))


def rank_truncated_inverse(Z: ImpedanceMatrix, modes: int):
    """Pseudo-inverse keeping the ``modes`` largest eigenvalues.

    Count-based companion to :func:`truncated_inverse`; modes with
    (clamped) zero eigenvalues are never inverted even if requested.
    """
    return _modal_inverse(Z, *_leading_modes(Z, modes))


def truncated_solve(Z: ImpedanceMatrix, h, s_min_threshold: float):
    """``truncated_inverse(Z, s_min_threshold)`` applied to h, without forming it."""
    return _modal_solve(Z, *_modes_above(Z, s_min_threshold), h)


def rank_truncated_solve(Z: ImpedanceMatrix, h, modes: int):
    """``rank_truncated_inverse(Z, modes)`` applied to h, without forming it."""
    return _modal_solve(Z, *_leading_modes(Z, modes), h)


def solve(Z: ImpedanceMatrix, h, precision: Precision | None = None):
    """Solve ``Z x = h`` with one pass of iterative refinement.

    The relative residual ``||Zx - h|| / ||h||`` must come out at or
    below 1e-8 in the working arithmetic, otherwise an
    :class:`IllConditionedSolveError` carrying the achieved residual and
    a condition-number estimate is raised.  Under machine double the
    residual is itself formed in double, so it is only known to about
    ``eps ||(|Z| |x|)||``; when that rounding error exceeds 1e-8 of
    ``||h||`` the residual cannot show the contract, and the solve is
    refused the same way whatever it happens to measure.  (Under
    extended precision each entry of ``Z x`` is one ``fdot``, rounded
    once, so the extended residual needs no such guard.)

    Both precisions factor one block per parity sector of ``Z.orbits``
    that h excites (see the module docstring), with LAPACK under machine
    double and a Crout LU on row lists under extended precision
    (:func:`_crout_factor`), and check the residual against the full Z;
    the refinement step projects the residual into the same sectors.
    An exactly singular block (a zero pivot) or an iterate that is not
    finite is refused with residual ``inf``.

    Parameters
    ----------
    Z : ImpedanceMatrix
    h : array-like, shape (N,)
        Right-hand side in Z's arithmetic: of mpmath numbers (an object
        array, or an mpmath column) exactly when Z is extended.
    precision : Precision, optional
        Must agree with ``Z.precision`` when given; the working
        arithmetic always follows the matrix.

    Returns
    -------
    ndarray, shape (N,)
        The current, of h's dtype under machine double and an object
        array of mpmath numbers under extended precision.
    """
    if precision is not None and precision != Z.precision:
        raise InvalidArgumentError(
            f"solve precision {precision.spec()} does not match matrix precision "
            f"{Z.precision.spec()}; build Z at the precision you want to solve in"
        )
    h = np.asarray(h)
    if h.shape != (Z.n,) or (h.dtype == object) != Z.precision.is_extended:
        raise InvalidArgumentError(
            f"right-hand side must be a vector of shape ({Z.n},) in {Z.precision.spec()}"
            f" arithmetic, got dtype {h.dtype} and shape {h.shape}")
    if Z.precision.is_extended:
        return _solve_extended(Z, h)
    return _solve_double(Z, h)


def _sector_inverse(Z: ImpedanceMatrix, h, factor, substitute):
    """``v -> sum over the sectors h excites of E_s B_s^-1 E_s^T v``.

    ``factor(B)`` factors a sector block, once per sector that h
    excites; ``substitute(factors, b)`` solves with the factors.
    Components of v in the other sectors are dropped.
    """
    factored = [(sector, factor(sector.block(Z.entries)))
                for sector in Z._sectors if np.any(sector.project(h) != 0)]

    def apply(v):
        parts = []
        for sector, factors in factored:
            y = substitute(factors, sector.project(v))
            parts.append(sector.expand(y, np.zeros(Z.n, dtype=y.dtype)))
        return sum(parts[1:], parts[0])

    return apply


def _refined(apply_inverse, h, residual, norm):
    """One solve and one refinement step: the iterate with the smaller residual, and its norm.

    A first iterate whose residual is not finite (an overflow in double)
    is refused with residual ``inf``.
    """
    x = apply_inverse(h)
    r = residual(x)
    res = norm(r)
    if not res < math.inf:
        raise IllConditionedSolveError("solve gave a non-finite iterate: the matrix is singular",
                                       residual=math.inf, kappa_estimate=math.inf)
    x_ref = x + apply_inverse(r)
    res_ref = norm(residual(x_ref))
    if res_ref < res:
        return x_ref, res_ref
    return x, res


def _lu_factor_double(block):
    """LAPACK ``getrf`` factors ``(lu, piv)`` of a float64 block, as ``lu_factor`` returns.

    Raises
    ------
    IllConditionedSolveError
        On an exactly zero pivot: the block is singular.
    """
    getrf, = get_lapack_funcs(("getrf",), (block,))
    lu, piv, info = getrf(block)
    if info > 0:
        raise IllConditionedSolveError(
            f"zero pivot at step {info - 1} of {len(block)}: the matrix is singular",
            residual=math.inf, kappa_estimate=math.inf)
    return lu, piv


def _abs_matvec(A, v, rows=256):
    """``|A| |v|``, a block of rows at a time, so no N x N temporary is made."""
    v = np.abs(v)
    return np.concatenate([np.abs(A[k:k + rows]) @ v for k in range(0, len(A), rows)])


def _solve_double(Z: ImpedanceMatrix, h):
    norm_h = np.linalg.norm(h)
    if norm_h == 0:
        return np.zeros_like(h)
    apply_inverse = _sector_inverse(Z, h, _lu_factor_double, _lapack_lu_solve)
    x, res = _refined(apply_inverse, h, lambda x: h - Z.entries @ x, np.linalg.norm)
    tol = _SOLVE_RESIDUAL_RTOL * norm_h
    if not res <= tol:
        reason = f"solve residual {res / norm_h:.3e} exceeds {_SOLVE_RESIDUAL_RTOL:.0e}"
    else:
        # a residual formed in double is only known to about eps |Z| |x|
        floor = np.finfo(float).eps * np.linalg.norm(_abs_matvec(Z.entries, x))
        if floor <= tol:
            return x
        reason = (f"solve residual {res / norm_h:.3e} lies below the rounding error of Z x"
                  f" in double, {floor / norm_h:.3e}, so it cannot show {_SOLVE_RESIDUAL_RTOL:.0e}")
    raise IllConditionedSolveError(
        reason,
        residual=float(res / norm_h),
        kappa_estimate=condition_number(Z),
    )


def _solve_extended(Z: ImpedanceMatrix, h):
    with MP_LOCK:
        ctx = Z.context
        norm_h = ctx.norm(h)
        if norm_h == 0:
            return np.full(Z.n, ctx.zero, dtype=object)

        def factor(block):
            return _crout_factor(ctx, block)

        def substitute(factors, v):
            return np.array(_crout_solve(ctx, factors, v), dtype=object)

        # factor each sector h excites once, and reuse the factors for the
        # refinement step and the condition estimate
        with ctx.extraprec(_LU_GUARD_BITS):
            apply = _sector_inverse(Z, h, factor, substitute)

        def apply_inverse(v):
            with ctx.extraprec(_LU_GUARD_BITS):
                return apply(v)

        def residual(x):
            # one rounding per entry of Z x, as mpmath's matrix product
            return h - np.array([ctx.fdot(row, x) for row in Z.entries], dtype=object)

        x, res = _refined(apply_inverse, h, residual, ctx.norm)
        if not res <= _SOLVE_RESIDUAL_RTOL * norm_h:
            # Z is symmetric: its largest absolute column sum is its 1-norm
            norm1_z = max(ctx.fsum(column, absolute=True) for column in Z.entries.T)
            raise IllConditionedSolveError(
                f"solve residual {float(res / norm_h):.3e} exceeds {_SOLVE_RESIDUAL_RTOL:.0e}"
                f" at {Z.precision.spec()}",
                residual=float(res / norm_h),
                kappa_estimate=float(norm1_z * _norm1_estimate(ctx, apply_inverse, Z.n)),
            )
        return x


def _crout_factor(ctx, block):
    """LU factors ``P B = L U`` of a square object array of mpmath numbers.

    Crout's ordering (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., 2002, sec. 9.2) with partial pivoting by the
    largest ``|entry|`` in the column: step k forms column k of L and
    row k of U, each entry as ``b_ij - fdot(l_i, u_j)`` over the entries
    of L and U already formed, its inner product rounded once.  The
    matrix is read as plain row lists, never through mpmath's element
    access.  Returns ``(perm, lower, upper)``: row k of P B is row
    ``perm[k]`` of B, ``lower[k]`` holds ``L[k, :k]`` (the unit diagonal
    is implied) and ``upper[k]`` holds ``U[k, k:]``.

    Raises
    ------
    IllConditionedSolveError
        On an exactly zero pivot: B is singular.
    """
    a = block.tolist()
    n = len(a)
    perm = list(range(n))
    lower = [[] for _ in range(n)]
    columns = [[] for _ in range(n)]  # columns[j] holds U[:k, j] at step k
    upper = []
    for k in range(n):
        column = columns[k]
        candidates = [a[i][k] - ctx.fdot(lower[i], column) for i in range(k, n)]
        p = max(range(n - k), key=lambda i: abs(candidates[i]))
        pivot = candidates[p]
        if pivot == 0:
            raise IllConditionedSolveError(
                f"zero pivot at step {k} of {n}: the matrix is singular",
                residual=math.inf, kappa_estimate=math.inf)
        if p:
            q = k + p
            a[k], a[q] = a[q], a[k]
            lower[k], lower[q] = lower[q], lower[k]
            perm[k], perm[q] = perm[q], perm[k]
            candidates[p] = candidates[0]
        for i in range(1, n - k):
            lower[k + i].append(candidates[i] / pivot)
        row = [pivot]
        for j in range(k + 1, n):
            u = a[k][j] - ctx.fdot(lower[k], columns[j])
            row.append(u)
            columns[j].append(u)
        upper.append(row)
    return perm, lower, upper


def _crout_solve(ctx, factors, b):
    """Solve ``B x = b`` with :func:`_crout_factor`'s factors: one ``fdot`` per entry."""
    perm, lower, upper = factors
    y = []
    for row, k in zip(lower, perm):
        y.append(b[k] - ctx.fdot(row, y))
    x = [None] * len(y)
    for i in reversed(range(len(y))):
        row = upper[i]
        x[i] = (y[i] - ctx.fdot(row[1:], x[i + 1:])) / row[0]
    return x


def _norm1_estimate(ctx, apply_inverse, n):
    """Hager-Higham lower estimate of the 1-norm of a symmetric operator.

    Higham's refinement of Hager's method (ACM TOMS 670, LAPACK
    ``xLACON``): at most five power-method-like steps, each one or two
    products with the operator, then one product with an alternating
    test vector; real arithmetic throughout.
    """
    def apply(v):
        return [ctx.re(c) for c in apply_inverse(np.array(v, dtype=object))]

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
    iv = np.asarray(i)
    if Z.precision.is_extended:
        with MP_LOCK:
            ctx = Z.context
            zi = [ctx.fdot(row, iv) for row in Z.entries]
            return ctx.re(ctx.fdot([ctx.conj(c) for c in iv], zi))
    return float(np.real(np.vdot(iv, Z.entries @ iv)))


def write_matrix_text(Z: ImpedanceMatrix, path) -> None:
    """Dump entries as plain text: one row per line, 17 significant digits."""
    arr = Z.as_float_array()
    with open(path, "w") as fh:
        for row in arr:
            fh.write(" ".join(f"{v:.17g}" for v in row))
            fh.write("\n")
