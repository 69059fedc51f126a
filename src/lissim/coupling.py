"""Mutual-coupling impedance matrices and the linear algebra on them.

The impedance matrix Z is real, symmetric, and positive semidefinite up
to roundoff: its quadratic form ``i^H Z i`` is the total radiated power
of excitation currents ``i`` (constant factors removed).  Entries are
``sin(k r)/(k r)`` for isotropic elements and ``J1(k r)/(k r)`` for
planar ones, with ``r`` the element separation.

Every matrix and vector is a numpy array: float64 or complex128 under
machine double, and an object array of the precision's mpmath numbers
under extended precision.  Each function has one body for both, taking
the operations in which they differ (roots, products, norms, the lock)
from :meth:`Precision.arithmetic`.  Only the factorizations fork, being
different algorithms: LAPACK ``eigh`` and ``gesv`` in double, both
numpy's, and at any mantissa width a cyclic Jacobi eigensolver in
fixed-point Python ints and a Crout LU.  The Jacobi reads each block
exactly as ints, starts from the block's LAPACK eigenbasis made
orthonormal on a ``2^-(prec + 16)`` grid, rounds the rotated block once
onto a grid on which its smallest nonzero diagonal entry keeps
``prec + 16`` bits, and rotates in ints from there: 3-5 sweeps and a
last that finds nothing to rotate.  On the sector blocks of a
20-element line (kappa up to 2e30) its eigenvalues agree with a 640-bit
decomposition of the same 256-bit blocks to about 6e-71 relative, the
smallest included.  Extended inner products are ``fdot``, one rounding
each.

Both precisions build Z from the layout's table of distinct lattice
offsets: one kernel value per ``(|di|, |dj|)`` pair, then a
gather.  So Z is exactly invariant under the layout's mirrors y -> -y
and z -> -z, and it splits exactly into four parity sectors, one per
character (+-1, +-1) of the mirror group, each about N/4 square.  The
eigendecomposition and the solve work on the sector blocks
``B_s = E_s^T Z E_s`` in both precisions: the eigensolver decomposes each
block and merges the spectra; the solve projects the right-hand side
onto the sectors, skips those it does not excite (a broadside terminal
excites only the even-even one), solves in each remaining block, and
checks the residual against the full Z.

A square lattice (``n_y = n_z`` and ``dy = dz``) is also invariant
under the swap y <-> z, and Z with it, exactly, so Z has the 8
symmetries of the square.  Extended precision uses them; machine double
keeps the four mirror sectors, whose LAPACK bits would otherwise
change.  The swap splits the even-even and odd-odd sectors each into a
swap-symmetric and a swap-antisymmetric half, of about m(m+1)/2 and
m(m-1)/2 for an m x m sector, and the extended eigendecomposition and
solve both work in those halves: the Jacobi of an 11 x 11 grid
decomposes blocks of 21, 15, 30, 30, 15 and 10 instead of 36, 30, 30
and 25, and a broadside channel, exactly swap-symmetric, excites only
the first half, 45 of 81 at N = 324.  The even-odd and odd-even
sectors, which the swap exchanges, stay whole.

In extended precision every product with Z (the solve's residuals, and
the radiated power ``i^H Z i``) reads only the rows of the first
members of the orbits, of the mirrors or of the square's symmetries:
each entry is one ``fdot`` of such a row with an image of the vector,
and the images equal to plus or minus one already formed reuse its
``fdot`` values.  A vector in one mirror sector costs about N^2/4 terms
instead of N^2, one also even under the swap about N^2/8, and no vector
more than N^2, with the same bits as the row-by-row product.  Machine
double keeps its BLAS product, but multiplies a complex vector one block
of rows of Z at a time, each block cast to complex on its own, so no
complex copy of the whole of Z is made.  Every row of a block gets the
bits of the whole product.  A block of a single row would not, as numpy
multiplies it by another route, so a one-row tail joins the block
before it.  The gather that builds a lattice Z works by the same row
blocks.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import threading

import mpmath
import numpy as np

from .errors import (
    CapacityError,
    EmptySpectrumError,
    IllConditionedSolveError,
    InvalidArgumentError,
    NumericalFailureError,
)
from .geometry import ArrayGeometry, ElementKind
from .specfun import Precision, j1_over_x, sinc_unnormalized

_JACOBI_MAX_SWEEPS = 100
# a block whose off-diagonal norm is at most 2^-52 of its Frobenius norm
# is diagonal to double precision: Jacobi keeps the unit start basis
_WARM_START_OFF_BITS = 52
# bits past the working precision that the fixed-point Jacobi gives the
# smallest nonzero diagonal entry of its start block, and its basis
_JACOBI_GUARD_BITS = 16
_SOLVE_RESIDUAL_RTOL = 1e-8
# the extra working bits mpmath's own lu_solve uses for factor and substitution
_LU_GUARD_BITS = 10
# value of each parity character on (identity, y mirror, z mirror, both),
# the order of the first four columns of ImpedanceMatrix.images and .orbits
_PARITIES = ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))
# the mirror columns the swap is composed with, in the order of a square's last four images
_SWAP_COLUMNS = [0, 3, 1, 2]
# rows per block of the double products with Z and of the lattice gather (see _row_blocks)
_ROW_BLOCK = 128


class _Sector:
    """One symmetry sector of Z: the orbits it holds and its orthonormal basis E.

    A sector is a sign character of a group of element permutations
    under which Z is exactly invariant: the four mirrors (identity,
    y mirror, z mirror, both), or on a square lattice those four and
    the same composed with the swap (see :attr:`ImpedanceMatrix.images`).
    ``parity`` holds the character's value on each group element, in
    the column order of the orbits' images.  Column p of E holds orbit
    p's members, each with its sign under the character, scaled by
    ``1/sqrt(|orbit|)``.  Products with E are signed sums over an
    orbit's images in fixed pairs, ``(v0 +- v1) +- (v2 +- v3)`` for four
    and the same twice over for eight, in which an image that repeats
    counts ``|group|/|orbit|`` times.  So a component that the symmetry
    makes zero comes out exactly zero, the block of an exactly invariant
    Z is exactly symmetric, and with one orbit per element every product
    is exact and the block is Z itself.

    ``ar`` is the matrix's arithmetic (:meth:`Precision.arithmetic`);
    the methods take numpy arrays of floats, or object arrays of mpmath
    numbers, to match.
    """

    def __init__(self, parity, orbits, ar):
        self.parity = parity
        # (m, group size) element indices in the column order of parity
        self.images = np.array(orbits, dtype=int)
        # an orbit's size is the group's over the number of its elements that fix its members
        self.roots = ar.sqrt(ar.number([len(images) // images.count(images[0])
                                        for images in orbits]))

    def _signed_sum(self, image, start=0, count=None):
        """Columns ``start..start+count`` of the images, summed in pairs of halves.

        Each term is signed by the character relative to column start's.
        """
        count = len(self.parity) if count is None else count
        if count == 1:
            return image(start)
        half = count // 2
        left = self._signed_sum(image, start, half)
        right = self._signed_sum(image, start + half, half)
        return left + right if self.parity[start] == self.parity[start + half] else left - right

    def project(self, v):
        """``E^T v`` for a vector v over the elements."""
        return self._signed_sum(lambda k: v[self.images[:, k]]) * (self.roots / len(self.parity))

    def block(self, entries):
        """``E^T Z E``, gathered from the rows of the orbits' first members."""
        first = self.images[:, :1]
        return (self._signed_sum(lambda k: entries[first, self.images[:, k]])
                * np.outer(self.roots, self.roots / len(self.parity)))

    def expand(self, y, out, columns=None):
        """Write ``E y`` into the rows of out (or into the given columns of a matrix)."""
        scaled = (y.T / self.roots).T
        negated = -scaled
        for k, sign in enumerate(self.parity):
            rows = self.images[:, k]
            out[rows if columns is None else np.ix_(rows, columns)] = (
                scaled if sign > 0 else negated)
        return out


def _sectors(images, ar):
    """The nonempty sectors of a Z exactly invariant under each column of ``images``.

    Four columns give the four mirror sectors, one per character in
    :data:`_PARITIES`.  With the eight of a square lattice the swap maps
    the even-even and the odd-odd mirror sector each onto itself and
    splits it into a swap-symmetric and a swap-antisymmetric half: the
    sectors of the square's group whose character extends the mirror
    character by +1 or by -1 on the swap, of about m(m+1)/2 and
    m(m-1)/2 orbits for m the mirror sector's side.  It exchanges the
    even-odd and odd-even sectors, which stay whole.  The swap after the
    y mirror and after the z mirror, the last two columns, are each
    other's inverses, and the ee and oo characters agree on them, so the
    signed sums pair them in a sum and a half's block stays exactly
    symmetric.  An orbit drops out of a sector whose character is -1 on
    a group element that fixes the orbit's elements: its sector vector
    would equal minus itself.
    """
    mirror_orbits, group_orbits = _orbits(images[:, :4]), _orbits(images)
    sectors = []
    for parity in _PARITIES:
        if images.shape[1] == 8 and parity[1] == parity[2]:
            orbits = group_orbits
            characters = [parity + tuple(t * parity[k] for k in _SWAP_COLUMNS) for t in (1, -1)]
        else:
            orbits, characters = mirror_orbits, [parity]
        for character in characters:
            held = [row for row in orbits.tolist()
                    if all(sign > 0 or image != row[0] for image, sign in zip(row, character))]
            if held:
                sectors.append(_Sector(character, held, ar))
    return sectors


def _orbits(images):
    """The rows of ``images`` whose smallest entry is their own element: one per orbit."""
    return images[images.min(axis=1) == np.arange(len(images))]


def _require_images(images, n):
    """Refuse all but an (n, 4) or (n, 8) int array of permutations, the identity first: O(n g)."""
    valid = (isinstance(images, np.ndarray) and images.dtype.kind in "iu"
             and images.shape in ((n, 4), (n, 8)) and np.array_equal(images[:, 0], np.arange(n))
             and np.all((images >= 0) & (images < n)))
    if valid:
        hit = np.zeros(images.shape, dtype=bool)
        hit[images, np.arange(images.shape[1])] = True
        valid = hit.all()
    if not valid:
        raise InvalidArgumentError(
            f"images must be an int array of shape ({n}, 4) or ({n}, 8) whose columns are"
            " permutations of the elements, the identity first")


def _moves(group, orbits):
    """``(permutation, targets, first)`` per group element that reaches an element first.

    ``targets`` are the images of the orbits' first members under the
    element, and ``first`` the orbits whose image no earlier element
    reached: every element of the layout is some orbit's first target
    exactly once.
    """
    reached = np.zeros(len(group), dtype=bool)
    moves = []
    for k in range(group.shape[1]):
        targets = orbits[:, k]
        first = np.flatnonzero(~reached[targets])
        reached[targets] = True
        if len(first):
            moves.append((group[:, k], targets, first.tolist()))
    return moves


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
    precision : Precision
        Arithmetic the entries were built in.
    arithmetic
        ``precision.arithmetic()``; its ``ctx`` is the precision's mpmath
        context, None in double.
    images : ndarray of int, shape (N, 4) or (N, 8)
        Each element's images under the layout's symmetries, as returned
        by :meth:`ArrayGeometry.symmetry_images`: column k is symmetry
        k's permutation of the elements: the identity, the y mirror, the
        z mirror and both, and on a square lattice the swap y <-> z after
        the identity, both mirrors, the y mirror and the z mirror.  Any
        other shape, a column 0 that is not the identity or a column that
        is not a permutation raises :class:`InvalidArgumentError`.  That Z is
        exactly invariant under each column is a precondition, not
        checked (N^2 comparisons per column); :func:`impedance` builds
        lattice entries from the lattice offsets, so there it is exact.
        Defaults to no symmetry, every row ``[a, a, a, a]``.
    orbits : ndarray of int, shape (M, 4) or (M, 8)
        The rows of ``images`` whose smallest entry is their own element,
        one per orbit with its lowest element first.  Extended products
        with Z read one row of Z per orbit.

    The eigendecomposition and the solve both work in the sectors of the
    images (:func:`_sectors`); machine double uses only the four mirror
    columns.  With no symmetry there is one orbit per element, a single
    sector whose block is Z itself.
    """

    def __init__(self, entries, precision: Precision, images=None):
        if not (isinstance(entries, np.ndarray) and entries.ndim == 2
                and entries.shape[0] == entries.shape[1]):
            raise InvalidArgumentError(
                "entries must be a square numpy array, of mpmath numbers under extended precision")
        n = len(entries)
        if images is None:
            images = np.column_stack([np.arange(n)] * 4)
        _require_images(images, n)
        self.precision = precision
        self.arithmetic = precision.arithmetic()
        entries.setflags(write=False)
        self.entries = entries
        images.setflags(write=False)
        self.images = images
        self.orbits = _orbits(images)
        self.orbits.setflags(write=False)
        with self.arithmetic.lock:
            # machine double keeps the mirror sectors: the swap halves would change its LAPACK bits
            self._sectors = _sectors(images if precision.is_extended else images[:, :4],
                                     self.arithmetic)
            if precision.is_extended:  # what _product reads: see there
                self._orbit_rows = entries[self.orbits[:, 0]].tolist()
                self._moves = _moves(images, self.orbits)
        self._eig = None
        self._eig_lock = threading.Lock()

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def eigendecomposition(self):
        """Cached ``(eigenvalues descending, orthonormal U)``, computed per sector."""
        # lock order is always the arithmetic's (MP_LOCK), then the per-matrix cache lock
        with self.arithmetic.lock, self._eig_lock:
            if self._eig is None:
                self._eig = _sector_eigh(self)
            return self._eig


def _product(Z: ImpedanceMatrix, v):
    """``Z v`` in Z's arithmetic; call under its lock.

    Under extended precision only the rows of the orbits' first members
    ``a`` are read, the orbits of the columns of ``Z.images``.  Z is
    exactly invariant under each symmetry g, so
    ``(Z v)[g(a)] = fdot(Z[a], v[g])``, with ``v[g]`` the vector
    whose entry c is ``v[g(c)]``.  Each entry is formed once, by the
    first symmetry that reaches it (:func:`_moves`), and the fdots of an
    image ``v[g]`` equal to plus or minus one already formed are reused,
    negated where needed.  ``fdot`` sums its products exactly and rounds
    once to nearest, so every entry is bit for bit the ``fdot`` of its
    own row of Z with v.  A vector in one mirror sector, as every
    broadside iterate and current is, costs about N^2/4 terms, and one
    also even under the swap about N^2/8; no vector costs more than the
    plain product's N^2, which a matrix with no symmetry gets.

    Machine double keeps the BLAS product: BLAS sums each row in its own
    order, so folding rows by the mirrors would change the double bits.
    A vector of Z's dtype multiplies the whole of Z at once.  Any other
    (a complex current) multiplies one block of rows at a time
    (:func:`_row_blocks`), each block cast to the result's dtype and
    written straight into it: numpy would otherwise cast all of Z, a
    copy twice its size.  The blocks give the whole product's bits.
    """
    if not Z.precision.is_extended:
        dtype = np.result_type(Z.entries, v)
        if dtype == Z.entries.dtype:
            return Z.entries @ v
        out = np.empty(Z.n, dtype=dtype)
        for k, e in _row_blocks(Z.n):
            np.matmul(Z.entries[k:e].astype(dtype), v, out=out[k:e])
        return out
    fdot = Z.arithmetic.ctx.fdot
    out = np.empty(Z.n, dtype=object)
    formed = []  # (an image of v, its fdots with the orbit rows so far, by orbit)
    for perm, targets, first in Z._moves:
        image = v[perm]
        negate = False
        for earlier, products in formed:
            if np.array_equal(image, earlier):
                break
            if np.array_equal(image, -earlier):
                negate = True
                break
        else:
            earlier, products = image, {}
            formed.append((earlier, products))
        for p in first:
            if p not in products:
                products[p] = fdot(Z._orbit_rows[p], earlier)
            out[targets[p]] = -products[p] if negate else products[p]
    return out


def _row_blocks(n):
    """``(start, stop)`` of consecutive blocks of ``_ROW_BLOCK`` rows covering n rows.

    A one-row tail joins the block before it: numpy multiplies a single
    row by a vector by another route than a taller block, with other
    bits than the whole product (at 128-row blocks, at N = 129, 257 and
    385), while each row of a taller block gets the whole product's.
    """
    starts = list(range(0, n, _ROW_BLOCK))
    if len(starts) > 1 and starts[-1] == n - 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _kernel(kind: ElementKind, x, precision: Precision):
    # by module name at call time, where the benchmark's layer trace wraps the kernels
    if kind is ElementKind.ISOTROPIC:
        return sinc_unnormalized(x, precision)
    return j1_over_x(x, precision)


def _offset_distances(geom: ArrayGeometry, ar):
    """The distance of each lattice offset, indexed ``[|di|, |dj|]``."""
    n_y, n_z = geom.shape
    dy, dz = ar.number([geom.dy, geom.dz])
    return ar.sqrt((ar.number(np.arange(n_y))[:, None] * dy) ** 2
                   + (ar.number(np.arange(n_z))[None, :] * dz) ** 2)


def _gather_offsets(indices, table):
    """``Z[a, b] = table[|di|, |dj|]`` for the lattice offset of every element pair.

    One block of rows at a time, each block's flat table index formed in
    place, so no N x N index array is made.
    """
    def axis_offsets(block, i):
        d = np.subtract.outer(block, i)
        return np.abs(d, out=d)

    values = table.ravel()
    out = np.empty((len(indices), len(indices)), dtype=table.dtype)
    for k, e in _row_blocks(len(indices)):
        flat = axis_offsets(indices[k:e, 0], indices[:, 0])
        flat *= table.shape[1]
        flat += axis_offsets(indices[k:e, 1], indices[:, 1])
        np.take(values, flat, out=out[k:e])
    return out


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
    It is built from the kernel's values at the layout's distinct
    lattice offsets, so Z is exactly invariant under the layout's
    mirrors, and a square lattice's under its swap y <-> z, whose
    images the matrix carries (see :attr:`ImpedanceMatrix.images`).

    Raises
    ------
    CapacityError
        If the dense matrix, 8 bytes per entry, would not fit in the
        machine's physical memory.
    """
    memory = _physical_memory_bytes()
    if memory is not None and 8 * geom.n ** 2 > memory:
        raise CapacityError(
            f"a dense {geom.n} x {geom.n} coupling matrix needs {8 * geom.n ** 2 / 2 ** 30:.1f}"
            f" GiB, more than the {memory / 2 ** 30:.1f} GiB of physical memory")
    ar = precision.arithmetic()
    with ar.lock:
        k = 2 * ar.pi / ar.number(geom.wavelength)
        # one kernel value per distinct lattice offset, then one gather
        r = _offset_distances(geom, ar)
        entries = _gather_offsets(geom.lattice_indices(), _kernel(geom.kind, r * k, precision))
    return ImpedanceMatrix(entries, precision, images=geom.symmetry_images())


def _round_shift(x, bits):
    """``x 2^bits`` rounded to the nearest int, ties up, for an int or an object array of ints."""
    if bits >= 0:
        return x << bits
    return (x + (1 << (-bits - 1))) >> -bits


def _exact_ints(A):
    """``(m, e)`` with ``A = m 2^e`` exactly: m an object array of ints, e the least exponent.

    A is an object array of mpmath reals; e is the least exponent of its
    nonzero entries, so no bit of any entry is lost.
    """
    parts = [x._mpf_ for x in A.flat]
    exponent = min((e for _, man, e, _ in parts if man), default=0)
    ints = [(-man if sign else man) << (e - exponent) if man else 0 for sign, man, e, _ in parts]
    return np.array(ints, dtype=object).reshape(A.shape), exponent


def _double_basis(A, bits):
    """An eigenbasis of A from LAPACK in double, as rows of ints on the ``2^-bits`` grid.

    The double ``eigh`` eigenvectors, each rounded onto the grid, made
    orthogonal to the rows before it by classical Gram-Schmidt done
    twice and normalized, every product rounded once onto the grid: the
    rows are orthonormal to a few units of ``2^-bits``.
    """
    _, q = _lapack_eigh(A.astype(float))
    v = np.empty(q.shape, dtype=object)
    for k, column in enumerate(q.T):
        x = np.array([_round_shift(num, bits + 1 - den.bit_length())
                      for num, den in map(float.as_integer_ratio, column)], dtype=object)
        for _ in range(2):
            x = x - _round_shift(_round_shift(v[:k] @ x, -bits) @ v[:k], -bits)
        root = math.isqrt(x @ x << 2 * bits)  # the norm of x on the 2^-2bits grid
        v[k] = ((x << 2 * bits + 1) + root) // (2 * root)
    return v


def _jacobi_eigh(ctx, A):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix of mpmath numbers, in fixed point.

    ``A`` is a square numpy object array.  Returns the eigenvalues
    (descending, a list) and the orthonormal eigenvectors as the columns
    of a numpy object array, both of the context's numbers.

    A is read exactly as ints at its least exponent (:func:`_exact_ints`).
    The sweeps (:func:`_jacobi_sweeps`) start from the double ``eigh``
    basis V made orthonormal on the ``2^-(prec + 16)`` grid
    (:func:`_double_basis`), with ``V A V^T`` formed exactly in ints: the
    mixed-precision Jacobi of Higham, Tisseur, Webb and Zhou (SIAM J.
    Matrix Anal. Appl. 42, 2021).  The rotated block is off-diagonal only
    to about 1e-16 of its norm, so the quadratically convergent sweeps
    finish in 3-5 sweeps and a last that finds nothing to rotate, where
    the unit start basis needs 8-10 and a last on the sector blocks of a
    20-element line.

    ``V A V^T`` is rounded once onto a ``2^-P`` grid, P the least at
    which its smallest nonzero diagonal entry keeps ``prec + 16`` bits
    (and at least ``prec + 16``), and every later rounding is a unit of
    that grid.  So each eigenvalue's error is a few units of ``2^-P``,
    about ``2^-(prec + 16)`` of the smallest times a small count: the
    relative accuracy of Jacobi on a graded positive definite matrix
    (Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13, 1992), which a
    fixed absolute rounding keeps when its grid is set by the smallest
    scale.  A block already diagonal to double precision (off-diagonal
    norm at most ``2^-52 ||A||_F``, as on a half-wavelength isotropic
    line, whose spectrum is degenerate) keeps the unit start basis, and
    with it the eigenvectors the sweeps find from there.
    """
    a, exponent = _exact_ints(A)
    n = len(a)
    bits = ctx.prec + _JACOBI_GUARD_BITS
    squares = a * a
    norm2 = squares.sum()
    if (norm2 - squares.trace()) << 2 * _WARM_START_OFF_BITS > norm2:
        v = _double_basis(A, bits)
        a = v @ a @ v.T  # exactly, on the 2^(exponent - 2 bits) grid
        exponent -= 2 * bits
    else:
        v = np.diag([1 << bits] * n).astype(object)
    # a block with no nonzero diagonal entry keeps every bit of its ints
    smallest = min((abs(d) for d in a.diagonal() if d), default=1)
    grid = max(bits, bits - exponent - smallest.bit_length())
    return _jacobi_sweeps(ctx, _round_shift(a, exponent + grid), v << grid - bits, grid)


def _rotation(d, e, bits):
    """``(c, s)`` on the ``2^-bits`` grid of the rotation that zeroes ``e/2`` against gap d.

    d is ``a_qq - a_pp`` and e is ``2 a_pq``: ``t = s/c`` is the smaller
    root of ``t^2 + 2 tau t - 1`` with ``tau = d/e``, and the sign of
    tau is taken as + when d is 0.  t and c come from ``math.isqrt``,
    each to within a unit of the grid.
    """
    sign = -1 if (d < 0) != (e < 0) and d else 1
    d, e = abs(d), abs(e)
    root = math.isqrt((d * d + e * e) << 2 * bits)  # sqrt(d^2 + e^2) on the grid
    t = (e << 2 * bits) // ((d << bits) + root)
    c = math.isqrt((1 << 4 * bits) // ((1 << 2 * bits) + t * t))
    return c, sign * ((t * c) >> bits)


def _jacobi_sweeps(ctx, a, v, bits):
    """Cyclic Jacobi sweeps in fixed point on the block a, from the start basis rows v.

    a and v are (n, n) object arrays of ints on the ``2^-bits`` grid, a
    symmetric; both are rotated in place.  Each rotation updates rows p
    and q of a and of v as ``(c x - s y + half) >> bits``, rounded to
    nearest, sets the 2 x 2 block from ``c^2``, ``s^2`` and ``cs`` in
    one rounding with ``a_pq = 0``, and copies the two rows into the
    two columns, so a stays exactly symmetric.  Pair (p, q) is skipped
    when ``|a_pq|`` is at most one unit or at most
    ``2^(1-prec) sqrt(|a_pp a_qq|)``; the sweeps end at the first that
    rotates nothing, and are capped at ``_JACOBI_MAX_SWEEPS``.  Returns
    what :func:`_jacobi_eigh` returns.
    """
    n = len(a)
    half, half2 = 1 << bits - 1, 1 << 2 * bits - 1
    tol = 2 * (ctx.prec - 1)  # |a_pq| <= 2^(1-prec) sqrt(|a_pp a_qq|), squared, as a shift
    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq, app, aqq = a[p, q], a[p, p], a[q, q]
                if abs(apq) <= 1 or (apq * apq) << tol <= abs(app * aqq):
                    continue
                rotated = True
                c, s = _rotation(aqq - app, 2 * apq, bits)
                cc, ss, cs2 = c * c, s * s, 2 * c * s * apq
                for m in (a, v):
                    x, y = m[p], m[q]
                    m[p], m[q] = (c * x - s * y + half) >> bits, (s * x + c * y + half) >> bits
                a[p, p] = (cc * app - cs2 + ss * aqq + half2) >> 2 * bits
                a[q, q] = (ss * app + cs2 + cc * aqq + half2) >> 2 * bits
                a[p, q] = a[q, p] = 0
                a[:, p], a[:, q] = a[p], a[q]
        if not rotated:
            break
    else:
        squares = a * a
        norm2 = squares.sum()
        raise NumericalFailureError(
            f"Jacobi eigensolver did not converge in {_JACOBI_MAX_SWEEPS} sweeps",
            residual=math.sqrt((norm2 - squares.trace()) / norm2),
        )

    def number(m):
        return ctx.mpf((m, -bits))

    order = sorted(range(n), key=lambda i: a[i, i], reverse=True)
    return ([number(a[i, i]) for i in order],
            np.array([[number(x) for x in v[i]] for i in order], dtype=object).T)


def _block_eigh(Z: ImpedanceMatrix, block):
    """Eigenvalues (descending) and eigenvectors (columns) of one sector block."""
    if Z.precision.is_extended:  # cyclic Jacobi at any width, LAPACK in double
        return _jacobi_eigh(Z.arithmetic.ctx, block)
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
    ar = Z.arithmetic
    s = np.array(values, dtype=ar.dtype)[order]
    U = np.full((Z.n, Z.n), ar.zero, dtype=ar.dtype)
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


def condition_number(Z: ImpedanceMatrix) -> float:
    """Ratio of the largest to the smallest eigenvalue magnitude.

    Z is symmetric PSD up to roundoff, so its eigenvalues are its
    singular values; negative roundoff eigenvalues count as zero.  An
    exactly zero smallest eigenvalue reports ``inf`` rather than raising.
    """
    s, _ = Z.eigendecomposition()
    s_max = s[0]
    s_min = max(s[-1], 0.0)
    if s_max <= 0:
        raise InvalidArgumentError("condition number needs at least one nonzero eigenvalue")
    if s_min == 0:
        return math.inf
    return float(s_max / s_min)


def _modes_above(Z: ImpedanceMatrix, s_min_threshold: float) -> int:
    """The threshold rule of the truncated matched filter: how many eigenvalues exceed it.

    The spectrum is sorted descending, so the modes kept are always its
    leading run ``0..k-1``, and the count k (possibly 0) says which.
    The threshold is at least 0, so negative roundoff never counts.
    """
    if not s_min_threshold >= 0:
        raise InvalidArgumentError(f"threshold must be >= 0, got {s_min_threshold!r}")
    s, _ = Z.eigendecomposition()
    return int(np.count_nonzero(s > s_min_threshold))


def _leading_modes(Z: ImpedanceMatrix, modes: int) -> int:
    """The rank rule: how many of the ``modes`` largest eigenvalues are positive."""
    if not (isinstance(modes, (int, np.integer)) and 1 <= modes <= Z.n):
        raise InvalidArgumentError(f"modes must be an integer in 1..{Z.n}, got {modes!r}")
    return min(modes, _modes_above(Z, 0.0))


def _leading_run(Z: ImpedanceMatrix, k: int):
    """The k largest eigenvalues ``s[:k]`` and their eigenvectors ``U[:, :k]``.

    Raises
    ------
    EmptySpectrumError
        If k is 0: the retention rule keeps no mode.
    """
    if k == 0:
        raise EmptySpectrumError(
            "the truncation keeps no mode: no eigenvalue is above the threshold, or every"
            " requested one is at most zero")
    s, U = Z.eigendecomposition()
    return s[:k], U[:, :k]


def _modal_inverse(Z: ImpedanceMatrix, k: int):
    """``sum over the leading k modes of u_n u_n^T / s_n``."""
    s, U = _leading_run(Z, k)
    with Z.arithmetic.lock:
        return (U / s) @ U.T


def _modal_coefficients(Z: ImpedanceMatrix, k: int, h):
    """The leading k modes ``U_k`` and the coefficients ``U_k^T h / s_k``; call under the lock."""
    _require_finite(h)
    s, U = _leading_run(Z, k)
    return U, Z.arithmetic.matvec(U.T, h) / s


def _modal_solve(Z: ImpedanceMatrix, k: int, h):
    """``U_k (U_k^T h / s_k)`` over the leading k modes: O(N k), no N x N pseudo-inverse."""
    with Z.arithmetic.lock:
        U, coefficients = _modal_coefficients(Z, k, np.asarray(h))
        return U @ coefficients


def _rank_solves(Z: ImpedanceMatrix, h):
    """``precoding.ca_pmf_rank(Z, h, m)`` for m = 1..N, bit for bit, in one pass.

    Rank m keeps the leading ``min(m, k)`` modes, k the count of positive
    eigenvalues.  Under extended precision rank m's current is the
    running sum of ``coefficient * mode`` over those modes, which numpy's
    object product in :func:`_modal_solve` sums in the same order, so the
    N currents cost one rank-N solve.
    """
    k = _leading_modes(Z, Z.n)
    if not Z.precision.is_extended:
        # one BLAS product per rank defines the double bits; a running sum would round otherwise
        return [_modal_solve(Z, min(m, k), h) for m in range(1, Z.n + 1)]
    with Z.arithmetic.lock:
        U, coefficients = _modal_coefficients(Z, k, np.asarray(h))
        currents = list(itertools.accumulate(coefficients[:, None] * U.T))
        # ranks past the last positive eigenvalue keep the same modes
        return currents + [currents[-1].copy() for _ in range(Z.n - k)]


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
    return _modal_inverse(Z, _modes_above(Z, s_min_threshold))


def rank_truncated_inverse(Z: ImpedanceMatrix, modes: int):
    """Pseudo-inverse keeping the ``modes`` largest eigenvalues.

    Count-based companion to :func:`truncated_inverse`; modes whose
    eigenvalue is zero or negative roundoff are never inverted even if
    requested.
    """
    return _modal_inverse(Z, _leading_modes(Z, modes))


# judges an mpmath number by its stored parts, so it needs no context and no lock
_mp_isfinite = np.frompyfunc(mpmath.isfinite, 1, 1)


def _require_finite(h: np.ndarray):
    """Refuse a vector with a NaN or infinite entry, in either precision: one O(N) pass."""
    if not np.all(_mp_isfinite(h) if h.dtype == object else np.isfinite(h)):
        raise InvalidArgumentError("h has a NaN or infinite entry")


def solve(Z: ImpedanceMatrix, h):
    """Solve ``Z x = h`` with one pass of iterative refinement.

    The relative residual ``||Zx - h|| / ||h||`` must come out at or
    below 1e-8 in the working arithmetic, otherwise an
    :class:`IllConditionedSolveError` is raised.  It carries the achieved
    residual and a condition-number estimate, ``||Z||_1`` times the
    Hager-Higham estimate of ``||Z^-1||_1`` through the sector solves
    already set up, so a refusal never runs the eigensolver; it is
    computed on the first read of the error's ``kappa_estimate``.  Under
    machine double the residual is itself formed in double, so it is
    only known to about ``eps ||(|Z| |x|)||``; when that rounding error
    exceeds 1e-8 of ``||h||`` the residual cannot show the contract, and
    the solve is refused the same way whatever it happens to measure.  (Under
    extended precision each entry of ``Z x`` is one ``fdot``, rounded
    once, so the extended residual needs no such guard.)

    Both precisions solve one block per parity sector of Z that h
    excites (see :class:`ImpedanceMatrix` and the module docstring),
    with LAPACK ``gesv`` under machine double (:func:`_gesv_solver`) and
    a Crout LU on row lists under extended precision
    (:func:`_crout_factor`), and check the residual
    against the full Z; the refinement step projects the residual into
    the same sectors.  Under extended precision a square lattice's
    sectors are the swap halves of the even-even and odd-odd sectors
    and the even-odd and odd-even sectors whole (:func:`_sector_inverse`).
    An exactly singular block (a zero pivot) or an iterate that is not
    finite is refused with residual ``inf``.  A right-hand side with a
    NaN or infinite entry is refused before anything is factored.

    Parameters
    ----------
    Z : ImpedanceMatrix
    h : array-like, shape (N,)
        Right-hand side in Z's arithmetic: of mpmath numbers (an object
        array, or an mpmath column) exactly when Z is extended.

    Returns
    -------
    ndarray, shape (N,)
        The current, of h's dtype under machine double and an object
        array of mpmath numbers under extended precision.
    """
    h = np.asarray(h)
    if h.shape != (Z.n,) or (h.dtype == object) != Z.precision.is_extended:
        raise InvalidArgumentError(
            f"right-hand side must be a vector of shape ({Z.n},) in {Z.precision.spec()}"
            f" arithmetic, got dtype {h.dtype} and shape {h.shape}")
    _require_finite(h)
    ar = Z.arithmetic
    with ar.lock:
        norm_h = ar.norm(h)
        if norm_h == 0:
            return np.full_like(h, ar.zero)
        # the sector solves of h serve the refinement step and the condition estimate
        apply_inverse = _sector_inverse(Z, h)
        x, res = _refined(apply_inverse, h, lambda x: h - _product(Z, x), ar.norm)
        tol = _SOLVE_RESIDUAL_RTOL * norm_h
        if not res <= tol:
            reason = (f"solve residual {float(res / norm_h):.3e} exceeds"
                      f" {_SOLVE_RESIDUAL_RTOL:.0e} at {Z.precision.spec()}")
        elif Z.precision.is_extended:  # an extended residual is rounded once per entry
            return x
        else:
            # a residual formed in double is only known to about eps |Z| |x|
            floor = np.finfo(float).eps * np.linalg.norm(_abs_matvec(Z.entries, x))
            if floor <= tol:
                return x
            reason = (f"solve residual {res / norm_h:.3e} lies below the rounding error of Z x"
                      f" in double, {floor / norm_h:.3e}, so it cannot show"
                      f" {_SOLVE_RESIDUAL_RTOL:.0e}")

        def kappa_estimate():  # run on the error's first read of it, if any
            with ar.lock:
                # Z is symmetric: its largest absolute row sum is its 1-norm
                norm1_z = _abs_matvec(Z.entries, np.ones(Z.n)).max()
                return norm1_z * _norm1_estimate(ar, apply_inverse, Z.n)

        raise IllConditionedSolveError(reason, residual=float(res / norm_h),
                                       kappa_estimate=kappa_estimate)


def _sector_inverse(Z: ImpedanceMatrix, h):
    """``v -> sum over the sectors h excites of E_s B_s^-1 E_s^T v``.

    Gathers each sector block that h excites once; components of v in
    the other sectors are dropped.  A sector is skipped only where the
    projection of h onto it is exactly zero.  Extended blocks are
    factored once, by a Crout LU with ``_LU_GUARD_BITS`` extra working
    bits, and each application substitutes in the factors.  Double
    blocks are solved by numpy's ``gesv`` (:func:`_gesv_solver`), which
    factors again on each application.

    The sectors are the matrix's own, those its eigendecomposition
    works in too.  Under extended precision a square lattice's are the
    square group's (:func:`_sectors`), each block gathered straight
    from the rows of the group orbits' first members.  A broadside
    channel, exactly swap-symmetric, excites only the symmetric half of
    even-even: 45 of 81 at N = 324, about a sixth of the whole block's
    factor.  Machine double and any other layout solve in the four
    mirror sectors.
    """
    ctx = Z.arithmetic.ctx
    if ctx is None:  # different algorithms: LAPACK gesv in double, a Crout LU at any width
        block_solver, guard = _gesv_solver, contextlib.nullcontext
    else:
        def block_solver(block):
            return functools.partial(_crout_solve, ctx, _crout_factor(ctx, block))

        def guard():
            return ctx.extraprec(_LU_GUARD_BITS)

    with guard():
        solvers = [(sector, block_solver(sector.block(Z.entries)))
                   for sector in Z._sectors if np.any(sector.project(h) != 0)]

    def apply(v):
        with guard():
            parts = []
            for sector, solve_block in solvers:
                y = solve_block(sector.project(v))
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


def _gesv_solver(block):
    """``v -> B^-1 v`` for a float64 sector block B, by LAPACK ``gesv`` (``np.linalg.solve``).

    numpy has no separate ``getrf`` and ``getrs``, so each call factors
    B again.  A complex v is solved as the two real columns
    ``[v.real, v.imag]``: at a 484-square block that takes 2.8 ms,
    against 8.5 ms for a complex ``gesv`` (one OpenBLAS thread).

    The returned function raises :class:`IllConditionedSolveError` on
    an exactly zero pivot: the block is singular.
    """
    def solve_block(v):
        try:
            if v.dtype.kind != "c":
                return np.linalg.solve(block, v)
            y = np.linalg.solve(block, np.column_stack([v.real, v.imag]))
        except np.linalg.LinAlgError as exc:
            raise IllConditionedSolveError(
                f"zero pivot in a {len(block)}-square block: the matrix is singular",
                residual=math.inf, kappa_estimate=math.inf) from exc
        x = np.empty(len(v), dtype=v.dtype)
        x.real, x.imag = y.T
        return x

    return solve_block


def _abs_matvec(A, v):
    """``|A| |v|``, a block of rows at a time (:func:`_row_blocks`): no N x N temporary."""
    v = np.abs(v)
    out = np.empty(len(A), dtype=np.result_type(A, v))
    for k, e in _row_blocks(len(A)):
        np.matmul(np.abs(A[k:e]), v, out=out[k:e])
    return out


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
    """Solve ``B x = b`` with :func:`_crout_factor`'s factors: one ``fdot`` per entry.

    Returns x as an object array.
    """
    perm, lower, upper = factors
    y = []
    for row, k in zip(lower, perm):
        y.append(b[k] - ctx.fdot(row, y))
    x = [None] * len(y)
    for i in reversed(range(len(y))):
        row = upper[i]
        x[i] = (y[i] - ctx.fdot(row[1:], x[i + 1:])) / row[0]
    return np.array(x, dtype=object)


def _norm1_estimate(ar, apply_inverse, n):
    """Hager-Higham lower estimate of the 1-norm of a symmetric operator.

    Higham's refinement of Hager's method (ACM TOMS 670, LAPACK
    ``xLACON``): at most five power-method-like steps, each one or two
    products with the operator, then one product with an alternating
    test vector; real arithmetic ``ar`` throughout.
    """
    def apply(v):
        return ar.real(apply_inverse(ar.number(v)))

    def sign(v):
        return np.where(v >= 0, 1.0, -1.0)

    def largest(v):
        return int(np.argmax(np.abs(v)))

    v = apply(ar.number(np.ones(n)) / n)
    if n == 1:
        return abs(v[0])
    est = ar.norm(v, 1)
    xi = sign(v)
    x = apply(xi)  # the operator is symmetric: its transpose is itself
    j = largest(x)
    for _ in range(4):
        v = apply(1.0 * (np.arange(n) == j))
        est_old, est = est, ar.norm(v, 1)
        if np.array_equal(sign(v), xi) or est <= est_old:
            break
        xi = sign(v)
        x = apply(xi)
        j_last, j = j, largest(x)
        if x[j_last] == abs(x[j]):
            break
    alt = apply((-1.0) ** np.arange(n) * (1 + ar.number(np.arange(n)) / (n - 1)))
    return max(est, 2 * ar.norm(alt, 1) / (3 * n))


def quadratic_form(Z: ImpedanceMatrix, i):
    """Real radiated-power quadratic form ``Re(i^H Z i)``."""
    iv = np.asarray(i)
    ar = Z.arithmetic
    with ar.lock:
        return ar.real(ar.vdot(iv, _product(Z, iv)))


def write_matrix_text(Z: ImpedanceMatrix, path) -> None:
    """Dump entries as plain text: one row per line, 17 significant digits."""
    arr = Z.entries.astype(float)
    with open(path, "w") as fh:
        for row in arr:
            fh.write(" ".join(f"{v:.17g}" for v in row))
            fh.write("\n")
