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
fixed-point Python ints, started from the block's LAPACK eigenbasis
(:func:`_jacobi_eigh`), and a Crout LU.  Extended inner products are
``fdot``, one rounding each.

Both precisions build Z from the layout's table of distinct lattice
offsets: one kernel value per ``(|di|, |dj|)`` pair, then a gather of
the rows at the first members of the mirror orbits, which is all of Z
that is stored: about N^2/4 entries on a grid and N^2/2 on a line.
Every reader gathers what it needs from those rows, and only the text
dump rebuilds Z whole.  Z is exactly invariant under the layout's
mirrors y -> -y and z -> -z, and it splits exactly into four parity
sectors, one per character (+-1, +-1) of the mirror group, each about
N/4 square.  The eigendecomposition and the solve work on the sector
blocks ``B_s = E_s^T Z E_s`` in both precisions: the eigensolver
decomposes each block, merges the spectra and keeps each block's
eigenvectors ``V_s``, never the N x N matrix (only :func:`sym_eig`
assembles it); the solve projects the right-hand side onto the sectors,
skips those it does not excite (a broadside terminal excites only the
even-even one), solves in each remaining block, and checks the residual
against the full Z.  The truncated filter reads ``V_s^T E_s^T h``.

A square lattice (``n_y = n_z`` and ``dy = dz``) is also invariant
under the swap y <-> z, and Z with it, exactly, so Z has the 8
symmetries of the square, and both precisions use them.  The swap
splits the even-even and odd-odd sectors each into a swap-symmetric
and a swap-antisymmetric half, of about m(m+1)/2 and m(m-1)/2 for an
m x m sector, and the eigendecomposition and the solve both work in
those halves; a broadside channel, exactly swap-symmetric, excites
only the first half, 45 of 81 at N = 324.  The swap exchanges the
even-odd and odd-even sectors, which stay whole: the odd-even sector is
the even-odd one seen through the swap, whose block it is bit for bit,
so it reads that block's spectrum and factor.  An 11 x 11 grid
decomposes blocks of 21, 15, 30, 15 and 10 instead of 36, 30, 30 and
25.

Every product with Z (the solve's residuals, and the radiated power
``i^H Z i``) reads only the rows of the first members of the orbits,
of the mirrors or of the square's symmetries: each entry is the
product of such a row with an image of the vector, one ``fdot`` in
extended precision and a BLAS product in double, and the images equal
to plus or minus one already formed reuse its products.  A vector in
one mirror sector costs about N^2/4 terms instead of N^2, one also
even under the swap about N^2/8, and no vector more than N^2.  In
extended precision every entry has the bits of the row-by-row
product.  A complex vector in double is multiplied as its real and
imaginary parts, so no complex copy of a block of Z is made.
"""

from __future__ import annotations

import contextlib
import functools
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

    def __init__(self, parity, orbits, ar, source=None):
        self.parity = parity
        # (m, group size) element indices in the column order of parity
        self.images = orbits
        # the sector whose block, spectrum and factor this one reads: itself, or its swap image
        self.source = self if source is None else source
        # an orbit's size is the group's over the number of its elements that fix its members
        fixing = np.count_nonzero(orbits == orbits[:, :1], axis=1)
        self.roots = ar.sqrt(ar.number((len(parity) // fixing).tolist()))

    def _signed_sum(self, image, start=0, count=None):
        """Columns ``start..start+count`` of the images, summed in pairs of halves.

        Each term is signed by the character relative to column start's.
        """
        count = len(self.parity) if count is None else count
        if count == 1:
            return image(start)
        half = count // 2
        # each image is a fresh gather, so the sums accumulate in place
        left = self._signed_sum(image, start, half)
        right = self._signed_sum(image, start + half, half)
        if self.parity[start] == self.parity[start + half]:
            left += right
        else:
            left -= right
        return left

    def project(self, v):
        """``E^T v`` for a vector v over the elements."""
        return self._signed_sum(lambda k: v[self.images[:, k]]) * (self.roots / len(self.parity))

    def block(self, Z):
        """``E^T Z E``, gathered from Z's stored rows of the orbits' first members."""
        first = Z._row_of[self.images[:, :1]]
        out = self._signed_sum(lambda k: Z.rows[first, self.images[:, k]])
        out *= np.outer(self.roots, self.roots / len(self.parity))
        return out

    def expand(self, y, out):
        """Write ``E y`` into the rows of out, for a vector y (or each column of a matrix)."""
        scaled = (y.T / self.roots).T
        negated = -scaled
        for k, sign in enumerate(self.parity):
            out[self.images[:, k]] = scaled if sign > 0 else negated
        return out


def _sectors(images):
    """``(character, orbits, twin)`` per nonempty sector of a Z exactly invariant under ``images``.

    Four columns give the four mirror sectors, one per character in
    :data:`_PARITIES`.  With the eight of a square lattice the swap maps
    the even-even and the odd-odd mirror sector each onto itself and
    splits it into a swap-symmetric and a swap-antisymmetric half: the
    sectors of the square's group whose character extends the mirror
    character by +1 or by -1 on the swap, of about m(m+1)/2 and
    m(m-1)/2 orbits for m the mirror sector's side.  The swap after the
    y mirror and after the z mirror, the last two columns, are each
    other's inverses, and the ee and oo characters agree on them, so the
    signed sums pair them in a sum and a half's block stays exactly
    symmetric.  An orbit drops out of a sector whose character is -1 on
    a group element that fixes the orbit's elements: its sector vector
    would equal minus itself.

    The swap exchanges the even-odd sector (odd under the y mirror) and
    the odd-even one, which is yielded right after it as its twin, with
    ``twin`` true: the even-odd character on the orbits' swap images
    ``images[orbits, 4]``, whose columns are the swap after the
    identity, the z mirror, the y mirror and both.  Its projection of v
    is the even-odd one's of ``v[swap]``, and its block is the even-odd
    block bit for bit: Z is exactly swap-invariant, and the swap maps
    the first members of mirror orbits, whose rows the blocks read, onto
    first members, which is checked here, O(M), else
    :class:`InvalidArgumentError`.
    """
    mirror_orbits, group_orbits = _orbits(images[:, :4]), _orbits(images)
    square = images.shape[1] == 8
    for parity in _PARITIES:
        if square and parity[1] == parity[2]:
            orbits = group_orbits
            characters = [parity + tuple(t * parity[k] for k in _SWAP_COLUMNS) for t in (1, -1)]
        elif square and parity[1] > 0:
            continue  # odd-even: the even-odd sector's twin
        else:
            orbits, characters = mirror_orbits, [parity]
        for character in characters:
            held = orbits[~np.any((orbits == orbits[:, :1]) & (np.array(character) < 0), axis=1)]
            if not len(held):
                continue
            yield character, held, False
            if square and parity[1] != parity[2]:
                swapped = images[held, 4]
                if np.any(images[swapped[:, 0], :4].min(axis=1) != swapped[:, 0]):
                    raise InvalidArgumentError(
                        "the swap, column 4 of images, must map the first member of each"
                        " mirror orbit onto a first member")
                yield character, swapped, True


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
            moves.append((group[:, k], targets, first))
    return moves


class ImpedanceMatrix:
    """Real symmetric N x N mutual-coupling matrix, stored as one row per mirror orbit.

    Instances are immutable after construction; the eigendecomposition
    is computed once on first use behind a lock, after which reads are
    concurrency-safe.

    Attributes
    ----------
    rows : ndarray, shape (M, N), read-only
        Z's rows at the first members of its M mirror orbits (of the
        first four columns of ``images``), in orbit order: float64 under
        machine double, an object array of mpmath numbers under extended
        precision, else :class:`InvalidArgumentError`.  Every other row
        is a mirror image of one of them; with no symmetry ``rows`` is Z.
    precision : Precision
        Arithmetic the rows were built in.
    arithmetic
        ``precision.arithmetic()``; its ``ctx`` is the precision's mpmath
        context, None in double.
    images : ndarray of int, shape (N, 4) or (N, 8)
        Each element's images under the layout's symmetries, as returned
        by :meth:`ArrayGeometry.symmetry_images`: column k is symmetry
        k's permutation of the elements: the identity, the y mirror, the
        z mirror and both, and on a square lattice the swap y <-> z after
        the identity, both mirrors, the y mirror and the z mirror.  Any
        other shape, a column 0 that is not the identity, a column that
        is not a permutation, or a swap that takes a mirror orbit's
        first member off the first members raises
        :class:`InvalidArgumentError`.  That Z is exactly invariant under
        each column is a precondition, not checked; :func:`impedance`
        builds lattice rows from the lattice offsets, so there it is
        exact.  Defaults to no symmetry, every row ``[a, a, a, a]``.
    orbits : ndarray of int, shape (K, 4) or (K, 8)
        The rows of ``images`` whose smallest entry is their own element,
        one per orbit of all the columns with its lowest element first.
        Products with Z read one row of Z per orbit, a stored one.

    The eigendecomposition, the solve and the products all work in the
    symmetries of the images (:func:`_sectors`, :func:`_product`), in
    both precisions, and read Z's rows from ``rows`` alone.  With no
    symmetry there is one orbit per element, a single sector whose block
    is Z itself.
    """

    def __init__(self, rows, precision: Precision, images=None):
        if not (isinstance(rows, np.ndarray) and rows.ndim == 2):
            raise InvalidArgumentError(
                "rows must be a 2-D numpy array: Z's rows at its mirror orbits' first members")
        n = rows.shape[1]
        if images is None:
            images = np.column_stack([np.arange(n)] * 4)
        _require_images(images, n)
        mirror = _orbits(images[:, :4])
        dtype = np.dtype(object if precision.is_extended else float)
        if rows.shape != (len(mirror), n) or rows.dtype != dtype:
            raise InvalidArgumentError(
                f"rows must have shape ({len(mirror)}, {n}), one per mirror orbit, and dtype"
                f" {dtype} in {precision.spec()}, got {rows.shape} and {rows.dtype}")
        self.precision = precision
        self.arithmetic = precision.arithmetic()
        rows.setflags(write=False)
        self.rows = rows
        images.setflags(write=False)
        self.images = images
        self._mirror = mirror
        # the index into rows of each mirror orbit's first member, out of range for other elements
        self._row_of = np.full(n, len(mirror))
        self._row_of[mirror[:, 0]] = np.arange(len(mirror))
        self.orbits = _orbits(images)
        self.orbits.setflags(write=False)
        self._sectors = []
        with self.arithmetic.lock:
            for character, held, twin in _sectors(images):
                source = self._sectors[-1] if twin else None
                self._sectors.append(_Sector(character, held, self.arithmetic, source))
        self._moves = _moves(images, self.orbits)
        self._eig = None
        self._eig_lock = threading.Lock()

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    def dense(self):
        """Z as a whole N x N array: row ``g(a)`` is ``rows[a][g]`` for each mirror g."""
        out = np.empty((self.n, self.n), dtype=self.rows.dtype)
        for k in range(4):
            out[self._mirror[:, k]] = self.rows[:, self.images[:, k]]
        return out

    def eigendecomposition(self):
        """Cached read-only ``(s, blocks)``, per sector: no N x N eigenvector matrix is formed.

        s holds the eigenvalues, descending; ``blocks`` one ``(sector, V, ranks)`` per sector:
        ``E V[:, j]`` is Z's eigenvector ``ranks[j]``, and each block's ranks increase.
        """
        # lock order is always the arithmetic's (MP_LOCK), then the per-matrix cache lock
        with self.arithmetic.lock, self._eig_lock:
            if self._eig is None:
                self._eig = _sector_eigh(self)
            return self._eig


def _product(Z: ImpedanceMatrix, v, rows=None):
    """``Z v`` in Z's arithmetic; call under its lock.

    Only the rows of the orbits' first members ``a`` are read, the
    orbits of the columns of ``Z.images``, each gathered straight from
    ``Z.rows``, or from ``rows``, another matrix with Z's symmetries
    stored alike (``|Z|`` as ``np.abs(Z.rows)``).  Z is exactly invariant
    under each symmetry g, so ``(Z v)[g(a)] = Z[a] . v[g]``, with ``v[g]`` the
    vector whose entry c is ``v[g(c)]``.  Each entry is formed once, by
    the first symmetry that reaches it (:func:`_moves`), and the
    products of an image ``v[g]`` equal to plus or minus one already
    formed are reused, negated where needed.  The orbit rows an image
    still needs are gathered and multiplied by ``arithmetic.matvec``:
    one ``fdot`` per row in extended precision, which sums its products
    exactly and rounds once to nearest, so every entry is bit for bit
    the ``fdot`` of its own row of Z with v; one BLAS product of the
    gathered rows in double.  A vector in one mirror sector, as every
    broadside iterate and current is, costs about N^2/4 terms, and one
    also even under the swap about N^2/8; no vector costs more than the
    plain product's N^2, which a matrix with no symmetry gets.
    """
    rows = Z.rows if rows is None else rows
    out = np.empty(Z.n, dtype=np.result_type(rows, v))
    formed = []  # (an image of v, its products with the orbit rows, which of them are formed)
    for perm, targets, first in Z._moves:
        image = v[perm]
        negate = False
        for earlier, products, done in formed:
            if np.array_equal(image, earlier):
                break
            if np.array_equal(image, -earlier):
                negate = True
                break
        else:
            earlier = image
            products = np.empty(len(Z.orbits), dtype=out.dtype)
            done = np.zeros(len(Z.orbits), dtype=bool)
            formed.append((earlier, products, done))
        missing = first[~done[first]]
        if len(missing):
            products[missing] = Z.arithmetic.matvec(rows[Z._row_of[Z.orbits[missing, 0]]], earlier)
            done[missing] = True
        out[targets[first]] = -products[first] if negate else products[first]
    return out


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
    Only the mirror orbits' rows are formed (:attr:`ImpedanceMatrix.rows`),
    gathered from the offset table by broadcast ``|di|`` and ``|dj|``.

    Raises
    ------
    CapacityError
        If Z's ``(M, N)`` rows and sector eigenvector blocks (``sum b_s^2``
        entries, a twin's shared block counted once), all that a sweep
        holds, would not fit in physical memory in float64.
    """
    images = geom.symmetry_images()
    first = _orbits(images[:, :4])[:, 0]
    blocks = sum(len(held) ** 2 for _, held, twin in _sectors(images) if not twin)
    need = 8 * (len(first) * geom.n + blocks)
    memory = _physical_memory_bytes()
    if memory is not None and need > memory:
        raise CapacityError(
            f"the {len(first)} x {geom.n} rows and the sector eigenvectors of a coupling matrix"
            f" need {need / 2 ** 30:.1f} GiB, more than the {memory / 2 ** 30:.1f} GiB"
            " of physical memory")
    iy, iz = geom.lattice_indices()[first].T
    n_y, n_z = geom.shape
    ar = precision.arithmetic()
    with ar.lock:
        k = 2 * ar.pi / ar.number(geom.wavelength)
        # one kernel value per distinct lattice offset, then one gather per stored row
        table = _kernel(geom.kind, _offset_distances(geom, ar) * k, precision)
        # shaped (rows, n_z, n_y): column iz * n_y + iy of each row
        rows = table[np.abs(iy[:, None, None] - np.arange(n_y)),
                     np.abs(iz[:, None, None] - np.arange(n_z)[:, None])]
    return ImpedanceMatrix(rows.reshape(len(iy), geom.n), precision, images=images)


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
    return w[::-1], np.ascontiguousarray(u[:, ::-1])


def _lapack_eigh(block):
    """LAPACK ``eigh`` of a float64 block: eigenvalues ascending, eigenvectors as columns."""
    try:
        return np.linalg.eigh(block)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc


def _sector_eigh(Z: ImpedanceMatrix):
    """The sector blocks' spectra merged by a stable sort: one sector gives the dense result.

    Only the blocks of the sectors that are their own source are
    gathered and decomposed.  A twin (:func:`_sectors`) shares its
    source's eigenvalues and ``V``, the same arrays, with its own ranks:
    a square decomposes 5 blocks for its 6 sectors.
    """
    spectra = {sector: _block_eigh(Z, sector.block(Z))
               for sector in Z._sectors if sector.source is sector}
    parts = [(sector, *spectra[sector.source]) for sector in Z._sectors]
    values = [v for _, block_values, _ in parts for v in block_values]
    order = sorted(range(Z.n), key=values.__getitem__, reverse=True)
    s = np.array(values, dtype=Z.arithmetic.dtype)[order]
    rank = np.empty(Z.n, dtype=int)
    rank[order] = np.arange(Z.n)
    for array in [s, rank, *(vectors for _, _, vectors in parts)]:
        array.setflags(write=False)  # the cache; each block's ranks are a view of rank
    ends = np.cumsum([len(block_values) for _, block_values, _ in parts])
    return s, [(sector, vectors, ranks)
               for (sector, _, vectors), ranks in zip(parts, np.split(rank, ends[:-1]))]


def sym_eig(Z: ImpedanceMatrix):
    """Eigendecomposition ``Z = U diag(s) U^T``.

    Returns
    -------
    eigenvalues : ndarray, shape (N,)
        Sorted descending.
    U : ndarray, shape (N, N)
        Orthonormal eigenvectors as columns, ordered to match.

    Both are float64 under machine double and object arrays of mpmath
    numbers under extended precision, and read-only.  U is assembled on
    each call from :meth:`ImpedanceMatrix.eigendecomposition`'s blocks.
    """
    s, blocks = Z.eigendecomposition()
    U = np.empty((Z.n, Z.n), dtype=Z.arithmetic.dtype)
    for sector, vectors, ranks in blocks:
        U[:, ranks] = sector.expand(vectors, np.full((Z.n, len(ranks)), Z.arithmetic.zero, U.dtype))
    U.setflags(write=False)
    return s, U


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
    """``s[:k]``, and ``(sector, V, ranks)`` of each sector's eigenvectors among those k modes.

    Raises
    ------
    EmptySpectrumError
        If k is 0: the retention rule keeps no mode.
    """
    if k == 0:
        raise EmptySpectrumError(
            "the truncation keeps no mode: no eigenvalue is above the threshold, or every"
            " requested one is at most zero")
    s, blocks = Z.eigendecomposition()
    counts = [int(np.searchsorted(ranks, k)) for _, _, ranks in blocks]  # a block's ranks increase
    return s[:k], [(sector, vectors[:, :m], ranks[:m])
                   for (sector, vectors, ranks), m in zip(blocks, counts) if m]


def _modal_inverse(Z: ImpedanceMatrix, k: int):
    """``sum over the leading k modes of u_n u_n^T / s_n``."""
    s, U = _leading_run(Z, k)[0], sym_eig(Z)[1][:, :k]
    with Z.arithmetic.lock:
        return (U / s) @ U.T


def _modal_solve(Z: ImpedanceMatrix, k: int, h):
    """``U_k (U_k^T h / s_k)`` as ``E V (V^T E^T h / s)`` in each sector that h excites.

    Each product is a ``matvec``: a complex h meets V as two real ones in double.
    """
    h = np.asarray(h)
    _require_finite(h)
    ar = Z.arithmetic
    with ar.lock:
        s, run = _leading_run(Z, k)
        x = np.full_like(h, ar.zero)
        for sector, vectors, ranks in run:
            y = sector.project(h)
            if np.any(y != 0):
                c = ar.matvec(vectors.T, y) / s[ranks]
                x = x + sector.expand(ar.matvec(vectors, c), np.zeros(Z.n, dtype=c.dtype))
        return x


def _partial_sums(Z: ImpedanceMatrix, h):
    """``(P_m, Q_m)`` for m = 1..N in Z's arithmetic, from the cached spectrum alone.

    Rank m keeps the leading ``min(m, k)`` modes, k the count of positive
    eigenvalues, as :func:`precoding.ca_pmf_rank` does.  With
    ``c_n = u_n^T h`` (per sector ``V^T E^T h``) its current
    ``i_m = sum u_n c_n / s_n`` has ``i^H h = i^H Z i = P_m = sum |c_n|^2 / s_n``
    and ``i^H i = Q_m = sum |c_n|^2 / s_n^2``: no current and no product
    with Z is formed.  The ``c_n`` of a sector h does not excite are
    exactly zero, so a rank that adds such a mode repeats the one before.

    Raises
    ------
    EmptySpectrumError
        If no eigenvalue is positive.
    """
    h = np.asarray(h)
    _require_finite(h)
    ar = Z.arithmetic
    with ar.lock:
        s, run = _leading_run(Z, _leading_modes(Z, Z.n))
        c = np.empty(len(s), dtype=np.result_type(s, h))
        for sector, vectors, ranks in run:
            c[ranks] = ar.matvec(vectors.T, sector.project(h))
        terms = ar.real(c * c.conjugate()) / s
        sums = list(zip(np.cumsum(terms), np.cumsum(terms / s)))
    # ranks past the last positive eigenvalue keep the same modes
    return sums + sums[-1:] * (Z.n - len(sums))


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
    only known to about ``eps ||(|Z| |x|)||``, which :func:`_product`
    forms from ``|Z.rows|``; when that rounding error
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
    the same sectors.  A square lattice's sectors are the swap halves of
    the even-even and odd-odd sectors and the even-odd and odd-even
    sectors whole, the odd-even one solving in the even-odd block's
    factor (:func:`_sector_inverse`).
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
            # a residual formed in double is only known to about eps |Z| |x|, |Z| stored as |rows|
            floor = np.finfo(float).eps * np.linalg.norm(_product(Z, np.abs(x), np.abs(Z.rows)))
            if floor <= tol:
                return x
            reason = (f"solve residual {res / norm_h:.3e} lies below the rounding error of Z x"
                      f" in double, {floor / norm_h:.3e}, so it cannot show"
                      f" {_SOLVE_RESIDUAL_RTOL:.0e}")

        def kappa_estimate():  # run on the error's first read of it, if any
            with ar.lock:
                # the largest absolute row sum of Z, a mirror image of a stored row's
                norm1_z = np.abs(Z.rows).sum(axis=1).max()
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
    works in too.  A square lattice's are the square group's
    (:func:`_sectors`), each block gathered straight from ``Z.rows`` at
    the group orbits' first members.  A broadside channel, exactly
    swap-symmetric, excites only the symmetric half of even-even: 45 of
    81 at N = 324, about a sixth of the whole block's factor.  Any other
    layout solves in the four mirror sectors.  One block solver serves
    each source and its twin: a channel that excites both the even-odd
    and the odd-even sector gathers and factors their block once.
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
        excited = [sector for sector in Z._sectors if np.any(sector.project(h) != 0)]
        solvers = {source: block_solver(source.block(Z))
                   for source in dict.fromkeys(sector.source for sector in excited)}

    def apply(v):
        with guard():
            parts = []
            for sector in excited:
                y = solvers[sector.source](sector.project(v))
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
    """Dump Z's entries as plain text: one row per line, 17 significant digits."""
    arr = Z.dense().astype(float)
    with open(path, "w") as fh:
        for row in arr:
            fh.write(" ".join(f"{v:.17g}" for v in row))
            fh.write("\n")
