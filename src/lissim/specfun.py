"""The arithmetic of each precision, and the special-function kernels.

:class:`Precision` selects IEEE double or extended software floating
point, and :meth:`Precision.arithmetic` hands out the few operations in
which the two differ (elementwise roots and exponentials, inner and
matrix-vector products, norms, the lock to compute under), so every
numeric function elsewhere has one body for both.

Two kernels drive everything: the unnormalized sinc ``sin(x)/x`` and the
ratio ``J1(x)/x`` of the first-kind Bessel function of order one.  Both
are even, bounded, and evaluated in either arithmetic; under extended
precision each distinct argument of an array is evaluated once.

The double-precision J1 uses a Maclaurin series up to the branch cutoff
and the standard trigonometric asymptotic form with minimax rational
corrections beyond it.  Either branch alone loses relative accuracy next
to the zeros of J1, so narrow intervals around the first twelve positive
zeros are re-evaluated from frozen Taylor expansions about the zero,
with the zero location stored as a double-double pair.
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass

import mpmath
import numpy as np

from .errors import InvalidArgumentError

#: Serializes extended-precision computations, and guards the cache of
#: arithmetics (:meth:`Precision.arithmetic`).  mpmath contexts raise
#: their own precision temporarily inside many functions, so a shared
#: context is only thread-safe under a lock; reentrant because extended
#: operations nest (a solve may trigger an eigendecomposition).
MP_LOCK = threading.RLock()


class _DoubleArithmetic:
    """Machine double: float64 and complex128 arrays, with BLAS products."""

    lock = contextlib.nullcontext()
    ctx = None
    dtype = float
    zero = 0.0
    pi = math.pi
    sqrt = staticmethod(np.sqrt)
    exp = staticmethod(np.exp)
    real = staticmethod(np.real)
    norm = staticmethod(np.linalg.norm)
    vdot = staticmethod(np.vdot)

    @staticmethod
    def number(x):
        """Real values (a scalar or an array) as float64."""
        return np.asarray(x, dtype=float)

    @staticmethod
    def matvec(a, x):
        """``a x``; a real a times a complex x as two real products, with no complex copy of a."""
        if a.dtype.kind == "c" or x.dtype.kind != "c":
            return a @ x
        out = np.empty(len(a), dtype=x.dtype)
        out.real = a @ x.real
        out.imag = a @ x.imag
        return out


class _ExtendedArithmetic:
    """Object arrays of one mpmath context's numbers; each inner product is one ``fdot``.

    Compute under :attr:`lock`: mpmath raises a context's precision
    inside many functions, so a context is only thread-safe under it.
    """

    lock = MP_LOCK
    dtype = object

    def __init__(self, bits: int):
        self.ctx = ctx = mpmath.mp.clone()
        ctx.prec = bits
        self.zero = ctx.zero
        self.pi = ctx.pi
        self.number = np.frompyfunc(ctx.mpf, 1, 1)
        self.sqrt = np.frompyfunc(ctx.sqrt, 1, 1)
        self.exp = np.frompyfunc(ctx.exp, 1, 1)
        self.real = np.frompyfunc(ctx.re, 1, 1)
        self.norm = ctx.norm

    def matvec(self, a, x):
        return np.array([self.ctx.fdot(row, x) for row in a], dtype=object)

    def vdot(self, a, b):
        """``sum conj(a_k) b_k``, rounded once."""
        return self.ctx.fdot(b, a, conjugate=True)


#: Each width's arithmetic (``None`` for double); an extended one is added under :data:`MP_LOCK`.
_ARITHMETICS: dict[int | None, object] = {None: _DoubleArithmetic()}


_SINC_SERIES_CUTOFF = 1e-4   # below this, sin(x)/x via its quadratic series
_J1_BRANCH_CUTOFF = 5.0      # Maclaurin series below, asymptotic form above
_ZERO_PATCH_RADIUS = 0.5


@dataclass(frozen=True)
class Precision:
    """Arithmetic selector: IEEE double or extended software floats.

    ``mantissa_bits`` is ``None`` for machine double; an integer >= 64
    selects a software floating-point mantissa of that many bits.
    """

    mantissa_bits: int | None = None

    def __post_init__(self):
        if self.mantissa_bits is not None:
            if not isinstance(self.mantissa_bits, int) or self.mantissa_bits < 64:
                raise InvalidArgumentError(
                    f"extended precision needs mantissa_bits >= 64, got {self.mantissa_bits!r}"
                )

    @classmethod
    def extended(cls, mantissa_bits: int = 256) -> "Precision":
        return cls(mantissa_bits=mantissa_bits)

    @classmethod
    def parse(cls, text: str) -> "Precision":
        """Parse ``"double"`` or ``"ext:<bits>"``; anything but a string is refused."""
        if not isinstance(text, str):
            raise InvalidArgumentError(f"precision spec must be a string, got {text!r}")
        t = text.strip().lower()
        if t == "double":
            return cls()
        if t.startswith("ext:"):
            try:
                return cls.extended(int(t[4:]))
            except ValueError as exc:
                raise InvalidArgumentError(f"bad precision spec {text!r}") from exc
        raise InvalidArgumentError(f"bad precision spec {text!r}; use 'double' or 'ext:<bits>'")

    @property
    def is_extended(self) -> bool:
        return self.mantissa_bits is not None

    def arithmetic(self):
        """The operations in which this precision differs from the other, one object per width.

        ``lock`` (a null context in double, :data:`MP_LOCK` in extended
        precision), ``ctx`` (None in double, else the width's mpmath
        context), ``dtype``, ``zero``, ``pi``, ``number`` (real values
        into this arithmetic), the elementwise ``sqrt``, ``exp`` and
        ``real``, ``matvec``, ``vdot`` (``a^H b``) and ``norm`` (with an
        optional order, as numpy's and mpmath's take).  Built on first
        use and shared: matrices from different mpmath context clones do
        not interoperate, so all objects of one width share its context.
        """
        with MP_LOCK:
            if self.mantissa_bits not in _ARITHMETICS:
                _ARITHMETICS[self.mantissa_bits] = _ExtendedArithmetic(self.mantissa_bits)
            return _ARITHMETICS[self.mantissa_bits]

    def spec(self) -> str:
        return "double" if not self.is_extended else f"ext:{self.mantissa_bits}"


# J1(x) = x * sum_m _MACLAURIN_C[m] * x^(2m), each term (-1)^m / (m! (m+1)! 2^(2m+1))
# rounded once: Python's int / int division is correctly rounded
_MACLAURIN_C = tuple((-1) ** m / (math.factorial(m) * math.factorial(m + 1) * 2 ** (2 * m + 1))
                     for m in range(20))

# --- frozen double-precision tables (generated with mpmath at 60 digits) ---

_THREE_PI_4_HI = 2.356194490192345
_THREE_PI_4_LO = 9.184850993605148e-17
_SQRT_2_OVER_PI = 0.7978845608028654

# minimax rational corrections for the large-argument trigonometric form
# (Cephes Math Library coefficients, valid for x >= 5)
_PP1 = (
    7.62125616208173112003e-4,
    7.31397056940917570436e-2,
    1.12719608129684925192e0,
    5.11207951146807644818e0,
    8.42404590141772420927e0,
    5.21451598682361504063e0,
    1.00000000000000000254e0,
)
_PQ1 = (
    5.71323128072548699714e-4,
    6.88455908754495404082e-2,
    1.10514232634061696926e0,
    5.07386386128601488557e0,
    8.39985554327604159757e0,
    5.20982848682361821619e0,
    9.99999999999999997461e-1,
)
_QP1 = (
    5.10862594750176621635e-2,
    4.98213872951233449420e0,
    7.58238284132545283818e1,
    3.66779609360150777800e2,
    7.10856304998926107277e2,
    5.97489612400613639965e2,
    2.11688757100572135698e2,
    2.52070205858023719784e1,
)
_QQ1 = (
    1.0,
    7.42373277035675149943e1,
    1.05644886038262816351e3,
    4.98641058337653607651e3,
    9.56231892404756170795e3,
    7.99704160447350683650e3,
    2.82619278517639096600e3,
    3.36093607810698293419e2,
)

# (zero_hi, zero_lo, Taylor c1..c16 about the zero) for the first twelve
# positive zeros of J1; c0 is identically 0 there
_ZERO_PATCHES = (
    (3.8317059702075125, -1.5269184090088067e-16,
     (-0.402759395702553, 0.05255614585697724, 0.05341044413272481, -0.00517971924563857, -0.002233125339147478, 0.00017466429072012055, 4.6208701297458374e-05, -3.0368633802997826e-06, -5.727805735140382e-07, 3.248286298212016e-08, 4.735380569423091e-09, -2.362196187930065e-10, -2.7988764988661896e-11, 1.246229588716384e-12, 1.2418546943452455e-13, -4.993136616202628e-15)),
    (7.015586669815619, -9.414165653410389e-17,
     (0.30011575252613254, -0.02138921280934158, -0.04697047894974149, 0.003130291726048091, 0.0021055871432482764, -0.00012550790955145584, -4.499147530293068e-05, 2.4015807963093223e-06, 5.665270011548331e-07, -2.727342767799157e-08, -4.7204830035449805e-09, 2.065348676100161e-10, 2.800572526275014e-11, -1.1216380229417615e-12, -1.2445402051043784e-13, 4.5920247766484e-15)),
    (10.173468135062722, 4.482162274768888e-16,
     (-0.2497048770578432, 0.012272357555101523, 0.04041116939079276, -0.001926818797260787, -0.0019115826893826534, 8.661729454170434e-05, 4.241116281083461e-05, -1.8009794578804267e-06, -5.471602987582109e-07, 2.1683937068370022e-08, 4.6309166017117e-09, -1.7127551080711048e-10, -2.775489163018589e-11, 9.597416016880929e-13, 1.2416439077261461e-13, -4.0243448154229645e-15)),
    (13.323691936314223, 2.600408064718813e-16,
     (0.21835940724787295, -0.008194403183877519, -0.035778209575030605, 0.0013195736128103677, 0.0017308725061749555, -6.200735161421355e-05, -3.938703742075764e-05, 1.3569942254160056e-06, 5.1906566526836e-07, -1.7083741497242886e-08, -4.4653408290297705e-09, 1.399143923481404e-10, 2.708929479095926e-11, -8.07029452129946e-13, -1.2227780235323199e-13, 3.463454424688264e-15)),
    (16.470630050877634, -1.619019544798128e-15,
     (-0.1964653714686572, 0.005964112206448003, 0.03238212268489082, -0.00097203375623041, -0.0015842303417565701, 4.6667442231393634e-05, 3.657257353884341e-05, -1.049961528434457e-06, -4.891790860969825e-07, 1.3610422078373998e-08, 4.264651809545571e-09, -1.1453319428019085e-10, -2.616236423439816e-11, 6.765104475341545e-13, 1.1916937033915237e-13, -2.962874324188861e-15)),
    (19.615858510468243, -1.004445634526616e-15,
     (0.18006337534431555, -0.0045897398589060615, -0.029776581472313525, 0.0007530284838533922, 0.001466039052656134, -3.658900938310023e-05, -3.413723646008698e-05, 8.366328207699344e-07, 4.6108501645071013e-07, -1.1048051583135714e-08, -4.059278126815117e-09, 9.475489281164802e-11, 2.512909290396835e-11, -5.699140113671853e-13, -1.1538053180898009e-13, 2.5376262371457384e-15)),
    (22.760084380592772, -4.925749373614922e-16,
     (-0.16718460047381806, 0.0036727588017286565, 0.027702731661334967, -0.0006050364924653888, -0.0013693112504510835, 2.9615596937998215e-05, 3.206096190011661e-05, -6.841061439934364e-07, -4.3588795163776393e-07, 9.14449210444754e-09, 3.864448992149651e-09, -7.947190941712038e-11, -2.409001952912788e-11, 4.844331366939745e-13, 1.1133632079140188e-13, -2.185060888556449e-15)),
    (25.903672087618382, 4.894530726419825e-16,
     (0.15672498625285222, -0.003025149981105666, -0.02600404644222612, 0.0004996832448069009, 0.001288697907664124, -2.4577609477776826e-05, -3.0285619999010918e-05, 5.715986090112256e-07, 4.1362773860810494e-07, -7.704474763549145e-09, -3.685716349159121e-09, 6.758671848833387e-11, 2.3097146345017693e-11, -4.1607352443927805e-13, -1.0730436022610238e-13, 1.895473873887703e-15)),
    (29.046828534916855, -2.799892014010185e-16,
     (-0.14801110997277755, 0.0025478015576615378, 0.024580804740560666, -0.00042161386264394086, -0.0012203728389620493, 2.0807463595698294e-05, 2.8754867599879858e-05, -4.862192367299288e-07, -3.940045186564203e-07, 6.592537444671539e-09, 3.523979205857853e-09, -5.822692462094286e-11, -2.2172171806515446e-11, 3.611066667651803e-13, 1.0342982977987302e-13, -1.6577059639944475e-15)),
    (32.189679910974405, -1.5481609125503839e-15,
     (0.14060579818398225, -0.002184019825186979, -0.023366451249280343, 0.0003618955339982603, 0.0011616031973470814, -1.7903598614259315e-05, -2.74222453458463e-05, 4.1980686260628887e-07, 3.7665128146866753e-07, -5.716821145312115e-09, -3.378238549293215e-09, 5.0748836429127427e-11, 2.1320762911883113e-11, -3.16497796399387e-13, -9.978007019498595e-14, 1.4615845161404568e-15)),
    (35.33230755008387, -3.2611649318496424e-15,
     (-0.1342112403100007, 0.0018992708036370827, 0.022314785543814587, -0.0003150237357750719, -0.0011104068860942182, 1.561294399616254e-05, 2.6251114160604394e-05, -3.670401528583828e-07, -3.612246821417093e-07, 5.014640402568397e-09, 3.2468644619907707e-09, -4.4687784404154505e-11, -2.0540951231528794e-11, 2.799074366443869e-13, 9.637799354249566e-14, -1.298661765142653e-15)),
    (38.474766234771614, 7.193676286738655e-16,
     (0.12861662207206995, -0.0016714412413483689, -0.021392661147250084, 0.0002774444227360563, 0.0010653181511813166, -1.376948145901421e-05, -2.5212865164017828e-05, 3.243437756674139e-07, 3.4742933337009585e-07, -4.442512773878193e-09, -3.128134772227422e-09, 3.970846653305359e-11, 1.9827532690681618e-11, -2.4956734644332077e-13, -9.322294413456317e-14, 1.1622083696059207e-15)),
)


def _polevl(z, coef):
    """Horner's rule for the polynomial with coefficients ``coef``, highest degree first."""
    acc = np.full_like(z, coef[0])
    for c in coef[1:]:
        acc = acc * z + c
    return acc


def _j1_small(x):
    """Maclaurin-series branch, intended for |x| <= 5."""
    return x * _polevl(x * x, _MACLAURIN_C[::-1])


def _j1_asymptotic(x):
    """Trigonometric asymptotic branch, intended for x > 5."""
    w = 5.0 / x
    z = w * w
    p = _polevl(z, _PP1) / _polevl(z, _PQ1)
    q = _polevl(z, _QP1) / _polevl(z, _QQ1)
    # split-constant phase reduction keeps the phase error at one rounding
    xn = (x - _THREE_PI_4_HI) - _THREE_PI_4_LO
    return _SQRT_2_OVER_PI * (p * np.cos(xn) - w * q * np.sin(xn)) / np.sqrt(x)


def _j1_zero_patch(x, out):
    """Overwrite entries of ``out`` near J1 zeros with Taylor evaluations."""
    for z_hi, z_lo, coeffs in _ZERO_PATCHES:
        mask = np.abs(x - z_hi) < _ZERO_PATCH_RADIUS
        if not np.any(mask):
            continue
        t = (x[mask] - z_hi) - z_lo
        out[mask] = t * _polevl(t, coeffs[::-1])
    return out


def _bessel_j1_double(x):
    """J1 for float array input, accurate in a relative sense.

    Relative accuracy holds even next to the zeros of J1 up to the
    twelfth one (x ~ 38.5), which covers every kernel argument a
    half-meter aperture produces at the frequencies of interest.
    """
    ax = np.abs(x)
    out = np.where(ax <= _J1_BRANCH_CUTOFF, _j1_small(ax),
                   _j1_asymptotic(np.maximum(ax, _J1_BRANCH_CUTOFF)))
    _j1_zero_patch(ax, out)
    return np.sign(x) * out


def _extended_kernel(precision: Precision, x, at_zero: float, numerator):
    """``numerator(ctx, x)/x`` (``at_zero`` at 0) on each entry of x, once per distinct value."""
    ctx = precision.arithmetic().ctx
    with MP_LOCK:
        zero_value = ctx.mpf(at_zero)
        values = {}

        def once(v):
            out = values.get(v)
            if out is None:
                w = ctx.mpf(v)
                out = values[v] = zero_value if w == 0 else numerator(ctx, w) / w
            return out

        return np.frompyfunc(once, 1, 1)(x)


def sinc_unnormalized(x, precision: Precision = Precision()):
    """sin(x)/x with the removable singularity filled in.

    Accepts a float or ndarray (returned elementwise); under extended
    precision an object array (or a scalar) of the precision's numbers.
    """
    if precision.is_extended:
        return _extended_kernel(precision, x, 1.0, lambda ctx, v: ctx.sin(v))
    arr = np.asarray(x, dtype=float)
    small = np.abs(arr) < _SINC_SERIES_CUTOFF
    z = arr * arr
    series = 1.0 - z / 6.0 + z * z / 120.0
    safe = np.where(small, 1.0, arr)
    full = np.sin(safe) / safe
    out = np.where(small, series, full)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def j1_over_x(x, precision: Precision = Precision()):
    """J1(x)/x, equal to 1/2 at x = 0; even in x.

    Parameters
    ----------
    x : float or ndarray
        Argument(s); under extended precision a scalar or an object
        array, converted to the precision's context.
    precision : Precision
        Arithmetic to evaluate in.

    Returns
    -------
    float, ndarray, or mpf
    """
    if precision.is_extended:
        return _extended_kernel(precision, x, 0.5, lambda ctx, v: ctx.besselj(1, v))
    arr = np.asarray(x, dtype=float)
    zero = arr == 0.0
    safe = np.where(zero, 1.0, arr)
    out = np.where(zero, 0.5, _bessel_j1_double(safe) / safe)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out
