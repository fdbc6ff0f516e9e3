"""2x2 matrix models of the three Lorentzian spaces and their duals.

Points of the spacetime family (anti-de Sitter / Minkowski / de Sitter for
lam = -1, 0, +1, written space "X") are projective classes of matrices fixed
by the involution `circ` with positive determinant; points of the dual
family (anti-de Sitter / half-pipe / hyperbolic, space "Y") are classes
fixed by the conjugate transpose `dag`.  Orientation-preserving isometries
are projective classes of matrices A with |det A|^2 > 0, acting by
A > x = A x A^circ on X and B > y = B y B^dag on Y.

Tangent vectors at the identity are traceless hermitian matrices for the
matching involution; a tangent at a general base point is stored as the
pair (base isometry, model vector at the identity).

A `Mat2` stores its four entries as eight numbers and one curvature tag,
and does its arithmetic on those numbers in the order `GC` would, so its
results are those of entrywise `GC` arithmetic bit for bit.  Scalar `GC`s
are built only where a caller reads an entry, a determinant or a trace.
The same arithmetic is written once on bare tuples of eight numbers
(`_matmul`, `_push`, `_canonical`, `_exp_traceless`, ...); `Mat2`, `push`,
`act` and `Point` all go through it.

A hermitian matrix is also written as its four independent entries
(`_herm`, `_unherm`): (a0, a1, b1, c1) on X and (a0, d0, b0, b1) on Y.  On
them the push by an isometry is a real 4x4 matrix (`_action`, built by
`_push`ing the four basis matrices), and it multiplies determinants by
|det A|^2, so the sampling loop of `tetrahedra` scales a pushed chart point
of det 1 by |det A| (`_abs_det`), formed from exact products summed by
`math.fsum`, not by a det recomputed from the pushed entries.  `_signed` is
the sign rule of `_canonical`, shared with that loop.

Two trusted constructors skip the checks their callers have already made:
`_mat` builds a matrix on eight numbers whose tag is checked, and `_point`
a point on the eight numbers of a representative whose space and tag are
checked, with one `_canonical` and no dataclass init.  `Mat2(...)` and
`Point(...)` keep their checks.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass

import numpy as np

from .errors import (
    BaseMismatch,
    DomainError,
    LambdaMismatch,
    NormalizationFailure,
)
from .gcnum import GC, _mod_sq, _mul, check_lambda

SPACE_X = "X"
SPACE_Y = "Y"

PROJ_TOL = 1e-9  # projective equality: Frobenius distance of canonical reps


def check_space(space: str) -> str:
    if space not in (SPACE_X, SPACE_Y):
        raise DomainError(f"space must be 'X' or 'Y', got {space!r}")
    return space


def _mat(flat: tuple, lam: int) -> "Mat2":
    """Matrix on eight numbers whose tag is already checked."""
    m = _new(Mat2)
    _set_flat(m, flat)
    _set_lam(m, lam)
    return m


# -- arithmetic on the eight numbers ---------------------------------------------
#
# `Mat2` and the per-point loops of `tetrahedra` share these, so a matrix and a
# bare tuple round alike.


def _det(flat: tuple, lam: int) -> tuple:
    """(re, im) of a*d - b*c, evaluated as `GC` evaluates it."""
    a0, a1, b0, b1, c0, c1, d0, d1 = flat
    return ((a0 * d0 - lam * a1 * d1) - (b0 * c0 - lam * b1 * c1),
            (a0 * d1 + d0 * a1) - (b0 * c1 + c0 * b1))


def _matmul(p: tuple, q: tuple, lam: int) -> tuple:
    """The product p q; entry (i, j) is the `GC` sum (p) + (q) of the two
    products of row i and column j."""
    a0, a1, b0, b1, c0, c1, d0, d1 = p
    e0, e1, f0, f1, g0, g1, h0, h1 = q
    return (
        (a0 * e0 - lam * a1 * e1) + (b0 * g0 - lam * b1 * g1),
        (a0 * e1 + e0 * a1) + (b0 * g1 + g0 * b1),
        (a0 * f0 - lam * a1 * f1) + (b0 * h0 - lam * b1 * h1),
        (a0 * f1 + f0 * a1) + (b0 * h1 + h0 * b1),
        (c0 * e0 - lam * c1 * e1) + (d0 * g0 - lam * d1 * g1),
        (c0 * e1 + e0 * c1) + (d0 * g1 + g0 * d1),
        (c0 * f0 - lam * c1 * f1) + (d0 * h0 - lam * d1 * h1),
        (c0 * f1 + f0 * c1) + (d0 * h1 + h0 * d1),
    )


def _scaled(flat: tuple, s) -> tuple:
    """Every number times the real s."""
    a0, a1, b0, b1, c0, c1, d0, d1 = flat
    return (a0 * s, a1 * s, b0 * s, b1 * s, c0 * s, c1 * s, d0 * s, d1 * s)


def _neg(flat: tuple) -> tuple:
    a0, a1, b0, b1, c0, c1, d0, d1 = flat
    return (-a0, -a1, -b0, -b1, -c0, -c1, -d0, -d1)


def _circ(flat: tuple) -> tuple:
    # -conj(b) = -b.re + l b.im: the double negation of b.im is exact.
    a0, a1, b0, b1, c0, c1, d0, d1 = flat
    return (d0, -d1, -b0, b1, -c0, c1, a0, -a1)


def _dag(flat: tuple) -> tuple:
    a0, a1, b0, b1, c0, c1, d0, d1 = flat
    return (a0, -a1, c0, -c1, b0, -b1, d0, -d1)


def _adj(flat: tuple) -> tuple:
    a0, a1, b0, b1, c0, c1, d0, d1 = flat
    return (d0, d1, -b0, -b1, -c0, -c1, a0, a1)


def _traceless(flat: tuple) -> tuple:
    a0, a1, b0, b1, c0, c1, d0, d1 = flat
    h0, h1 = (a0 + d0) * 0.5, (a1 + d1) * 0.5
    return (a0 - h0, a1 - h1, b0, b1, c0, c1, d0 - h0, d1 - h1)


def _frob_sq(flat: tuple) -> float:
    a0, a1, b0, b1, c0, c1, d0, d1 = flat
    # `sum`, not `+`: it rounds as the old sum over entries did on every
    # Python version (3.12 made `sum` of floats compensated).
    return sum((a0 * a0 + a1 * a1, b0 * b0 + b1 * b1, c0 * c0 + c1 * c1, d0 * d0 + d1 * d1))


def _isclose(p: tuple, q: tuple, tol: float) -> bool:
    bound = tol * max(1.0, math.sqrt(_frob_sq(p)), math.sqrt(_frob_sq(q)))
    for x, y in zip(p, q):
        if not abs(x - y) <= bound:
            return False
    return True


def _mixed(lam1: int, lam2: int) -> LambdaMismatch:
    return LambdaMismatch(f"mixed curvature tags {lam1} and {lam2}")


class Mat2:
    """2x2 matrix over the algebra, row-major entries a, b, c, d.

    The entries live in one tuple of eight numbers, `flat = (a.re, a.im,
    b.re, b.im, c.re, c.im, d.re, d.im)`, beside one curvature tag `lam`
    that is checked once per matrix; numbers are kept as passed, not
    coerced.  Every operation is written out on these numbers as `GC` would
    evaluate it entry by entry, term for term and in the same order, so
    each result is bit-for-bit the one of `GC` arithmetic.  Operations on
    two matrices, or on a matrix and a `GC`, compare the tags and raise
    `LambdaMismatch` on a mix.

    `GC`s are built only when a caller asks for them: `a`, `b`, `c`, `d`,
    `entries`, `det` and `tr` return them.  `Mat2(a, b, c, d)` takes four
    `GC`s of one tag; `from_flat` takes the eight numbers.  A matrix is
    immutable, and equal matrices hash equal.
    """

    __slots__ = ("flat", "lam")

    def __init__(self, a: GC, b: GC, c: GC, d: GC):
        lam = a.lam
        if b.lam != lam or c.lam != lam or d.lam != lam:
            raise LambdaMismatch("matrix entries carry mixed curvature tags")
        _set_flat(self, (a.re, a.im, b.re, b.im, c.re, c.im, d.re, d.im))
        _set_lam(self, lam)

    @classmethod
    def from_flat(cls, flat, lam: int) -> "Mat2":
        flat = tuple(flat)
        if len(flat) != 8:
            raise DomainError(f"a matrix needs eight numbers, got {len(flat)}")
        return _mat(flat, check_lambda(lam))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _mat, (self.flat, self.lam)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.lam == other.lam and self.flat == other.flat

    def __hash__(self):
        return hash((self.flat, self.lam))

    @property
    def a(self) -> GC:
        return GC(self.flat[0], self.flat[1], self.lam)

    @property
    def b(self) -> GC:
        return GC(self.flat[2], self.flat[3], self.lam)

    @property
    def c(self) -> GC:
        return GC(self.flat[4], self.flat[5], self.lam)

    @property
    def d(self) -> GC:
        return GC(self.flat[6], self.flat[7], self.lam)

    @property
    def entries(self) -> tuple[GC, GC, GC, GC]:
        return (self.a, self.b, self.c, self.d)

    @classmethod
    def identity(cls, lam: int) -> "Mat2":
        return _mat((1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0), check_lambda(lam))

    @classmethod
    def from_real(cls, rows, lam: int) -> "Mat2":
        (a, b), (c, d) = rows
        return _mat((float(a), 0.0, float(b), 0.0, float(c), 0.0, float(d), 0.0),
                    check_lambda(lam))

    def __add__(self, other: "Mat2") -> "Mat2":
        lam = self.lam
        if other.lam != lam:
            raise _mixed(lam, other.lam)
        a0, a1, b0, b1, c0, c1, d0, d1 = self.flat
        e0, e1, f0, f1, g0, g1, h0, h1 = other.flat
        return _mat((a0 + e0, a1 + e1, b0 + f0, b1 + f1,
                     c0 + g0, c1 + g1, d0 + h0, d1 + h1), lam)

    def __sub__(self, other: "Mat2") -> "Mat2":
        lam = self.lam
        if other.lam != lam:
            raise _mixed(lam, other.lam)
        a0, a1, b0, b1, c0, c1, d0, d1 = self.flat
        e0, e1, f0, f1, g0, g1, h0, h1 = other.flat
        return _mat((a0 - e0, a1 - e1, b0 - f0, b1 - f1,
                     c0 - g0, c1 - g1, d0 - h0, d1 - h1), lam)

    def __neg__(self) -> "Mat2":
        return _mat(_neg(self.flat), self.lam)

    def __mul__(self, s) -> "Mat2":
        lam = self.lam
        if isinstance(s, (int, float)):
            return _mat(_scaled(self.flat, s), lam)
        if not isinstance(s, GC):
            raise TypeError(f"cannot scale Mat2 by {type(s)!r}")
        if s.lam != lam:
            raise _mixed(lam, s.lam)
        a0, a1, b0, b1, c0, c1, d0, d1 = self.flat
        sr, si = s.re, s.im
        return _mat((*_mul(a0, a1, sr, si, lam), *_mul(b0, b1, sr, si, lam),
                     *_mul(c0, c1, sr, si, lam), *_mul(d0, d1, sr, si, lam)), lam)

    __rmul__ = __mul__

    def __matmul__(self, other: "Mat2") -> "Mat2":
        lam = self.lam
        if other.lam != lam:
            raise _mixed(lam, other.lam)
        return _mat(_matmul(self.flat, other.flat, lam), lam)

    def det(self) -> GC:
        return GC(*_det(self.flat, self.lam), self.lam)

    def tr(self) -> GC:
        f = self.flat
        return GC(f[0] + f[6], f[1] + f[7], self.lam)

    def conj(self) -> "Mat2":
        a0, a1, b0, b1, c0, c1, d0, d1 = self.flat
        return _mat((a0, -a1, b0, -b1, c0, -c1, d0, -d1), self.lam)

    def circ(self) -> "Mat2":
        """Involution swapping the diagonal with conjugation and negating
        the conjugated off-diagonal."""
        return _mat(_circ(self.flat), self.lam)

    def dag(self) -> "Mat2":
        """Conjugate transpose."""
        return _mat(_dag(self.flat), self.lam)

    def adj(self) -> "Mat2":
        return _mat(_adj(self.flat), self.lam)

    def inv(self) -> "Mat2":
        return self.adj() * self.det().inv()

    def traceless(self) -> "Mat2":
        return _mat(_traceless(self.flat), self.lam)

    def re_rows(self) -> list[list[float]]:
        f = self.flat
        return [[f[0], f[2]], [f[4], f[6]]]

    def im_rows(self) -> list[list[float]]:
        f = self.flat
        return [[f[1], f[3]], [f[5], f[7]]]

    def det_im(self) -> float:
        """Determinant of the matrix of imaginary parts."""
        f = self.flat
        return f[1] * f[7] - f[3] * f[5]

    def frob_sq(self) -> float:
        return _frob_sq(self.flat)

    def isclose(self, other: "Mat2", tol: float = 1e-12) -> bool:
        return _isclose(self.flat, other.flat, tol)

    def __repr__(self):
        f = self.flat
        a, b, c, d = (f"{f[k]:.6g}{f[k + 1]:+.6g}l" for k in range(0, 8, 2))
        return f"Mat2[[{a}, {b}], [{c}, {d}]; lam={self.lam}]"


_new = object.__new__
_set_flat = Mat2.flat.__set__
_set_lam = Mat2.lam.__set__


def involution(m: Mat2, space: str) -> Mat2:
    """The involution whose fixed matrices model `space`: `circ` on X,
    `dag` on Y."""
    return m.circ() if check_space(space) == SPACE_X else m.dag()


def _is_hermitian(flat: tuple, space: str, tol: float) -> bool:
    star = _circ(flat) if space == SPACE_X else _dag(flat)
    return _isclose(star, flat, tol)


def is_hermitian(m: Mat2, space: str, tol: float = 1e-9) -> bool:
    return _is_hermitian(m.flat, check_space(space), tol)


# -- embeddings of R^4 --------------------------------------------------------


def embed(v, space: str, lam: int) -> Mat2:
    """Linear identification of R^4 with the hermitian matrices of `space`."""
    check_space(space)
    check_lambda(lam)
    v1, v2, v3, v4 = (float(x) for x in v)
    if space == SPACE_X:
        return _mat((v2, v4, 0.0, v3 - v1, 0.0, v3 + v1, v2, -v4), lam)
    return _mat((v1 + v3, 0.0, v4, v2, v4, -v2, v1 - v3, 0.0), lam)


def unembed(m: Mat2, space: str) -> np.ndarray:
    """Inverse of `embed` on hermitian matrices (non-hermitian parts are
    discarded by symmetrization)."""
    return np.array(_unembed(m.flat, check_space(space)))


def _unembed(flat: tuple, space: str) -> tuple:
    a0, a1, b0, b1, c0, c1, d0, d1 = flat
    if space == SPACE_X:
        x2 = 0.5 * (a0 + d0)
        x4 = 0.5 * (a1 - d1)
        x3 = 0.5 * (b1 + c1)
        x1 = 0.5 * (c1 - b1)
        return (x1, x2, x3, x4)
    y1 = 0.5 * (a0 + d0)
    y3 = 0.5 * (a0 - d0)
    y4 = 0.5 * (b0 + c0)
    y2 = 0.5 * (b1 - c1)
    return (y1, y2, y3, y4)


def quadric_diagonal(space: str, lam: int) -> np.ndarray:
    """Diagonal of the quadratic form v -> det(embed(v)) on R^4."""
    if check_space(space) == SPACE_X:
        return np.array([-float(lam), 1.0, float(lam), float(lam)])
    return np.array([1.0, -float(lam), -1.0, -1.0])


def quadric_value(v, space: str, lam: int) -> float:
    """det(embed(v)); positive exactly on points of the space."""
    v = np.asarray(v, float)
    return float(quadric_diagonal(space, lam) @ (v * v))


# -- isometries ---------------------------------------------------------------


@dataclass(frozen=True)
class Isometry:
    """Projective class of a matrix with |det|^2 > 0."""

    rep: Mat2

    def __post_init__(self):
        rep, lam = self.rep, self.rep.lam
        d_re, d_im = _det(rep.flat, lam)
        m = _mod_sq(d_re, d_im, lam)
        bound = 1e-24 * max(1.0, rep.frob_sq() ** 2)
        if m <= bound:
            raise NormalizationFailure(f"|det|^2 = {m} is not above 1e-24 max(1, |A|_F^2)^2 "
                                       f"= {bound}: not an isometry")
        # Scale so |det|^2 = 1; a real positive factor keeps the class.
        # Skipped when already normalized so reloading a representative is
        # bit-stable.
        if abs(m - 1.0) > 1e-12:
            object.__setattr__(self, "rep", rep * (m ** -0.25))

    @property
    def lam(self) -> int:
        return self.rep.lam

    @classmethod
    def identity(cls, lam: int) -> "Isometry":
        return cls(Mat2.identity(lam))

    def inv(self) -> "Isometry":
        return Isometry(self.rep.inv())

    def __matmul__(self, other: "Isometry") -> "Isometry":
        return Isometry(self.rep @ other.rep)

    def projectively_equal(self, other: "Isometry", tol: float = PROJ_TOL) -> bool:
        """True when the reps differ by a scalar of the algebra, tested by
        vanishing of all pairwise cross products of entries."""
        p, q = self.rep.entries, other.rep.entries
        scale = math.sqrt(self.rep.frob_sq() * other.rep.frob_sq())
        for i in range(4):
            for j in range(i + 1, 4):
                cross = p[i] * q[j] - p[j] * q[i]
                if math.hypot(cross.re, cross.im) > tol * max(scale, 1e-30):
                    return False
        return True


# -- points -------------------------------------------------------------------


def _canonical(flat: tuple, lam: int, space: str) -> tuple:
    """Scale a hermitian positive-determinant matrix to det = 1 and fix the
    sign by tr >= 0, breaking tr = 0 ties by the first nonzero coordinate.

    The hermitian test is `_is_hermitian(flat, space, 1e-7)` written out on
    the four squared entry moduli, computed once: the involution permutes
    them, and each Frobenius sum keeps the order of its own matrix.  Each
    comparison is made once (|x - y| is |y - x|), and one of a number with
    itself, |x - x| <= bound, is x - x == 0.0: the bound is at least 1e-7
    and never NaN."""
    a0, a1, b0, b1, c0, c1, d0, d1 = flat
    sq_a, sq_b = a0 * a0 + a1 * a1, b0 * b0 + b1 * b1
    sq_c, sq_d = c0 * c0 + c1 * c1, d0 * d0 + d1 * d1
    frob = sum((sq_a, sq_b, sq_c, sq_d))
    if space == SPACE_X:
        # flat^circ = (d0, -d1, -b0, b1, -c0, c1, a0, -a1)
        bound = 1e-7 * max(1.0, math.sqrt(sum((sq_d, sq_b, sq_c, sq_a))), math.sqrt(frob))
        hermitian = (abs(d0 - a0) <= bound and abs(-d1 - a1) <= bound
                     and abs(-b0 - b0) <= bound and b1 - b1 == 0.0
                     and abs(-c0 - c0) <= bound and c1 - c1 == 0.0)
    else:
        # flat^dag = (a0, -a1, c0, -c1, b0, -b1, d0, -d1)
        bound = 1e-7 * max(1.0, math.sqrt(sum((sq_a, sq_c, sq_b, sq_d))), math.sqrt(frob))
        hermitian = (a0 - a0 == 0.0 and abs(-a1 - a1) <= bound
                     and abs(c0 - b0) <= bound and abs(-c1 - b1) <= bound
                     and d0 - d0 == 0.0 and abs(-d1 - d1) <= bound)
    if not hermitian:
        raise NormalizationFailure(f"representative is not hermitian for space {space!r}")
    d_re = (a0 * d0 - lam * a1 * d1) - (b0 * c0 - lam * b1 * c1)
    d_im = (a0 * d1 + d0 * a1) - (b0 * c1 + c0 * b1)
    scale = max(frob, 1e-300)
    if abs(d_im) > 1e-7 * scale:
        raise NormalizationFailure("determinant is not real")
    if d_re <= 1e-14 * scale:
        raise NormalizationFailure(f"representative has determinant {d_re}, not above "
                                   f"1e-14 |A|_F^2 = {1e-14 * scale}")
    return _signed(_scaled(flat, 1.0 / math.sqrt(d_re)), space)


def _signed(flat: tuple, space: str) -> tuple:
    """The representative of the sign tr >= 0; a trace within 1e-12 of 0
    is a tie, broken by the sign of the first coordinate (`_unembed`)
    beyond 1e-12."""
    t = flat[0] + flat[6]
    if t < 0:
        return _neg(flat)
    if abs(t) <= 1e-12:
        for comp in _unembed(flat, space):
            if abs(comp) > 1e-12:
                return _neg(flat) if comp < 0 else flat
    return flat


def _canonical_point_rep(m: Mat2, space: str) -> Mat2:
    return _mat(_canonical(m.flat, m.lam, space), m.lam)


def _point(space: str, flat: tuple, lam: int) -> "Point":
    """Point on the eight numbers of a representative whose space and tag
    are already checked: `Point(space, _mat(flat, lam))` bit for bit, with
    one `_canonical` and no dataclass init."""
    return _canonical_point(space, _canonical(flat, lam, space), lam)


def _canonical_point(space: str, flat: tuple, lam: int) -> "Point":
    """Point on the eight numbers of a representative that is canonical
    already, with no dataclass init."""
    p = _new(Point)
    p.__dict__.update(space=space, rep=_mat(flat, lam))
    return p


@dataclass(frozen=True)
class Point:
    """Projective class of a hermitian matrix of positive determinant."""

    space: str
    rep: Mat2

    def __post_init__(self):
        check_space(self.space)
        object.__setattr__(self, "rep", _canonical_point_rep(self.rep, self.space))

    @property
    def lam(self) -> int:
        return self.rep.lam

    @classmethod
    def origin(cls, space: str, lam: int) -> "Point":
        return cls(space, Mat2.identity(lam))

    @classmethod
    def from_vector(cls, v, space: str, lam: int) -> "Point":
        return cls(space, embed(v, space, lam))

    def vector(self) -> np.ndarray:
        return unembed(self.rep, self.space)

    def isclose(self, other: "Point", tol: float = PROJ_TOL) -> bool:
        if self.space != other.space or self.lam != other.lam:
            return False
        d_plus = (self.rep - other.rep).frob_sq()
        d_minus = (self.rep + other.rep).frob_sq()
        return min(d_plus, d_minus) <= tol * tol * max(1.0, self.rep.frob_sq())

    def moved(self, a: Isometry) -> "Point":
        return act(a, self)


# -- tangents -----------------------------------------------------------------


def _model_inner(space: str, m1: Mat2, m2: Mat2) -> float:
    """Invariant bilinear form on the model tangent space at the identity,
    obtained by polarizing -det(Im .) for X and -det(.) for Y."""
    f1, f2 = m1.flat, m2.flat
    if space == SPACE_X:
        # X = l*M with M real traceless: <X1, X2> = m1 n1 + (m2 n3 + m3 n2)/2
        return f1[1] * f2[1] + 0.5 * (f1[3] * f2[5] + f1[5] * f2[3])
    a1, b1, c1 = f1[0], f1[2], f1[3]
    a2, b2, c2 = f2[0], f2[2], f2[3]
    return a1 * a2 + b1 * b2 + m1.lam * c1 * c2


@dataclass(frozen=True)
class Tangent:
    """Tangent vector stored as (base isometry, model vector at identity)."""

    space: str
    rep: Mat2
    base: Isometry | None = None

    def __post_init__(self):
        check_space(self.space)
        t = self.rep.tr()
        if math.hypot(t.re, t.im) > 1e-9 * max(1.0, math.sqrt(self.rep.frob_sq())):
            raise NormalizationFailure("tangent representative is not traceless")
        if not is_hermitian(self.rep, self.space, 1e-7):
            raise NormalizationFailure("tangent representative has the wrong hermitian type")
        if self.base is None:
            object.__setattr__(self, "base", Isometry.identity(self.rep.lam))

    @property
    def lam(self) -> int:
        return self.rep.lam

    def norm_sq(self) -> float:
        return _model_inner(self.space, self.rep, self.rep)

    def sigma(self) -> int:
        return causal_type(self)

    def base_point(self) -> Point:
        return act(self.base, Point.origin(self.space, self.lam))

    def normalized(self) -> "Tangent":
        return normalize_tangent(self)

    def moved(self, a: Isometry) -> "Tangent":
        return Tangent(self.space, self.rep, a @ self.base)


def causal_type(t: Tangent, tol: float = 1e-10) -> int:
    """Sign of the invariant norm: -1 timelike, 0 lightlike, +1 spacelike."""
    n = t.norm_sq()
    if abs(n) <= tol * max(t.rep.frob_sq(), 1e-300):
        return 0
    return 1 if n > 0 else -1


def normalize_tangent(t: Tangent) -> Tangent:
    """Divide by sqrt|<T,T>| unless the vector is lightlike."""
    if causal_type(t) == 0:
        return t
    return Tangent(t.space, t.rep * (1.0 / math.sqrt(abs(t.norm_sq()))), t.base)


def tangent_metric(t1: Tangent, t2: Tangent, tol: float = PROJ_TOL) -> float:
    """Invariant inner product of two tangents at the same base point."""
    if t1.space != t2.space:
        raise BaseMismatch("tangents live in different spaces")
    if t1.base.projectively_equal(t2.base, tol):
        return _model_inner(t1.space, t1.rep, t2.rep)
    if not t1.base_point().isclose(t2.base_point(), tol):
        raise BaseMismatch("tangents are based at different points")
    # Same point through different isometries: transport the second rep
    # through the stabilizer element joining the two frames.
    w = t1.base.inv() @ t2.base
    rep2 = w.rep @ t2.rep @ w.rep.inv()
    rep2 = _project_model(rep2, t1.space)
    return _model_inner(t1.space, t1.rep, rep2)


def _project_model(m: Mat2, space: str) -> Mat2:
    """Orthogonal projection onto the traceless hermitian model space;
    removes numerical drift after conjugation."""
    m = m.traceless()
    return (m + involution(m, space)) * 0.5


# -- group action -------------------------------------------------------------


def _push(a: tuple, m: tuple, lam: int, space: str) -> tuple:
    """A m A^* on the eight numbers of A and m."""
    return _matmul(_matmul(a, m, lam), _circ(a) if space == SPACE_X else _dag(a), lam)


def push(a: Isometry, m: Mat2, space: str) -> Mat2:
    """Twisted conjugation A m A^* with the involution of `space`: the
    action of an isometry on the matrices of X (A^* = A^circ) or Y
    (A^* = A^dag)."""
    lam = a.rep.lam
    if m.lam != lam:
        raise _mixed(lam, m.lam)
    return _mat(_push(a.rep.flat, m.flat, lam, check_space(space)), lam)


def act(a: Isometry, obj):
    """Apply an isometry: points via the twisted conjugation of their space,
    everything else through its own `moved` hook."""
    if isinstance(obj, Point):
        lam = a.lam
        if lam != obj.lam:
            raise LambdaMismatch("isometry and point carry different curvature tags")
        return _point(obj.space, _push(a.rep.flat, obj.rep.flat, lam, obj.space), lam)
    if hasattr(obj, "moved"):
        return obj.moved(a)
    raise DomainError(f"cannot act on {type(obj)!r}")


# -- hermitian entries and carried determinants -----------------------------------
#
# A hermitian matrix of X is fixed by `circ`: d = conj(a), b = l*b1 and
# c = l*c1, so four entries (a0, a1, b1, c1) determine it.  One of Y is fixed
# by `dag`: a and d are real and c = conj(b), so (a0, d0, b0, b1).  The push
# m -> A m A^* is a real-linear map on these entries, and it multiplies
# det m by |det A|^2.  A point pushed by A is therefore scaled to det 1 by a
# factor carried from |det A| and det m, not by one recomputed from pushed
# entries, where det = 1 is a difference of products of size |m|^2 that
# cancels.  Sums of these products are formed without rounding: Dekker's
# TwoProduct with Veltkamp's split makes each product exact as p + e, and
# `math.fsum` rounds their sum once (Ogita, Rump and Oishi 2005).

_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two halves


def _exact_dot(*pairs) -> float:
    """The sum of x * y over the pairs, rounded once; nan when a term leaves
    the float range."""
    terms = []
    for x, y in pairs:
        p = x * y
        c = _SPLITTER * x
        xh = c - (c - x)
        xl = x - xh
        c = _SPLITTER * y
        yh = c - (c - y)
        yl = y - yh
        terms += (p, xl * yl - (((p - xh * yh) - xl * yh) - xh * yl))
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):  # inf - inf, or a partial sum past the range
        return math.nan


def _herm(flat: tuple, space: str) -> tuple:
    """The four entries of the hermitian part of a representative: an entry
    stored twice is the mean of its two copies."""
    a0, a1, b0, b1, c0, c1, d0, d1 = flat
    if space == SPACE_X:
        return ((a0 + d0) * 0.5, (a1 - d1) * 0.5, b1, c1)
    return (a0, d0, (b0 + c0) * 0.5, (b1 - c1) * 0.5)


def _unherm(h: tuple, space: str) -> tuple:
    """The eight numbers of the hermitian matrix with entries h."""
    if space == SPACE_X:
        a0, a1, b1, c1 = h
        return (a0, a1, 0.0, b1, 0.0, c1, a0, -a1)
    a0, d0, b0, b1 = h
    return (a0, 0.0, b0, b1, b0, -b1, d0, 0.0)


def _abs_det(a: tuple, lam: int) -> float:
    """|det A|, with |det A|^2 formed from compensated parts of det A: its
    real and imaginary parts, or at lam = -1 their sum and difference (the
    determinants of A's two real factors, whose product is |det A|^2), each
    one `_exact_dot` of the exact products of A's entries."""
    a0, a1, b0, b1, c0, c1, d0, d1 = a
    if lam == -1:
        plus = _exact_dot((a0, d0), (a1, d1), (a0, d1), (a1, d0),
                          (b0, -c0), (b1, -c1), (b0, -c1), (b1, -c0))
        minus = _exact_dot((a0, d0), (a1, d1), (a0, -d1), (a1, -d0),
                           (b0, -c0), (b1, -c1), (b0, c1), (b1, c0))
        sq = plus * minus
    else:
        re = _exact_dot((a0, d0), (a1, -lam * d1), (b0, -c0), (b1, lam * c1))
        sq = re * re
        if lam == 1:
            im = _exact_dot((a0, d1), (a1, d0), (b0, -c1), (b1, -c0))
            sq += im * im
    if not 0.0 < sq < math.inf:
        raise NormalizationFailure(f"|det|^2 = {sq} is not in (0, inf): not an isometry")
    return math.sqrt(sq)


_UNIT_ENTRIES = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                 (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))


def _action(a: tuple, lam: int, space: str) -> tuple:
    """The push m -> A m A^* of `space` on hermitian entries, as four rows
    of four floats: column k is the hermitian part of `_push` of the k-th
    basis matrix."""
    cols = [_herm(_push(a, _unherm(e, space), lam, space), space) for e in _UNIT_ENTRIES]
    return tuple(tuple(float(col[i]) for col in cols) for i in range(4))


def _acted(rows: tuple, h: tuple, s: float) -> tuple:
    """The entries of the action `rows` applied to h, each divided by s."""
    (m00, m01, m02, m03), (m10, m11, m12, m13), (m20, m21, m22, m23), (m30, m31, m32, m33) = rows
    x0, x1, x2, x3 = h
    return ((m00 * x0 + m01 * x1 + m02 * x2 + m03 * x3) / s,
            (m10 * x0 + m11 * x1 + m12 * x2 + m13 * x3) / s,
            (m20 * x0 + m21 * x1 + m22 * x2 + m23 * x3) / s,
            (m30 * x0 + m31 * x1 + m32 * x2 + m33 * x3) / s)


# -- exponential --------------------------------------------------------------


def _cs_scalar(q: float) -> tuple[float, float]:
    """C, S with exp(M) = C*1 + S*M for traceless M, where q = det M."""
    if q > 1e-12:
        r = math.sqrt(q)
        return math.cos(r), math.sin(r) / r
    if q < -1e-12:
        r = math.sqrt(-q)
        try:
            return math.cosh(r), math.sinh(r) / r
        except OverflowError:
            raise DomainError(f"the exponential overflows: cosh({r!r}) is out of range") from None
    return 1.0 - q * 0.5 + q * q / 24.0, 1.0 - q / 6.0 + q * q / 120.0


def _exp_traceless(flat: tuple, lam: int) -> tuple:
    q_re, q_im = _det(flat, lam)
    if abs(q_im) > 1e-9 * max(1.0, _frob_sq(flat)):
        raise DomainError("matrix exponential needs a real determinant here")
    cc, ss = _cs_scalar(q_re)
    # identity * cc + m * ss, entry for entry: the zeros of the identity
    # scale to a signed zero.
    z = 0.0 * cc
    a0, a1, b0, b1, c0, c1, d0, d1 = flat
    return (cc + a0 * ss, z + a1 * ss, z + b0 * ss, z + b1 * ss,
            z + c0 * ss, z + c1 * ss, cc + d0 * ss, z + d1 * ss)


def mat_exp_traceless(m: Mat2) -> Mat2:
    """Exponential of a traceless matrix whose determinant is real."""
    return _mat(_exp_traceless(m.flat, m.lam), m.lam)


def point_sqrt(p: Point) -> Isometry:
    """Hermitian isometry A with A > origin = p, built as 1 + rep for the
    canonical det = 1, tr >= 0 representative."""
    rep = p.rep  # already canonical
    a = Mat2.identity(p.lam) + rep
    d = a.det()
    if d.re <= 0 or abs(d.im) > 1e-9 * max(1.0, a.frob_sq()):
        raise NormalizationFailure("no hermitian square root for this representative")
    return Isometry(a)


def exp_point(theta: float, t: Tangent) -> Point:
    """Point reached from the origin along a unit or lightlike tangent."""
    if theta < 0:
        raise DomainError("theta must be nonnegative")
    sigma = causal_type(t)
    if sigma != 0 and abs(abs(t.norm_sq()) - 1.0) > 1e-9:
        raise DomainError("tangent must be normalized or lightlike")
    # Periodicity: the exponential closes up exactly when the effective
    # trig family is circular.
    k = t.lam * sigma if t.space == SPACE_X else -sigma
    if k > 0 and theta >= 2.0 * math.pi:
        raise DomainError("theta must lie in [0, 2*pi) for a closed direction")
    return _point(t.space, mat_exp_traceless(t.rep * theta).flat, t.lam)
