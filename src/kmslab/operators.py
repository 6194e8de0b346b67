"""Homogeneous constant-coefficient differential operators and their symbols.

An operator maps R^d-valued fields on R^n to R^l-valued fields and is a sum
of order-k terms ``sum_{|alpha| = k} B_alpha d^alpha`` with constant
coefficient matrices B_alpha.  Its Fourier symbol is the matrix polynomial
``B[xi] = sum_{|alpha| = k} B_alpha xi^alpha``.

Conventions used throughout the package:

* Matrix-valued fibers are flattened row-major: entry (i, j) of an n x n
  matrix sits at flat index ``i * n + j``.
* Matrix curls and divergences act row-wise (each row of the matrix field
  is treated as a vector field).  This follows the Lewintan-Neff usage and
  is echoed in report metadata, since other conventions exist.
* Pointwise "part maps" (sym, dev, tr, skew, ...) are plain matrices acting
  on the flattened fiber; their kernels and the associated orthogonal
  projectors are extracted by SVD with a fixed relative cutoff.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field, fields
from typing import Mapping

import numpy as np

__all__ = [
    "ArgumentError",
    "check_count",
    "check_seed",
    "MultiIndex",
    "OperatorSpec",
    "PartMap",
    "multiindex_enumerate",
    "eval_symbol",
    "symbol_on_frequencies",
    "catalog_operator",
    "catalog_partmap",
    "restrict_symbol",
    "signed_permutations",
    "pattern_elements",
    "fundamental_domain",
    "frequency_orbits",
    "orbit_tensor_power",
    "orbit_certificate",
    "CATALOG_OPERATORS",
    "CATALOG_PARTMAPS",
    "OPERATOR_ALIASES",
    "CONVENTIONS",
    "Report",
    "jsonable",
]

# Relative singular-value cutoff for kernel extraction from part maps.
KERNEL_CUTOFF = 1e-10

# Echoed into machine-readable reports so the convention choices are on record.
CONVENTIONS = {
    "fiber_flattening": "row-major",
    "matrix_curl": "row-wise",
    "matrix_divergence": "row-wise",
    "torus_domain": "[0, 2*pi)^n, zero-mean fields stand in for compact support",
}


class Report:
    """Base of the dataclasses kmslab writes as JSON: the keys are the fields."""

    def to_dict(self) -> dict:
        return {f.name: jsonable(getattr(self, f.name)) for f in fields(self)}


def jsonable(x):
    """x in the JSON report format, which strict JSON (no NaN, no Infinity) can hold.

    A Report becomes its to_dict(); a dict keeps its keys; a list, tuple or
    array becomes a list; a float is "inf" when infinite, None when NaN
    (undefined) and float(x) otherwise; a complex number becomes [re, im];
    numpy integers and booleans become int and bool.  Everything else, ints
    and strings among it, passes through unchanged.
    """
    if isinstance(x, Report):
        return x.to_dict()
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [jsonable(v) for v in x]
    if isinstance(x, (float, np.floating)):
        return "inf" if math.isinf(x) else None if math.isnan(x) else float(x)
    if isinstance(x, (complex, np.complexfloating)):
        return [jsonable(x.real), jsonable(x.imag)]
    if isinstance(x, (np.integer, np.bool_)):
        return x.item()
    return x


class ArgumentError(ValueError):
    """A rejected value of one named argument of a public function."""

    def __init__(self, argument: str, message: str):
        self.argument = argument
        super().__init__(message)


def check_count(argument: str, value) -> None:
    """Raise ArgumentError(argument) unless value is a non-negative integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ArgumentError(argument, f"{argument} must be a non-negative integer, got {value!r}")


def check_seed(seed) -> None:
    """Raise ArgumentError("seed") unless seed is a non-negative integer."""
    check_count("seed", seed)


@dataclass(frozen=True)
class MultiIndex:
    """A multi-index alpha = (alpha_1, ..., alpha_n) of partial derivatives."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if len(exps) == 0:
            raise ValueError("multi-index needs at least one exponent")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in multi-index {exps}")
        object.__setattr__(self, "exponents", exps)

    @property
    def dimension(self) -> int:
        return len(self.exponents)

    @property
    def order(self) -> int:
        return sum(self.exponents)

    def power(self, xi: np.ndarray) -> np.ndarray:
        """xi^alpha = prod_j xi_j^alpha_j, broadcast over leading axes of xi."""
        xi = np.asarray(xi)
        out = np.ones(xi.shape[:-1], dtype=xi.dtype)
        for j, e in enumerate(self.exponents):
            if e:
                out = out * xi[..., j] ** e
        return out

    def multiplicity(self) -> int:
        """Number of ordered derivative tuples collapsing to this index, |alpha|!/alpha!."""
        num = math.factorial(self.order)
        for e in self.exponents:
            num //= math.factorial(e)
        return num

    def __str__(self):
        return "(" + ",".join(str(e) for e in self.exponents) + ")"


def multiindex_enumerate(n: int, k: int) -> list[MultiIndex]:
    """All multi-indices of order k in n variables.

    Ordered with the first variable strongest (so (1,0) precedes (0,1));
    the count is C(n+k-1, k).
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if k < 0:
        raise ValueError(f"order must be >= 0, got {k}")

    def rec(dims, total):
        if dims == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in rec(dims - 1, total - first):
                yield (first,) + rest

    return [MultiIndex(e) for e in rec(n, k)]


@dataclass(frozen=True, eq=False)
class OperatorSpec:
    """A homogeneous order-k operator given by its coefficient family.

    Coefficients map MultiIndex -> (l, d) matrix; absent indices mean zero.
    A spec with d == 0 is vacuous (arises from restricting to a trivial
    kernel); a spec whose stored coefficients are all zero is the zero
    operator (arises from restriction when ker(A) sits inside every
    symbol kernel).
    """

    name: str
    n: int
    d: int
    l: int
    k: int
    coeffs: Mapping[MultiIndex, np.ndarray]
    # orbit_certificate's results, by part map
    _certificates: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.n < 1 or self.l < 1 or self.k < 0 or self.d < 0:
            raise ValueError(
                f"bad operator dimensions n={self.n}, d={self.d}, l={self.l}, k={self.k}"
            )
        frozen = {}
        for alpha, mat in self.coeffs.items():
            if alpha.dimension != self.n:
                raise ValueError(f"multi-index {alpha} has dimension != n={self.n}")
            if alpha.order != self.k:
                raise ValueError(f"multi-index {alpha} has order != k={self.k}")
            arr = np.asarray(mat)
            if arr.shape != (self.l, self.d):
                raise ValueError(
                    f"coefficient for {alpha} has shape {arr.shape}, expected {(self.l, self.d)}"
                )
            if not np.iscomplexobj(arr):
                arr = arr.astype(float)
            arr = arr.copy()
            arr.setflags(write=False)
            frozen[alpha] = arr
        object.__setattr__(self, "coeffs", frozen)

    @property
    def is_vacuous(self) -> bool:
        return self.d == 0

    @property
    def is_zero(self) -> bool:
        return all(not np.any(m) for m in self.coeffs.values())

    @property
    def is_complex(self) -> bool:
        return any(np.iscomplexobj(m) for m in self.coeffs.values())

    def coefficient(self, alpha: MultiIndex) -> np.ndarray:
        mat = self.coeffs.get(alpha)
        if mat is None:
            return np.zeros((self.l, self.d))
        return mat


def eval_symbol(spec: OperatorSpec, xi) -> np.ndarray:
    """The (l, d) matrix B[xi] = sum_alpha B_alpha xi^alpha at a single frequency.

    xi may be real or complex of length n; the result is real whenever both
    xi and the coefficients are real, and degree-k homogeneous in xi.
    """
    xi = np.asarray(xi)
    if xi.shape != (spec.n,):
        raise ValueError(f"frequency has shape {xi.shape}, expected ({spec.n},)")
    return symbol_on_frequencies(spec, xi[None, :])[0]


def symbol_on_frequencies(spec: OperatorSpec, freqs: np.ndarray) -> np.ndarray:
    """Evaluate the symbol on an array of frequencies, shape (..., n) -> (..., l, d)."""
    freqs = np.asarray(freqs)
    if freqs.shape[-1] != spec.n:
        raise ValueError(f"frequency array last axis {freqs.shape[-1]} != n={spec.n}")
    dtype = complex if (np.iscomplexobj(freqs) or spec.is_complex) else float
    if not np.iscomplexobj(freqs) and freqs.dtype != float:
        freqs = freqs.astype(float)
    out = np.zeros(freqs.shape[:-1] + (spec.l, spec.d), dtype=dtype)
    for alpha, mat in spec.coeffs.items():
        out += alpha.power(freqs)[..., None, None] * mat
    return out


@dataclass(frozen=True, eq=False)
class PartMap:
    """A pointwise linear map A : R^d -> R^N with its kernel geometry.

    Carries the orthonormal kernel basis (d x dim ker), the orthogonal
    projectors onto ker(A) and its complement, and the comparison constant
    1/sigma_min_nonzero(A) realizing |P_perp v| <= C_A |A v|.
    """

    name: str
    matrix: np.ndarray
    kernel_basis: np.ndarray
    proj_ker: np.ndarray
    proj_perp: np.ndarray
    injectivity_constant: float

    @classmethod
    def from_matrix(cls, matrix, name: str = "") -> "PartMap":
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2:
            raise ValueError("part map must be a 2-d matrix")
        _, d = mat.shape
        if d == 0:
            raise ValueError("part map needs a positive source dimension")
        _, s, vh = np.linalg.svd(mat)
        if s.size and s[0] > 0:
            rank = int(np.sum(s > KERNEL_CUTOFF * s[0]))
        else:
            rank = 0
        kernel_basis = vh[rank:].T.copy()
        proj_ker = kernel_basis @ kernel_basis.T
        proj_perp = np.eye(d) - proj_ker
        c = 1.0 / s[rank - 1] if rank > 0 else math.inf
        for arr in (mat, kernel_basis, proj_ker, proj_perp):
            arr.setflags(write=False)
        return cls(
            name=name or "partmap",
            matrix=mat,
            kernel_basis=kernel_basis,
            proj_ker=proj_ker,
            proj_perp=proj_perp,
            injectivity_constant=float(c),
        )

    @property
    def d(self) -> int:
        return self.matrix.shape[1]

    @property
    def kernel_dim(self) -> int:
        return self.kernel_basis.shape[1]

    @property
    def rank(self) -> int:
        return self.d - self.kernel_dim

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Apply A pointwise; works on any (..., d) array."""
        return values @ self.matrix.T


# --------------------------------------------------------------------------
# catalog
# --------------------------------------------------------------------------

def _levi(i, j, k):
    if (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        return 1.0
    if (i, j, k) in ((0, 2, 1), (2, 1, 0), (1, 0, 2)):
        return -1.0
    return 0.0


def _unit_indices(n):
    return [MultiIndex(tuple(1 if j == m else 0 for j in range(n))) for m in range(n)]


def _build_gradient(n):
    coeffs = {}
    for m, alpha in enumerate(_unit_indices(n)):
        mat = np.zeros((n, 1))
        mat[m, 0] = 1.0
        coeffs[alpha] = mat
    return OperatorSpec("gradient", n=n, d=1, l=n, k=1, coeffs=coeffs)


def _build_divergence(n):
    coeffs = {}
    for m, alpha in enumerate(_unit_indices(n)):
        mat = np.zeros((1, n))
        mat[0, m] = 1.0
        coeffs[alpha] = mat
    return OperatorSpec("divergence", n=n, d=n, l=1, k=1, coeffs=coeffs)


def _build_sym_gradient(n):
    # eps(u)_{ij} = (d_j u_i + d_i u_j) / 2, target flattened row-major
    coeffs = {}
    for m, alpha in enumerate(_unit_indices(n)):
        mat = np.zeros((n * n, n))
        for i in range(n):
            for j in range(n):
                row = i * n + j
                if j == m:
                    mat[row, i] += 0.5
                if i == m:
                    mat[row, j] += 0.5
        coeffs[alpha] = mat
    return OperatorSpec("sym_gradient", n=n, d=n, l=n * n, k=1, coeffs=coeffs)


def _build_curl_vector(n):
    if n != 3:
        raise ValueError("curl_vector requires n = 3")
    coeffs = {}
    for a, alpha in enumerate(_unit_indices(3)):
        mat = np.zeros((3, 3))
        for i in range(3):
            for b in range(3):
                mat[i, b] = _levi(i, a, b)
        coeffs[alpha] = mat
    return OperatorSpec("curl_vector", n=3, d=3, l=3, k=1, coeffs=coeffs)


def _build_curl_matrix_rowwise(n):
    # (Curl P)_{ij} = eps_{jab} d_a P_{ib}: the curl of each row of P
    if n != 3:
        raise ValueError("curl_matrix_rowwise requires n = 3")
    coeffs = {}
    for a, alpha in enumerate(_unit_indices(3)):
        mat = np.zeros((9, 9))
        for i in range(3):
            for j in range(3):
                for b in range(3):
                    mat[3 * i + j, 3 * i + b] = _levi(j, a, b)
        coeffs[alpha] = mat
    return OperatorSpec("curl_matrix_rowwise", n=3, d=9, l=9, k=1, coeffs=coeffs)


def _build_div_matrix_rowwise(n):
    # (Div P)_i = sum_a d_a P_{ia}: the divergence of each row of P
    coeffs = {}
    for a, alpha in enumerate(_unit_indices(n)):
        mat = np.zeros((n, n * n))
        for i in range(n):
            mat[i, i * n + a] = 1.0
        coeffs[alpha] = mat
    return OperatorSpec("div_matrix_rowwise", n=n, d=n * n, l=n, k=1, coeffs=coeffs)


def _build_sym_curl_matrix(n):
    if n != 3:
        raise ValueError("sym_curl_matrix requires n = 3")
    curl = _build_curl_matrix_rowwise(3)
    sym = catalog_partmap("sym", 3).matrix
    coeffs = {alpha: sym @ mat for alpha, mat in curl.coeffs.items()}
    return OperatorSpec("sym_curl_matrix", n=3, d=9, l=9, k=1, coeffs=coeffs)


CATALOG_OPERATORS = {
    "gradient": _build_gradient,
    "sym_gradient": _build_sym_gradient,
    "curl_vector": _build_curl_vector,
    "curl_matrix_rowwise": _build_curl_matrix_rowwise,
    "divergence": _build_divergence,
    "div_matrix_rowwise": _build_div_matrix_rowwise,
    "sym_curl_matrix": _build_sym_curl_matrix,
}

OPERATOR_ALIASES = {
    "grad": "gradient",
    "eps": "sym_gradient",
    "sym_grad": "sym_gradient",
    "curl": "curl_matrix_rowwise",
    "curl3": "curl_matrix_rowwise",
    "curlvec": "curl_vector",
    "div": "divergence",
    "symcurl": "sym_curl_matrix",
}

CATALOG_PARTMAPS = ("sym", "dev", "tr", "skew", "identity", "zero")

PARTMAP_ALIASES = {
    "id": "identity",
    "trace": "tr",
    "deviatoric": "dev",
}


def catalog_operator(name: str, n: int) -> OperatorSpec:
    """Build a catalog operator by name; curl variants require n = 3."""
    key = OPERATOR_ALIASES.get(name, name)
    builder = CATALOG_OPERATORS.get(key)
    if builder is None:
        raise KeyError(
            f"unknown catalog operator {name!r}; known: {sorted(CATALOG_OPERATORS)}"
        )
    return builder(n)


def catalog_partmap(name: str, n: int, dim: int | None = None) -> PartMap:
    """Build a standard pointwise map on the n x n matrix fiber.

    sym/dev/tr/skew act on flattened n x n matrices (d = n^2); identity and
    zero default to the same fiber but accept an explicit dim.
    """
    key = PARTMAP_ALIASES.get(name, name)
    if key not in CATALOG_PARTMAPS:
        raise KeyError(f"unknown part map {name!r}; known: {sorted(CATALOG_PARTMAPS)}")
    d = n * n if dim is None else dim
    if key == "identity":
        mat = np.eye(d)
    elif key == "zero":
        mat = np.zeros((1, d))
    else:
        if dim is not None and dim != n * n:
            raise ValueError(f"{key} acts on the n x n matrix fiber, dim must be {n * n}")
        d = n * n
        mat = np.zeros((d, d))
        if key == "tr":
            mat = np.zeros((1, d))
            for i in range(n):
                mat[0, i * n + i] = 1.0
        else:
            for i in range(n):
                for j in range(n):
                    row = i * n + j
                    if key == "sym":
                        mat[row, i * n + j] += 0.5
                        mat[row, j * n + i] += 0.5
                    elif key == "skew":
                        mat[row, i * n + j] += 0.5
                        mat[row, j * n + i] -= 0.5
                    elif key == "dev":
                        mat[row, i * n + j] += 1.0
                        if i == j:
                            for a in range(n):
                                mat[row, a * n + a] -= 1.0 / n
    return PartMap.from_matrix(mat, name=key)


def restrict_symbol(spec: OperatorSpec, part: PartMap) -> OperatorSpec:
    """The operator restricted to fields with values in ker(A).

    Coefficients become B_alpha @ kernel_basis with source dimension
    dim ker(A); a trivial kernel yields a vacuous (d = 0) spec.
    """
    if part.d != spec.d:
        raise ValueError(
            f"part map acts on R^{part.d} but operator source is R^{spec.d}"
        )
    kb = part.kernel_basis
    coeffs = {alpha: mat @ kb for alpha, mat in spec.coeffs.items()}
    return OperatorSpec(
        name=f"{spec.name}|ker({part.name})",
        n=spec.n,
        d=kb.shape[1],
        l=spec.l,
        k=spec.k,
        coeffs=coeffs,
    )


# --------------------------------------------------------------------------
# signed-permutation symmetry
# --------------------------------------------------------------------------

SignedPermutations = namedtuple("SignedPermutations", "perm signs src sgn inv inv_sgn")


@functools.lru_cache(maxsize=None)
def signed_permutations(n: int, r: int) -> SignedPermutations:
    """The 2^n n! signed permutations of Z^n, one row per element, with their fibre actions.

    Row e is the g that maps e_j to signs[e, j] e_{perm[e, j]}.  Its action
    rho(g) = g (x) ... (x) g (r factors) on the flattened (row-major) fibre
    of length n^r is rho(g) x = x[src[e]] * sgn[e] and rho(g)^T x =
    x[inv[e]] * inv_sgn[e], so (rho M rho^T)[K, L] = sgn[e, K] sgn[e, L]
    M[src[e, K], src[e, L]].  e = rank * 2^n + mask, with rank the
    lexicographic rank of perm[e] among the permutations of range(n) and
    bit j of mask set where signs[e, j] = -1; row 0 is the identity.  The
    arrays are read-only and cached per (n, r).
    """
    table = _signed_permutation_rows(n, r, np.arange(2**n * math.factorial(n)))
    for array in table:
        array.setflags(write=False)
    return table


def _signed_permutation_rows(n: int, r: int, elem) -> SignedPermutations:
    """The rows elem of signed_permutations(n, r), decoded without the others."""
    elem = np.asarray(elem, dtype=np.int64)
    signs = np.where(elem[:, None] >> np.arange(n) & 1, -1.0, 1.0)
    perm = np.empty((elem.size, n), np.int64)
    free = np.broadcast_to(np.arange(n), perm.shape)
    for i in range(n):
        # Lehmer digit i of the rank picks perm[i] among the entries left
        digit = (elem >> n) // math.factorial(n - 1 - i) % (n - i)
        perm[:, i] = free[np.arange(elem.size), digit]
        free = free[np.arange(n - i) != digit[:, None]].reshape(elem.size, -1)
    inv = np.argsort(perm, axis=1)
    moved = np.take_along_axis(signs, inv, axis=1)
    src, sgn = np.zeros((elem.size, 1), np.int64), np.ones((elem.size, 1))
    for _ in range(r):
        src = (src[:, :, None] * n + inv[:, None, :]).reshape(elem.size, -1)
        sgn = (sgn[:, :, None] * moved[:, None, :]).reshape(elem.size, -1)
    back = np.argsort(src, axis=1)
    return SignedPermutations(perm, signs, src, sgn, back, np.take_along_axis(sgn, back, axis=1))


@functools.lru_cache(maxsize=None)
def _permutations(n: int) -> np.ndarray:
    """The n! permutations of range(n), one row each, in lexicographic order: row i has rank i."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64).reshape(-1, n)
    perms.setflags(write=False)
    return perms


def pattern_elements(key) -> tuple[np.ndarray, np.ndarray]:
    """(canonical, stabilizer): rows of signed_permutations for a sorted non-negative key.

    Both depend only on the key's zero/tie pattern: which entries vanish
    and which neighbours are equal.  canonical holds the element that
    frequency_orbits assigns to each member g key of the key's orbit: perm
    increasing on each run of equal entries (its stable sort), signs
    flipped on nonzero entries only.  stabilizer holds the g with g key =
    key: perm maps each run onto itself, signs flipped on zero entries
    only.  Both are ascending and read-only, cached per pattern; neither
    builds the 2^n n! rows of the group.
    """
    key = np.asarray(key)
    return _pattern_elements(key.size, int(_zero_tie_pattern(key[None])[0]))


@functools.lru_cache(maxsize=None)
def _pattern_elements(n: int, code: int) -> tuple[np.ndarray, np.ndarray]:
    """pattern_elements of the keys of n entries with the zero/tie pattern code (_zero_tie_pattern).

    The code's first n bits flag the entries that vanish, its n - 1 more
    the entries equal to their next.
    """
    perms = _permutations(n)
    tie = np.asarray(code >> np.arange(n, 2 * n - 1) & 1, bool)
    run = np.concatenate([[0], np.cumsum(~tie)])
    zero_bits = code & (2**n - 1)
    masks = np.arange(2**n)
    ranks = np.arange(perms.shape[0])[:, None] << n
    increasing = tie <= (perms[:, 1:] > perms[:, :-1])
    canonical = ranks[np.all(increasing, axis=1)] + masks[masks & zero_bits == 0]
    stabilizer = ranks[np.all(run[perms] == run, axis=1)] + masks[masks & ~zero_bits == 0]
    out = canonical.reshape(-1), stabilizer.reshape(-1)
    for array in out:
        array.setflags(write=False)
    return out


def fundamental_domain(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(points, pattern): one point per signed-permutation orbit of the grid frequencies below m/2.

    points are the C(m/2 + n - 1, n) - 1 sorted tuples 0 <= x_0 <= ... <=
    x_{n-1} <= m/2 - 1 but 0, in lexicographic order from the first entry,
    and pattern codes each one's zero/tie pattern (see pattern_elements).
    """
    tuples = itertools.combinations_with_replacement(range(m // 2), n)
    points = np.fromiter(itertools.chain.from_iterable(tuples), np.int64).reshape(-1, n)[1:]
    return points, _zero_tie_pattern(points)


def _zero_tie_pattern(points):
    """A code per sorted non-negative row: which entries vanish and which neighbours are equal."""
    pattern = np.concatenate([points == 0, points[:, 1:] == points[:, :-1]], axis=1)
    return np.sum(pattern * 2 ** np.arange(pattern.shape[1]), axis=1)


def frequency_orbits(freqs: np.ndarray, signed: bool, rays: bool):
    """(keys, rep, elem): the orbits of a (F, n) stack of integer frequencies.

    freqs[i] is a positive multiple of g keys[rep[i]], g the row elem[i]
    of signed_permutations.  rays keys xi by xi / gcd(xi) (xi != 0);
    signed then sorts |xi|, and g puts the order and signs back.  With
    neither, each distinct frequency is an orbit of its own.  g is the
    identity, elem 0, unless signed.  Orbits are numbered by key, in
    lexicographic order from the last entry.  elem is ranked from the
    sorting permutation; no table of the group is built.
    """
    n = freqs.shape[1]
    weights = np.arange(n)
    perm = np.broadcast_to(weights, freqs.shape)
    keys = freqs // np.gcd.reduce(freqs, axis=1)[:, None] if rays else freqs
    if signed:
        perm = np.argsort(np.abs(keys), axis=1, kind="stable")
        keys = np.take_along_axis(keys, perm, axis=1)
    negative = signed & (keys < 0)
    keys = np.abs(keys) if signed else keys
    # the entries lie in [-half, half], so this code is one-to-one
    half = int(np.max(np.abs(keys), initial=0))
    code = np.sum((keys + half) * (2 * half + 1) ** weights, axis=1)
    _, first, rep = np.unique(code, return_index=True, return_inverse=True)
    elem = np.sum(negative * 2**weights, axis=1)
    for i in range(n):
        # Lehmer digit i of perm's rank counts the later entries below perm[i]
        elem += (perm[:, i + 1 :] < perm[:, i, None]).sum(axis=1) * math.factorial(n - 1 - i) << n
    return keys[first], rep.reshape(-1), elem


def orbit_tensor_power(spec: OperatorSpec, part: PartMap | None) -> int | None:
    """The r with which the signed permutations of Z^n act on the fibre, or None.

    Every quantity kmslab derives from B at a frequency xi reads the Grams
    A^T A, B[xi]^H B[xi] and (Re B[xi])^T (Re B[xi]): the sweep ratio, the
    kernel projectors and the correction, the projector onto
    ker A cap ker B[xi].  With the fibre action rho(g) = g (x) ... (x) g
    (r factors, d = n^r), those quantities follow g, m(g xi) =
    rho(g) m(xi) rho(g)^T, once rho^T G(g xi) rho = G(xi) holds for each
    Gram G.  That is checked for the group's n generators (their rows of
    signed_permutations) at the integer points {-2k ... 2k}^n, which fix a
    polynomial of degree 2k; r is returned when every check passes.  An
    operator whose d is no power of n fails; part may be None (no part map).
    """
    n, d, k = spec.n, spec.d, spec.k
    r = 0
    while n ** r < d and n > 1:
        r += 1
    if n ** r != d:
        return None
    axis = np.arange(-2 * k, 2 * k + 1, dtype=float)
    points = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1).reshape(-1, n)

    def grams(xi):
        bmat = symbol_on_frequencies(spec, xi)
        out = [np.conj(np.swapaxes(bmat, 1, 2)) @ bmat]
        if np.iscomplexobj(bmat):
            out.append(np.swapaxes(bmat.real, 1, 2) @ bmat.real)
        if part is not None:
            out.append(part.matrix.T @ part.matrix)
        return out

    base = grams(points)
    # the n - 1 adjacent swaps, of rank (n - 1 - j)!, and the sign flip of entry 0 (row 1)
    swaps = [math.factorial(n - 1 - j) * 2**n for j in range(n - 1)]
    for perm, signs, src, sgn in zip(*_signed_permutation_rows(n, r, swaps + [1])[:4]):
        g = np.zeros((n, n))
        g[perm, np.arange(n)] = signs
        rho = np.zeros((d, d))
        rho[np.arange(d), src] = sgn
        for want, got in zip(base, grams(points @ g.T)):
            moved = rho.T @ got @ rho
            if np.max(np.abs(moved - want)) > 1e-12 * np.max(np.abs(want)):
                return None
    return r


def orbit_certificate(spec: OperatorSpec, part: PartMap | None) -> int | None:
    """orbit_tensor_power(spec, part), computed once per operator and part map and kept on spec.

    Both are immutable, so the certificate is a fact of the pair: every
    config, grid and correction descriptor of one operator and part map
    reads the same r.
    """
    known = spec._certificates
    if part not in known:
        known[part] = orbit_tensor_power(spec, part)
    return known[part]
