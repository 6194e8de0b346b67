"""Sampled classification of operator symbols on the unit sphere.

Ellipticity, constant rank and the cancelling property are decided by dense
deterministic sampling of the (real or complex) unit sphere with explicit
relative tolerances.  C-ellipticity is likewise a sampled verdict: sampling
can refute it (by exhibiting a near-singular complex frequency) or support
it heuristically, never prove it.

The sphere samples are a scrambled Halton sequence (Owen, "A randomized
Halton algorithm in R", arXiv 1706.02808, 2017) pushed through the Cephes
inverse normal CDF `ndtri`.  Both are written out here in numpy and
reproduce scipy's `qmc.Halton(d, scramble=True, seed=s)` and
`scipy.special.ndtri` bit for bit, so every verdict keeps its numbers while
`import kmslab` loads no scipy module (`scipy.stats` and `scipy.special`
took most of a second and ~70 MB to import).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    CONVENTIONS,
    ArgumentError,
    OperatorSpec,
    PartMap,
    Report,
    check_count,
    check_seed,
    restrict_symbol,
    symbol_on_frequencies,
)

__all__ = [
    "SphereSampling",
    "ClassificationReport",
    "CEllipticVerdict",
    "classify",
    "classify_on_kernel",
    "is_c_elliptic",
    "subspace_intersection",
]

DEFAULT_SAMPLE_COUNT = 2048
DEFAULT_SEED = 1729
DEFAULT_TOL = 1e-8

# Eigenvalues of P_U P_V P_U this close to 1 count toward dim(U cap V).
INTERSECTION_EIGTOL = 1e-8

# Cephes ndtri: rational approximations P/Q of the inverse normal CDF; a
# leading 1 of each Q is implicit (p1evl).  P0/Q0 serve |y - 1/2| <= 3/8,
# P1/Q1 and P2/Q2 the tails with sqrt(-2 log y) in [2, 8) and [8, 64).
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)
_EXP_MINUS_2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242


def _polevl(x, coefs, leading_one=False):
    """Horner's rule in Cephes' order; leading_one prepends the implicit 1 (p1evl)."""
    ans = x + coefs[0] if leading_one else coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _log(values):
    """Elementwise natural log through the C library, one element at a time.

    np.log may take a SIMD path (AVX-512 on CPUs that have it) whose last
    bit differs from libm's log, which is what Cephes calls.
    """
    return np.fromiter(map(math.log, values.tolist()), float, values.size)


def _ndtri(y0):
    """Inverse of the standard normal CDF, Cephes `ndtri` operation for operation.

    Gives -inf at 0, inf at 1 and nan outside [0, 1].
    """
    y0 = np.asarray(y0, dtype=float)
    out = np.full(y0.shape, np.nan)
    out[y0 == 0.0] = -np.inf
    out[y0 == 1.0] = np.inf
    upper = y0 > 1.0 - _EXP_MINUS_2
    y = np.where(upper, 1.0 - y0, y0)
    inside = (y0 > 0.0) & (y0 < 1.0)
    central = inside & (y > _EXP_MINUS_2)
    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (
        yc + yc * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0, True))
    ) * _SQRT_2PI
    tail = inside & ~central
    x = np.sqrt(-2.0 * _log(y[tail]))
    x0 = x - _log(x) / x
    z = 1.0 / x
    far = x >= 8.0
    x1 = np.empty_like(x)
    for branch, p, q in ((~far, _NDTRI_P1, _NDTRI_Q1), (far, _NDTRI_P2, _NDTRI_Q2)):
        zb = z[branch]
        x1[branch] = zb * _polevl(zb, p) / _polevl(zb, q, True)
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


def _first_primes(count):
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def _scrambled_halton(dims, count, seed):
    """The first count points of Owen's scrambled Halton sequence in [0, 1)^dims.

    Axis k has the (k+1)-th prime b as base and ceil(54 / log2 b) - 1 digit
    permutations of arange(b), enough digits that b^-j still moves a double;
    one default_rng(seed) shuffles all of them, axis by axis.  Point i has
    coordinate sum_j perm[j, digit_j(i)] * b^-(j+1), with b^-(j+1) formed
    by repeated division and the sum taken in digit order, as scipy does.
    """
    rng = np.random.default_rng(seed)
    out = np.zeros((dims, count))
    for seq, base in zip(out, _first_primes(dims)):
        perms = []
        for _ in range(math.ceil(54 / math.log2(base)) - 1):
            perm = list(range(base))  # a list shuffles like an array row, only faster
            rng.shuffle(perm)
            perms.append(perm)
        table = np.array(perms, dtype=float)
        quotient = np.arange(count)
        scale = 1.0
        for j, perm in enumerate(perms):
            scale /= base
            if quotient[-1]:
                quotient, digit = np.divmod(quotient, base)
                seq += table[j][digit] * scale
            else:
                seq += perm[0] * scale  # digit j is 0 at every point
    return out.T


@dataclass(frozen=True, eq=False)
class SphereSampling:
    """Deterministic quasi-uniform unit vectors on S^{n-1} (real or complex)."""

    count: int
    seed: int
    complex_mode: bool
    points: np.ndarray

    def __post_init__(self):
        norms = np.linalg.norm(self.points, axis=1)
        if self.points.shape[0] and np.max(np.abs(norms - 1.0)) > 1e-14:
            raise ValueError("sampling points must have unit norm")

    @property
    def n(self) -> int:
        return self.points.shape[1]

    @classmethod
    def standard(
        cls,
        n: int,
        count: int = DEFAULT_SAMPLE_COUNT,
        seed: int = DEFAULT_SEED,
        complex_mode: bool = False,
    ) -> "SphereSampling":
        """Low-discrepancy sphere sampling plus the 2n coordinate directions.

        A scrambled Halton sequence (Owen 2017) is pushed through the inverse
        normal CDF (Cephes `ndtri`) and normalized; the construction is
        reproducible from (count, seed).  The points equal, bit for bit, the
        ones built from scipy's `qmc.Halton(d, scramble=True, seed=seed)` and
        `scipy.special.ndtri`, without importing scipy.
        """
        if n < 1:
            raise ValueError("need n >= 1")
        check_count("count", count)
        if count < 1:
            raise ArgumentError("count", "need count >= 1")
        check_seed(seed)
        dims = 2 * n if complex_mode else n
        raw = _scrambled_halton(dims, count, seed)
        z = _ndtri(np.clip(raw, 1e-12, 1.0 - 1e-12))
        if complex_mode:
            pts = z[:, :n] + 1j * z[:, n:]
        else:
            pts = z
        axes = np.concatenate([np.eye(n), -np.eye(n)], axis=0)
        if complex_mode:
            axes = axes.astype(complex)
        pts = np.concatenate([pts, axes], axis=0)
        norms = np.linalg.norm(pts, axis=1)
        norms[norms == 0] = 1.0
        pts = pts / norms[:, None]
        pts.setflags(write=False)
        return cls(count=pts.shape[0], seed=seed, complex_mode=complex_mode, points=pts)

    def describe(self) -> dict:
        return {"count": self.count, "seed": self.seed, "complex_mode": self.complex_mode}


@dataclass(frozen=True, eq=False)
class CEllipticVerdict(Report):
    """Sampled C-ellipticity verdict with the worst frequency seen."""

    is_c_elliptic: bool
    witness: np.ndarray | None
    min_singular_value: float
    max_singular_value: float
    refined: bool

    def to_dict(self) -> dict:
        return {**super().to_dict(), "verdict_kind": "sampled"}


@dataclass(frozen=True, eq=False)
class ClassificationReport(Report):
    """Machine-readable outcome of a sampled symbol classification.

    rank_histogram maps each sampled rank, as a decimal string, to its count.
    """

    operator: str
    n: int
    d: int
    l: int
    k: int
    tol: float
    sampling: dict
    min_singular_value: float | None
    max_singular_value: float | None
    rank_histogram: dict
    common_rank: int | None
    residual_image_dim: int
    is_elliptic: bool
    is_constant_rank: bool
    is_cancelling: bool
    vacuous: bool = False
    conventions: dict = field(default_factory=lambda: dict(CONVENTIONS))

    def to_dict(self) -> dict:
        return {**super().to_dict(), "is_c_elliptic": None}


def subspace_intersection(basis_u: np.ndarray, basis_v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of U cap V from orthonormal bases of U and V.

    Uses the projector-product spectrum: eigenvectors of P_U P_V P_U with
    eigenvalue within INTERSECTION_EIGTOL of 1 span the intersection.
    """
    if basis_u.shape[1] == 0 or basis_v.shape[1] == 0:
        return np.zeros((basis_u.shape[0], 0))
    pu = basis_u @ basis_u.conj().T
    pv = basis_v @ basis_v.conj().T
    m = pu @ pv @ pu
    w, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    keep = w > 1.0 - INTERSECTION_EIGTOL
    return vecs[:, keep]


def _vacuous_report(spec, sampling, tol):
    return ClassificationReport(
        operator=spec.name,
        n=spec.n,
        d=spec.d,
        l=spec.l,
        k=spec.k,
        tol=tol,
        sampling=sampling.describe(),
        min_singular_value=None,
        max_singular_value=None,
        rank_histogram={"0": sampling.count},
        common_rank=0,
        residual_image_dim=0,
        is_elliptic=True,
        is_constant_rank=True,
        is_cancelling=True,
        vacuous=True,
    )


def _sigma_min(spec, s):
    """The smallest of the d singular values of each symbol, from the (..., min(l, d)) stack s.

    A wide symbol (l < d) is never injective, so its value is 0.
    """
    if spec.l >= spec.d:
        return s[..., -1]
    return np.zeros(s.shape[:-1])


def classify(
    spec: OperatorSpec,
    sampling: SphereSampling | None = None,
    tol: float = DEFAULT_TOL,
) -> ClassificationReport:
    """Classify ellipticity, constant rank and cancelling by sphere sampling.

    Per-frequency ranks use the relative threshold tol * sigma_max(xi); the
    ellipticity verdict compares the global minimum singular value against
    tol times the global maximum.  The residual image dimension is computed
    by iteratively intersecting the sampled images, stopping early at zero.
    """
    if sampling is None:
        sampling = SphereSampling.standard(spec.n)
    if sampling.n != spec.n:
        raise ValueError(f"sampling dimension {sampling.n} != operator dimension {spec.n}")
    if not 0.0 < tol < 1.0:
        raise ArgumentError("tol", "tol must lie in (0, 1)")
    if spec.is_vacuous:
        return _vacuous_report(spec, sampling, tol)

    symbols = symbol_on_frequencies(spec, sampling.points)
    u, s, _ = np.linalg.svd(symbols)
    per_max = s[:, 0]
    per_min = _sigma_min(spec, s)
    ranks = np.sum(s > tol * per_max[:, None], axis=1)

    global_max = float(np.max(per_max))
    global_min = float(np.min(per_min))
    hist_vals, hist_counts = np.unique(ranks, return_counts=True)
    rank_histogram = {str(r): int(c) for r, c in zip(hist_vals, hist_counts)}
    is_constant_rank = len(rank_histogram) == 1
    common_rank = int(hist_vals[0]) if is_constant_rank else None
    is_elliptic = global_min > tol * global_max

    basis = None
    for i in range(s.shape[0]):
        r = int(ranks[i])
        image = u[i][:, :r]
        if basis is None:
            basis = image
        else:
            basis = subspace_intersection(basis, image)
        if basis.shape[1] == 0:
            break
    residual_dim = spec.l if basis is None else basis.shape[1]

    return ClassificationReport(
        operator=spec.name,
        n=spec.n,
        d=spec.d,
        l=spec.l,
        k=spec.k,
        tol=tol,
        sampling=sampling.describe(),
        min_singular_value=global_min,
        max_singular_value=global_max,
        rank_histogram=rank_histogram,
        common_rank=common_rank,
        residual_image_dim=residual_dim,
        is_elliptic=is_elliptic,
        is_constant_rank=is_constant_rank,
        is_cancelling=residual_dim == 0,
    )


def classify_on_kernel(
    spec: OperatorSpec,
    part: PartMap,
    sampling: SphereSampling | None = None,
    tol: float = DEFAULT_TOL,
) -> ClassificationReport:
    """Classify the operator restricted to fields valued in ker(A)."""
    return classify(restrict_symbol(spec, part), sampling=sampling, tol=tol)


def is_c_elliptic(
    spec: OperatorSpec,
    sampling: SphereSampling | None = None,
    tol: float = DEFAULT_TOL,
    refine_steps: int = 0,
) -> CEllipticVerdict:
    """Sampled C-ellipticity check over the complex unit sphere.

    True when sigma_min(B[xi]) stays above tol * sigma_max at every sample.
    With refine_steps > 0 the worst samples are polished by a deterministic
    Nelder-Mead descent of sigma_min over the sphere, which sharpens the
    refutation power; the verdict remains a sampled one either way.
    """
    check_count("refine_steps", refine_steps)
    if sampling is None:
        sampling = SphereSampling.standard(spec.n, complex_mode=True)
    if not sampling.complex_mode:
        raise ValueError("C-ellipticity requires a complex-mode sampling")
    if sampling.n != spec.n:
        raise ValueError(f"sampling dimension {sampling.n} != operator dimension {spec.n}")
    if spec.is_vacuous:
        return CEllipticVerdict(True, None, float("inf"), 0.0, refined=False)

    symbols = symbol_on_frequencies(spec, sampling.points)
    s = np.linalg.svd(symbols, compute_uv=False)
    per_max = s[:, 0]
    per_min = _sigma_min(spec, s)
    global_max = float(np.max(per_max))
    order = np.argsort(per_min)
    best_idx = int(order[0])
    best_val = float(per_min[best_idx])
    best_pt = sampling.points[best_idx].copy()
    refined = False

    if refine_steps > 0:
        from scipy.optimize import minimize

        n = spec.n

        def objective(x):
            z = x[:n] + 1j * x[n:]
            nrm = np.linalg.norm(z)
            if nrm == 0:
                return global_max
            symbol = symbol_on_frequencies(spec, (z / nrm)[None])[0]
            return float(_sigma_min(spec, np.linalg.svd(symbol, compute_uv=False)))

        for idx in order[: min(4, len(order))]:
            z0 = sampling.points[int(idx)]
            x0 = np.concatenate([z0.real, z0.imag])
            res = minimize(
                objective,
                x0,
                method="Nelder-Mead",
                options={"maxiter": refine_steps, "xatol": 1e-12, "fatol": 1e-14},
            )
            if res.fun < best_val:
                z = res.x[:n] + 1j * res.x[n:]
                best_pt = z / np.linalg.norm(z)
                best_val = float(res.fun)
                refined = True

    ok = best_val > tol * global_max
    return CEllipticVerdict(
        is_c_elliptic=ok,
        witness=None if ok else best_pt,
        min_singular_value=best_val,
        max_singular_value=global_max,
        refined=refined,
    )
