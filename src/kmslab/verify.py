"""Assembling and testing Korn-Maxwell-Sobolev type inequalities on the torus.

Each inequality variant controls a field (minus an optional correction term)
through a pointwise part A[P] plus a differential part B P:

* korn_ell        |D^k P|_p              <~  |B P|_p            (elliptic B)
* kms_sym         |P|_p*                 <~  |sym P|_p* + |Curl P|_p
* asplit          |P|_p*                 <~  |A P|_p*  + |Curl P|_p
* korn_ellip      |P|_{k-1,p*}           <~  |A P|_{k-1,p*} + |B P|_p
* korn_const      |P - corr P|_{k-1,p*}  <~  same right side  (constant rank)
* korn_const2_p2  |P - corr P|_{-1,2}    <~  |A P|_{-1,2} + |B P|_{-k,2}
* korn_const_p1   korn_const at p = 1, p* = n/(n-1)  (needs cancelling)

A negative order is the Fourier weight |xi|^order, a Parseval sum.  Each
config states its norms once, as (order, exponent) pairs
(InequalityConfig.norms), and the hypothesis on B once per id
(_HYPOTHESES), which also decides whether the correction is on by
default; an inequality without a part map (korn_ell) has no A side.

The empirical constant of an inequality is estimated over three field
families: an exhaustive single-frequency sweep (with the adversarial fiber
vector picked per frequency by an SVD subproblem), random band-limited
fields, and localized bumps.  Every plane wave (the sweep, the kernel
witness, the necessity demo) is evaluated by one batched closed form,
_PlaneWaves: for P = cos(x.xi) v every norm in play factorizes into an
algebraic fiber part and a scalar profile norm that depends only on
M / gcd(xi, M), and the correction is its symbol at xi, so a plane wave
costs small dense linear algebra and no FFT.  Random and bump fields go
through kms_sides, the only reader of the half-grid correction table;
each brings the spectrum its generator wrote on a band box and takes no
forward transform.  The sweep and the witness scan take one frequency per
orbit of operators.fundamental_domain where operators.orbit_tensor_power
proves the sweep ratio constant on it, every canonical frequency otherwise.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .classify import SphereSampling, classify, classify_on_kernel
from .multipliers import MultiplierDescriptor, _padded_singular_values, composed_correction_symbol
from .operators import (
    ArgumentError,
    OperatorSpec,
    PartMap,
    Report,
    _pattern_elements,
    catalog_operator,
    catalog_partmap,
    check_count,
    check_seed,
    fundamental_domain,
    orbit_certificate,
    symbol_on_frequencies,
)
from .torus import (
    HalfSpectrum,
    TensorField,
    TorusGrid,
    _fibre_vector,
    _wave_frequency,
    apply_multiplier,
    apply_operator,
    apply_partmap,
    bump_cutoff,
    bump_field,
    random_bandlimited,
    sobolev_conjugate,
)

__all__ = [
    "INEQUALITY_IDS",
    "PreconditionError",
    "InequalityConfig",
    "TrialResult",
    "FieldFamily",
    "ConstantEstimate",
    "RefinementStudy",
    "NecessityDemoResult",
    "CrosscheckResult",
    "trial_ratio",
    "kms_sides",
    "single_frequency_trial",
    "search_kernel_witness",
    "estimate_constant",
    "refinement_study",
    "necessity_demo",
    "curl_riesz_crosscheck",
    "p1_probe",
    "check_hypotheses",
]

# the hypothesis on B of each inequality, on ker A where it has a part map:
# the classifier flags it needs and what a failed check reports.  The
# constant-rank inequalities carry the correction Pi_B by default.
_ELLIPTIC = (("is_elliptic",), "is not elliptic")
_CONSTANT_RANK = (("is_constant_rank",), "does not have constant rank")
_CANCELLING = (("is_constant_rank", "is_cancelling"), "is not constant-rank and cancelling")
_HYPOTHESES = {
    "korn_ell": _ELLIPTIC,
    "kms_sym": _ELLIPTIC,
    "asplit": _ELLIPTIC,
    "korn_ellip": _ELLIPTIC,
    "korn_const": _CONSTANT_RANK,
    "korn_const2_p2": _CONSTANT_RANK,
    "korn_const_p1": _CANCELLING,
}
INEQUALITY_IDS = tuple(_HYPOTHESES)

# a trial side at most this fraction of its field's reference (kms_sides: |P|_2;
# a plane wave cos(x.xi) v: a |v|) reads exactly 0.0.  Roundoff in c |B[xi] v|
# grows with c |B[xi]| / a, about |xi|: catalog sweeps reach 1.3e-12 at M = 32
# and 2.8e-12 at M = 64.  A side kept here gives a ratio below 1e10.
NEGLIGIBLE = 1e-10
SWEEP_CHUNK = 1024
# relative singular-value threshold for a null direction of the stacked right side
NULL_TOL = 1e-12
# relative threshold below which ker(A) cap ker(B[xi]) counts as nontrivial
WITNESS_TOL = 1e-10
# sphere sample that check_hypotheses classifies
HYPOTHESIS_SAMPLE_COUNT = 512
HYPOTHESIS_SAMPLE_SEED = 11


class PreconditionError(ValueError):
    """An inequality trial was requested outside its stated preconditions."""


def trial_ratio(lhs: float, rhs: float) -> float:
    """lhs/rhs, exact: x/0 is inf for x > 0 and 0/0 is 0 (_trial_ratios)."""
    return float(_trial_ratios(np.float64(lhs), np.float64(rhs)))


def _trial_ratios(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """lhs/rhs elementwise, exact: x/0 is inf for x > 0 and 0/0 is 0.

    A side negligible against its field is already exactly 0.0 (_negligible_as_zero).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lhs == 0.0, 0.0, lhs / rhs)


def _negligible_as_zero(reference, *sides):
    """The sides, each exactly 0.0 where at most NEGLIGIBLE * reference (elementwise).

    Like each side, the reference is a norm of the field, 1-homogeneous in
    it and translation-invariant, so the rule is scale- and
    translation-invariant.
    """
    return [np.where(side <= NEGLIGIBLE * reference, 0.0, side) for side in sides]


@dataclass(eq=False)
class InequalityConfig:
    """One inequality variant bound to an operator, part map, exponent and grid."""

    inequality_id: str
    operator: OperatorSpec
    part: PartMap | None
    p: float
    grid: TorusGrid
    correction_enabled: bool | None = None

    def __post_init__(self):
        ident = self.inequality_id
        if ident not in INEQUALITY_IDS:
            raise ArgumentError(
                "inequality_id", f"unknown inequality id {ident!r}; known: {INEQUALITY_IDS}"
            )
        if self.operator.n != self.grid.n:
            raise ArgumentError("grid", "operator and grid dimensions differ")
        if ident == "korn_ell":
            if self.part is not None:
                raise ArgumentError("part", "korn_ell takes no part map")
        else:
            if self.part is None:
                raise ArgumentError("part", f"{ident} needs a part map (use the zero map for A = 0)")
            if self.part.d != self.operator.d:
                raise ArgumentError("part", "part map and operator fiber dimensions differ")
        if ident == "kms_sym":
            if self.operator.name != "curl_matrix_rowwise":
                raise ArgumentError("operator", "kms_sym fixes B = curl_matrix_rowwise")
            if self.part.name != "sym":
                raise ArgumentError("part", "kms_sym fixes A = sym")
        if ident == "asplit" and self.operator.k != 1:
            raise ArgumentError("operator", "asplit expects a first-order differential part")
        if ident in ("korn_ellip", "korn_const", "korn_const_p1") and self.operator.k == 0:
            raise ArgumentError("operator", f"{ident} needs k >= 1: its left side is in W^(k-1,p*)")
        n = self.grid.n
        if isinstance(self.p, bool) or not isinstance(self.p, numbers.Real):
            raise ArgumentError("p", f"p must be a real number, got {self.p!r}")
        if ident == "korn_const_p1":
            if self.p != 1:
                raise ArgumentError("p", "korn_const_p1 forces p = 1")
        elif ident == "korn_const2_p2":
            if self.p != 2:
                raise ArgumentError("p", "korn_const2_p2 forces p = 2")
            if not self.p < n:
                raise ArgumentError("p", "need p < n")
        else:
            if not 1 < self.p < n:
                raise ArgumentError("p", f"need 1 < p < n, got p={self.p}, n={n}")
        corrected = _HYPOTHESES[ident] is not _ELLIPTIC
        if self.correction_enabled is None:
            self.correction_enabled = corrected
        if self.correction_enabled and not corrected:
            raise ArgumentError("correction_enabled", f"{ident} carries no correction term")
        # the grid-free facts, computed on first use and shared by with_grid copies
        self._shared = {}

    @property
    def k(self) -> int:
        return self.operator.k

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def p_star(self) -> float:
        return sobolev_conjugate(self.p, self.n)

    @property
    def norms(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """(order, exponent) of the norm of the left and A sides, and of the B side.

        An order below 0 is the Fourier weight |xi|^order at exponent 2.
        """
        k, p = self.k, self.p
        if self.part is None:
            return (k, p), (0, p)
        if self.inequality_id == "korn_const2_p2":
            return (-1, 2.0), (-k, 2.0)
        return (k - 1, self.p_star), (0, p)

    @property
    def correction_descriptor(self) -> MultiplierDescriptor | None:
        if not self.correction_enabled:
            return None
        if "correction" not in self._shared:
            self._shared["correction"] = composed_correction_symbol(
                self.operator, self.part, projector="restricted"
            )
        return self._shared["correction"]

    @property
    def hypotheses(self):
        """check_hypotheses(self), run once for this config and its with_grid copies."""
        if "hypotheses" not in self._shared:
            self._shared["hypotheses"] = check_hypotheses(self)
        return self._shared["hypotheses"]

    def with_grid(self, grid: TorusGrid) -> "InequalityConfig":
        """This config on another grid, sharing every fact that does not depend on the grid.

        The copy shares the correction descriptor, whose grid_table cache
        holds one grid's table at a time: the next grid's build takes from it
        the matrices of the keys the two grids share and factorises only the
        new keys.  It shares the hypothesis check, the operator and the part
        map too, and with them their orbit certificate
        (operators.orbit_certificate).
        """
        other = replace(self, grid=grid)
        other._shared = self._shared
        return other

    def describe(self) -> dict:
        return {
            "inequality_id": self.inequality_id,
            "operator": self.operator.name,
            "part": None if self.part is None else self.part.name,
            "n": self.n,
            "points_per_axis": self.grid.points_per_axis,
            "k": self.k,
            "p": self.p,
            "p_star": None if self.inequality_id == "korn_ell" else self.p_star,
            "correction_enabled": bool(self.correction_enabled),
        }


@dataclass(eq=False)
class TrialResult(Report):
    """Both sides of one inequality trial and their ratio."""

    lhs: float
    rhs: float
    ratio: float
    field: dict
    config: dict


def check_hypotheses(config: InequalityConfig):
    """Classifier check matching the inequality variant.

    Returns (ok, note, classification_echo).  The caller decides whether a
    failed hypothesis is fatal (library default) or merely flagged (the
    p = 1 probe keeps running "outside theorem hypotheses").
    """
    sampling = SphereSampling.standard(
        config.n, count=HYPOTHESIS_SAMPLE_COUNT, seed=HYPOTHESIS_SAMPLE_SEED
    )
    if config.part is None:
        report, where = classify(config.operator, sampling), ""
    else:
        report, where = classify_on_kernel(config.operator, config.part, sampling), " on ker(A)"
    flags, failure = _HYPOTHESES[config.inequality_id]
    ok = all(getattr(report, flag) for flag in flags)
    note = "" if ok else f"operator {failure}{where} - outside theorem hypotheses"
    return ok, note, report.to_dict()


def _validate_field(config, fld):
    if fld.grid.n != config.grid.n or fld.grid.points_per_axis != config.grid.points_per_axis:
        raise PreconditionError("field grid does not match the configured grid")
    if fld.fiber_dim != config.operator.d:
        raise PreconditionError(
            f"field fiber {fld.fiber_dim} != operator source dimension {config.operator.d}"
        )
    if not fld.is_zero_mean:
        raise PreconditionError("trial fields must have zero mean")


def kms_sides(config: InequalityConfig, fld: TensorField) -> tuple[float, float]:
    """Evaluate both sides of the configured inequality for one field.

    The correction, the part map, B[i xi] and the derivative blocks act on
    the field's real-FFT half spectrum (HalfSpectrum.of), which holds no
    Nyquist rows: the field is read as its projection on the trial space
    (torus module docstring).  A generated field (random_bandlimited,
    bump_field) brings the spectrum it was synthesized from, on its band
    box, so it takes no forward transform and everything below runs on that
    box; its samples are never made.  Any other field is transformed once,
    on the full half grid.  The spectrum is streamed by torus's block pass
    (_sides, HalfSpectrum.trial_norms): B P and then R = P - corr P are
    formed run by run, each L^2 side is summed from per-bin powers, and
    each L^q side, with or without the correction, is written into a line
    buffer and reduced in place, one at a time, so no sample array of the
    whole grid is held.  The correction maps into ker A (A Pi_B = 0), so
    where q = p* != 2 the left side |grad^m R|_q and the A side
    |A grad^m R|_q = |A grad^m P|_q read one reduction of grad^m R, with A
    on each derivative block; without a correction R is P.  A side
    at most NEGLIGIBLE times |P|_2, a Parseval sum of the same pass, is
    returned as exactly 0.0 (_negligible_as_zero).
    """
    _validate_field(config, fld)
    reference, lhs, rhs = _sides(config, HalfSpectrum.of(fld))
    sides = _negligible_as_zero(reference, lhs, rhs)
    return float(sides[0]), float(sides[1])


def _sides(config, f_hat):
    """(|P|_2, lhs, rhs) of kms_sides for a validated field with half spectrum f_hat.

    The inequality gives the norms (config.norms) and the correction's
    half-grid table, where the correction is on; torus's block pass
    (HalfSpectrum.trial_norms) takes every side of them, and the right side
    is the A side plus the B side.  Every number is the one the whole-box
    composition gives, bit for bit.
    """
    table = config.correction_descriptor.grid_table(config.grid) if config.correction_enabled else None
    reference, left, b_norm = f_hat.trial_norms(config.operator, config.part, table, config.norms)
    return reference, left[0], b_norm if config.part is None else left[1] + b_norm


# --------------------------------------------------------------------------
# exact single-frequency trials
# --------------------------------------------------------------------------

def _profile_norm(grid: TorusGrid, reduced_order: int, q: float, odd: bool) -> float:
    """Discrete L^q norm of |cos(x.xi)| resp. |sin(x.xi)| on the grid.

    The values x.xi mod 2pi are uniformly distributed over the m-th roots of
    unity with m = M / gcd(xi, M), so the norm depends on xi only through m
    (passed as reduced_order).
    """
    theta = 2.0 * math.pi * np.arange(reduced_order) / reduced_order
    vals = np.abs(np.sin(theta)) if odd else np.abs(np.cos(theta))
    mean = float(np.mean(vals**q))
    return (2.0 * math.pi) ** (grid.n / q) * mean ** (1.0 / q)


def _frequency_scales(config, freqs):
    """Scalars (a, b, c) with lhs = a |w|, rhs = b |A v| + c |B[xi] v|, one per row of freqs.

    A side whose norm is (order, q) (InequalityConfig.norms) scales by
    |xi|^order times the L^q norm of the wave's profile: |cos(x.xi)|, or
    |sin(x.xi)| where an odd number of derivatives falls on the wave (the
    order when it is >= 0, plus k on the B side).  b = a, since the A side
    has the left side's norm.  Each profile norm is computed once per
    distinct M / gcd(xi, M) (_profile_norm).
    """
    grid, m = config.grid, config.grid.points_per_axis
    xi_abs = np.linalg.norm(freqs, axis=1)
    reduced = m // np.gcd.reduce(np.abs(freqs).astype(np.int64), axis=1, initial=m)
    uniq, inverse = np.unique(reduced, return_inverse=True)

    def scale(order, q, derivatives):
        odd = (max(order, 0) + derivatives) % 2 == 1
        profile = np.array([_profile_norm(grid, int(r), q, odd) for r in uniq])[inverse]
        return xi_abs ** float(order) * profile

    (order, q), (b_order, b_q) = config.norms
    a = scale(order, q, 0)
    return a, a, scale(b_order, b_q, config.k)


class _PlaneWaves:
    """The closed form of the plane waves cos(x.xi) v on an (F, n) stack of frequencies.

    lhs = a |v - Re corr[xi] v| and rhs = b |A v| + c |B[xi] v| (without a
    part map, as korn_ell: lhs = a |v|, rhs = c |B[xi] v|).  The scales, the
    symbols and the correction are evaluated once per stack, for sides and
    for the sweep's vector choice; evaluated is the correction as
    on_frequencies gave it.
    """

    def __init__(self, config: InequalityConfig, freqs):
        freqs = np.asarray(freqs, dtype=float)
        self.part = config.part
        self.scales = _frequency_scales(config, freqs)
        self.symbol = symbol_on_frequencies(config.operator, freqs)
        corr = config.correction_descriptor
        self.evaluated = None if corr is None else corr.on_frequencies(freqs)
        self.correction = None if corr is None else np.real(self.evaluated)

    def sides(self, vs):
        """(lhs, rhs) for an (F, d) vector stack; a side <= NEGLIGIBLE * a |v| reads 0.0."""
        a, b, c = self.scales
        wave = a * np.linalg.norm(vs, axis=1)
        bv = c * np.linalg.norm(np.einsum("fij,fj->fi", self.symbol, vs), axis=1)
        w = vs if self.correction is None else vs - np.einsum("fij,fj->fi", self.correction, vs)
        rhs = bv if self.part is None else b * np.linalg.norm(self.part.apply(vs), axis=1) + bv
        return _negligible_as_zero(wave, a * np.linalg.norm(w, axis=1), rhs)


def single_frequency_trial(config: InequalityConfig, xi, v) -> TrialResult:
    """Exact trial for the plane wave P = cos(x.xi) v, no FFT involved.

    The closed form (_PlaneWaves) on one row: the sweep, the witness row of
    estimate_constant and both trials of necessity_demo read the same
    arithmetic.  Agrees with the FFT path of kms_sides on
    plane_wave_field(xi, v) to roundoff.  A side at most NEGLIGIBLE * a |v|,
    with lhs = a |w|, is returned as exactly 0.0 (_negligible_as_zero).
    xi and v are refused by name as plane_wave_field refuses them, and v
    also unless its length is d.
    """
    xi = _wave_frequency(config.grid, xi, "xi")
    v = _fibre_vector(v, float)
    if v.size != config.operator.d:
        raise ArgumentError("v", f"v must have length d = {config.operator.d}, got {v.size}")
    lhs, rhs = (float(side[0]) for side in _PlaneWaves(config, xi[None]).sides(v[None]))
    descriptor = _plane_wave_descriptor(xi, v, "plane_wave")
    return TrialResult(lhs, rhs, trial_ratio(lhs, rhs), descriptor, config.describe())


def _plane_wave_descriptor(xi, v, generator) -> dict:
    return {
        "generator": generator,
        "xi": [int(x) for x in np.rint(xi)],
        "v": [float(x) for x in v],
    }


def _sweep_vectors(config, freqs):
    """Adversarial fiber vectors for a (F, n) stack of frequencies, found by SVD.

    Per frequency, v maximizes |L v| / |S v| with L the (scaled) left side
    and S the stacked right-side matrix; where S has a null direction that
    the left side does not annihilate, v is that direction, whose right
    side vanishes (an infinite ratio).  L and S are built from the closed
    form of the plane waves at freqs (_PlaneWaves), whose symbols and
    correction are evaluated once per stack.  Returns (vectors, ratios,
    clear, correction): ratios[i] is the trial ratio of the plane wave
    (freqs[i], vectors[i]), read from the same closed form, as
    single_frequency_trial reads it; correction holds the correction's
    matrices as evaluated there (None without one).  Only S and L S^+ are
    factorised with singular vectors; the null gain L N is factorised only
    where its Frobenius norm could reach the threshold.

    clear[i] is true where S = [b A; c B[xi]] proves that W = [A; B[xi]]
    fails the witness test of search_kernel_witness.  Since
    sigma_min(W) >= sigma_min(S) / max(b, c) and
    sigma_max(W) <= sigma_max(S) / min(b, c), it does where
    sigma_min(S) / max(b, c) > 2 WITNESS_TOL max(sigma_max(S) / min(b, c), 1),
    the factor 2 for roundoff.  Without a part map clear is None.
    """
    waves = _PlaneWaves(config, freqs)
    a, b, c = waves.scales
    bsym = waves.symbol.real
    if config.part is None:
        vs = np.linalg.svd(bsym)[2][:, -1, :]
        return vs, _trial_ratios(*waves.sides(vs)), None, waves.evaluated

    d = config.operator.d
    count = freqs.shape[0]
    eye = np.eye(d)
    if config.correction_enabled:
        lmat = a[:, None, None] * (eye - waves.correction)
    else:
        lmat = a[:, None, None] * np.broadcast_to(eye, (count, d, d))
    amat = np.broadcast_to(config.part.matrix, (count,) + config.part.matrix.shape)
    smat = np.concatenate([b[:, None, None] * amat, c[:, None, None] * bsym], axis=1)

    u, s, vh = np.linalg.svd(smat, full_matrices=False)
    # the bound times min(b, c) max(b, c), so no scale divides; a wide S has smin = 0
    low, high = np.minimum(b, c), np.maximum(b, c)
    smin = _padded_singular_values(s, d)[:, -1]
    clear = smin * low > 2.0 * WITNESS_TOL * np.maximum(s[:, 0] * high, low * high)
    smax = np.maximum(s[..., 0], 1.0)
    inv = np.where(s > NULL_TOL * smax[..., None], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    pinv = np.einsum("fji,fj,fkj->fik", vh, inv, u)
    row_proj = pinv @ smat
    null_proj = eye - row_proj

    tmat = lmat @ pinv
    _, t_vh = _svd_right(tmat)
    v_fin = np.einsum("fik,fk->fi", pinv, t_vh)
    norms = np.linalg.norm(v_fin, axis=1)
    vs = np.where(norms[:, None] > 1e-13, v_fin / np.maximum(norms, 1e-300)[:, None], eye[0])

    # v is the top null-gain direction where sigma_max(L N) exceeds the
    # threshold; since sigma_max <= |L N|_F, rows whose Frobenius norm stays
    # below it (with a relative margin for roundoff) skip the SVD
    null_gain = lmat @ null_proj
    threshold = 1e-8 * np.maximum(a, 1e-300)
    maybe = np.flatnonzero(
        np.linalg.norm(null_gain, axis=(1, 2)) > (1.0 - 1e-6) * threshold
    )
    if maybe.size:
        gain_s, gain_vh = _svd_right(null_gain[maybe])
        hit = gain_s > threshold[maybe]
        vs[maybe[hit]] = gain_vh[hit]
    return vs, _trial_ratios(*waves.sides(vs)), clear, waves.evaluated


def _svd_right(mats):
    """Top singular value and top right-singular vector of a matrix stack."""
    _, s, vh = np.linalg.svd(mats)
    return s[..., 0], vh[..., 0, :]


def _orbit_representatives(spec: OperatorSpec, part: PartMap | None, grid: TorusGrid):
    """(representatives, sizes): the first row of each orbit of grid.canonical_frequencies, in row order.

    Where operators.orbit_certificate certifies spec and part, an orbit is
    a signed-permutation orbit, whose first row is its point x of
    operators.fundamental_domain and whose size is pattern_elements(x)[0].size // 2.
    """
    if orbit_certificate(spec, part) is None:
        return grid.canonical_frequencies, np.ones(len(grid.canonical_frequencies), np.intp)
    points, pattern = fundamental_domain(grid.n, grid.points_per_axis)
    codes, inverse = np.unique(pattern, return_inverse=True)
    return points, np.array([_pattern_elements(grid.n, int(c))[0].size // 2 for c in codes])[inverse]


def search_kernel_witness(part: PartMap, spec: OperatorSpec, grid: TorusGrid, clear=None):
    """Lowest grid frequency carrying a unit vector in ker(A) cap ker(B[xi]).

    Returns (xi, v) or None; the scan order (by |xi|, then lexicographic)
    makes the result deterministic.  Where operators.orbit_certificate
    certifies spec and part, ker A cap ker Re B[g xi] =
    rho(g) (ker A cap ker Re B[xi]), so one factorisation decides an orbit,
    at its lowest canonical member (0 ... 0, x_z, -x_{n-1}, ..., -x_{z+1}),
    x its point of operators.fundamental_domain with z zero entries.
    clear (the sweep's, per orbit of _orbit_representatives) marks orbits
    proven to hold no witness, which are skipped.  The rest are scanned in
    chunks growing from one orbit to SWEEP_CHUNK, up to the first hit,
    which comes back bit for bit as a full scan finds it.
    """
    if orbit_certificate(spec, part) is None:
        freqs = grid.canonical_frequencies if clear is None else grid.canonical_frequencies[~clear]
    else:
        points = fundamental_domain(grid.n, grid.points_per_axis)[0]
        if clear is not None:
            points = points[~clear]
        zeros, j = np.count_nonzero(points == 0, axis=1)[:, None], np.arange(grid.n)
        lead = j <= zeros
        # entry j > z is -x[z - j]: -x_{n-1} first, counting back from the end
        freqs = np.where(lead, 1, -1) * np.take_along_axis(points, np.where(lead, j, zeros - j), 1)
    freqs = freqs[np.lexsort((*freqs.T[::-1], np.sum(freqs**2, axis=1)))]
    lo, size = 0, 1
    while lo < freqs.shape[0]:
        block = freqs[lo : lo + size]
        amat = np.broadcast_to(part.matrix, (block.shape[0],) + part.matrix.shape)
        stacked = np.concatenate(
            [amat, symbol_on_frequencies(spec, block.astype(float)).real], axis=1
        )
        # a stack with fewer rows than d has a kernel: its missing singular values are 0
        s = _padded_singular_values(np.linalg.svd(stacked, compute_uv=False), spec.d)
        hits = np.flatnonzero(s[:, -1] <= WITNESS_TOL * np.maximum(s[:, 0], 1.0))
        if hits.size:
            # singular vectors only for the first hit; LAPACK factorises each
            # matrix on its own, so v matches a batched factorisation bit for bit
            first = hits[0]
            _, _, vh = np.linalg.svd(stacked[first])
            return block[first].copy(), vh[-1].copy()
        lo, size = lo + size, min(2 * size, SWEEP_CHUNK)
    return None


# --------------------------------------------------------------------------
# constant estimation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldFamily(Report):
    """Which generators feed estimate_constant."""

    sweep: bool = True
    random_trials: int = 50
    bump_widths: tuple = (0.4, 0.8)
    witness: bool = True

    def __post_init__(self):
        for name in ("sweep", "witness"):
            flag = getattr(self, name)
            if not isinstance(flag, (int, np.integer, np.bool_)) or flag not in (0, 1):
                raise ArgumentError(name, f"{name} must be True or False, got {flag!r}")
        check_count("random_trials", self.random_trials)
        widths = self.bump_widths
        if not isinstance(widths, (tuple, list)) or not all(
            isinstance(w, numbers.Real) and w is not True and 0 < w < math.inf for w in widths
        ):
            raise ArgumentError("bump_widths", f"need finite positive widths, got {widths!r}")


@dataclass(eq=False)
class ConstantEstimate(Report):
    """Aggregated statistics of inequality trials over a field family."""

    config: dict
    family: dict
    seed: int
    n_trials: int
    max_ratio: float
    max_finite_ratio: float
    median_ratio: float
    argmax: dict
    infinite_count: int
    family_maxima: dict
    hypotheses_met: bool
    hypotheses_note: str
    classification: dict


def _reduce(rows) -> dict:
    """The trial statistics of a ConstantEstimate from non-empty rows.

    A row (family, ratios, counts, describe) counts ratios[i] as counts[i]
    trials, and describe(i) builds its field descriptor.  The argmax is the
    first infinite ratio, else the first largest ratio, in row order.  The
    finite ratios, each counted counts[i] times, give the maximum and median
    finite ratio (_weighted_median); both read 0.0 when there are none.
    """
    ratios = np.concatenate([r for _, r, _, _ in rows])
    counts = np.concatenate([c for _, _, c, _ in rows])
    infinite = np.isinf(ratios)
    best = int(np.argmax(infinite if infinite.any() else ratios))
    starts = np.cumsum([0] + [len(r) for _, r, _, _ in rows[:-1]])
    row = int(np.searchsorted(starts, best, side="right")) - 1
    family_maxima = {}
    for name, r, _, _ in rows:
        family_maxima[name] = max(family_maxima.get(name, 0.0), float(np.max(r)))
    return {
        "n_trials": int(counts.sum()),
        "max_ratio": float(ratios[best]),
        "max_finite_ratio": float(np.max(ratios[~infinite], initial=0.0)),
        "median_ratio": _weighted_median(ratios[~infinite], counts[~infinite]),
        "argmax": rows[row][3](best - int(starts[row])),
        "infinite_count": int(counts[infinite].sum()),
        "family_maxima": family_maxima,
    }


def _weighted_median(values, counts) -> float:
    """np.median(np.repeat(values, counts)) bit for bit, with no repeat; 0.0 when that is empty."""
    order = np.argsort(values, kind="stable")
    ends = np.cumsum(counts[order])
    if not ends.size or not ends[-1]:
        return 0.0
    # np.mean of the middle value, or of the two middle values of an even count
    middle = np.unique([(ends[-1] - 1) // 2, ends[-1] // 2])
    return float(np.mean(values[order][np.searchsorted(ends, middle, side="right")]))


def _sweep(config, keep_correction=False):
    """The sweep at one frequency per orbit, in canonical order.

    The sweep ratio at xi reads xi through |xi| and M / gcd(xi, M), which
    no signed permutation changes, and through the Grams that
    operators.orbit_tensor_power checks.  So each orbit of
    _orbit_representatives is swept once, at its first canonical member,
    whose ratio counts for all of its members: an infinite or a zero ratio
    too, since the closed form decides a negligible side relative to the
    wave (scale-free), not against an absolute cutoff.  Every
    representative is evaluated in closed form by _sweep_vectors; no
    correction table is built.  Returns (freqs, vectors, ratios, counts,
    clear, correction): clear is _sweep_vectors', and with keep_correction
    and a certified orbit check, correction is (keys, matrices) of the
    correction at the primitive representatives, the keys of the grid's
    certified table (MultiplierDescriptor.grid_table); else None.
    """
    swept, size = _orbit_representatives(config.operator, config.part, config.grid)
    count = swept.shape[0]
    vs = np.empty((count, config.operator.d))
    ratios = np.empty(count)
    clear = None if config.part is None else np.empty(count, bool)
    certified = orbit_certificate(config.operator, config.part) is not None
    kept = matrices = None
    if keep_correction and config.correction_enabled and certified:
        kept = np.flatnonzero(np.gcd.reduce(swept, axis=1) == 1)
    # chunks bound the stacked SVD arrays held at once on fine grids
    for lo in range(0, count, SWEEP_CHUNK):
        part = slice(lo, lo + SWEEP_CHUNK)
        vs[part], ratios[part], cleared, evaluated = _sweep_vectors(config, swept[part])
        if clear is not None:
            clear[part] = cleared
        if kept is not None:
            # the primitive rows into one array, so no chunk outlives its step
            if matrices is None:
                matrices = np.empty((kept.size,) + evaluated.shape[1:], evaluated.dtype)
            rows = slice(*np.searchsorted(kept, [lo, lo + SWEEP_CHUNK]))
            matrices[rows] = evaluated[kept[rows] - lo]
    correction = None if matrices is None else (swept[kept], matrices)
    return swept, vs, ratios, size, clear, correction


def estimate_constant(
    config: InequalityConfig,
    family: FieldFamily | None = None,
    seed: int = 0,
    enforce: bool = True,
) -> ConstantEstimate:
    """Estimate the empirical inequality constant over a field family.

    Deterministic given the seed.  Each family contributes rows of trial
    ratios, in the order sweep, random, bump, witness, and one reduction
    (_reduce) turns them into the estimate.  The sweep (_sweep) is one row
    over every canonical frequency, one of each +-xi pair, evaluated once
    per orbit, and factorises each orbit once: the witness scan
    (search_kernel_witness) skips the orbits the sweep proved to hold no
    witness, and the certified correction table of the field trials takes
    the sweep's matrices at its keys, dropped once it is built.  Every trial
    reads a side that is negligible against its own field (at most
    NEGLIGIBLE times |P|_2, or a |v| for a plane wave) as exactly 0.0, and
    its ratio is then exact: inf where only the right side vanishes, 0.0
    where both do.  Every random and bump field is one row, evaluated by
    kms_sides with no forward transform, on the band-box spectrum its
    generator wrote below M/2 (so in the trial space without Nyquist rows),
    and dropped once its ratio is known.  A random field's box is
    max(1, M // 4); a bump's is torus.bump_cutoff, and its descriptor
    records that cutoff and the Gaussian tail the box drops,
    exp(-w^2 (cutoff + 1)^2 / 2).  A correction term builds the orbit table
    of its grid once, after the sweep or for the first field trial.  The
    witness plane wave is one row, evaluated in closed form by
    single_frequency_trial; when no witness exists it holds ratio 0.0.
    Infinite ratios propagate to max_ratio and are counted separately.  The
    hypothesis check and the correction descriptor are grid-free: a config
    and its with_grid copies compute each once.  A family that generates no
    trial for the config raises ArgumentError("family") before any
    classification.  A failed hypothesis raises PreconditionError if enforce
    is set, and so does a correction without constant rank on ker(A), which
    Pi_B needs, always.
    """
    check_seed(seed)
    if family is None:
        family = FieldFamily()
    witness = family.witness and config.part is not None
    if not (family.sweep or family.random_trials or family.bump_widths or witness):
        raise ArgumentError("family", "the field family generates no trial for this inequality")
    hyp_ok, note, class_echo = config.hypotheses
    if enforce and not hyp_ok:
        raise PreconditionError(note)
    if config.correction_enabled and not class_echo["is_constant_rank"]:
        # whatever enforce says: the kernel projector of Pi_B needs a constant rank
        raise PreconditionError("operator does not have constant rank on ker(A): Pi_B cannot be built")

    grid = config.grid
    d = config.operator.d
    rows = []

    # callers pass each field straight in, so it is dropped once its ratio is known
    def add_field(name, fld, descriptor):
        rows.append((name, [trial_ratio(*kms_sides(config, fld))], [1], lambda i: descriptor))

    clear = None
    if family.sweep:
        fields = bool(family.random_trials or family.bump_widths)
        freqs, vs, ratios, counts, clear, correction = _sweep(config, keep_correction=fields)
        rows.append(("sweep", ratios, counts,
                     lambda i: _plane_wave_descriptor(freqs[i], vs[i], "plane_wave")))
        if correction is not None:
            # the field trials' table takes the sweep's matrices, which go once it is built
            config.correction_descriptor.grid_table(grid, correction)
        del correction

    cutoff = max(1, grid.points_per_axis // 4)
    for t in range(family.random_trials):
        add_field(
            "random",
            random_bandlimited(grid, d, cutoff, seed=np.random.SeedSequence((seed, 101, t))),
            {"generator": "random_bandlimited", "seed_root": seed, "index": t, "cutoff": cutoff},
        )

    center = np.full(grid.n, math.pi)
    for i, width in enumerate(family.bump_widths):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 202, i)))
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        add_field(
            "bump", bump_field(grid, center, width, v), _bump_descriptor(grid, width, seed, i)
        )

    if witness:
        found = search_kernel_witness(config.part, config.operator, grid, clear)
        if found is None:
            descriptor, ratio = {"generator": "witness_plane_wave", "xi": None}, 0.0
        else:
            xi, v = found
            descriptor = _plane_wave_descriptor(xi, v, "witness_plane_wave")
            ratio = single_frequency_trial(config, xi, v).ratio
        rows.append(("witness", [ratio], [1], lambda i: descriptor))

    return ConstantEstimate(
        config=config.describe(),
        family=family.to_dict(),
        seed=seed,
        **_reduce(rows),
        hypotheses_met=hyp_ok,
        hypotheses_note=note,
        classification=copy.deepcopy(class_echo),
    )


def _bump_descriptor(grid, width, seed, index) -> dict:
    """A bump row's descriptor: its band box cutoff and the Gaussian tail the box drops."""
    cutoff = bump_cutoff(grid, width)
    return {
        "generator": "bump", "width": width, "seed_root": seed, "index": index,
        "cutoff": cutoff, "dropped_tail": math.exp(-0.5 * (width * (cutoff + 1)) ** 2),
    }


def _check_sizes(sizes) -> list:
    """sizes as a list; ArgumentError("sizes") unless non-empty, even, >= 4 and strictly increasing."""
    try:
        sizes = list(sizes)
    except TypeError:
        raise ArgumentError("sizes", f"sizes must be a list of grid sizes, got {sizes!r}") from None
    even = all(isinstance(m, (int, np.integer)) and m % 2 == 0 and m >= 4 for m in sizes)
    increasing = all(lo < hi for lo, hi in zip(sizes, sizes[1:]))
    if not sizes or not even or not increasing:
        raise ArgumentError(
            "sizes", "sizes must be a non-empty list of strictly increasing even integers >= 4"
        )
    return sizes


@dataclass(eq=False)
class RefinementStudy(Report):
    """Constant estimates across a chain of grid refinements."""

    sizes: list
    estimates: list
    max_ratios: list
    growth_fractions: list
    max_growth: float | None
    all_finite: bool


def refinement_study(
    config: InequalityConfig,
    sizes,
    family: FieldFamily | None = None,
    seed: int = 0,
    enforce: bool = True,
) -> RefinementStudy:
    """Re-estimate the constant on successively finer grids.

    Random-field cutoffs scale with the grid (max(1, M // 4)).  A
    grid-stable maximum ratio is the discrete proxy for the inequality
    holding with a grid-independent constant.
    """
    sizes = _check_sizes(sizes)
    estimates = []
    for m in sizes:
        cfg = config.with_grid(TorusGrid(config.n, m))
        estimates.append(estimate_constant(cfg, family=family, seed=seed, enforce=enforce))
    maxima = [e.max_ratio for e in estimates]
    growths = []
    for lo, hi in zip(maxima, maxima[1:]):
        if math.isinf(lo) or math.isinf(hi) or lo <= 0:
            growths.append(math.inf if math.isinf(hi) and not math.isinf(lo) else math.nan)
        else:
            growths.append(hi / lo - 1.0)
    finite_growths = [g for g in growths if not math.isnan(g)]
    return RefinementStudy(
        sizes=sizes,
        estimates=estimates,
        max_ratios=maxima,
        growth_fractions=growths,
        max_growth=max(finite_growths) if finite_growths else None,
        all_finite=all(not math.isinf(r) for r in maxima),
    )


# --------------------------------------------------------------------------
# necessity of the correction term
# --------------------------------------------------------------------------

@dataclass(eq=False)
class NecessityDemoResult(Report):
    """Paired corrected/uncorrected trials on a kernel-intersection witness."""

    found: bool
    message: str
    xi: list | None
    v: list | None
    uncorrected: TrialResult | None
    corrected: TrialResult | None


def necessity_demo(
    part: PartMap,
    spec: OperatorSpec,
    grid: TorusGrid,
    p: float | None = None,
) -> NecessityDemoResult:
    """Show that dropping the correction breaks the constant-rank inequality.

    Searches the grid for a frequency xi and unit v in ker(A) cap ker(B[xi]);
    the plane wave cos(x.xi) v then has vanishing right side while only the
    corrected left side vanishes with it.  Both trials are evaluated in
    closed form by single_frequency_trial.  When no witness exists the
    correction is unnecessary on this grid, the constant-rank inequality
    degenerates to the elliptic one, and that is reported instead.  p
    defaults to (1 + n) / 2, inside 1 < p < n at every n >= 2 (2.0 at n = 3).
    """
    p = (1 + grid.n) / 2 if p is None else p
    base = dict(inequality_id="korn_const", operator=spec, part=part, p=p, grid=grid)
    uncorrected_cfg = InequalityConfig(**base, correction_enabled=False)
    corrected_cfg = InequalityConfig(**base, correction_enabled=True)
    found = search_kernel_witness(part, spec, grid)
    if found is None:
        return NecessityDemoResult(
            found=False,
            message=(
                "correction unnecessary on this grid: no kernel-intersection witness; "
                "the operator behaves elliptically on ker(A)"
            ),
            xi=None,
            v=None,
            uncorrected=None,
            corrected=None,
        )
    xi, v = found
    descriptor = _plane_wave_descriptor(xi, v, "witness_plane_wave")
    return NecessityDemoResult(
        found=True,
        message="witness found; uncorrected ratio diverges, corrected left side vanishes",
        xi=descriptor["xi"],
        v=descriptor["v"],
        uncorrected=replace(single_frequency_trial(uncorrected_cfg, xi, v), field=descriptor),
        corrected=replace(single_frequency_trial(corrected_cfg, xi, v), field=descriptor),
    )


# --------------------------------------------------------------------------
# explicit Riesz-kernel cross-check for B = Curl, A = tr
# --------------------------------------------------------------------------

@dataclass(eq=False)
class CrosscheckResult(Report):
    mode: str
    max_relative_deviation: float
    details: dict


def _unit_ball_volume(n: int) -> float:
    """omega_n, the volume of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


_EVAL_OFFSETS = (
    (0, 0, 1),
    (1, 1, 0),
    (2, 0, 1),
    (0, 2, 2),
    (1, 2, 3),
    (3, 1, 0),
    (2, 2, 1),
    (1, 0, 2),
    (0, 1, 3),
    (3, 3, 2),
)

_BUMP_MATRIX = np.array(
    [[1.0, 0.5, 0.0], [-0.3, -1.0, 0.2], [0.1, 0.4, 0.25]]
)


def curl_riesz_crosscheck(
    mode: str = "symbol",
    grid: TorusGrid | None = None,
    eval_points: int = 10,
    width: float = 0.5,
) -> CrosscheckResult:
    """Check the explicit Riesz-kernel realization of the Curl correction.

    For B the row-wise matrix curl and A = tr, the composition of the kernel
    projector of B with the pointwise projection onto ker(tr) is the Fourier
    multiplier (row-wise projection onto xi) o dev, whose real-space kernel
    is the Riesz potential 1/(n omega_n) (x-y)/|x-y|^n applied to
    Div dev P (row-wise).  symbol mode verifies the multiplier identity at
    every nonzero grid frequency (exact algebra); quadrature mode compares a
    direct real-space summation against the spectral result at a few
    evaluation points, with a loose tolerance acknowledging the
    periodic-versus-whole-space mismatch.
    """
    if mode not in ("symbol", "quadrature"):
        raise ValueError("mode must be 'symbol' or 'quadrature'")
    check_count("eval_points", eval_points)
    if not 1 <= eval_points <= 10:
        raise ArgumentError("eval_points", "eval_points must lie in [1, 10]")
    if not width > 0:
        raise ArgumentError("width", "width must be positive")
    if grid is not None and grid.n != 3:
        raise ArgumentError(
            "grid", f"the Curl correction is checked on a 3-D grid, got n = {grid.n}"
        )

    op = catalog_operator("curl_matrix_rowwise", 3)
    part = catalog_partmap("tr", 3)
    dev = catalog_partmap("dev", 3)
    full_desc = composed_correction_symbol(op, part, projector="full")

    if mode == "symbol":
        g = grid or TorusGrid(3, 16)
        # every nonzero frequency: the zero frequency leads the grid
        freqs = g.frequency_grid.reshape(-1, 3)[1:].astype(float)
        table = np.real(full_desc.on_frequencies(freqs))
        units = freqs / np.linalg.norm(freqs, axis=1)[:, None]
        proj = np.einsum("fi,fj->fij", units, units)
        closed = np.zeros((freqs.shape[0], 9, 9))
        for i in range(3):
            closed[:, 3 * i : 3 * i + 3, 3 * i : 3 * i + 3] = proj
        closed = closed @ dev.matrix
        deviation = float(np.max(np.linalg.norm(table - closed, axis=(1, 2))))

        restricted = composed_correction_symbol(op, part, projector="restricted")
        restricted_dev = float(
            np.max(
                np.linalg.norm(
                    np.real(restricted.on_frequencies(freqs)) - closed, axis=(1, 2)
                )
            )
        )
        return CrosscheckResult(
            mode="symbol",
            max_relative_deviation=deviation,
            details={
                "frequencies_checked": int(freqs.shape[0]),
                "points_per_axis": g.points_per_axis,
                "restricted_projector_deviation": restricted_dev,
            },
        )

    g = grid or TorusGrid(3, 32)
    half = g.points_per_axis // 2
    offsets = _EVAL_OFFSETS[:eval_points]
    reach = max(max(o) for o in offsets)
    if half + reach >= g.points_per_axis:
        raise ArgumentError(
            "grid", f"{eval_points} evaluation points need at least {2 * reach + 2} points per axis"
        )
    field = bump_field(g, np.full(3, math.pi), width, _BUMP_MATRIX.reshape(9))
    corr = apply_multiplier(full_desc, field)
    div_op = catalog_operator("div_matrix_rowwise", 3)
    source = apply_operator(div_op, apply_partmap(dev, field))

    prefactor = 1.0 / (3.0 * _unit_ball_volume(3))
    points = g.points
    gvals = source.values
    deviations = []
    magnitudes = []
    for offset in offsets:
        idx = tuple(half + o for o in offset)
        x = points[idx]
        disp = x - points
        disp = (disp + math.pi) % (2.0 * math.pi) - math.pi
        r = np.linalg.norm(disp, axis=-1)
        kern = np.zeros_like(disp)
        nz = r > 0
        kern[nz] = disp[nz] / (r[nz] ** 3)[:, None]
        quad = prefactor * g.cell_volume * np.einsum(
            "xi,xj->ij", gvals.reshape(-1, 3), kern.reshape(-1, 3)
        )
        spectral = corr.values[idx].reshape(3, 3)
        deviations.append(float(np.linalg.norm(quad - spectral)))
        magnitudes.append(float(np.linalg.norm(spectral)))
    scale = max(magnitudes)
    deviation = max(deviations) / scale if scale > 0 else 0.0
    return CrosscheckResult(
        mode="quadrature",
        max_relative_deviation=float(deviation),
        details={
            "points_per_axis": g.points_per_axis,
            "eval_points": eval_points,
            "bump_width": width,
            "max_spectral_magnitude": scale,
        },
    )


# --------------------------------------------------------------------------
# p = 1 probe
# --------------------------------------------------------------------------

def p1_probe(
    part: PartMap,
    spec: OperatorSpec,
    sizes,
    family: FieldFamily | None = None,
    seed: int = 0,
) -> RefinementStudy:
    """Boundedness probe of the constant-rank inequality at p = 1.

    The exponent is p* = n/(n-1).  Boundedness across refinements is
    reported as an observed property, never a proof; when the cancelling
    hypothesis fails on ker(A) the probe still runs and flags the verdict as
    outside the theorem hypotheses, but without constant rank there it
    raises PreconditionError (estimate_constant).  The result is the
    korn_const_p1 refinement study; each estimate carries the hypothesis
    check, which does not depend on the grid.
    """
    sizes = _check_sizes(sizes)
    base = InequalityConfig(
        inequality_id="korn_const_p1",
        operator=spec,
        part=part,
        p=1.0,
        grid=TorusGrid(spec.n, sizes[0]),
    )
    return refinement_study(base, sizes, family=family, seed=seed, enforce=False)
