"""Fourier multipliers built from operator symbols.

Three constructions:

* the Mihlin-Korn reconstruction multiplier
  ``m(xi) = (i xi)^alpha (B*[xi] B[xi])^{-1} B*[xi]`` recovering derivatives
  of a field from the action of an elliptic operator on it,
* the frequency-wise orthogonal projector onto ker B[xi] (the projection
  used in the Fonseca-Mueller constant-rank estimate),
* the Moore-Penrose pseudoinverse symbol B[xi]^+.

All multipliers annihilate the zero frequency: homogeneous symbols are
undefined there and torus fields are reduced to zero mean before multiplier
application.

Grid tables (`MultiplierDescriptor.grid_table`, an `OrbitTable`) live on
the real-FFT half grid of a TorusGrid and act on real fields: each bin
holds m(xi), and the Nyquist-plane bins, where no spectrum has content
(torus module docstring), hold 0 like the zero frequency.  Tables are for
multipliers that map real fields to real fields, m(-xi) = conj m(xi) (the
identity, the projectors and the operator-input reconstruction multipliers
of real symbols).  The last-axis bin-0 plane holds both xi and -xi; a
table whose entries there break m(-xi) = conj m(xi), relative to the
largest entry, is refused with ValueError (e.g. the reconstruction
multiplier of an odd-order operator without operator_input).  A descriptor
caches the table of the grid it was last asked for.  Before it builds
another grid's, it drops the stale table's per-bin arrays and keeps its
keys and their matrices until the build ends: a key's matrix depends on
the key alone, not on the grid, so the build takes the matrices of the
keys the two grids share and evaluates only the new ones.  A caller hands
the build the matrices it has evaluated at integer keys, taken the same
way: an estimate's sweep holds every key of a certified correction table.

A table evaluates batch once per key: xi itself, or xi / gcd(xi) for the
degree-0 kernel projectors and corrections.  Where
operators.orbit_tensor_power certifies the operator and part map, a
correction also follows the signed permutations g of Z^n,
m(g xi) = rho(g) m(xi) rho(g)^T with rho(g) = g (x) ... (x) g, and the
key is sorted |xi| / gcd(xi) (625 keys for 15,375 bins at n = 3, M = 32).
One build unfolds every table: a certified one from
operators.fundamental_domain, each point's images and stabilizer read off
its zero/tie pattern (operators.pattern_elements), never from the
group's 2^n n! rows; any other from every live bin under the identity.
A table stores the keys, their matrices and, per bin, the key and, unless
every bin is its key, g (OrbitTable), but no matrix per bin.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .operators import (
    MultiIndex,
    OperatorSpec,
    PartMap,
    _pattern_elements,
    _signed_permutation_rows,
    _zero_tie_pattern,
    fundamental_domain,
    orbit_certificate,
    restrict_symbol,
    symbol_on_frequencies,
)
from .torus import BandBox

__all__ = [
    "MultiplierDescriptor",
    "OrbitTable",
    "MultiplierConstructionError",
    "ConstantRankViolation",
    "mihlin_korn_multiplier",
    "kernel_projection_symbol",
    "pseudoinverse_symbol",
    "composed_correction_symbol",
    "infer_constant_rank",
]

RANK_TOL = 1e-8
CONDITION_LIMIT = 1e12
HERMITIAN_TOL = 1e-8
# sphere sample that infer_constant_rank classifies
RANK_SAMPLE_COUNT = 256
RANK_SAMPLE_SEED = 7
# MultiplierDescriptor._symmetry of a degree-0 multiplier with no certified
# signed-permutation symmetry
RAYS = "rays"
# representatives evaluated in one batch while a grid table is built, and
# bins taken at a time when it is applied
TABLE_CHUNK = 1024


class MultiplierConstructionError(RuntimeError):
    """The symbol is numerically unusable at some frequency (non-ellipticity)."""


class ConstantRankViolation(RuntimeError):
    """The symbol rank at some frequency differs from the declared rank."""


@dataclass(eq=False)
class MultiplierDescriptor:
    """A frequency-to-matrix function.

    batch maps a (..., n) stack of nonzero frequencies to the matching
    (...,) + shape stack of matrices.  The table of the most recent grid is
    cached, keyed by (n, points_per_axis), so configs on several grids can
    share one descriptor; the next grid's build takes from it the matrices
    of the keys the two grids share (grid_table).  _symmetry records what
    grid_table may assume of batch: None, nothing; RAYS, degree 0
    (m(c xi) = m(xi) for c > 0); an int r, degree 0 and
    m(g xi) = rho(g) m(xi) rho(g)^T for every signed permutation g of Z^n,
    with rho(g) = g (x) ... (x) g (r factors, see
    operators.orbit_tensor_power).
    """

    shape: tuple[int, int]
    provenance: str
    batch: Callable[[np.ndarray], np.ndarray]
    _symmetry: int | str | None = field(default=None, repr=False)
    _grid_cache: tuple = field(default=(None, None), repr=False)

    def evaluate(self, xi) -> np.ndarray:
        """The matrix at a single nonzero frequency (length-n array)."""
        return self.batch(np.asarray(xi, dtype=float)[None])[0]

    def on_frequencies(self, freqs: np.ndarray) -> np.ndarray:
        """Evaluate on a stack of frequencies; zero frequencies are annihilated."""
        freqs = np.asarray(freqs, dtype=float)
        zero_mask = ~np.any(freqs != 0, axis=-1)
        # zero frequencies are replaced by a harmless stand-in and
        # annihilated below; homogeneous symbols are undefined at 0
        safe = np.where(zero_mask[..., None], 1.0, freqs)
        out = np.array(self.batch(safe))
        out[zero_mask] = 0.0
        return out

    def grid_table(self, grid, evaluated=None) -> "OrbitTable":
        """The matrices on the half grid of a TorusGrid, by key, cached.

        batch is evaluated once per key over the nonzero bins off the
        Nyquist planes: with _symmetry an int, once per sorted |xi| / gcd(xi);
        with RAYS, once per xi / gcd(xi); otherwise once per bin.  One build
        unfolds every table (_unfolded_table).  It keeps those matrices and,
        for every bin, the key and, unless every bin is its key, the signed
        permutation g that moves the key's matrix there by rho(g), which is
        exact; bin 0 and the Nyquist-plane bins read 0.  The cache holds one
        grid's table; the stale one is dropped before the next grid's is
        built, all but its keys and their matrices, which the build reads
        until it ends.  evaluated, if given, is (keys, matrices) of
        on_frequencies at integer keys (a sweep's, verify._sweep).  The
        build takes a key's matrix from the stale table, else from
        evaluated, keeps neither, and evaluates only the keys neither holds
        (_known_values).  A key's matrix is a function of the integer key
        alone, so the table is a fresh descriptor's, bit for bit.  A cached
        table ignores evaluated.
        Raises ValueError when m(-xi) differs from conj m(xi) on the
        last-axis bin-0 plane, which holds both: such a multiplier does not
        map real fields to real fields.
        """
        key = (grid.n, grid.points_per_axis)
        if self._grid_cache[0] != key:
            stale = self._grid_cache[1]
            known = [] if stale is None else [(stale.keys, stale.values, False)]
            if evaluated is not None:
                known.append((*evaluated, True))
            # the stale table's per-bin arrays go before the build
            self._grid_cache = (None, None)
            del stale
            self._grid_cache = (key, self._unfolded_table(grid, known))
        return self._grid_cache[1]

    def _unfolded_table(self, grid, known) -> "OrbitTable":
        """The table unfolded from its points, each live bin written once, from one point's image.

        With _symmetry an int, the points are operators.fundamental_domain
        and a point x's moves the canonical elements g of its zero/tie
        pattern with g x in the half grid; otherwise every live bin is a
        point and the identity its only move (_image_moves).  x's key is
        x / gcd(x) for a degree-0 multiplier and x otherwise; the keys are
        ordered and found by their code (_key_code).  code numbers the
        elements the bins use, in ascending order, and action holds their
        rows alone; a table whose bins all use the identity keeps neither.
        known lists the matrices the build may take (_known_values).
        """
        n, m, r = grid.n, grid.points_per_axis, self._symmetry
        if isinstance(r, int):
            points, pattern = fundamental_domain(n, m)
            groups = [
                (np.flatnonzero(pattern == p), *_image_moves(n, int(p))) for p in np.unique(pattern)
            ]
        else:
            freqs = BandBox(grid, m // 2).frequencies.reshape(-1, n)
            points = freqs[np.any(freqs != 0, axis=1) & np.all(freqs != -(m // 2), axis=1)]
            groups = [(np.arange(points.shape[0]), *_image_moves(n, None))]
        reduced = points if r is None else points // np.gcd.reduce(points, axis=1)[:, None]
        codes, first, key_index = np.unique(
            _key_code(reduced, m // 2), return_index=True, return_inverse=True
        )
        keys = reduced[first]
        values = self._known_values(keys, known)
        # m(-xi) = conj m(xi) on the bin-0 plane, read off its keys: a certified key with
        # a zero entry is its own mirror, as rho(-I) = +-Id and its matrix is exact under
        # its stabilizer; any other key k there is checked against -k
        if isinstance(r, int):
            plane = mirror = np.flatnonzero(keys[:, 0] == 0)
        else:
            plane = np.flatnonzero(keys[:, -1] == 0)
            mirror = np.searchsorted(codes, _key_code(-keys[plane], m // 2))
        _check_real_to_real(self.provenance, values[plane], values[mirror])
        used = np.unique(np.concatenate([elements for _, elements, _, _ in groups]))
        rep = np.full(grid.half_shape, keys.shape[0], np.int32)
        code = np.zeros(grid.half_shape, np.int32)
        flat_rep, flat_code = rep.reshape(-1), code.reshape(-1)
        strides = (m // 2 + 1) * m ** np.arange(n - 2, -1, -1)
        for rows, elements, inv, moved in groups:
            index = np.searchsorted(used, elements)
            # the images of a run of points, at most TABLE_CHUNK * 64 at a time
            step = max(1, TABLE_CHUNK * 64 // elements.size)
            for lo in range(0, rows.size, step):
                chunk = rows[lo : lo + step]
                images = points[chunk][:, inv] * moved
                bins = (images[..., :-1] % m) @ strides + images[..., -1]
                flat_rep[bins] = key_index[chunk, None]
                flat_code[bins] = index
        action = tuple(_signed_permutation_rows(n, r, used)[2:]) if used.any() else None
        return OrbitTable(
            shape=grid.half_shape + values.shape[1:],
            keys=keys,
            values=values,
            rep=rep,
            code=None if action is None else code,
            action=action,
        )

    def _known_values(self, keys, known):
        """_key_values(keys), each key's matrix taken from the first source in known that holds it.

        known lists (keys, values, raw) sources of this descriptor's
        matrices: another grid's table, or raw matrices that a caller
        evaluated (grid_table), which are symmetrised on intake as
        _on_representatives symmetrises its own, TABLE_CHUNK at a time.
        Keys are integer vectors, so each is coded exactly; only the keys
        no source holds go through _key_values.
        """
        values, todo = None, np.arange(keys.shape[0])
        for old_keys, old_values, raw in known:
            if old_keys.shape[1] != keys.shape[1]:
                continue
            half = int(max(np.max(np.abs(keys), initial=0), np.max(np.abs(old_keys), initial=0)))
            codes, old_codes = _key_code(keys[todo], half), _key_code(old_keys, half)
            _, shared, source = np.intersect1d(
                codes, old_codes, assume_unique=True, return_indices=True
            )
            if values is None:
                values = np.zeros((keys.shape[0] + 1,) + old_values.shape[1:], old_values.dtype)
            for lo in range(0, shared.size, TABLE_CHUNK):
                rows = todo[shared[lo : lo + TABLE_CHUNK]]
                taken = old_values[source[lo : lo + TABLE_CHUNK]]
                values[rows] = self._symmetrised(keys[rows], taken) if raw else taken
            todo = np.delete(todo, shared)
        if values is None:
            return self._key_values(keys)
        if todo.size:
            values[todo] = self._key_values(keys[todo])[:-1]
        return values

    def _key_values(self, keys):
        """The matrices at the keys, TABLE_CHUNK at a time, and a last row of 0 (the zero frequency)."""
        for lo in range(0, keys.shape[0], TABLE_CHUNK):
            chunk = self._on_representatives(keys[lo : lo + TABLE_CHUNK])
            if lo == 0:
                values = np.zeros((keys.shape[0] + 1,) + chunk.shape[1:], chunk.dtype)
            values[lo : lo + chunk.shape[0]] = chunk
        return values

    def _on_representatives(self, keys):
        """The matrices at a stack of keys.

        With _symmetry an int, each matrix is then made exactly invariant
        under the stabilizer of its key: m(key) = rho(h) m(key) rho(h)^T holds
        for each h with h key = key, but a factorisation keeps that only to
        roundoff.  Each orbit of entry positions under the stabilizer takes
        the value of its first entry, with the sign rho(h) carries there, or
        0 where the orbit maps an entry onto minus itself.  So a bin reached
        from its key through two group elements gets one matrix, bit for bit.
        Which entry each entry reads, and with which factor, depends only on
        the key's zero/tie pattern (_symmetrisation, computed once per
        pattern).
        """
        return self._symmetrised(keys, self.on_frequencies(keys.astype(float)))

    def _symmetrised(self, keys, values):
        """values (the matrices at keys) made invariant under each key's stabilizer, in place."""
        if self._symmetry in (None, RAYS):
            return values
        d = values.shape[-1]
        # the stabilizer of a sorted non-negative key depends only on its zero/tie pattern
        pattern = _zero_tie_pattern(keys)
        flat = values.reshape(-1, d * d)
        for code in np.unique(pattern):
            rows = np.flatnonzero(pattern == code)
            first, factor = _symmetrisation(keys.shape[1], self._symmetry, int(code))
            flat[rows] = flat[rows][:, first] * factor
        return values


def _key_code(keys, half):
    """One integer per key with entries in [-half, half]: their order is lexicographic from the last entry."""
    return (keys + half) @ (2 * half + 1) ** np.arange(keys.shape[1])


@functools.lru_cache(maxsize=None)
def _image_moves(n, pattern):
    """(elements, inv, moved): a zero/tie pattern's canonical elements g with g x in the half grid.

    (g x)_j = moved[e, j] x[inv[e, j]] for each point x of the pattern; a
    canonical g flips no zero entry, so the image lies in the half grid
    where moved[e, -1] > 0, and only those elements are kept.  pattern
    None moves by the identity alone.  Read-only, cached per (n, pattern).
    """
    elements = np.zeros(1, np.int64) if pattern is None else _pattern_elements(n, pattern)[0]
    perm, signs = _signed_permutation_rows(n, 0, elements)[:2]
    inv = np.argsort(perm, axis=1)
    moved = np.take_along_axis(signs, inv, axis=1).astype(np.int64)
    kept = moved[:, -1] > 0
    out = elements[kept], inv[kept], moved[kept]
    for array in out:
        array.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _symmetrisation(n, r, pattern):
    """(first, factor): m.flat[first] * factor is a key's matrix m made invariant under its stabilizer.

    Each orbit of the d^2 entry positions (d = n^r) under the stabilizer of
    the keys of a zero/tie pattern takes the value of its first entry, with
    the sign rho(h) carries there, or 0 where the orbit maps an entry onto
    minus itself.  The stabilizer is decoded and read TABLE_CHUNK * 256
    entry moves at a time; only the outcome, d^2 entries each, is cached per
    (n, r, pattern), read-only.
    """
    stabilizer = _pattern_elements(n, pattern)[1]
    d = n**r
    cols, step = np.arange(d * d), max(1, TABLE_CHUNK * 256 // (d * d))
    # the identity, row 0, reads each entry from itself
    first, carried, odd = cols, np.ones(d * d), np.zeros(d * d, bool)
    for lo in range(0, stabilizer.size, step):
        run = _signed_permutation_rows(n, r, stabilizer[lo : lo + step])
        pos = (run.src[:, :, None] * d + run.src[:, None, :]).reshape(-1, d * d)
        sign = (run.sgn[:, :, None] * run.sgn[:, None, :]).reshape(-1, d * d)
        low = pos.argmin(axis=0)
        lower = pos[low, cols] < first
        first = np.where(lower, pos[low, cols], first)
        carried = np.where(lower, sign[low, cols], carried)
        # a lower first entry was read by no earlier run
        odd = odd & ~lower | np.any((pos == first) & (sign != carried), axis=0)
    out = first, np.where(odd, 0.0, carried)
    for array in out:
        array.setflags(write=False)
    return out


@dataclass(eq=False)
class OrbitTable:
    """A multiplier's matrices on the half grid of a TorusGrid, by orbit.

    keys holds the integer keys, in lexicographic order from the last
    entry, and values one matrix per key, in that order, and a last row of
    0, the matrix of the zero frequency and of every Nyquist-plane bin.
    rep and code have the half-grid shape: bin b holds
    rho(g) values[rep[b]] rho(g)^T, with g the code[b]-th of the elements
    the bins use, in ascending order of their rows of
    operators.signed_permutations.  action holds those elements' (src,
    sgn, inv, inv_sgn) alone, decoded by operators._signed_permutation_rows;
    rho(g) acts on the rows and the columns of the square matrices alike.
    Where every bin uses the identity, code and action are None and bin b
    holds values[rep[b]].  shape is grid.half_shape + the matrix shape.
    """

    shape: tuple
    keys: np.ndarray
    values: np.ndarray
    rep: np.ndarray
    code: np.ndarray | None
    action: tuple | None

    def __post_init__(self):
        # a descriptor hands the same cached table to every caller
        for array in self._arrays():
            array.setflags(write=False)

    def _arrays(self):
        if self.action is None:
            return [self.keys, self.values, self.rep]
        return [self.keys, self.values, self.rep, self.code, *self.action]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._arrays())

    def matrices(self, bins=...) -> np.ndarray:
        """The matrices at half-grid bins: bins indexes an array of this shape (all, by default)."""
        mats = np.take(self.values, self.rep[bins], axis=0)
        if self.action is None:
            return mats
        src, sgn = (a[self.code[bins]] for a in self.action[:2])
        # rho(g) mats rho(g)^T, exact
        mats = np.take_along_axis(mats, src[..., :, None], axis=-2)
        mats *= sgn[..., :, None]
        mats = np.take_along_axis(mats, src[..., None, :], axis=-1)
        mats *= sgn[..., None, :]
        return mats

    def apply(self, box, coef: np.ndarray) -> np.ndarray:
        """The multiplier applied bin by bin to coefficients on a torus.BandBox.

        coef has shape box.shape + (columns,); the result is a fresh array,
        which the caller may overwrite (apply_rows).
        """
        vec = coef.reshape(-1, coef.shape[-1]).astype(complex, copy=False)
        out = self.apply_rows(self.bin_keys(box), slice(None), vec)
        return out.reshape(coef.shape[:-1] + (-1,))

    def bin_keys(self, box) -> tuple:
        """(rep, code) of a torus.BandBox's bins, flat, in the box's order (code None without action)."""
        rep = box.take(self.rep).reshape(-1)
        return rep, None if self.code is None else box.take(self.code).reshape(-1)

    def apply_rows(self, keys, bins: slice, vec, out=None) -> np.ndarray:
        """The multiplier on rows of complex coefficients at a run of a box's bins.

        keys is bin_keys(box) and vec holds the coefficients of its bins
        `bins`, in order.  The rows are taken TABLE_CHUNK at a time, so no
        per-bin matrix is formed.  The result is written to out, or to a
        fresh array.
        """
        rep, code = (None if k is None else k[bins] for k in keys)
        if out is None:
            out = np.empty((vec.shape[0], self.shape[-2]), complex)
        for lo in range(0, vec.shape[0], TABLE_CHUNK):
            run = slice(lo, lo + TABLE_CHUNK)
            out[run] = self._applied(rep[run], None if code is None else code[run], vec[run])
        return out

    def _applied(self, rep, code, vec):
        """rho(g) m rho(g)^T vec per bin, m = values[rep]; code is None without an action."""
        if self.action is not None:
            src, sgn, inv, inv_sgn = (np.take(a, code, axis=0) for a in self.action)
            vec = _signed_take(vec, inv, inv_sgn)
        mats = np.take(self.values, rep, axis=0)
        if np.iscomplexobj(mats):
            out = (mats @ vec[..., None])[..., 0]
        else:
            # a real matrix times the (re, im) pairs of each complex entry
            pairs = np.ascontiguousarray(vec).view(float).reshape(vec.shape + (2,))
            out = (mats @ pairs).view(complex)[..., 0]
        return out if self.action is None else _signed_take(out, src, sgn)


def _signed_take(x, src, sgn):
    """x[i, src[i, j]] * sgn[i, j] for each row i of a 2-d array x."""
    out = np.take(x.reshape(-1), src + np.arange(x.shape[0])[:, None] * x.shape[1])
    out *= sgn
    return out


def _check_real_to_real(provenance, plane, mirrored):
    """Raise ValueError unless plane = conj mirrored, relative to max|plane|.

    plane holds matrices m(xi) of the bin-0 plane and mirrored m(-xi) at the same places.
    """
    scale = float(np.max(np.abs(plane), initial=0.0))
    deviation = float(np.max(np.abs(plane - mirrored.conj()), initial=0.0))
    if deviation > HERMITIAN_TOL * scale:
        raise ValueError(
            f"{provenance}: m(-xi) != conj m(xi) (deviation {deviation:.3g}); "
            "grid tables are for multipliers that map real fields to real fields"
        )


def _padded_singular_values(s, d):
    """Singular values padded with zeros up to length d (wide matrices)."""
    if s.shape[-1] == d:
        return s
    pad = np.zeros(s.shape[:-1] + (d - s.shape[-1],))
    return np.concatenate([s, pad], axis=-1)


def _check_rank(s_padded, rank, freqs):
    """Raise ConstantRankViolation naming the worst frequency on mismatch."""
    smax = s_padded[..., 0]
    scale = np.where(smax > 0, smax, 1.0)
    ok = np.ones(s_padded.shape[:-1], dtype=bool)
    if rank > 0:
        ok &= s_padded[..., rank - 1] > RANK_TOL * scale
    if rank < s_padded.shape[-1]:
        ok &= s_padded[..., rank] <= RANK_TOL * scale
    if not np.all(ok):
        bad = np.argwhere(~ok)[0]
        xi = freqs[tuple(bad)]
        raise ConstantRankViolation(
            f"symbol rank differs from declared rank {rank} at frequency {xi.tolist()}"
        )


def mihlin_korn_multiplier(
    spec: OperatorSpec,
    alpha: MultiIndex,
    operator_input: bool = False,
) -> MultiplierDescriptor:
    """The reconstruction multiplier (i xi)^alpha (B* B)^{-1} B* of an elliptic operator.

    Satisfies m(xi) B[xi] = (i xi)^alpha Id_d for xi != 0 and is homogeneous
    of degree |alpha| - k.  Construction fails, naming the frequency, when
    cond(B*[xi] B[xi]) exceeds CONDITION_LIMIT - the numerical signature of a
    non-elliptic symbol.

    The spectral action of the operator on a field is B[i xi] = i^k B[xi],
    not B[xi] itself; operator_input=True multiplies by (-i)^k so that
    applying the descriptor to the field B u recovers d^alpha u exactly.
    """
    if alpha.dimension != spec.n:
        raise ValueError("multi-index dimension does not match the operator")
    if alpha.order > spec.k:
        raise ValueError(f"need |alpha| <= k = {spec.k}, got {alpha.order}")
    if spec.d == 0:
        raise ValueError("vacuous operator has no reconstruction multiplier")
    phase = (-1j) ** spec.k if operator_input else 1.0

    def batch(freqs):
        freqs = np.asarray(freqs, dtype=float)
        sym = symbol_on_frequencies(spec, freqs)
        u, s, vh = np.linalg.svd(sym, full_matrices=False)
        if s.shape[-1] < spec.d:
            raise MultiplierConstructionError(
                f"{spec.name}: symbol can never be injective (l = {spec.l} < d = {spec.d})"
            )
        smin = s[..., -1]
        smax = s[..., 0]
        bad = (smin <= 0) | ((smax / np.where(smin > 0, smin, 1.0)) ** 2 > CONDITION_LIMIT)
        if np.any(bad):
            xi = freqs[tuple(np.argwhere(bad)[0])]
            raise MultiplierConstructionError(
                f"{spec.name}: symbol numerically singular at frequency {xi.tolist()}"
                " (operator not elliptic there)"
            )
        pinv = np.einsum("...ji,...j,...kj->...ik", vh.conj(), 1.0 / s, u.conj())
        factor = phase * alpha.power(1j * freqs)
        return factor[..., None, None] * pinv

    return MultiplierDescriptor(
        shape=(spec.d, spec.l),
        provenance=f"mihlin_korn({spec.name}, alpha={alpha}, operator_input={operator_input})",
        batch=batch,
    )


def kernel_projection_symbol(spec: OperatorSpec, rank: int) -> MultiplierDescriptor:
    """Frequency-wise orthogonal projector onto ker B[xi] for a constant-rank operator.

    The declared rank is trusted and enforced: a frequency whose singular
    values disagree with it raises ConstantRankViolation instead of silently
    changing the projector dimension.  Only a wide symbol (l < d) needs
    the full factorisation for all d rows of vh; a tall or square one has
    them in the thin one, without the square u.
    """
    if not 0 <= rank <= spec.d:
        raise ValueError(f"rank must lie in [0, {spec.d}]")

    def batch(freqs):
        freqs = np.asarray(freqs, dtype=float)
        sym = symbol_on_frequencies(spec, freqs)
        _, s, vh = np.linalg.svd(sym, full_matrices=spec.l < spec.d)
        _check_rank(_padded_singular_values(s, spec.d), rank, freqs)
        vker = np.swapaxes(vh[..., rank:, :], -1, -2).conj()
        return vker @ np.swapaxes(vker, -1, -2).conj()

    return MultiplierDescriptor(
        shape=(spec.d, spec.d),
        provenance=f"kernel_projection({spec.name}, r={rank})",
        batch=batch,
        _symmetry=RAYS,
    )


def pseudoinverse_symbol(spec: OperatorSpec, rank: int) -> MultiplierDescriptor:
    """Moore-Penrose pseudoinverse symbol B[xi]^+ for a constant-rank operator.

    Satisfies B[xi]^+ B[xi] = Id - Pi(xi) with Pi the kernel projector and
    is homogeneous of degree -k.
    """
    if not 0 <= rank <= min(spec.d, spec.l):
        raise ValueError(f"rank must lie in [0, {min(spec.d, spec.l)}]")

    def batch(freqs):
        freqs = np.asarray(freqs, dtype=float)
        sym = symbol_on_frequencies(spec, freqs)
        u, s, vh = np.linalg.svd(sym, full_matrices=False)
        _check_rank(_padded_singular_values(s, spec.d), rank, freqs)
        inv = np.zeros_like(s)
        if rank > 0:
            inv[..., :rank] = 1.0 / s[..., :rank]
        return np.einsum("...ji,...j,...kj->...ik", vh.conj(), inv, u.conj())

    return MultiplierDescriptor(
        shape=(spec.d, spec.l),
        provenance=f"pseudoinverse({spec.name}, r={rank})",
        batch=batch,
    )


def infer_constant_rank(spec: OperatorSpec) -> int:
    """Common symbol rank from a small deterministic sphere sample.

    Raises ConstantRankViolation when the sampled ranks disagree.
    """
    from .classify import SphereSampling, classify

    if spec.is_vacuous:
        return 0
    sampling = SphereSampling.standard(spec.n, count=RANK_SAMPLE_COUNT, seed=RANK_SAMPLE_SEED)
    report = classify(spec, sampling)
    if not report.is_constant_rank:
        raise ConstantRankViolation(
            f"{spec.name}: sampled ranks are not constant: {report.rank_histogram}"
        )
    return int(report.common_rank)


def composed_correction_symbol(
    spec: OperatorSpec,
    part: PartMap,
    projector: str = "restricted",
) -> MultiplierDescriptor:
    """Symbol of the correction map P -> Pi_B P_ker(A)[P].

    projector="restricted" (default) uses the kernel projector of the
    operator restricted to ker(A), expressed back in R^d coordinates; it
    vanishes identically when the restricted operator is elliptic.
    projector="full" composes the unrestricted kernel projector of B with
    the pointwise projection onto ker(A); for B = matrix curl and A = tr
    this is the composition with an explicit Riesz-kernel realization.
    Both choices annihilate plane waves valued in ker(A) cap ker B[xi] and
    yield the constant-rank inequality with different constants.
    """
    if part.d != spec.d:
        raise ValueError("part map and operator fiber dimensions differ")
    if projector not in ("restricted", "full"):
        raise ValueError("projector must be 'restricted' or 'full'")
    d = spec.d

    if projector == "full":
        inner = kernel_projection_symbol(spec, infer_constant_rank(spec))
        proj = part.proj_ker

        def batch(freqs):
            return inner.on_frequencies(np.asarray(freqs, dtype=float)) @ proj

        provenance = f"correction_full({spec.name}, ker({part.name}))"
    else:
        restricted = restrict_symbol(spec, part)
        if restricted.d == 0:
            def batch(freqs):
                return np.zeros(np.asarray(freqs).shape[:-1] + (d, d))

            provenance = f"correction_restricted({spec.name}, ker({part.name})=0)"
        else:
            inner = kernel_projection_symbol(restricted, infer_constant_rank(restricted))
            kb = part.kernel_basis

            def batch(freqs):
                pi = inner.on_frequencies(np.asarray(freqs, dtype=float))
                return kb @ pi @ kb.T

            provenance = f"correction_restricted({spec.name}, ker({part.name}))"

    # a projector onto ker A cap ker B[xi] has degree 0 and follows the Grams
    power = orbit_certificate(spec, part)
    return MultiplierDescriptor(
        shape=(d, d),
        provenance=provenance,
        batch=batch,
        _symmetry=RAYS if power is None else power,
    )
