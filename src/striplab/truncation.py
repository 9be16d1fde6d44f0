"""Constructive Lipschitz truncation on rectangular grids.

Given a grid-sampled vector field u, the kit replaces it by a Lipschitz
function v that agrees with u outside a small bad set:

* the bad set is a superlevel set of the box maximal function of |grad u|
  from a summed-area table, with the level chosen by minimizing
  t^2 * area{Mf > t} over a geometric candidate grid in [a, A].  The
  truncation lemma needs only a maximal operator comparable to the
  centred-ball one (Acerbi & Fusco 1984; Friesecke, James & Mueller 2002,
  appendix), and the box of half-width floor(r / d) holds the disc of
  radius r and lies in the disc of radius sqrt(2) * r;
* on the bad set, v is the upper McShane extension of u from the good set,
  component by component;
* the thin-rectangle variant extends u from a strip of height h to the unit
  square by successive reflection, truncates there, and maps the cleanest
  strip back.

A field enters and leaves as a `GridFunction`, checked once when built.
Inside `thin_truncate` the stages pass plain arrays, with the spacing
alongside: a vector field as (ncomp, n1, n2) planes, a scalar as (n1, n2).

The certified gradient bound is measured on the discrete gradient of the
output, so `sup |grad v| <= lam` holds exactly by construction.  The chosen
level always lies in [a, A]; the certified bound can exceed it by the
measured extension factor lam / level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DiagnosticError

KAPPA_WINDOW = 4  # cells; pair window for the good-set steepness measurement
LADDER_FACTOR = np.sqrt(2.0)
N_CANDIDATES = 64
MCSHANE_TILE = 8  # nodes per side of a fill tile


@dataclass(eq=False)
class GridFunction:
    """Node samples of a vector field on a uniform rectangle: the kit's boundary type.

    values has shape (n1, n2, ncomp) and spacing is (d1, d2), both checked
    here, once; planes() is the (ncomp, n1, n2) view the stages take.
    """

    values: np.ndarray
    spacing: tuple[float, float]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 3:
            raise ValueError(f"grid values must be (n1, n2, ncomp), got shape {self.values.shape}")
        if self.values.shape[0] < 2 or self.values.shape[1] < 2:
            raise ValueError("grid needs at least 2 nodes per direction")
        d1, d2 = (float(s) for s in self.spacing)
        if not (d1 > 0 and d2 > 0):
            raise ValueError(f"grid spacings must be positive, got {self.spacing!r}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")
        self.spacing = (d1, d2)

    @property
    def n1(self) -> int:
        return self.values.shape[0]

    @property
    def n2(self) -> int:
        return self.values.shape[1]

    @property
    def cell_area(self) -> float:
        return self.spacing[0] * self.spacing[1]

    def planes(self) -> np.ndarray:
        """Values as (ncomp, n1, n2) component planes, a view."""
        return np.moveaxis(self.values, -1, 0)


def gradient_magnitude(planes: np.ndarray, spacing) -> np.ndarray:
    """Pointwise |grad u| of (ncomp, n1, n2) planes, anchored at cell corners.

    Forward differences; the squared differences are summed plane by plane,
    in component order, which for one or two components is bitwise the sum
    over the component axis.  The (n1-1, n2-1) anchored values are
    edge-padded back to (n1, n2) so downstream averaging sees a field on
    the same grid.
    """
    d1, d2 = spacing
    sq = 0.0
    for uc in planes:
        gx = (uc[1:, :-1] - uc[:-1, :-1]) / d1
        gy = (uc[:-1, 1:] - uc[:-1, :-1]) / d2
        sq = sq + (gx**2 + gy**2)
    return np.pad(np.sqrt(sq), ((0, 1), (0, 1)), mode="edge")


def dirichlet_energy(gf: GridFunction) -> float:
    """Integral of |grad u|^2 by the cell-anchored forward-difference rule."""
    mag = gradient_magnitude(gf.planes(), gf.spacing)[:-1, :-1]
    return float(gf.cell_area * np.sum(mag**2))


def grad_sup(gf: GridFunction) -> float:
    return float(np.max(gradient_magnitude(gf.planes(), gf.spacing)[:-1, :-1]))


def maximal_function(f: np.ndarray, spacing) -> np.ndarray:
    """Box maximal function of a nonnegative (n1, n2) field, over a radius ladder.

    Radii run from half a cell by factors of sqrt(2) up to the domain
    diameter.  Radius r averages f over the in-domain nodes of the box of
    half-width m = min(floor(r / d), n - 1) per axis; the smallest box is
    the node itself, so the output dominates the input.  Each box sum is
    the summed-area table's rows at the clipped window ends
    min(i + m1 + 1, n1) and max(i - m1, 0), differenced, then likewise in
    j; radii that share (m1, m2) are averaged once.

    The Lipschitz truncation lemma needs only a maximal operator comparable
    to the centred-ball one (Acerbi & Fusco 1984; the appendix of
    Friesecke, James & Mueller 2002).  The box of radius r contains every
    node of the disc of radius r and lies inside the disc of radius
    sqrt(2) * r, the next rung (the last disc covers the domain).  So for
    f >= 0, with #S the in-domain node count of S and D_r the disc average,

        (#disc_r / #box_r) D_r  <=  B_r  <=  (#disc_sqrt2r / #box_r) D_sqrt2r,

    and c Mf <= box Mf <= C Mf for the disc maximal function Mf, with c the
    least and C the largest of these count ratios over radii and nodes.
    They depend only on the grid; away from the edges of a fine grid they
    tend to pi / 4 and pi / 2.  The certified bound sup |grad v| <= lam is
    measured on the output, so it holds either way.
    """
    n1, n2 = f.shape
    d1, d2 = spacing
    radii = [0.5 * min(d1, d2)]
    while radii[-1] < np.hypot((n1 - 1) * d1, (n2 - 1) * d2):
        radii.append(radii[-1] * LADDER_FACTOR)
    table = np.zeros((n1 + 1, n2 + 1))
    np.cumsum(np.cumsum(f, axis=0), axis=1, out=table[1:, 1:])
    i, j = np.arange(n1), np.arange(n2)
    out = f.copy()
    for m1, m2 in dict.fromkeys((min(int(r / d1), n1 - 1), min(int(r / d2), n2 - 1))
                                for r in radii):
        if m1 == m2 == 0:
            continue
        hi1, lo1 = np.minimum(i + m1 + 1, n1), np.maximum(i - m1, 0)
        hi2, lo2 = np.minimum(j + m2 + 1, n2), np.maximum(j - m2, 0)
        rows = np.take(table, hi1, axis=0) - np.take(table, lo1, axis=0)
        box = np.take(rows, hi2, axis=1) - np.take(rows, lo2, axis=1)
        np.maximum(out, box / np.outer(hi1 - lo1, hi2 - lo2), out=out)
    return out


def select_lambda(mf: np.ndarray, cell_area: float, a: float, A: float) -> tuple[float, np.ndarray]:
    """Minimize g(t) = t^2 * area{mf > t} over a geometric grid of levels.

    Returns the minimizing level (first hit on ties, i.e. the smallest) and
    the boolean superlevel mask at that level.  The caller checks 0 < a < A.
    """
    cand = np.geomspace(a, A, N_CANDIDATES)
    flat = np.sort(mf, axis=None)
    counts = flat.size - np.searchsorted(flat, cand, side="right")
    g = cand**2 * counts * cell_area
    lam = float(cand[int(np.argmin(g))])
    return lam, mf > lam


def _good_set_kappa(planes: np.ndarray, good: np.ndarray, t: float, spacing) -> float:
    """Extension constant: level t or the windowed good-set steepness of u.

    planes are u's (ncomp, n1, n2) components.  Checks all good node pairs
    within a KAPPA_WINDOW-cell box, over every component at once; the
    certified bound is measured on the final output, so locality here costs
    quality at worst.

    Bad nodes are NaN in a copy of the planes, so a pair with a bad end
    differs by NaN, which fmax and fmin skip: per window offset,
    max |a - b| over the good pairs is max(fmax(a - b), -fmin(a - b)), and
    NaN exactly when the offset has no good pair.  Offsets no pair fits in
    (di >= n1 or |dj| >= n2) are skipped.

    The copy stores each plane in rows of w = n2 + KAPPA_WINDOW nodes, the
    last KAPPA_WINDOW of them NaN guard columns, flattened to (ncomp,
    n1 * w); offset (di, dj) is then the flat shift s = di * w + dj, one
    contiguous subtract.  Since |dj| <= KAPPA_WINDOW, a shifted pair that
    leaves its row's n2 real columns, on either side, lands in a guard
    column, so every pair is either the 2-D pair (i, j), (i + di, j + dj)
    or has a NaN end: none wraps onto a real node of another row or plane.
    """
    d1, d2 = spacing
    n1, n2 = good.shape
    w = n2 + KAPPA_WINDOW
    g = np.full((planes.shape[0], n1, w), np.nan)
    np.copyto(g[:, :, :n2], planes, where=good)
    g = g.reshape(len(g), -1)
    best = 0.0
    for di in range(0, KAPPA_WINDOW + 1):
        for dj in range(-KAPPA_WINDOW, KAPPA_WINDOW + 1):
            if (di == 0 and dj <= 0) or di >= n1 or abs(dj) >= n2:
                continue
            s = di * w + dj
            diff = g[:, s:] - g[:, :-s]  # s > 0: di == 0 takes dj > 0 only
            steep = max(np.fmax.reduce(diff, axis=None), -np.fmin.reduce(diff, axis=None))
            if np.isnan(steep):
                continue
            best = max(best, float(steep) / np.hypot(di * d1, dj * d2))
    return max(t, best)


def _mcshane(
    u: np.ndarray, good: np.ndarray, kappa: float, spacing, fill: np.ndarray
) -> np.ndarray:
    """Upper McShane extension of u's (ncomp, n1, n2) planes from the good set.

    Returns the extended planes.  fill restricts which non-good nodes get
    overwritten (the minimum still ranges over every good node).

    Filled nodes are taken tile by tile.  A good node g enters a tile's
    minimum only if u(g) + kappa * (distance from g to the tile's box) is at
    most the tile-wide upper bound U = min_g u(g) + kappa * (farthest
    distance from g to the box), plus a 1e-9 relative slack, for some
    component; every other good node is beaten at every node of the tile,
    so the minimum, and each candidate's value, is the same as over the
    whole good set.

    That test runs only over the good nodes in a window around the tile.
    The same bound taken over the good nodes of a small neighbourhood of
    the tile (its box grown by 1, 2, 4, ... cells until one is inside)
    gives U' >= U, so every node that passes, and every node attaining U,
    lies within R = max_c (U'_c + slack_c - min_g u_c(g)) / kappa of the
    box; the window is the tile's index box grown by ceil(R / d) + 1 cells
    per axis and clipped to the grid, and its candidates are that block's
    good nodes.  The minimum over them runs along the middle axis of
    (ncomp, candidates, tile nodes): an elementwise minimum of contiguous
    rows.
    """
    d1, d2 = spacing
    n1, n2 = good.shape
    xs = np.arange(n1) * d1
    ys = np.arange(n2) * d2
    gmin = np.min(u, axis=(1, 2), where=good, initial=np.inf)

    def window(i0, i1, j0, j1, w1, w2):
        """Positions and values of the good nodes in rows i0-w1..i1+w1, columns j0-w2..j1+w2."""
        r0, c0 = max(i0 - w1, 0), max(j0 - w2, 0)
        wi, wj = np.nonzero(good[r0:i1 + w1 + 1, c0:j1 + w2 + 1])
        return xs[r0:][wi], ys[c0:][wj], u[:, r0:, c0:][:, wi, wj]

    def tile_bound(wx, wy, wvals, x0, x1, y0, y1):
        """Tile upper bound over the good nodes of a window, and its slack."""
        far = np.hypot(np.maximum(wx - x0, x1 - wx), np.maximum(wy - y0, y1 - wy))
        upper = np.min(wvals + kappa * far, axis=-1)
        return upper, 1e-9 * (1.0 + np.abs(upper))

    bad = fill & ~good
    bi, bj = np.nonzero(bad)
    v = u.copy()
    tile = (bi // MCSHANE_TILE) * (n2 // MCSHANE_TILE + 1) + bj // MCSHANE_TILE
    order = np.argsort(tile, kind="stable")
    for sel in np.split(order, np.flatnonzero(np.diff(tile[order])) + 1):
        if sel.size == 0:
            continue
        ti, tj = bi[sel], bj[sel]
        i0, i1, j0, j1 = ti.min(), ti.max(), tj.min(), tj.max()
        box = x0, x1, y0, y1 = xs[i0], xs[i1], ys[j0], ys[j1]
        grow = 1
        while (w := window(i0, i1, j0, j1, grow, grow))[0].size == 0 and grow < max(n1, n2):
            grow *= 2
        upper, slack = tile_bound(*w, *box)
        reach = np.max(upper + slack - gmin) / kappa
        wx, wy, wvals = window(i0, i1, j0, j1, int(min(np.ceil(reach / d1), n1)) + 1,
                               int(min(np.ceil(reach / d2), n2)) + 1)
        upper, slack = tile_bound(wx, wy, wvals, *box)
        near = np.hypot(np.maximum(np.maximum(x0 - wx, wx - x1), 0.0),
                        np.maximum(np.maximum(y0 - wy, wy - y1), 0.0))
        keep = np.any(wvals + kappa * near <= (upper + slack)[:, None], axis=0)
        dist = np.hypot(xs[ti] - wx[keep, None], ys[tj] - wy[keep, None])
        v[:, ti, tj] = np.min(wvals[:, keep, None] + kappa * dist, axis=1)
    return v


@dataclass(eq=False)
class TruncationResult:
    """Outcome of a thin-strip truncation."""

    v: GridFunction
    level: float        # selected level, always in [a, A]
    lam: float          # certified bound: max(level, grad_sup)
    grad_sup: float     # measured sup |grad v| on the strip grid
    bad_mask: np.ndarray  # {u != v} on the strip grid
    q: float            # lam^2 * area{u != v} / (energy / log(A/a))
    strip_index: int
    kappa: float
    mismatch_area: float


def square_cells(m: int, d2: float) -> int:
    """Cells K across the unit square that a strip of m cells of width d2 reflects onto.

    Requires square-compatible spacing: 1/d2 an even integer, an even number
    m of cells across the strip, and room for at least three strips.
    """
    K = round(1.0 / d2)
    if abs(K * d2 - 1.0) > 1e-9 or K % 2 != 0:
        raise ValueError(f"transverse spacing must evenly divide 1 into an even count, got d2={d2!r}")
    if m % 2 != 0:
        raise ValueError(f"strip needs an even number of cells across, got {m}")
    h = m * d2
    if int(np.floor((1.0 - h) / (2.0 * h))) < 1:
        raise ValueError(f"strip too thick to reflect: fewer than 3 strips fit at h={h!r}")
    return K


def reflect_to_square(u: GridFunction) -> np.ndarray:
    """Extend a strip field to the unit square by successive reflection.

    Returns contiguous (ncomp, n1, K + 1) planes on u's spacing, which must
    pass ``square_cells``.  Extended row J of K lies in strip
    floor((J - K/2 + m/2) / m), the center strip being 0; even strips copy
    the m + 1 source rows in order, odd strips mirror them.
    """
    m = u.n2 - 1
    K = square_cells(m, u.spacing[1])
    t = np.arange(K + 1) - K // 2
    strip = np.floor_divide(t + m // 2, m)
    inner = t - strip * m
    j_src = np.where(strip % 2 == 0, inner + m // 2, m // 2 - inner)
    return np.take(u.planes(), j_src, axis=2)


def _strip_slice(i0: int, K: int, m: int) -> np.ndarray:
    """Extended row indices of strip i0, ordered to match the source rows."""
    J0 = i0 * m + (K - m) // 2
    rows = np.arange(J0, J0 + m + 1)
    if i0 % 2 != 0:
        rows = rows[::-1]
    return rows


def thin_truncate(u: GridFunction, a: float, A: float) -> TruncationResult:
    """Truncate a thin-strip field via reflection and strip selection.

    Extends u to the unit square, takes the level minimizing t^2 *
    area{Mf > t} over [a, A], with Mf the box maximal function of |grad u|
    from a summed-area table (comparable to the centred-ball one, which is
    all the truncation lemma needs: see maximal_function), picks the strip
    with the fewest bad nodes (Mf > level; ties: smaller |i|, then smaller
    i), McShane-fills its bad nodes from the good set, and maps it back with
    the matching orientation.
    """
    if not (0 < a < A):
        raise ValueError(f"need 0 < a < A, got a={a!r}, A={A!r}")
    ext = reflect_to_square(u)
    m = u.n2 - 1
    K = ext.shape[2] - 1
    mf = maximal_function(gradient_magnitude(ext, u.spacing), u.spacing)
    level, bad = select_lambda(mf, u.cell_area, a, A)
    if bad.all():
        raise DiagnosticError(f"good set is empty at level {level!r}; raise the upper bound A")

    n_side = (K - m) // (2 * m)
    bad_counts = {i: int(np.sum(bad[:, _strip_slice(i, K, m)]))
                  for i in range(-n_side, n_side + 1)}
    i0 = min(bad_counts, key=lambda i: (bad_counts[i], abs(i), i))
    rows = _strip_slice(i0, K, m)

    kappa = level
    if bad.any():
        fill = np.zeros_like(bad)  # only the selected strip is read back
        fill[:, rows] = True
        kappa = _good_set_kappa(ext, ~bad, level, u.spacing)
        ext = _mcshane(ext, ~bad, kappa, u.spacing, fill=fill)

    v = GridFunction(values=np.moveaxis(ext[:, :, rows], 0, -1), spacing=u.spacing)
    mask = np.any(v.values != u.values, axis=-1)
    area = float(np.sum(mask) * u.cell_area)
    energy = dirichlet_energy(u)
    sup = grad_sup(v)
    lam = max(level, sup)
    if area == 0.0:
        q = 0.0
    elif energy == 0.0:  # u moves only at its far corner node, which the energy skips
        q = float("inf")
    else:
        q = lam * lam * area / (energy / float(np.log(A / a)))
    return TruncationResult(
        v=v, level=level, lam=lam, grad_sup=sup, bad_mask=mask, q=q, strip_index=i0,
        kappa=kappa, mismatch_area=area,
    )


def rough_field(seed: int):
    """A resolution-independent 2-vector test field: low modes plus sharp bumps.

    Returns a callable (x, y) -> values with the last axis of length 2 the
    component axis.  Parameters are drawn once from the seed, so samples
    on different grids discretize the same function.
    """
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(2):
        nmode = 6
        kvec = rng.integers(-3, 4, size=(nmode, 2))
        kvec[np.all(kvec == 0, axis=1)] = [1, 0]
        amp = rng.normal(size=nmode) * 1.5 / (1.0 + np.sum(kvec**2, axis=1))
        phase = rng.uniform(0.0, 2.0 * np.pi, size=nmode)
        comps.append((kvec.astype(float), amp, phase))
    nbump = int(rng.integers(1, 4))
    bx = rng.uniform(0.1, 0.9, size=nbump)
    by_rel = rng.uniform(0.2, 0.8, size=nbump)
    bw = rng.uniform(0.015, 0.04, size=nbump)
    bamp = rng.uniform(0.3, 1.0, size=(nbump, 2)) * rng.choice([-1.0, 1.0], size=(nbump, 2))

    def evaluate(x: np.ndarray, y: np.ndarray, height: float = 1.0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(x.shape + (2,))
        for c, (kvec, amp, phase) in enumerate(comps):
            arg = 2.0 * np.pi * (
                x[..., None] * kvec[:, 0] + y[..., None] * kvec[:, 1]
            ) + phase
            out[..., c] = np.sum(amp * np.cos(arg), axis=-1)
        for b in range(nbump):
            d2 = (x - bx[b]) ** 2 + (y - by_rel[b] * height) ** 2
            out += bamp[b] * np.exp(-d2 / bw[b] ** 2)[..., None]
        return out

    return evaluate


def sample_on_strip(fn, n1_cells: int, n2_cells: int, height: float) -> GridFunction:
    """Sample a callable field on the node grid of (0,1) x (0,height)."""
    d1 = 1.0 / n1_cells
    d2 = height / n2_cells
    x = np.arange(n1_cells + 1) * d1
    y = np.arange(n2_cells + 1) * d2
    X, Y = np.meshgrid(x, y, indexing="ij")
    return GridFunction(values=fn(X, Y, height), spacing=(d1, d2))
