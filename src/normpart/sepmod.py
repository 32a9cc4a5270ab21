"""Separation-modulus bounds and companion-space constructions.

The lower bound is the explicit external-volume-ratio formula for canonically
positioned spaces; the upper bound transfers the separation profile of an
auxiliary space Y onto X (4 * Lip(Y->X) * sup over the X-sphere of psi_Y).
Companion spaces round a high-exponent lp ball into an Orlicz-type body of
comparable norm whose polar projection profile grows like sqrt(n), and
sweeps emit per-dimension records with log-log slopes.
"""

import csv
import io
import json
import math

from dataclasses import dataclass, replace

import numpy as np

from .space import (INF, REGISTRY, CapabilityError, InputError,
                    SpaceDescriptor, _numbers, block_lp, circumradius,
                    gradient_batch, lp, norm_batch, orlicz, space)
from .geometry import (_ball_ascent, _check_count, _psi_sup, cone_sample,
                       iq_of, log_euclidean_ball_volume, log_volume_exact)


def external_volume_ratio(sp):
    """evr(X) = (vol(circumradius * B_2) / vol(B_X))^{1/n} for canonically
    positioned spaces, whose tightest invariant ellipsoid is a round ball.

    The volume ratio is taken in log space, so it stays finite in every
    dimension although both volumes leave the float range."""
    s = space(sp)
    if not s.is_canonically_positioned:
        raise CapabilityError(
            "external volume ratio needs a canonically positioned space "
            "(lp, orlicz, schatten, uniform block, or ball intersection)")
    n = s.dim
    log_ratio = log_euclidean_ball_volume(n) - log_volume_exact(s)
    return circumradius(s) * math.exp(log_ratio / n)


def sep_lower_evr(sp):
    """Explicit separation-modulus lower bound

        evr(X) * 2 * (n!)^{1/(2n)} * Gamma(1 + n/2)^{1/n} / sqrt(pi*n),

    which tends to (sqrt(2)/(e*sqrt(pi))) * evr(X) * sqrt(n).  By Stirling's
    series the factor after evr(X), over sqrt(n) and that limit constant, is

        exp((3 ln n + ln(2 pi^3)) / (4n) + 5 / (24 n^2) + O(n^-4)),

    so the approach is from above and slow: 6.7% over the limit at n = 64,
    first within 2% at n = 264."""
    s = space(sp)
    n = s.dim
    evr = external_volume_ratio(s)
    log_term = (math.lgamma(n + 1) / (2.0 * n)
                + math.lgamma(1.0 + 0.5 * n) / n)
    return evr * 2.0 * math.exp(log_term) / math.sqrt(math.pi * n)


def sep_lower_limit_constant():
    """The n -> infinity limit of sep_lower_evr(l_2^n)/sqrt(n), approached at
    the rate ln(ratio / limit) = (3 ln n + ln(2 pi^3)) / (4n) + O(n^-2); see
    sep_lower_evr."""
    return math.sqrt(2.0) / (math.e * math.sqrt(math.pi))


# ---------------------------------------------------------------------------
# upper bound: transfer of the psi profile of Y through the X norm


def _sup_norm_on_sphere(sp_dom, sp_val, restarts, seed):
    """sup of the sp_val norm over the unit sphere of sp_dom: exactly 1 when
    the two spaces are equal, a closed form where `Kind.sphere_sup` has one,
    and otherwise the best of `_ball_ascent` (with the domain's support
    map) and 256 cone samples of the domain, which lie on its sphere."""
    dom = space(sp_dom)
    val = space(sp_val)
    if dom == val:
        return 1.0
    closed = REGISTRY[val.kind].sphere_sup(val, dom)
    if closed is not None:
        return closed

    def objective(Z):
        F = norm_batch(val, Z)
        return F, gradient_batch(val, Z, F)

    _, best, _ = _ball_ascent(objective, dom, restarts, seed)
    vals = norm_batch(val, cone_sample(dom, 256, seed=seed + 1).points)
    return max(best, float(vals.max()))


def sep_upper_two_norm(sp_x, sp_y=None, restarts=16, samples=100_000, seed=0,
                       workers=1):
    """Separation-modulus upper bound for X obtained from the psi profile of
    an auxiliary space Y:

        4 * (sup_{z in S_Y} ||z||_X) * (sup_{z in S_X} psi_Y(z)).

    The first factor rescales Y so its ball sits inside the X ball, and is
    1 when Y is X.  Both suprema are heuristic maxima from multi-restart
    ascent (exact where the kinds have closed forms: `Kind.sphere_sup`,
    `Kind.vertex_orbit`); the second is `geometry._psi_sup`.  The stderr
    combines the Monte Carlo error of psi at the argmax with the restart
    dispersion."""
    x = space(sp_x)
    y = space(sp_x if sp_y is None else sp_y)
    if x.dim != y.dim:
        raise InputError("spaces must share a dimension")
    _check_count(restarts, "restarts", 0)
    s_factor = _sup_norm_on_sphere(y, x, restarts, seed)
    _, best, spread = _psi_sup(y, x, restarts, samples, seed, workers)
    return replace(best, value=4.0 * s_factor * best.value,
                   stderr=4.0 * s_factor * math.hypot(best.stderr, spread))


# ---------------------------------------------------------------------------
# companion spaces


def companion_space(sp):
    """An auxiliary space Y with norm equivalent to the given lp space whose
    polar projection profile peaks at the sqrt(n) scale.

    For n = 1 or p <= log(2n) the space is its own companion.  Otherwise
    (including p = inf, proxied by p_eff = log(2n)) the lp ball is rounded
    into the Orlicz body Omega_beta^n with beta = (n-1)/2: n is then the
    largest divisor m of n with max(p_eff, 2) <= m <= e^{p_eff}, since
    e^{p_eff} > 2n.  Where n < max(p_eff, 2) no divisor is admissible and
    the body is taken as the one-block sum l_p^1(Omega_beta^n)."""
    s = space(sp)
    if s.kind != "lp":
        raise CapabilityError("companion construction applies to lp spaces")
    n = s.dim
    if n == 1 or (s.p != INF and s.p <= math.log(2.0 * n)):
        return s
    p_eff = math.log(2.0 * n) if s.p == INF else float(s.p)
    body = orlicz(n, 0.5 * (n - 1))
    if n >= max(p_eff, 2.0):
        return body
    return block_lp(p_eff, [body])


def companion_sandwich(sp, companion=None, samples=2048, seed=0):
    """Empirical equivalence constants between a space and its companion:
    (min ratio, max ratio) of companion-norm / original-norm over cone-sample
    directions plus coordinate axes and the diagonal."""
    s = space(sp)
    y = companion_space(s) if companion is None else space(companion)
    pts = cone_sample(s, samples, seed=seed).points
    pts = np.vstack([pts, np.eye(s.dim), np.ones((1, s.dim))])
    ratio = norm_batch(y, pts) / norm_batch(s, pts)
    return float(ratio.min()), float(ratio.max())


# ---------------------------------------------------------------------------
# sweeps


CSV_COLUMNS = ("kind", "n", "p", "q", "beta", "quantity", "value", "stderr",
               "lower", "upper", "seed")


@dataclass(frozen=True)
class SweepRecord:
    descriptor: SpaceDescriptor
    n: int
    quantity: str
    value: float
    stderr: float = 0.0
    lower: float = None
    upper: float = None
    seed: int = 0

    def row(self):
        """The CSV row: the space's p and beta; for a block sum, beta is its
        first block's, and q that block's p where the block is lp."""
        d = self.descriptor
        first = d.blocks[0] if d.blocks else d
        q = first.p if d.blocks and first.kind == "lp" else None
        return {
            "kind": d.kind, "n": str(self.n), "p": _column(d.p),
            "q": _column(q), "beta": _column(first.beta),
            "quantity": self.quantity, "value": repr(float(self.value)),
            "stderr": repr(float(self.stderr)), "lower": _column(self.lower),
            "upper": _column(self.upper), "seed": str(self.seed),
        }


def _column(x):
    """A number column of a CSV row: blank for None, else its shortest repr
    ("inf" for infinity)."""
    return "" if x is None else repr(float(x))


def records_to_csv(records):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for r in records:
        writer.writerow(r.row())
    return buf.getvalue()


def rows_from_csv(text):
    """Parse emitted CSV back into a list of dicts with typed fields."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    out = []
    for row in csv.DictReader(io.StringIO("\n".join(lines))):
        parsed = dict(row)
        parsed["n"] = int(row["n"])
        parsed["seed"] = int(row["seed"])
        for key in ("value", "stderr"):
            parsed[key] = float(row[key])
        for key in ("lower", "upper"):
            parsed[key] = float(row[key]) if row[key] else None
        for key in ("p", "q"):
            if row[key]:
                parsed[key] = INF if row[key] == "inf" else float(row[key])
            else:
                parsed[key] = None
        parsed["beta"] = float(row["beta"]) if row["beta"] else None
        out.append(parsed)
    return out


def records_to_json(records):
    return json.dumps([r.row() for r in records], indent=2)


def _derived_seed(master, index):
    return int(np.random.SeedSequence([int(master), int(index)])
               .generate_state(1)[0])


def sweep(p=2.0, dims=(4, 8, 16, 32), companion=False,
          quantities=("sep_lower", "sep_upper", "iq"), samples=100_000,
          restarts=8, seed=0, workers=1):
    """Per-dimension separation bounds and geometric quantities of l_p^n.

    Returns a list of SweepRecord in config order; rows carry derived seeds
    so any single row can be reproduced in isolation."""
    records = []
    idx = 0
    for n in dims:
        x = lp(n, p)
        y = companion_space(x) if companion else x
        lower = sep_lower_evr(x) if "sep_lower" in quantities else None
        upper_est = None
        if "sep_upper" in quantities:
            upper_est = sep_upper_two_norm(
                x, y, restarts=restarts, samples=samples,
                seed=_derived_seed(seed, idx), workers=workers)
        if lower is not None:
            records.append(SweepRecord(
                descriptor=x, n=n, quantity="sep_lower",
                value=lower, stderr=0.0, lower=lower,
                upper=None if upper_est is None else upper_est.value,
                seed=_derived_seed(seed, idx)))
        if upper_est is not None:
            records.append(SweepRecord(
                descriptor=y, n=n, quantity="sep_upper",
                value=upper_est.value, stderr=upper_est.stderr,
                lower=lower, upper=upper_est.value,
                seed=upper_est.seed))
        if "iq" in quantities:
            sub = _derived_seed(seed, idx + 500_000)
            est = iq_of(x, samples=samples, seed=sub, workers=workers)
            records.append(SweepRecord(
                descriptor=x, n=n, quantity="iq",
                value=est.value, stderr=est.stderr, seed=sub))
        idx += 1
    return records


def loglog_slope(dims, values):
    """Least-squares slope of log(value) against log(dim)."""
    x, y = _numbers(dims, "dims"), _numbers(values, "values")
    if not (x.ndim == 1 and x.shape == y.shape and np.unique(x).size > 1
            and np.all((x > 0) & (x < INF) & (y > 0) & (y < INF))):
        raise InputError("loglog_slope needs positive finite values at two "
                         "or more distinct positive finite dims")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def sweep_slopes(records):
    """Log-log slope per quantity across a sweep's dimensions."""
    by_quantity = {}
    for r in records:
        by_quantity.setdefault(r.quantity, []).append((r.n, r.value))
    return {q: loglog_slope([n for n, _ in rows], [v for _, v in rows])
            for q, rows in by_quantity.items() if len(rows) >= 2}
