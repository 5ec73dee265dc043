"""Model data for impulse control of a bank investment-to-deposit ratio.

Between capital injections the ratio X follows

    dX = ((c1 - X) * lam(X) + mu_tilde(t) * X) dt + sigma_tilde(t) * X dW,

default arrives as the first jump of a Cox process with deterministic
intensity beta(t), and the controller earns a running utility f(X),
a terminal utility g1(X(T)) on survival, and pays a default penalty
g2(X(tau)) plus (K + kappa) per injection of size K.

Curves are constants, piecewise-linear tables (linear interpolation,
flat extension), or a saturating exponential family
level - scale * exp(-rate * x).  Time curves (mu_tilde, sigma_tilde,
beta) and the state curve lam are restricted to the first two kinds so
that hazard integrals and their inversion are exact.
"""

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

CONSTANT = "constant"
TABLE = "table"
SATURATING = "saturating"
# the keys a curve of each kind reads, besides "kind"
_CURVE_KEYS = {CONSTANT: ("value",), TABLE: ("x", "y"), SATURATING: ("level", "rate", "scale")}


def _spec_object(d, prefix: str) -> dict:
    """d, which must be a JSON object; prefix is its dotted path plus a dot."""
    if not isinstance(d, dict):
        raise ValueError(f"{prefix[:-1] or 'the spec'} must be a JSON object, "
                         f"not {type(d).__name__}")
    return d


def _spec_keys(d, keys, prefix: str = "") -> None:
    """ValueError unless d is a JSON object holding exactly keys, naming by
    its dotted path (prefix + key) each key missing, else each key not in
    keys: a misspelt key would otherwise be silently ignored."""
    missing = [k for k in keys if k not in _spec_object(d, prefix)]
    if missing:
        raise ValueError(f"missing spec key {', '.join(prefix + k for k in missing)}")
    unread = sorted(set(d) - set(keys))
    if unread:
        raise ValueError(f"unknown spec key {', '.join(prefix + k for k in unread)}")


def _number(value, path: str, what: str = "spec key") -> float:
    """value as a float; ValueError naming what and its path unless it is a
    finite JSON number (a boolean would otherwise read as 1.0 or 0.0, and
    Python's json reads NaN, Infinity and -Infinity)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} {path} must be a number, not {type(value).__name__}")
    if not math.isfinite(value):
        raise ValueError(f"{what} {path} must be finite, not {value!r}")
    return float(value)


def _numbers(value, path: str) -> list:
    """value as a list of floats; ValueError naming path unless it is a JSON
    list of finite numbers."""
    if not isinstance(value, list):
        raise ValueError(f"spec key {path} must be a list of numbers, not {type(value).__name__}")
    return [_number(v, path) for v in value]


@dataclass(frozen=True, eq=False)
class Curve:
    """Scalar function of one real variable.

    kind "constant": q -> value.
    kind "table": linear interpolation through (x, y), flat beyond the ends.
    kind "saturating": q -> level - scale * exp(-rate * q), rate > 0, scale > 0,
    nondecreasing and bounded above by level.

    The scalar fields are stored as floats, so every kind returns float64.
    == is identity and a curve hashes by id (a field-wise == would compare
    a table's arrays, which has no truth value); compare two curves by
    their to_dict().
    """

    kind: str
    value: float = 0.0
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    level: float = 0.0
    rate: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in (CONSTANT, TABLE, SATURATING):
            raise ValueError(f"unknown curve kind {self.kind!r}")
        for k in ("value", "level", "rate", "scale"):
            object.__setattr__(self, k, float(getattr(self, k)))
        if self.kind == TABLE:
            x = np.array(self.x, dtype=float)  # a copy: freezing it leaves the caller's array alone
            y = np.array(self.y, dtype=float)
            if x.ndim != 1 or x.shape != y.shape or x.size < 2:
                raise ValueError("table curve needs matching 1-d x and y with at least 2 points")
            if not np.all(np.diff(x) > 0):
                raise ValueError("table abscissae must be strictly increasing")
            x.flags.writeable = False
            y.flags.writeable = False
            object.__setattr__(self, "x", x)
            object.__setattr__(self, "y", y)
        if self.kind == SATURATING and (self.rate <= 0 or self.scale <= 0):
            raise ValueError("saturating curve needs rate > 0 and scale > 0")

    @classmethod
    def constant(cls, value: float) -> "Curve":
        return cls(CONSTANT, value=value)

    @classmethod
    def table(cls, x, y) -> "Curve":
        return cls(TABLE, x=x, y=y)

    @classmethod
    def saturating(cls, level: float, rate: float = 1.0, scale: float = 1.0) -> "Curve":
        return cls(SATURATING, level=level, rate=rate, scale=scale)

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        if self.kind == CONSTANT:
            out = np.full(q.shape, self.value)
        elif self.kind == TABLE:
            out = np.interp(q, self.x, self.y)
        else:  # a finite q far off the grid overflows rate * q; exp(-inf) = 0 is right
            with np.errstate(over="ignore"):
                out = self.level - self.scale * np.exp(-self.rate * q)
        return out if out.shape else float(out)

    def breakpoints(self) -> np.ndarray:
        """Abscissae where the curve may kink (empty for smooth kinds)."""
        if self.kind == TABLE:
            return np.asarray(self.x)
        return np.empty(0)

    def upper_bound(self) -> float:
        """Supremum over the whole real line."""
        if self.kind == CONSTANT:
            return self.value
        if self.kind == TABLE:
            return float(np.max(self.y))
        return self.level

    def is_piecewise_linear(self) -> bool:
        return self.kind in (CONSTANT, TABLE)

    def to_dict(self) -> dict:
        return {"kind": self.kind,
                **{k: np.asarray(getattr(self, k)).tolist() for k in _CURVE_KEYS[self.kind]}}

    @classmethod
    def from_dict(cls, d: dict, prefix: str = "") -> "Curve":
        kind = _spec_object(d, prefix).get("kind")
        if "kind" in d and kind not in tuple(_CURVE_KEYS):  # a tuple: a list kind is unhashable
            raise ValueError(f"spec key {prefix}kind must be one of {', '.join(_CURVE_KEYS)}, "
                             f"not {kind!r}")
        _spec_keys(d, ("kind", *_CURVE_KEYS.get(kind, ())), prefix)
        read = _numbers if kind == TABLE else _number
        values = {k: read(d[k], prefix + k) for k in _CURVE_KEYS[kind]}
        try:
            return cls(kind, **values)
        except ValueError as exc:  # the kind's own conditions, such as increasing x
            raise ValueError(f"spec curve {prefix[:-1]}: {exc}") from None


@dataclass(frozen=True)
class CostParams:
    """Injection cost K + kappa for K in [k_min, k_max], kappa > 0."""

    kappa: float
    k_min: float
    k_max: float

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if not (0 < self.k_min <= self.k_max):
            raise ValueError("need 0 < k_min <= k_max")

    @classmethod
    def from_dict(cls, d: dict, prefix: str = "") -> "CostParams":
        _spec_keys(d, ("kappa", "k_min", "k_max"), prefix)
        return cls(*(_number(d[k], prefix + k) for k in ("kappa", "k_min", "k_max")))


def injection_cost(k, costs: CostParams):
    """Total cost of one injection of size k (scalar or array): k + kappa.

    Merging two injections into one saves exactly one fixed fee:
    cost(k1 + k2) + kappa == cost(k1) + cost(k2).

    solver's certified projection skip assumes cost(k) >= k + kappa for
    every k in [k_min, k_max]; a cheaper cost must change that certificate.
    """
    return k + costs.kappa


class UtilitySpec(NamedTuple):
    """Running, terminal, and default utilities."""

    f: Curve
    g1: Curve
    g2: Curve

    def to_dict(self) -> dict:
        return {"f": self.f.to_dict(), "g1": self.g1.to_dict(), "g2": self.g2.to_dict()}

    @classmethod
    def from_dict(cls, d: dict, prefix: str = "") -> "UtilitySpec":
        _spec_keys(d, ("f", "g1", "g2"), prefix)
        return cls(*(Curve.from_dict(d[k], f"{prefix}{k}.") for k in ("f", "g1", "g2")))


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Full problem data: dynamics coefficients, hazard, utilities, costs.

    == is identity and a spec hashes by id, since its curves may hold
    arrays; two specs are the same problem when their sha256() agree, the
    comparison read_surface_csv makes."""

    c1: float
    T: float
    lam: Curve
    mu_tilde: Curve
    sigma_tilde: Curve
    beta: Curve
    utilities: UtilitySpec
    costs: CostParams

    def __post_init__(self):
        if not 0.0 <= self.c1 <= 1.0:
            raise ValueError("c1 must lie in [0, 1]")
        if not self.T > 0:
            raise ValueError("horizon T must be positive")
        for key, curve in (("mu_tilde", self.mu_tilde), ("sigma_tilde", self.sigma_tilde),
                           ("beta", self.beta), ("lambda", self.lam)):
            if not curve.is_piecewise_linear():
                raise ValueError(f"{key} must be a constant or table curve")

    def to_dict(self) -> dict:
        return {
            "c1": self.c1,
            "T": self.T,
            "lambda": self.lam.to_dict(),
            "mu_tilde": self.mu_tilde.to_dict(),
            "sigma_tilde": self.sigma_tilde.to_dict(),
            "beta": self.beta.to_dict(),
            "utilities": self.utilities.to_dict(),
            "costs": asdict(self.costs),
        }

    def sha256(self) -> str:
        """SHA-256 of the canonical JSON that the CLI config hash embeds."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        _spec_keys(d, ("c1", "T", "lambda", "mu_tilde", "sigma_tilde", "beta", "utilities",
                       "costs"))
        return cls(
            c1=_number(d["c1"], "c1"),
            T=_number(d["T"], "T"),
            lam=Curve.from_dict(d["lambda"], "lambda."),
            mu_tilde=Curve.from_dict(d["mu_tilde"], "mu_tilde."),
            sigma_tilde=Curve.from_dict(d["sigma_tilde"], "sigma_tilde."),
            beta=Curve.from_dict(d["beta"], "beta."),
            utilities=UtilitySpec.from_dict(d["utilities"], "utilities."),
            costs=CostParams.from_dict(d["costs"], "costs."),
        )

    @classmethod
    def from_json(cls, path) -> "ModelSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# coefficient and cost primitives


def drift(t, x, spec: ModelSpec):
    """Ratio drift (c1 - x) * lam(x) + mu_tilde(t) * x."""
    x = np.asarray(x, dtype=float)
    out = (spec.c1 - x) * spec.lam(x) + spec.mu_tilde(t) * x
    return out if out.shape else float(out)


def diffusion(t, x, spec: ModelSpec):
    """Ratio volatility sigma_tilde(t) * x."""
    x = np.asarray(x, dtype=float)
    out = spec.sigma_tilde(t) * x
    return out if out.shape else float(out)


def _sorted_distinct(values) -> np.ndarray:
    """The distinct values, sorted: np.unique for finite input, without the
    numpy.ma import that np.unique makes on its first call (about 14 ms
    and 1.3 MB per process)."""
    a = np.sort(np.ravel(values))
    keep = np.ones(a.shape, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _refined_partition(curve: Curve, t: float, s: float, extra=None) -> np.ndarray:
    """[t, s] plus every curve breakpoint (and extra points) inside."""
    pts = [np.array([t, s])]
    bp = curve.breakpoints()
    if bp.size:
        pts.append(bp[(bp > t) & (bp < s)])
    if extra is not None:
        extra = np.asarray(extra, dtype=float)
        pts.append(extra[(extra > t) & (extra < s)])
    return _sorted_distinct(np.concatenate(pts))


def _hazard_table(curve: Curve, t: float, s: float, extra=None):
    """(knots, values, cumulative) on the refined partition of [t, s]: the
    curve at each knot and its trapezoid integral from t, exact for
    constant and table curves.  This running sum is the package's one
    hazard integral: hazard_grid, survival_grid and invert_hazard read it."""
    knots = _refined_partition(curve, t, s, extra)
    v = curve(knots)
    return knots, v, np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(knots))])


def hazard_grid(curve: Curve, t0: float, s_values: np.ndarray) -> np.ndarray:
    """Cumulative hazard from t0 at each of the (sorted) s_values, exactly."""
    s_values = np.asarray(s_values, dtype=float)
    if s_values.size == 0:
        return np.empty(0)
    if np.any(s_values < t0):
        raise ValueError("need s >= t0")
    hi = float(np.max(s_values))
    if hi == t0:
        return np.zeros(s_values.shape)
    p, _, cum = _hazard_table(curve, t0, hi, extra=s_values)
    return cum[np.searchsorted(p, s_values)]


def survival_grid(spec: ModelSpec, t0: float, s_values: np.ndarray) -> np.ndarray:
    """Survival probability exp(-int_t0^s beta) of the default clock at each
    s value."""
    return np.exp(-hazard_grid(spec.beta, t0, s_values))


def invert_hazard(curve: Curve, t0: float, targets, t_max: float):
    """First time s in [t0, t_max] with int_{t0}^s curve >= target.

    Exact on the piecewise-linear class (piecewise-quadratic cumulative,
    stable quadratic-branch inversion).  Entries whose target exceeds the
    total hazard on [t0, t_max] come back as +inf.
    """
    targets = np.asarray(targets, dtype=float)
    scalar = targets.ndim == 0
    tg = np.atleast_1d(targets)
    knots, v, cum = _hazard_table(curve, t0, t_max)
    out = np.full(tg.shape, np.inf)
    ok = tg <= cum[-1]
    if np.any(ok):
        e = tg[ok]
        idx = np.searchsorted(cum, e, side="left")
        idx = np.clip(idx, 1, len(cum) - 1)
        lo = idx - 1
        rem = e - cum[lo]
        a = v[lo]
        slope = (v[lo + 1] - v[lo]) / (knots[lo + 1] - knots[lo])
        disc = np.maximum(a * a + 2.0 * slope * rem, 0.0)
        denom = a + np.sqrt(disc)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = np.where(rem > 0, 2.0 * rem / denom, 0.0)
        out[ok] = knots[lo] + delta
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# hypothesis validation


class CheckEntry(NamedTuple):
    name: str
    passed: bool
    value: float
    threshold: float | None = None
    worst_point: tuple | None = None
    note: str = ""


class ValidationReport(NamedTuple):
    entries: list
    warnings: list

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list:
        return [e for e in self.entries if not e.passed]

    def entry(self, name: str) -> CheckEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def sampled_lipschitz(fn, points: np.ndarray):
    """Max pairwise difference quotient |fn(xi)-fn(xj)| / |xi-xj| over distinct probes.

    Over sorted probes a wide pair's quotient is a weighted mean of the
    adjacent quotients between them, so the max is attained by neighbours
    and one O(n) pass finds it.
    """
    pts = np.sort(np.asarray(points, dtype=float))
    vals = fn(pts)
    quo = np.abs(np.diff(vals)) / np.diff(pts)
    j = int(np.argmax(quo))
    return float(quo[j]), (float(pts[j]), float(pts[j + 1]))


def validate(spec: ModelSpec, probe_grid) -> ValidationReport:
    """Check the standing hypotheses on finite probe grids.

    Reports sampled Lipschitz constants for lam, f, g1, g2; the
    no-terminal-impulse inequality g1(x) >= max_K g1(x+K) - K - kappa with
    the max over [k_min, k_max] taken exactly, at the probes and at g1's
    knots (a saturating g1's top) and those minus k_min and minus k_max
    inside the probe range, so that a steep segment between two probes is
    not missed; hazard nonnegativity; and the minimum |diffusion| over the
    probe domain as an ellipticity proxy.  Never raises on a violation; the
    report carries a structured failure list instead.

    The ellipticity proxy passes on every spec, by design: the scheme
    (drift upwinded) also solves specs whose diffusion vanishes, such as
    sigma_tilde = 0, and the sweep refuses any spec with a failing entry.
    A zero minimum adds a warning that smooth-fit diagnostics are
    unreliable instead.
    """
    probes = _sorted_distinct(np.asarray(probe_grid, dtype=float))
    if probes.size < 2:
        raise ValueError("need at least two probe points")
    t_sample = _refined_partition(spec.sigma_tilde, 0.0, spec.T, extra=np.linspace(0.0, spec.T, 33))

    rep = ValidationReport([], [])
    u = spec.utilities

    for name, fn in (("lambda", spec.lam), ("f", u.f), ("g1", u.g1), ("g2", u.g2)):
        lip, worst = sampled_lipschitz(fn, probes)
        rep.entries.append(
            CheckEntry(
                name=f"lipschitz_{name}",
                passed=bool(np.isfinite(lip)),
                value=lip,
                worst_point=worst,
                note="max pairwise difference quotient over probes",
            )
        )

    # no profitable terminal impulse: g1(x) >= sup_K g1(x+K) - K - kappa, the
    # sup taken exactly.  For a table g1 the gain is piecewise linear in K,
    # kinked where x + K is a knot; a saturating g1 is concave, with its top
    # where x + K = y* = ln(scale rate) / rate.  So the sup lies at k_min,
    # k_max, or at K = p - x for such a landing point p, clipped to the
    # window.  The margin's minima over x lie at the probe ends, at p and at
    # p minus k_min or k_max, which are all probed
    c = spec.costs
    lands = u.g1.breakpoints()
    if u.g1.kind == SATURATING:
        lands = np.array([(math.log(u.g1.scale) + math.log(u.g1.rate)) / u.g1.rate])
    x_ni = _refined_partition(u.g1, probes[0], probes[-1], extra=np.concatenate(
        [probes, lands - c.k_min, lands - c.k_max]))
    k_sup = np.concatenate([np.broadcast_to([c.k_min, c.k_max], (x_ni.size, 2)),
                            np.clip(lands[None, :] - x_ni[:, None], c.k_min, c.k_max)], axis=1)
    shifted = u.g1(x_ni[:, None] + k_sup) - k_sup - c.kappa
    margins = u.g1(x_ni) - np.max(shifted, axis=1)
    i = int(np.argmin(margins))
    rep.entries.append(
        CheckEntry(
            name="no_terminal_impulse",
            passed=bool(margins[i] >= -1e-12),
            value=float(margins[i]),
            threshold=0.0,
            worst_point=(float(x_ni[i]),),
            note="min over probes of g1(x) - max_K [g1(x+K) - K - kappa]",
        )
    )

    beta_knots = _refined_partition(spec.beta, 0.0, spec.T)
    beta_vals = spec.beta(beta_knots)
    i = int(np.argmin(beta_vals))
    rep.entries.append(
        CheckEntry(
            name="hazard_nonnegative",
            passed=bool(beta_vals[i] >= 0.0),
            value=float(beta_vals[i]),
            threshold=0.0,
            worst_point=(float(beta_knots[i]),),
            note="min of beta over its knots (exact for the admitted class)",
        )
    )

    sig = np.abs(spec.sigma_tilde(t_sample)[:, None] * probes[None, :])
    it, ix = np.unravel_index(int(np.argmin(sig)), sig.shape)
    rep.entries.append(
        CheckEntry(
            name="ellipticity_proxy",
            passed=True,
            value=float(sig[it, ix]),
            worst_point=(float(t_sample[it]), float(probes[ix])),
            note="min |sigma_tilde(t) * x| over probes; informational",
        )
    )
    if float(np.min(probes)) <= 0.0:
        rep.warnings.append("probe grid reaches x <= 0; the volatility degenerates there")
    if float(sig[it, ix]) == 0.0:
        rep.warnings.append("diffusion vanishes on the probe grid; smooth-fit diagnostics unreliable")

    return rep
