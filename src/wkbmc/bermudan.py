"""Bermudan swaption lower bound under a threshold exercise policy.

The exercise rule at each date compares the deflated intrinsic value
against a per-date threshold plus the best still-alive European value
computed from the current state.  Exercise lives only here.  A path
has two stages: a first-date head of ``estimators`` takes it to T1
(the one-shot proxy draw, importance-weighted by the truncated kernel
exactly as in the European case, or log-Euler from time zero at
``level="euler"``, the validation oracle), and the policy
(``_run_policy``) continues it through the dates on a list of legs,
one per date, built once per call by ``_legs``.  After a one-shot head
("lgn", 0 or 1) each leg crosses its gap as the head crossed [0, T1],
by the same anchored pair with its start one state per row instead of
one for all rows: one draw of the live rates from the lognormal proxy
anchored at the row's own state, weighted by a level-1 kernel built at
l0's trailing block (``estimators._proxy_transition``), whatever the
head's level.  A path's weight is its head weight times its transition
weights up to its stop.  After the Euler head each leg is fine
log-Euler steps and weighs nothing.  ``_continued`` joins the two into
one head of the batch driver: prices and Deltas reduce its payoffs,
and the diagnostics read its stops, each path counted with its path
weight.  Thresholds are fitted by a backward sweep over pseudo-random
level-1 one-shot paths, left to run through every date, each exercise
valued with its path weight up to the date and each date's threshold
the exact in-sample best.

The continuation moves only the rows still running: one stopping rule,
the first member's exercise decision, cuts a row from the group, and
each leg draws normals for the rows left alone.  Whether a path still
runs depends only on its past, so the fresh normals keep every path's
law; a stopped path costs no further draws.  Where the normals come
from depends on the call.  The one-shot price ("lgn", 0 or 1) reads all
of a path's normals off the randomly shifted lattice, one point of
``_path_coordinates`` dimensions per row (100 at the case study): the
head takes coordinates 0 .. n - 1 exactly as ``estimators.price`` does,
and each leg the next block, one coordinate per live rate.  A row's
normals, and with them its payoff and path weight, thus do not depend
on which other rows stopped (``wkb._BLAS_ROWS`` keeps the weight's
arithmetic row by row; a row left running alone in its batch is the
exception, as BLAS takes a matrix-vector path for it), and the price's
``sd`` is the spread of its replicate means.  The Delta, the policy fit, the stop diagnostics
and every log-Euler path stay on pseudo-random normals: the head on the
batch's STREAM_XI (or STREAM_EULER) cell and the legs on its
STREAM_CONT generator, read in running order.
It also does only the arithmetic a decision reads: on the way to tenor
date T_i a leg moves the live rates L_i .. L_n alone and draws normals
for them only, one per live rate and running row (Gamma is upper
triangular, so their increments read no other normal).  At a date it
reads those live rates alone too: one pass of bond ratios over them
gives the intrinsic value and the still-alive Europeans (whose
quadratic form runs on the trailing model ``cfg.vs.trailing(i - 1)``),
and the other members' payoffs at a stop read only the legs still
paid.  It prices the Europeans only on the rows whose intrinsic value
reaches the threshold, the only rows that can fire.  The bump pair
shares every block of normals: on a one-shot leg each member
re-anchors at its own state, on a log-Euler step both add one
increment.  The bump-pair audit only flags rows where the down
branch's own decision differs, so it reads the Delta run's paths.

The still-alive European values are deterministic approximations: the
remaining swap is priced by a frozen-weight lognormal formula for the
swap rate (sum-style payoff) or a sum of lognormal caplet values
(per-leg style).  Their only role is ranking exercise decisions, and
they are validated against nested Monte Carlo in the self-test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import lattice, mc
from .estimators import (
    McResult,
    _delta_stencil,
    _estimate,
    _euler_head,
    _int_steps,
    _one_shot_head,
    _proxy_transition,
    anchored_libor_pair,
)
from .lmm import ModelConfig, evolve_log_euler
from .payoffs import (
    SwaptionSpec,
    _payoff_from_ratios,
    bond_ratios,
    report_scale,
    swaption_payoff,
)

__all__ = [
    "AndersenPolicy",
    "black76",
    "still_alive_european",
    "calibrate_policy",
    "save_policy",
    "bermudan_price",
    "bermudan_delta_fd",
    "stopping_disagreement",
    "exercise_frequencies",
]

_MIN_CALIBRATION_PATHS = 10_000


def black76(f, k, v):
    """Undiscounted lognormal call value E[max(F - k, 0)], F ~ LN(f, v^2).

    ``v`` is the total standard deviation of log F over the remaining
    time.  Vectorised; degenerate inputs (v <= 0 or a nonpositive
    forward) fall back to the intrinsic value.
    """
    # imported here so that only Bermudan runs load scipy
    from scipy.special import ndtr

    f = np.asarray(f, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    live = (v > 0.0) & (f > 0.0) & (k > 0.0)
    every = live.all()
    fs, ks, vs = (f, k, v) if every else (np.where(live, a, 1.0) for a in (f, k, v))
    d1 = np.log(fs / ks) / vs + 0.5 * vs
    out = fs * ndtr(d1) - ks * ndtr(d1 - vs)
    if not every:
        out = np.where(live, out, np.maximum(f - k, 0.0))
    return out if out.ndim else float(out)


def still_alive_european(cfg: ModelConfig, x: np.ndarray, i: int, j):
    """Deflated value at T_i of the European swaption exercising at T_j.

    ``x`` holds the forward rates observed at T_i (leading axes are
    batched paths); ``i`` is a 1-based tenor index and ``j`` one later
    index or a sequence of them, each with i <= j <= n.  An int ``j``
    gives shape (...), a sequence of J indices shape (..., J), one
    column per index.  At an int j = i this is the intrinsic value
    exactly; a j = i inside a sequence gets it to rounding.

    The approximation freezes the deflated-bond weights at ``x``.  For
    the sum-style payoff the remaining swap rate is treated as
    lognormal with its frozen-weight instantaneous variance; for the
    per-leg style each leg is a lognormal call on its own rate.  All
    dates share one pass: the annuity, the floating leg and the
    quadratic form ux' a ux over legs j.. are reversed cumulative sums
    over the legs, read off at each j.  Only the live rates L_i .. L_n
    are read.
    """
    js = np.atleast_1d(np.asarray(j))
    if js.ndim != 1 or js.size == 0 or not (1 <= i <= js.min() and js.max() <= cfg.n):
        raise ValueError(f"need 1 <= i <= j <= {cfg.n}, got i={i}, j={j}")
    x = np.asarray(x, dtype=np.float64)
    if np.ndim(j) == 0 and j == i:
        spec = SwaptionSpec(strike=cfg.strike, first_leg=i, style=cfg.payoff_style)
        return swaption_payoff(cfg.delta, x, spec)
    live = x[..., i - 1:]
    out = _europeans(cfg, i, js, live, bond_ratios(cfg.delta[i - 1:], live))
    return out if np.ndim(j) else out[..., 0]


def _europeans(cfg: ModelConfig, i: int, js: np.ndarray, x: np.ndarray, br: np.ndarray):
    """:func:`still_alive_european` at T_i for the indices ``js``, on the live block.

    ``x`` holds the live rates L_i .. L_n at T_i and ``br`` their bond
    ratios; the trailing model ``cfg.vs.trailing(i - 1)`` is theirs
    alone, so no earlier rate enters.  Returns one column per index.
    """
    first = i - 1
    tau = cfg.tenor[js - 1] - cfg.tenor[first]
    j0 = js - i  # columns of the live block
    u = cfg.delta[first:] * br
    if cfg.payoff_style == "per_leg":
        vol = cfg.vol[first:]
        return np.stack([
            np.sum(u[..., k:] * black76(x[..., k:], cfg.strike, vol[k:] * math.sqrt(t)), axis=-1)
            for k, t in zip(j0, tau)
        ], axis=-1)
    vs = cfg.vs.trailing(first)
    ux = u * x
    rows = ux.reshape(-1, ux.shape[-1])
    cross = np.empty_like(rows)
    for part in mc.row_slices(*rows.shape):  # no threaded BLAS product in a batch
        np.matmul(rows[part], vs.a_upper.T, out=cross[part])
    quad = ux * (ux * vs.a_diag + 2.0 * cross.reshape(ux.shape))
    annuity, floating, quad = (
        np.cumsum(c[..., ::-1], axis=-1)[..., ::-1][..., j0] for c in (u, ux, quad))
    v = np.sqrt(tau * quad) / floating
    return annuity * black76(floating / annuity, cfg.strike, v)


def _trigger(cfg: ModelConfig, indices, k: int, states: np.ndarray, floor=None):
    """Intrinsic value and exercise trigger at position k of the date list.

    The trigger is intrinsic minus the best still-alive European over the
    strictly later dates (zero at the last date, where nothing remains).
    Exercise needs trigger >= H_k, so a positive threshold demands a
    premium of intrinsic over the best European still on the table.  That
    premium is essential: the remaining Bermudan is always worth more
    than any single one of its Europeans, and folding the current
    intrinsic into the max instead would clip the trigger at zero and
    make such a demand inexpressible.  Calibrated on the ten-date case
    study, the clipped variant stalls several basis points below the
    strictly-future one.

    Both read only the live rates L_i .. L_n at tenor index i, and one
    pass of bond ratios over them serves the intrinsic value and the
    Europeans.  With a ``floor`` (the threshold the caller compares
    against), the Europeans are priced only on the rows whose intrinsic
    reaches it: in IEEE arithmetic fl(a - x) <= a for x >= 0, so no
    other row can fire.  Those rows report their intrinsic, which stays
    below the floor.  Without one, every row gets its full trigger.
    """
    i = indices[k]
    x = states[:, i - 1:]
    d = cfg.delta[i - 1:]
    br = bond_ratios(d, x)
    intrinsic = _payoff_from_ratios(d, x, br, cfg.strike, cfg.payoff_style)
    later = indices[k + 1:]
    if not later:
        return intrinsic, intrinsic
    rows = slice(None) if floor is None else np.flatnonzero(intrinsic >= floor)
    trig = intrinsic.copy()
    x, br = x[rows], br[rows]
    if x.shape[0]:
        best = _europeans(cfg, i, np.asarray(later), x, br)
        trig[rows] -= np.maximum(best.max(axis=-1), 0.0)
    return intrinsic, trig


# ---------------------------------------------------------------------------
# the policy object and its plain-text persistence


@dataclass(frozen=True)
class AndersenPolicy:
    """One exercise threshold per date, fitted on pre-simulated paths."""

    exercise_indices: tuple[int, ...]
    dates: np.ndarray
    thresholds: np.ndarray
    n_paths: int = 0
    seed: int = 0
    objectives: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", np.asarray(self.dates, dtype=np.float64))
        object.__setattr__(
            self, "thresholds", np.asarray(self.thresholds, dtype=np.float64)
        )
        if len(self.exercise_indices) != self.dates.shape[0]:
            raise ValueError("one date per exercise index")
        if self.dates.shape != self.thresholds.shape:
            raise ValueError("one threshold per exercise date")
        if self.dates.shape[0] == 0:
            raise ValueError("policy needs at least one exercise date")
        if np.any(np.diff(self.dates) <= 0.0):
            raise ValueError("exercise dates must be strictly increasing")
        if not np.all(np.isfinite(self.thresholds)):
            raise ValueError("thresholds must be finite")


def save_policy(policy: AndersenPolicy, path) -> None:
    """Record a fitted policy as text, one 'date threshold' line per date.

    The file documents a fit; nothing reads it back.  ``repr`` floats
    round-trip exactly, so the thresholds can be compared bit for bit.
    """
    lines = [
        "# exercise policy: date threshold",
        f"# paths={policy.n_paths} seed={policy.seed} "
        f"indices={','.join(str(i) for i in policy.exercise_indices)}",
    ]
    for date, thr in zip(policy.dates, policy.thresholds):
        lines.append(f"{float(date)!r} {float(thr)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# threshold calibration on pre-simulated paths


def _fit_threshold(trig, exercised, continued):
    """Exact in-sample best threshold for one date, later dates held fixed.

    The objective mean(trig >= H ? exercised : continued) is piecewise
    constant in H.  With the rows sorted by descending trigger, any H
    exercises a leading block that ends between two distinct triggers
    (or is empty: never exercise), and the block's objective exceeds
    mean(continued) by the cumulative sum of exercised - continued over
    it, divided by the row count.  The best block is the argmax.  Ties:
    0.0 when H = 0 attains the best, otherwise the largest best
    threshold, the smallest trigger that exercises; never exercising
    sits just above the largest trigger, as thresholds must be finite.
    Returns (threshold, objective at it).
    """
    order = np.argsort(trig)[::-1]
    t = trig[order]
    gain = np.concatenate(([0.0], np.cumsum(exercised[order] - continued[order])))
    ends = np.flatnonzero(np.concatenate(([True], t[1:] < t[:-1], [True])))
    j = ends[np.argmax(gain[ends])]  # first maximum: the fewest rows exercised
    if gain[np.count_nonzero(trig >= 0.0)] == gain[j]:  # the block H = 0 exercises
        thr = 0.0
    else:
        thr = float(t[j - 1]) if j else float(np.nextafter(t[0], np.inf))
    return thr, float(np.mean(np.where(trig >= thr, exercised, continued)))


def calibrate_policy(cfg: ModelConfig, n_paths: int = 10_000, seed: int = 0) -> AndersenPolicy:
    """Fit the per-date thresholds on dedicated weighted one-shot paths.

    The paths are the pseudo-random ones :func:`_continued` walks at
    level 1: the level-1 one-shot head at ``cfg.l0`` on the batch's
    STREAM_XI normals, then the level-1 :func:`_legs` on its STREAM_CONT
    generator (the price reads the same head and legs off the lattice
    instead), with the full
    trigger at every date and no path stopped.  Exercising at date k
    pays the intrinsic value times the path weight up to k, the head
    weight times the transition weights, as in :func:`_continued`.  Uses
    a backward sweep: at each date the threshold is the exact in-sample
    maximiser of the average realised weighted payoff over the path set
    with all later thresholds already fixed (one sort and one cumulative
    sum per date, see ``_fit_threshold``).  No path steps on
    ``dt_berm``, so the fit's cost does not grow with T1.  The
    calibration seed must be kept disjoint from evaluation seeds (no
    foresight between fitting and pricing).
    """
    indices = cfg.exercise_indices
    if not indices:
        raise ValueError("config declares no exercise dates")
    if n_paths < _MIN_CALIBRATION_PATHS:
        raise ValueError(
            f"calibration needs at least {_MIN_CALIBRATION_PATHS} paths, got {n_paths}"
        )
    K = len(indices)
    head = _one_shot_head(lambda x: anchored_libor_pair(cfg, cfg.t1, 1, x), [(cfg.l0, 1.0)])
    legs = _legs(cfg, indices, 1)

    def batch(bi, lo, hi):
        group, w, _, cont = head(seed, bi, hi - lo, None)
        rng, log_w, out = cont(), np.zeros(hi - lo), []
        for k, leg in enumerate(legs):
            if leg is not None:
                group, lw = leg(group, rng)
                log_w += lw[0]
            intrinsic, trig = _trigger(cfg, indices, k, group[0])
            out.append((w[0] * np.exp(log_w) * intrinsic, trig))
        return out

    per_batch = mc.map_batches(batch, n_paths)  # [batch][date] -> (exercised, trigger)
    exercised = [np.concatenate([b[k][0] for b in per_batch]) for k in range(K)]
    trigger = [np.concatenate([b[k][1] for b in per_batch]) for k in range(K)]

    value = np.zeros(n_paths)
    thresholds = np.empty(K)
    objectives = np.empty(K)
    for k in reversed(range(K)):
        thresholds[k], objectives[k] = _fit_threshold(trigger[k], exercised[k], value)
        value = np.where(trigger[k] >= thresholds[k], exercised[k], value)
    if np.any(np.diff(objectives) > 1e-12):
        raise RuntimeError("backward sweep objective decreased; calibration is broken")
    return AndersenPolicy(
        exercise_indices=indices,
        dates=cfg.exercise_dates,
        thresholds=thresholds,
        n_paths=n_paths,
        seed=seed,
        objectives=objectives,
    )


# ---------------------------------------------------------------------------
# policy-driven evaluation


def _legs(cfg: ModelConfig, indices, level) -> list:
    """How a path crosses the gaps from T1 to each date of ``indices``.

    One entry per date: None for a date at T1, else ``leg(group, rng)``,
    which moves the group's members to the date and returns them with
    their transition log weights, one array per member (None when
    unweighted).  A leg to tenor index i moves the live rates L_i .. L_n
    of the rows it is handed alone, drawing normals for them in row
    order.  At "euler" it is log-Euler on ``dt_berm``, unweighted, and
    an off-grid gap is refused here, before any path moves; after the
    one-shot heads it is ``estimators._proxy_transition``.
    """
    legs = []
    t_prev = cfg.t1
    for i in indices:
        date, first = cfg.tenor_date(i), i - 1
        if date == t_prev:
            legs.append(None)
        elif level == "euler":
            steps = _int_steps(date - t_prev, cfg.dt_berm, f"gap to exercise date {date}")
            legs.append(partial(_euler_leg, cfg, first, steps))
        else:
            legs.append(_proxy_transition(cfg, first, date - t_prev))
        t_prev = date
    return legs


def _euler_leg(cfg: ModelConfig, first: int, steps: int, group, rng):
    """A log-Euler leg: ``steps`` unweighted ``dt_berm`` steps of the live rates."""
    return evolve_log_euler(cfg, group, steps, cfg.dt_berm, rng, first=first), None


def _path_coordinates(cfg: ModelConfig, indices) -> int:
    """Normals a one-shot path reads: n at the head, then the live rates of each gap."""
    dates = [cfg.t1] + [cfg.tenor_date(i) for i in indices]
    return cfg.n + sum(cfg.n - i + 1 for i, a, b in zip(indices, dates, dates[1:]) if b != a)


class _LatticeLegs:
    """The legs' normals of one batch, read off the shifted lattice.

    ``shift`` is the call's ``lattice.shifts`` over every coordinate of
    a path and ``lo`` the batch's first global row.  The head reads
    coordinates 0 .. n - 1; each leg reads the next block, one coordinate
    per live rate, for the rows it is handed.  ``at(rows)`` stands in for
    a generator for the running ``rows`` (positions in the batch): its
    ``standard_normal((rows, w))`` reads their next w coordinates.  A
    row's normals thus depend on its number and the leg alone, never on
    which other rows stopped.
    """

    def __init__(self, shift: np.ndarray, lo: int, start: int) -> None:
        self.shift, self.lo, self.next = shift, lo, start
        self.rows = None

    def at(self, rows: np.ndarray) -> "_LatticeLegs":
        self.rows = rows
        return self

    def standard_normal(self, size) -> np.ndarray:
        a, b = self.next, self.next + size[1]
        self.next = b
        return lattice.normals(self.shift[:, a:b], self.lo + self.rows, a)


def _run_policy(cfg, policy, group, rng, legs, audit=False):
    """Advance a common-increment group from T1 through the exercise dates.

    ``legs`` are the :func:`_legs` of the policy's dates, drawing from
    ``rng``: a generator, read in running order, or a
    :class:`_LatticeLegs`, which gives each running row its own
    coordinates.  Exercise decisions come from the first group member only
    and are applied to every member (the bump pair shares one stopping
    time); a row the first member stops is cut from the group and moved
    no further, so only the rows still running get normals.  Whether a
    row runs depends only on its past, so fresh normals keep every
    path's law.  With ``audit`` set, the last member also evaluates its
    own trigger on the rows still running and flags each row where its
    decision differs.  A row runs until the first member stops it, so
    the flag is set exactly when the two members' own stopping times
    differ, on the very paths the unaudited run takes.  Each trigger
    prices the Europeans only on the rows whose own intrinsic reaches
    the date's threshold; the other rows cannot fire, so the decisions
    and flags are those of full triggers.

    Returns (payoffs per member, stop positions, disagreement flags, log
    weights per member): a row's log weight sums its transition log
    weights up to its stop.
    """
    B = group[0].shape[0]
    payoffs_out = [np.zeros(B) for _ in group]
    log_w = [np.zeros(B) for _ in group]
    stop_idx = np.full(B, -1, dtype=np.int64)
    differ = np.zeros(B, dtype=bool) if audit else None
    rows = np.arange(B)  # the batch rows the group holds

    indices = policy.exercise_indices
    for k, leg in enumerate(legs):
        if leg is not None:
            group, lw = leg(group, rng.at(rows) if isinstance(rng, _LatticeLegs) else rng)
            if lw is not None:
                for acc, lk in zip(log_w, lw):
                    acc[rows] += lk
        floor = policy.thresholds[k]
        intrinsic, trig = _trigger(cfg, indices, k, group[0], floor)
        fire = trig >= floor
        if audit:
            _, trig_alt = _trigger(cfg, indices, k, group[-1], floor)
            differ[rows] |= (trig_alt >= floor) != fire
        if fire.any():
            hit = rows[fire]
            stop_idx[hit] = k
            payoffs_out[0][hit] = intrinsic[fire]
            spec = SwaptionSpec(strike=cfg.strike, first_leg=indices[k], style=cfg.payoff_style)
            for b in range(1, len(group)):
                payoffs_out[b][hit] = swaption_payoff(cfg.delta, group[b][fire], spec)
            keep = ~fire
            rows = rows[keep]
            if not rows.size:
                break
            group = [g[keep] for g in group]
    return payoffs_out, stop_idx, differ, log_w


def _continued(cfg: ModelConfig, policy: AndersenPolicy, level, stencil, audit=False,
               shift: np.ndarray | None = None):
    """Driver head: the first-date head at ``level``, then ``policy``.

    The first-date head is the one-shot draw at a kernel level, or
    log-Euler from time zero at "euler"; its :func:`_legs` continue it.
    A one-shot head and its legs draw from the batch's STREAM_XI and
    STREAM_CONT generators or, given ``shift`` (the call's
    ``lattice.shifts`` over :func:`_path_coordinates`), read every
    normal of a path off the shifted lattice.  The weights are path
    weights: the head's weight times the transition weights up to the
    row's stop.  The states slot holds (stop positions, disagreement
    flags); the driver's payoff goes unused.
    """
    expected = np.array([cfg.tenor_date(i) for i in policy.exercise_indices])
    if np.max(np.abs(expected - policy.dates)) > 1e-9:
        raise ValueError("policy dates do not sit on this config's tenor grid")
    if policy.dates[0] < cfg.t1 - 1e-9:
        raise ValueError("policy starts before the first tenor date")
    if level == "euler":
        first = _euler_head(cfg, stencil, cfg.t1, cfg.dt_berm)
    else:
        first = _one_shot_head(lambda x: anchored_libor_pair(cfg, cfg.t1, level, x), stencil,
                               None if shift is None else shift[:, :cfg.n])
    legs = _legs(cfg, policy.exercise_indices, level)

    def head(seed, bi, rows, payoff):
        states, w, _, cont = first(seed, bi, rows, None)
        source = cont() if shift is None else _LatticeLegs(shift, bi * mc.BATCH, cfg.n)
        pays, stop, differ, log_w = _run_policy(cfg, policy, states, source, legs, audit)
        if w is not None:
            w = [wk * np.exp(lk) for wk, lk in zip(w, log_w)]
        wv = pays if w is None else [wk * pk for wk, pk in zip(w, pays)]
        return (stop, differ), w, wv, None

    return head


def bermudan_price(
    cfg: ModelConfig,
    policy: AndersenPolicy,
    level=1,
    m: int = 100_000,
    seed: int = 0,
) -> McResult:
    """Lower-bound price: the head at ``level`` to the first date, then ``policy``.

    At the one-shot levels ("lgn", 0, 1) every normal of a path comes off
    the randomly shifted lattice, as in ``estimators.price``: row g is
    point g div R of replicate g mod R, and ``sd`` is the spread of the
    R replicate means.  A path needing more than ``lattice.MAX_DIM``
    coordinates is refused.  At "euler" the paths are pseudo-random.
    """
    stencil = [(cfg.l0, report_scale(cfg))]
    if level == "euler":
        return _estimate(stencil, _continued(cfg, policy, level, stencil), m, seed)
    dims = _path_coordinates(cfg, policy.exercise_indices)
    shift = lattice.shifts(seed, lattice.replicates(m), dims)
    head = _continued(cfg, policy, level, stencil, shift=shift)
    return _estimate(stencil, head, m, seed, replicates=shift.shape[0])


def bermudan_delta_fd(
    cfg: ModelConfig,
    policy: AndersenPolicy,
    i: int,
    h: float,
    level=1,
    m: int = 100_000,
    seed: int = 0,
) -> McResult:
    """Re-anchored central difference of the Bermudan lower bound.

    The bump pair shares the first-date normals, the continuation
    normals, and the stopping decision (taken from the up branch).
    """
    stencil = _delta_stencil(cfg.l0, i, h, partial(report_scale, cfg))
    return _estimate(stencil, _continued(cfg, policy, level, stencil), m, seed)


def _stops(cfg, policy, level, stencil, m: int, seed: int, audit=False):
    """(first member's path weights, stop positions, flags) per batch, in batch order.

    Euler paths come from the model and weigh one each.
    """
    head = _continued(cfg, policy, level, stencil, audit)

    def batch(bi, lo, hi):
        (stop, differ), w, _, _ = head(seed, bi, hi - lo, None)
        return (np.ones(hi - lo) if w is None else w[0]), stop, differ

    return mc.map_batches(batch, m)


def stopping_disagreement(
    cfg: ModelConfig,
    policy: AndersenPolicy,
    i: int,
    h: float,
    level=1,
    m: int = 100_000,
    seed: int = 0,
) -> float:
    """Weighted fraction of bump pairs whose own stopping decisions differ.

    The delta estimator reuses the up branch's decision for the down
    branch; this diagnostic quantifies how often the down branch,
    deciding for itself, would have stopped elsewhere.  It audits the
    very paths :func:`bermudan_delta_fd` prices at the same arguments.
    Each pair counts with the up branch's path weight, so the fraction
    is one under the model, not under the proxy; Euler paths come from
    the model and count once each.
    """
    stencil = _delta_stencil(cfg.l0, i, h, partial(report_scale, cfg))
    disagree = total = 0.0
    for w_up, _, differ in _stops(cfg, policy, level, stencil, m, seed, audit=True):
        disagree += float(np.sum(w_up[differ]))
        total += float(np.sum(w_up))
    return disagree / total


def exercise_frequencies(
    cfg: ModelConfig,
    policy: AndersenPolicy,
    level=1,
    m: int = 100_000,
    seed: int = 0,
) -> np.ndarray:
    """Weighted share of paths stopping at each date; last entry = never.

    Each path counts with its path weight (head and transitions up to
    its stop), so the shares are those of the model, not of the proxy;
    they sum to one.  Euler paths come from the model and count once
    each.
    """
    K = policy.dates.shape[0]
    hist = np.zeros(K + 1)
    for w, stop, _ in _stops(cfg, policy, level, [(cfg.l0, 1.0)], m, seed):
        hist += np.bincount(np.where(stop < 0, K, stop), weights=w, minlength=K + 1)
    return hist / hist.sum()
