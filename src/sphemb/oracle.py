"""Randomized exact verification at the matrix level.

Every check here works over the rationals with exact arithmetic: t-adic
orders of semi-invariants along generically translated boundary curves
(read by Cauchy-Binet from each semi-invariant's form),
cocharacter limits (ranked by counting where they are monomial),
Jacobian-rank orbit dimensions, Borel semi-invariance of claimed weights
(decided in closed form with no Borel element drawn), and stabilizer
membership with its negative control, both read on the stabilizer's
forward factors.  Randomness is only used to pick Zariski-generic group elements;
identical seeds give identical reports, and disagreement between trials is
reported as instability, never averaged away.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache

from .lattice import sparse_rank
from .laurent import NegativeExponentError
from .realization import ScaledMatrix
from .rootdata import Character, pair


class IdenticallyZeroError(ValueError):
    """The translated composite vanished on every trial."""


class SemiInvarianceError(ValueError):
    """The function is not semi-invariant with the claimed weight."""


@dataclass(frozen=True)
class TOrderResult:
    """t-adic order of a semi-invariant along a translated curve."""

    order: int
    trials: int
    stable: bool


@dataclass(frozen=True)
class LimitSignature:
    limit_point: tuple
    rank_profile: tuple[int, ...]


@dataclass(frozen=True)
class CheckRecord:
    check: str
    inputs: dict
    model_value: object
    oracle_value: object
    match: bool
    trials: int
    stable: bool

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "inputs": self.inputs,
            "model_value": self.model_value,
            "oracle_value": self.oracle_value,
            "match": self.match,
            "trials": self.trials,
            "stable": self.stable,
        }


@dataclass(frozen=True)
class VerificationReport:
    records: tuple[CheckRecord, ...]

    @property
    def passed(self) -> bool:
        """Whether every check matched; a report that ran no check has not passed."""
        return bool(self.records) and all(rec.match for rec in self.records)

    @property
    def stable(self) -> bool:
        return all(rec.stable for rec in self.records)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "stable": self.stable,
            "checks": [rec.to_json_dict() for rec in self.records],
        }


def _check_trials(trials: int, seed: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")


def _vanished_message(f, curve_label: str, trials: int) -> str:
    return f"{f.name} vanished identically along {curve_label} on all {trials} trials"


def _order_result(orders: list[int | None]) -> TOrderResult | None:
    finite = [o for o in orders if o is not None]
    if not finite:
        return None
    return TOrderResult(order=min(finite), trials=len(orders), stable=len(set(orders)) == 1 and None not in orders)


def _draws(real, trials: int, seed: int):
    """A thunk of ``group_draws(trials, seed)``: nothing is drawn before its first call, and every call of it returns
    the draws its first call drew.  It lives for one public call, so draws are shared within that call alone."""
    return cache(lambda: real.group_draws(trials, seed))


def _curve_orders(real, functions, curve_labels, draws) -> list[tuple[TOrderResult | None, ...]]:
    """Per curve label, one ``_order_result`` per function, all read in one ``sweep`` after one ``check_forms``; the
    ``draws`` thunk is called only if there is a function to read."""
    real.check_forms(functions)
    lowest = real.sweep(tuple(fn.form for fn in functions), curve_labels, draws() if functions else ())
    return [tuple(_order_result([term and term[0] for term in terms]) for terms in per_curve) for per_curve in lowest]


def t_order(
    real, f, curve_label: str, trials: int = 8, seed: int = 0
) -> TOrderResult | tuple[TOrderResult | None, ...]:
    """Generic t-adic order of ``f`` along the labelled curve.

    The curve is translated by ``trials`` seeded random group elements
    (``trials`` at least 1, ``seed`` at least 0) and ``f`` is taken as an
    exact polynomial in t; the generic order is the minimum over trials, with
    ``stable`` recording all-trials agreement.  The elements are the first
    ``trials`` draws of ``Random(seed)`` (``group_draws``), drawn once per
    call, so every function sees the same ones.  Each function's
    form is read by Cauchy-Binet on those draws, without building the
    translate (``MatrixRealization.sweep``).

    ``f`` may also be a tuple of semi-invariants: every function is then
    read on the same seeded draws, and the result is a tuple with one
    ``TOrderResult`` per function, or ``None`` for a function that vanished
    on every trial.  A single function that vanished on every trial raises
    ``IdenticallyZeroError``.  A form that cannot be read on the
    realization's arrows raises ``ValueError`` (``check_forms``).
    """
    _check_trials(trials, seed)
    real.curve(curve_label)  # KeyError for an unknown label, also with no function to read
    (results,) = _curve_orders(real, f if isinstance(f, tuple) else (f,), (curve_label,), _draws(real, trials, seed))
    if isinstance(f, tuple):
        return results
    if results[0] is None:
        raise IdenticallyZeroError(_vanished_message(f, curve_label, trials))
    return results[0]


def limit_signature(real, curve_label: str) -> LimitSignature:
    """Limit of the curve at t=0 with per-block ranks, taken on integers: one ``ScaledMatrix`` per arrow, on the
    base point's scale and shape.

    Of the curve's entries c t^e (``monomial_entries``) those with e = 0 stay
    and those with e > 0 drop; an entry with e < 0 has no limit and raises
    ``NegativeExponentError``.  A realization with curves has a monomial base
    point, so the kept entries lie in distinct rows and columns, and their
    count is the rank.
    """
    limits, ranks = [], []
    for arrow, x in enumerate(real.base_point):
        entries = real.monomial_entries(curve_label, arrow)
        if any(e < 0 for *_, e in entries):
            raise NegativeExponentError("no limit at t=0: negative powers of t present")
        kept, (rows, cols) = {(i, j): c for i, j, c, e in entries if e == 0}, x.shape
        limits.append(ScaledMatrix(x.scale, x.shape, [[kept.get((i, j), 0) for j in range(cols)] for i in range(rows)]))
        ranks.append(len(kept))
    return LimitSignature(limit_point=tuple(limits), rank_profile=tuple(ranks))


def orbit_dimension(real, point=None) -> int:
    """Rank of the infinitesimal group action at a point, one ``ScaledMatrix`` per arrow (default: base point).

    Exact over the rationals and deterministic: ``sparse_rank`` of the sparse ``tangent_rows``.
    """
    return sparse_rank(real.tangent_rows(real.base_point if point is None else point))


def _borel_failures(real, candidates, first_draw) -> list[str | None]:
    """Per candidate, ``None`` if it is certified in closed form, else why it is rejected; no Borel element is drawn.

    A shape weight (``borel_exponents``) holds at every point, so a form
    with one that is nonzero at x0 or at x = g . x0 (g from ``first_draw()``,
    x built by ``act`` only if needed) is certified if it is the claimed
    weight (``torus_exponents``) and refuted if not.  A form with no shape
    weight is refuted when a root element changes it at x (``root_move``).
    Every other form is undecided and rejected: the check fails closed.
    """
    real.check_forms(candidates)
    moved = cache(lambda: real.act(real.element(first_draw()), real.base_point))
    failures: list[str | None] = []
    for f in candidates:
        derived = real.borel_exponents(f.form)
        root = real.root_move(f.form, moved()) if derived is None else None
        if root:
            reason = "is not Borel semi-invariant: the root element I + E_{1},{2} at factor {0} changes it".format(*root)
        elif derived is None:
            reason = "is undecided: no closed form shows its claimed weight"
        elif not (f.form.ratio(real.base_point)[0] or f.form.ratio(moved())[0]):
            reason = "is undecided: it vanishes at the base point and at its first translate"
        elif derived != real.torus_exponents(f.claimed_weight):
            reason = "does not rescale by its claimed weight under the Borel action"
        else:
            reason = None
        failures.append(reason and f"{f.name} {reason}")
    return failures


def semiinvariance_check(real, f, trials: int = 8, seed: int = 0) -> Character:
    """The claimed weight of ``f`` if ``_borel_failures`` certifies it, else ``SemiInvarianceError`` saying why not.

    Its orbit point g . x0 is built from the first element
    of ``Random(seed)``; the verdict is one at every ``trials`` (at least 1)
    and ``seed``, and ``select_semi_invariants`` gives it too.
    """
    _check_trials(trials, seed)
    (failure,) = _borel_failures(real, (f,), lambda: real.group_draws(1, seed)[0])
    if failure is not None:
        raise SemiInvarianceError(failure)
    return f.claimed_weight


def select_semi_invariants(real, trials: int = 8, seed: int = 0):
    """The candidate semi-invariants whose claimed weights are certified in closed form (``_borel_failures``).

    The others are rejected; the orbit point g . x0 is built from the first
    of the ``trials`` seeded group draws that the boundary orders read.
    """
    _check_trials(trials, seed)
    return _selected(real, _draws(real, trials, seed))


def _selected(real, draws) -> tuple:
    """``select_semi_invariants`` on the ``draws`` thunk, which is called only if some candidate needs g . x0."""
    candidates = real.semi_invariants
    failures = _borel_failures(real, candidates, lambda: draws()[0])
    return tuple(f for f, failure in zip(candidates, failures) if failure is None)


def verify_boundary_valuations(
    model, real, semi_invariants=None, trials: int = 8, seed: int = 0
) -> VerificationReport:
    """Cross-check every model boundary pairing against oracle t-adic orders.

    For each boundary divisor and each verified semi-invariant, the model
    value <chi, nu> is compared with the generic order of the function along
    the boundary's translated curve, all read in one ``sweep`` of the draws.
    A boundary with no curve fails closed: each of its records has no curve
    and no oracle value, ran no trial, and does not match.  The selection,
    when ``semi_invariants`` is ``None``, and the orders read the same draws.
    """
    _check_trials(trials, seed)
    return _boundary_report(model, real, semi_invariants, trials, _draws(real, trials, seed))


def _boundary_report(model, real, semi_invariants, trials: int, draws) -> VerificationReport:
    """``verify_boundary_valuations`` on the ``draws`` thunk of its ``trials`` draws."""
    semi_invariants = _selected(real, draws) if semi_invariants is None else tuple(semi_invariants)
    curve_of = {c.boundary: c.label for c in real.curves}
    labels = [curve_of[spec.id] for spec in model.boundaries if spec.id in curve_of]
    orders = dict(zip(labels, _curve_orders(real, semi_invariants, labels, draws) if labels else ()))
    records = []
    for spec in model.boundaries:
        curve_label = curve_of.get(spec.id)
        results, ran = (orders[curve_label], trials) if curve_label is not None else ((None,) * len(semi_invariants), 0)
        for f, result in zip(semi_invariants, results):
            expected = pair(f.claimed_weight, spec.valuation)
            model_value = expected.numerator if expected.denominator == 1 else str(expected)
            oracle_value = None if result is None else result.order
            records.append(
                CheckRecord(
                    check="boundary_valuation",
                    inputs={"boundary": spec.id, "semi_invariant": f.name, "curve": curve_label},
                    model_value=model_value,
                    oracle_value=oracle_value,
                    match=oracle_value == model_value,
                    trials=ran,
                    # No trial ran on a missing curve, so none disagreed.
                    stable=result.stable if result is not None else not ran,
                )
            )
    return VerificationReport(tuple(records))


def stabilizer_check(real, element) -> bool:
    """Whether the group element, a tuple of units, fixes the base point: exact, with no translate or inverse
    built (``fixes_base_point``)."""
    return real.fixes_base_point(element)


def _exact_record(check: str, inputs: dict, model_value, oracle_value) -> CheckRecord:
    """A deterministic one-trial check, matched when the model and oracle values are equal."""
    return CheckRecord(check, inputs, model_value, oracle_value, model_value == oracle_value, 1, True)


def verification_report(model, real, trials: int = 8, seed: int = 0) -> VerificationReport:
    """Full oracle suite for one family member, as flat check records.

    The group elements are drawn at most once, and only if a check reads
    them: the Borel check's orbit point and the boundary orders share them.
    """
    _check_trials(trials, seed)
    records: list[CheckRecord] = []
    rng = random.Random(seed)

    draws = _draws(real, trials, seed)
    verified = _selected(real, draws)
    for f in verified:
        records.append(
            CheckRecord(
                check="semi_invariant_weight",
                inputs={"semi_invariant": f.name},
                model_value=list(f.claimed_weight.coords),
                oracle_value=list(f.claimed_weight.coords),
                match=True,
                trials=trials,
                stable=True,
            )
        )

    if model is not None and model.boundaries and verified:
        records.extend(_boundary_report(model, real, verified, trials, draws).records)

    for c in real.curves:
        sig = limit_signature(real, c.label)
        records.append(_exact_record("limit_rank_profile", {"curve": c.label}, list(c.limit_ranks), list(sig.rank_profile)))
    dim = orbit_dimension(real)
    records.append(_exact_record("orbit_dimension", {"point": "base"}, real.expected_orbit_dimension, dim))
    element = real.stabilizer_sampler(rng)
    fixed = stabilizer_check(real, element)
    records.append(_exact_record("stabilizer_fixes_base_point", {"element": "sampled stabilizer shape"}, True, fixed))
    # Negative control: the element with one entry bumped moves the base point.
    if real.bump_moves_base_point(element):
        records.append(_exact_record("stabilizer_negative_control", {"element": "perturbed stabilizer shape"}, False, False))

    return VerificationReport(tuple(records))
