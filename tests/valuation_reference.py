"""Boundary valuations solved from oracle t-adic orders, as a test reference.

No family model is built this way: every monoid and circular valuation is
read off a cocharacter table, and the determinantal model has no boundary
divisor.  The solver stays here, beside the test that compares it with the
monoid model, for a model whose valuations are not yet written down (the
varieties of complexes).
"""

from fractions import Fraction

from sphemb.lattice import rational_inverse, rational_rank
from sphemb.oracle import IdenticallyZeroError, _check_trials, _vanished_message, t_order
from sphemb.rootdata import Covector, TorusLattice


class OracleInstabilityError(RuntimeError):
    """Trials disagreed where the generic-translate guarantee demands agreement."""


def rational_solve(rows, rhs):
    """Unique solution of a square nonsingular rational system."""
    inv = rational_inverse(rows)
    return [sum(inv[i][k] * Fraction(rhs[k]) for k in range(len(rhs))) for i in range(len(rhs))]


def infer_boundary_valuation(
    real,
    curve_label: str,
    semi_invariants,
    lattice: TorusLattice,
    trials: int = 8,
    seed: int = 0,
) -> Covector:
    """Solve the boundary valuation functional from oracle t-adic orders.

    Requires the claimed weights of the given semi-invariants to span the
    lattice; the functional is the unique solution of <weight_i, nu> = order_i.
    The chosen functions share one set of translates of the curve.
    """
    _check_trials(trials, seed)
    chosen = []
    rows: list[list[int]] = []
    for f in semi_invariants:
        candidate = rows + [list(f.claimed_weight.coords)]
        if rational_rank(candidate) == len(candidate):
            chosen.append(f)
            rows = candidate
        if len(rows) == lattice.rank:
            break
    if len(rows) != lattice.rank:
        raise ValueError("semi-invariant weights do not span the character lattice")
    orders = []
    for f, result in zip(chosen, t_order(real, tuple(chosen), curve_label, trials=trials, seed=seed)):
        if result is None:
            raise IdenticallyZeroError(_vanished_message(f, curve_label, trials))
        if not result.stable:
            raise OracleInstabilityError(f"unstable order for {f.name} along {curve_label}")
        orders.append(result.order)
    return Covector(lattice, tuple(rational_solve(rows, orders)))
