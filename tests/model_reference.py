"""An independent reference for the monoid, circular and determinantal divisor models.

Each model's colours (functional and canonical coefficient), boundary
valuations, simple roots and label aliases are written out here as formulas on
the character lattice, one label at a time:

* monoid m, on eps_1..eps_{m+1}: D_i is alpha_i^vee, 1 at eps_i and -1 at
  eps_{i+1}, also -1 at eps_{m+1} for i = 1, with coefficient -2; X_r pairs 1
  with eps_k for r < k <= m, and 1 with eps_{m+1} when r >= 1.
* circular (m, n, r, s), on eps_1..eps_r, delta_1..delta_s, the sides swapped
  when m > n: D_i is eps_i - eps_{i+1} and E_j is delta_{j+1} - delta_j, with
  coefficient -2.  The exterior colours D_r1, D_r2 (eps_r) and D_s1, D_s2
  (delta_1) have coefficient -(size - (r + s) + 1) on the side of size m (1)
  or n (2).  When r, s > 0 and r + s = size, D_s<side> merges into D_r<side>:
  the functionals add, the coefficient doubles and D_s<side> is an alias.
  When m = n = r + s, X_{r-1,m-r} is eps_r and X_{r,m-r-1} is delta_1.
* determinantal (m, n, r): the circular formulas at s = 0, unswapped, and no
  boundary: the rank <= r - 1 locus has codimension m + n - 2r + 1 >= 3.

Nothing here reads the package's torus, cocharacter or coroot tables, so a
slip in any of them shows as a disagreement that ``first_disagreement`` names.
The canonical coefficients are the paper's rule, an independent reference:
the package derives its own from the coroot tables by Brion's formula
a_D = <2 rho_G - 2 rho_L, alpha^vee> (``families._canonical_coefficients``),
so the comparison checks one derivation against another.
"""

from sphemb.families import admissible_circular_parameters


def model_grid() -> list[str]:
    """The pinned model grid's family specifiers, in order: monoid m = 1..30, every
    ``admissible_circular_parameters(7, 9)`` member in both orientations, and
    determinantal 2 <= m, n <= 6, 1 <= r < min(m, n)."""
    specs = [f"monoid:m={m}" for m in range(1, 31)]
    for m, n, r, s in admissible_circular_parameters(7, 9):
        specs += [f"circular:m={m},n={n},r={r},s={s}", f"circular:m={n},n={m},r={s},s={r}"]
    for m in range(2, 7):
        for n in range(2, 7):
            specs += [f"determinantal:m={m},n={n},r={r}" for r in range(1, min(m, n))]
    return specs


def _vector(size: int, entries: dict[int, int]) -> tuple[int, ...]:
    return tuple(entries.get(k, 0) for k in range(size))


def _monoid(m: int) -> dict:
    size = m + 1
    colours = []
    for i in range(1, m):
        coroot = {i - 1: 1, i: -1}
        if i == 1:
            coroot[m] = -1
        colours.append((f"D_{i}", _vector(size, coroot), -2))
    roots = [(f"alpha_{i}", _vector(size, {i - 1: 1, i: -1}), f"D_{i}") for i in range(1, m)]
    boundaries = [
        (f"X_{r}", tuple(int(k > r) for k in range(1, m + 1)) + (int(r >= 1),)) for r in range(m + 1)
    ]
    return {"colours": colours, "boundaries": boundaries, "roots": roots, "aliases": []}


def _circular(m: int, n: int, r: int, s: int) -> dict:
    size = r + s
    colours = [(f"D_{i}", _vector(size, {i - 1: 1, i: -1}), -2) for i in range(1, r)]
    colours += [(f"E_{j}", _vector(size, {r + j - 1: -1, r + j: 1}), -2) for j in range(1, s)]
    roots = [(f"alpha_{i}", _vector(size, {i - 1: 1, i: -1}), f"D_{i}") for i in range(1, r)]
    roots += [(f"beta_{j}", _vector(size, {r + j - 1: -1, r + j: 1}), f"E_{j}") for j in range(1, s)]
    exterior, aliases = {}, []
    sides = list(enumerate((m, n), start=1))
    if r > 0:
        for side, side_size in sides:
            exterior[f"D_r{side}"] = ({r - 1: 1}, -(side_size - size + 1))
    if s > 0:
        for side, side_size in sides:
            coefficient = -(side_size - size + 1)
            if r > 0 and size == side_size:
                functional, own = exterior[f"D_r{side}"]
                exterior[f"D_r{side}"] = ({**functional, r: 1}, own + coefficient)
                aliases.append((f"D_s{side}", f"D_r{side}"))
            else:
                exterior[f"D_s{side}"] = ({r: 1}, coefficient)
    colours += [(label, _vector(size, f), c) for label, (f, c) in exterior.items()]
    boundaries = []
    if m == n and size == m:
        boundaries = [(f"X_{{{r - 1},{m - r}}}", _vector(size, {r - 1: 1})), (f"X_{{{r},{m - r - 1}}}", _vector(size, {r: 1}))]
    return {"colours": colours, "boundaries": boundaries, "roots": roots, "aliases": aliases}


def reference(name: str, params: dict[str, int]) -> dict:
    """The reference data of a family member: ``colours`` as (label, functional, coefficient),
    ``boundaries`` as (label, valuation), ``roots`` as (label, character, colour label) and
    ``aliases``, each coordinate vector a tuple of ints in lattice order."""
    if name == "monoid":
        return _monoid(params["m"])
    if name == "determinantal":
        m, n, r = params["m"], params["n"], params["r"]
        return {**_circular(m, n, r, 0), "boundaries": []}
    m, n, r, s = (params[k] for k in "mnrs")
    return _circular(m, n, r, s) if m <= n else _circular(n, m, s, r)


def _first_difference(got: list, want: list) -> str | None:
    """The label of the first entry where two lists of labelled records differ, or ``None``."""
    for g, w in zip(got, want):
        if g != w:
            return w[0]
    if len(got) != len(want):
        return (got if len(got) > len(want) else want)[min(len(got), len(want))][0]
    return None


def first_disagreement(model, name: str, params: dict[str, int]) -> str | None:
    """The first label at which ``model`` disagrees with the reference, or ``None``.

    Colours are compared first, then boundaries, simple roots and aliases,
    each in the reference's order; a record that one side lacks is named by
    its label.
    """
    want = reference(name, params)
    functional = {label: f for label, f, _ in want["colours"]}
    got = {
        "colours": [(c.id, tuple(c.functional.coords), c.canonical_coefficient) for c in model.colors],
        "boundaries": [(b.id, tuple(b.valuation.coords)) for b in model.boundaries],
        "roots": [(label, alpha.coords, tuple(alpha_v.coords)) for label, alpha, alpha_v in model.simple_roots.roots],
        "aliases": list(model.label_aliases),
    }
    want_roots = [(label, alpha, functional.get(colour)) for label, alpha, colour in want["roots"]]
    for key, expected in (("colours", want["colours"]), ("boundaries", want["boundaries"]), ("roots", want_roots), ("aliases", want["aliases"])):
        label = _first_difference(got[key], expected)
        if label is not None:
            return label
    return None
