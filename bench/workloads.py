"""The three benchmark workloads: seeded op generators plus exact checks.

A workload is run in *passes*.  A pass is a list of ops with a fixed mix (the
same family members, query kinds and sizes on every seed and in every pass);
the seed picks the order, the random divisors and characters, the oracle
``--seed`` values and the entries of the synthetic models.  So every seed and
every pass asks for the same amount of work, and the run-to-run spread of the
metrics is the machine's, not the inputs'.

An op is ``Op(label, run, check, digest)``: ``run()`` is the timed call into
sphemb and returns the op's output; ``check(output)`` runs outside the timed
span and returns ``True`` when the output is exactly right; ``digest(output)``
gives the text that goes into the run's output digest.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    digest: Callable[[Any], str]


def _cli(sp, argv):
    """One in-process CLI invocation: (exit code, stdout text)."""
    out = io.StringIO()
    code = sp.cli.run(argv, stdout=out)
    return code, out.getvalue()


def _cli_op(sp, argv, check_result) -> Op:
    def check(output):
        code, text = output
        doc = json.loads(text)
        return code == 0 and doc.get("status") == "ok" and check_result(doc["result"])

    return Op(" ".join(argv), lambda: _cli(sp, argv), check, lambda output: output[1])


def _spec(family: str, params) -> str:
    if family == "monoid":
        return f"monoid:m={params[0]}"
    keys = {"circular": "mnrs", "determinantal": "mnr", "complexes": "lmnrs"}[family]
    return f"{family}:" + ",".join(f"{k}={v}" for k, v in zip(keys, params))


# ---------------------------------------------------------------------------
# Synthetic models with torsion, written as JSON model documents.


def _unimodular(rng: random.Random, n: int) -> list[list[int]]:
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    return m


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def synthetic_model(rng: random.Random, rank: int, free_rank: int, factors: list[int], tag: str):
    """A JSON model document whose class group is Z^free_rank + (+) Z/f.

    The relation matrix (basis characters against labels) is U D V with U, V
    unimodular and D diagonal, so the expected group is known by
    construction.  Returns the document and its relation matrix.
    """
    width = rank + free_rank
    diag = [1] * (rank - len(factors)) + list(factors)
    d = [[diag[i] if i == j else 0 for j in range(width)] for i in range(rank)]
    rel = _matmul(_matmul(_unimodular(rng, rank), d), _unimodular(rng, width))
    n_boundary = rng.randint(1, width - 1)
    labels = [f"B{tag}_{j}" for j in range(n_boundary)] + [f"C{tag}_{j}" for j in range(width - n_boundary)]
    columns = [[str(rel[i][j]) for i in range(rank)] for j in range(width)]
    doc = {
        "lattice": {"rank": rank, "labels": [f"w_{i}" for i in range(rank)]},
        "basis_characters": [[int(i == j) for j in range(rank)] for i in range(rank)],
        "simple_roots": [],
        "colors": [
            {"id": labels[j], "functional": columns[j], "canonical_coefficient": rng.randint(-3, 1)}
            for j in range(n_boundary, width)
        ],
        "boundaries": [{"id": labels[j], "valuation": columns[j]} for j in range(n_boundary)],
    }
    return doc, rel


_TORSION = ([2], [3], [2, 4], [2, 6], [3, 3], [5])


# ---------------------------------------------------------------------------
# oracle-verify


def _verify_check(has_model: bool):
    def check(result):
        validation = result.get("model_validation")
        if has_model != (validation is not None):
            return False
        return result["passed"] and result["stable"] and (validation is None or validation["ok"])

    return check


class OracleVerify:
    """``sphemb verify --trials 8`` over a fixed grid of family members."""

    name = "oracle-verify"
    fresh_import_per_pass = False

    def __init__(self, smoke: bool):
        if smoke:
            self.members = [("monoid", (2,)), ("circular", (2, 2, 1, 1)), ("determinantal", (2, 3, 1)),
                            ("complexes", (1, 2, 1, 1, 1))]
            return
        # One pass takes about 5 s, so a run holds five or more of them.  Of
        # the 46 calls of a pass, the six m=3 calls hold ranks 40..45, so p90
        # (rank 42) is the middle of the m=3 band, and the three circular
        # members with (m, n) = (2, 3), three times each and of like cost,
        # hold ranks 18..26, so p50 (rank 23) is the middle of that band.
        # Neither sits at the edge between two members of unlike cost, where
        # it would jump from run to run.
        members = [("monoid", (4,))] + [("monoid", (3,))] * 6
        members += [("determinantal", (m, n, r)) for m in range(2, 4) for n in range(2, 4) for r in range(1, min(m, n))]
        members += [("circular", p) for p in _admissible_circular(3, 3)]
        members += [("circular", p) for p in _admissible_circular(3, 3) if p[:2] == (2, 3)] * 2
        members += [
            ("complexes", (1, m, n, r, s))
            for m in range(1, 3) for n in range(1, 3)
            for r in range(2) for s in range(n + 1) if r + s <= m
        ]
        self.members = members

    def setup(self, sp, seed: int):
        return None

    def pass_ops(self, sp, state, seed: int, index: int) -> list[Op]:
        # The oracle runs with the CLI's default seed: with oracle seeds drawn
        # from the benchmark seed, 2 of about 700 monoid calls exited 4 (one
        # of the 8 translates was not generic), failing runs at random.
        rng = random.Random(f"{self.name}:{seed}:{index}")
        ops = [
            _cli_op(sp, ["verify", "--family", _spec(family, params), "--trials", "8"],
                    _verify_check(family != "complexes"))
            for family, params in self.members
        ]
        rng.shuffle(ops)
        return ops


def _admissible_circular(max_m: int, max_n: int):
    # Same grid as sphemb.families.admissible_circular_parameters, written out
    # here so the op list does not depend on the code under test.
    out = []
    for m in range(1, max_m + 1):
        for n in range(m, max_n + 1):
            for r in range(m + 1):
                for s in range(m - r + 1):
                    if (r, s) not in {(0, 0), (m, 0), (0, m)}:
                        out.append((m, n, r, s))
    return out


# ---------------------------------------------------------------------------
# divisor-queries


class DivisorQueries:
    """Warm class_of / is_principal / principal_divisor / is_gorenstein queries."""

    name = "divisor-queries"
    fresh_import_per_pass = False
    KINDS = ("class_of", "principal_divisor", "is_principal_random", "is_principal_principal", "is_gorenstein")
    # Queries per pass of each kind, for each circular and synthetic model.
    SMALL_MIX = (2, 1, 1, 1, 0)

    def __init__(self, smoke: bool):
        if smoke:
            self.monoid_mix = {4: (2, 1, 1, 1, 1), 6: (2, 1, 1, 1, 1)}
            self.circular, self.synthetic = [(2, 2, 1, 1), (3, 4, 1, 1)], [(4, 1, [2])]
            return
        # Queries per pass of each kind, by monoid size.  Of the 127 queries
        # of a pass, p50 (rank 64) is the middle of the is_principal and
        # is_gorenstein queries on m=24 (ranks 57..70) and p90 (rank 115) lies
        # among those on m=36 (ranks 93..127): inside bands of queries of like
        # cost, not at the edge between two bands, where they would jump from
        # run to run.
        self.monoid_mix = {24: (7, 5, 6, 6, 2), 30: (7, 5, 5, 5, 2), 36: (7, 5, 14, 14, 7)}
        self.circular = [(4, 6, 2, 1), (5, 7, 2, 2), (6, 8, 3, 1), (6, 8, 1, 4)]
        # (rank, free rank, torsion factors) of each synthetic model.
        self.synthetic = [(8, 1, [2, 4]), (10, 2, [2, 6])]

    def setup(self, sp, seed: int):
        rng = random.Random(f"{self.name}:setup:{seed}")
        dm = sp.divisor_model
        models = []  # (name, model, queries per kind)
        for m, mix in self.monoid_mix.items():
            models.append((f"monoid:m={m}", sp.families.build_family(f"monoid:m={m}").model, mix))
        for params in self.circular:
            spec = _spec("circular", params)
            models.append((spec, sp.families.build_family(spec).model, self.SMALL_MIX))
        for k, (rank, free_rank, factors) in enumerate(self.synthetic):
            doc, _ = synthetic_model(rng, rank, free_rank, factors, f"s{k}")
            models.append((f"synthetic{k}", dm.model_from_json(json.dumps(doc)), self.SMALL_MIX))
        for _, model, _ in models:
            dm.class_group_data(model)
        return models

    def pass_ops(self, sp, models, seed: int, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        dm = sp.divisor_model
        ops = [
            self._op(dm, rng, name, model, kind)
            for name, model, mix in models
            for kind, count in zip(self.KINDS, mix)
            for _ in range(count)
        ]
        rng.shuffle(ops)
        return ops

    def _op(self, dm, rng, name, model, kind) -> Op:
        label = f"{kind} {name}"

        def random_divisor():
            order = model.label_order
            picked = rng.sample(order, rng.randint(1, min(6, len(order))))
            return model.divisor({lab: rng.choice((-3, -2, -1, 1, 2, 3)) for lab in picked})

        def random_character():
            lat = model.weight_lattice
            return lat.character([rng.randint(-3, 3) for _ in range(lat.rank)])

        def zero_class(d):
            return dm.class_of(model, d).is_zero

        def witness_ok(d, flag, chi):
            return flag == zero_class(d) and (not flag or dm.principal_divisor(model, chi) == d)

        if kind == "class_of":
            d, e = random_divisor(), random_divisor()

            def check(cls):
                factors = dm.class_group(model).invariant_factors
                ce, cde = dm.class_of(model, e), dm.class_of(model, d + e)
                free_ok = cde.free == tuple(a + b for a, b in zip(cls.free, ce.free))
                tors_ok = cde.torsion == tuple((a + b) % f for a, b, f in zip(cls.torsion, ce.torsion, factors))
                return free_ok and tors_ok and dm.is_principal(model, d)[0] == cls.is_zero

            return Op(label, lambda: dm.class_of(model, d), check, lambda c: _json(label, c.free, c.torsion, c.generators))

        if kind in ("is_principal_random", "is_principal_principal"):
            d = random_divisor() if kind == "is_principal_random" else dm.principal_divisor(model, random_character())
            must_be_principal = kind == "is_principal_principal"

            def check(out):
                flag, chi = out
                return (flag or not must_be_principal) and witness_ok(d, flag, chi)

            return Op(label, lambda: dm.is_principal(model, d), check,
                      lambda out: _json(label, out[0], out[1].coords if out[1] is not None else None))

        if kind == "principal_divisor":
            chi = random_character()
            return Op(label, lambda: dm.principal_divisor(model, chi), zero_class,
                      lambda div: _json(label, div.coefficients))

        return Op(label, lambda: dm.is_gorenstein(model),
                  lambda flag: flag == zero_class(dm.canonical_divisor(model)), lambda flag: _json(label, flag))


def _json(*parts) -> str:
    return json.dumps(parts, separators=(",", ":"))


# ---------------------------------------------------------------------------
# model-cold

_COMMANDS = ("class-group", "gorenstein", "canonical", "class-of", "divisor")


def _divisor_labels(family: str, params) -> list[str]:
    """Prime-divisor labels (or aliases of them) that the family member has."""
    if family == "monoid":
        (m,) = params
        return [f"D_{i}" for i in range(1, m)] + [f"X_{r}" for r in range(m + 1)]
    if family == "determinantal":
        m, n, r = params
        return [f"D_{i}" for i in range(1, r)] + ["D_r1", "D_r2"]
    m, n, r, s = params
    labels = [f"D_{i}" for i in range(1, r)] + [f"E_{j}" for j in range(1, s)]
    labels += ["D_r1", "D_r2"] if r else []
    labels += ["D_s1", "D_s2"] if s else []
    return labels


def _character_labels(family: str, params) -> list[str]:
    if family == "monoid":
        return [f"eps_{k}" for k in range(1, params[0] + 2)]
    if family == "determinantal":
        return [f"eps_{i}" for i in range(1, params[2] + 1)]
    m, n, r, s = params
    return [f"eps_{i}" for i in range(1, r + 1)] + [f"delta_{j}" for j in range(1, s + 1)]


def _sparse(rng: random.Random, labels) -> str:
    picked = rng.sample(labels, rng.randint(1, min(4, len(labels))))
    return ",".join(f"{lab}:{rng.choice((-2, -1, 1, 2, 3))}" for lab in picked)


class ModelCold:
    """One-shot CLI calls and JSON-model loads, each model once per pass."""

    name = "model-cold"
    # Every pass starts from a fresh import of the package, so no cache built
    # in one pass can answer a call in the next; within a pass each model
    # appears once.
    fresh_import_per_pass = True

    def __init__(self, smoke: bool):
        if smoke:
            self.members = [("monoid", (3,)), ("circular", (2, 2, 1, 1)), ("determinantal", (2, 3, 1))]
            self.n_synthetic = 2
            return
        self.members = [("monoid", (m,)) for m in range(4, 21)]
        self.members += [("determinantal", (m, n, r)) for m in range(2, 6) for n in range(2, 6) for r in range(1, min(m, n))]
        # Circular members with s = 0 have the same model as determinantal
        # ones, so they would turn cold calls into warm ones.
        self.members += [("circular", p) for p in _admissible_circular(5, 7) if p[3]]
        self.n_synthetic = 20

    def setup(self, sp, seed: int):
        return None

    def pass_ops(self, sp, state, seed: int, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        ops = []
        # Commands rotate through each family's members (sorted by size), so
        # every command sees small and large members alike.
        by_family: dict[str, list] = {}
        for family, params in self.members:
            by_family.setdefault(family, []).append(params)
        for family, members in by_family.items():
            for i, params in enumerate(members):
                ops.append(self._family_op(sp, rng, family, params, _COMMANDS[i % len(_COMMANDS)]))
        for k in range(self.n_synthetic):
            rank, factors = 5 + k % 5, list(_TORSION[k % len(_TORSION)])
            ops.append(self._synthetic_op(sp, rng, rank, factors, f"p{index}n{k}"))
        rng.shuffle(ops)
        return ops

    def _family_op(self, sp, rng, family, params, command) -> Op:
        spec = _spec(family, params)
        seed = rng.randrange(10**6)
        argv = [command, "--family", spec, "--seed", str(seed)]
        if command == "class-of":
            argv += ["--divisor", _sparse(rng, _divisor_labels(family, params))]
        if command == "divisor":
            argv += ["--chi", _sparse(rng, _character_labels(family, params))]
        dm = sp.divisor_model

        def check_result(result):
            if command == "class-group":
                gens = result["generators"]
                return result["free_rank"] >= 0 and (gens is None or len(gens) == result["free_rank"])
            if command == "class-of":
                return result["zero"] == (not any(result["free"]) and not any(result["torsion"]))
            if command == "gorenstein":
                if not result["gorenstein"]:
                    return result["witness_character"] is None
                # The witness must reproduce the canonical divisor exactly.
                model = sp.families.build_family(spec, seed=seed).model
                chi = model.character_from_mapping(result["witness_character"])
                return dm.principal_divisor(model, chi) == dm.canonical_divisor(model)
            if command == "canonical":
                return bool(result["divisor"]) and all(isinstance(v, int) and v for v in result["divisor"].values())
            return all(isinstance(v, int) and v for v in result["divisor"].values())

        return _cli_op(sp, argv, check_result)

    def _synthetic_op(self, sp, rng, rank, factors, tag) -> Op:
        doc, rel = synthetic_model(rng, rank, 0, factors, tag)
        text = json.dumps(doc, separators=(",", ":"))
        coeffs = {lab["id"]: rng.randint(-4, 4) for lab in doc["boundaries"] + doc["colors"]}
        dm, lattice = sp.divisor_model, sp.lattice

        def run():
            model = dm.model_from_json(text)
            report = dm.validate_model(model)
            group = dm.class_group(model)
            return report.ok, group, dm.class_of(model, model.divisor(coeffs))

        def check(out):
            ok, group, cls = out
            # Square nonsingular relation matrix: the order of the class group
            # is |det|, computed by Bareiss elimination rather than the SNF.
            det = lattice.determinant(lattice.IntegerMatrix.from_rows(rel))
            order = 1
            for f in group.invariant_factors:
                order *= f
            in_range = all(0 <= t < f for t, f in zip(cls.torsion, group.invariant_factors))
            return ok and group.free_rank == 0 and order == abs(det) and in_range

        return Op(f"synthetic {tag}", run, check,
                  lambda out: _json("synthetic", tag, out[1].free_rank, out[1].invariant_factors, out[2].torsion))


WORKLOADS = {w.name: w for w in (OracleVerify, DivisorQueries, ModelCold)}
