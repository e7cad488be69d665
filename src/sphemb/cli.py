"""Command-line front end: one subcommand per public operation, JSON out.

Every invocation prints exactly one JSON document to standard output, also on
errors.  Exit codes: 0 success, 2 usage or parameter errors, 3 domain errors,
4 an unstable ``verify`` report, 5 a stable ``verify`` report that did not
pass.  With exit 4 or 5, the report is the document's ``result`` object.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import oracle
from .divisor_model import (
    ForeignLabelError,
    NonIntegralPairingError,
    PicardMembershipError,
    canonical_divisor,
    class_group_data,
    class_of,
    is_principal,
    model_to_json_dict,
    principal_divisor,
    validate_model,
    wonderful_section_divisor,
)
from .families import FamilyParameterError, build_family, parse_integer
from .rootdata import LatticeMismatchError


class UsageError(ValueError):
    pass


class DomainError(ValueError):
    pass


class ReportError(Exception):
    """A ``verify`` report that is unstable (exit 4) or stable but not passed (exit 5)."""

    def __init__(self, message: str, exit_code: int, report: dict):
        super().__init__(message)
        self.exit_code = exit_code
        self.report = report


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _integer_option(text: str) -> int:
    """An integer option's value, read by ``parse_integer``; a bad one is reported as argparse reports a bad ``int``."""
    try:
        return parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


@lru_cache(maxsize=None)
def _build_parser() -> tuple[_Parser, argparse.Action]:
    """The argument parser and its subcommands action, built on first use and shared by every ``run``."""
    parser = _Parser(prog="sphemb", add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--family", required=True, help="family specifier, e.g. monoid:m=3")
        p.add_argument("--trials", type=_integer_option, default=8, help="oracle trials, at least 1; read only by verify")
        p.add_argument("--seed", type=_integer_option, default=0, help="oracle seed, at least 0; read only by verify")

    p = sub.add_parser("class-group")
    common(p)
    p = sub.add_parser("canonical")
    common(p)
    p = sub.add_parser("divisor")
    common(p)
    p.add_argument("--chi", required=True, help="sparse character, label:coeff,label:coeff; repeated labels add up")
    p = sub.add_parser("gorenstein")
    common(p)
    p = sub.add_parser("class-of")
    common(p)
    p.add_argument("--divisor", required=True, help="sparse divisor, label:coeff,label:coeff; repeated labels add up")
    p = sub.add_parser("verify")
    common(p)
    p = sub.add_parser("wonderful-section")
    common(p)
    p.add_argument("--chi", required=True, help="sparse character, label:coeff,label:coeff; repeated labels add up")
    p = sub.add_parser("model")
    common(p)
    p.add_argument("--dump", action="store_true", default=False)
    return parser, sub


def _split_top_level(text: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
            continue
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        current.append(ch)
    parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def _parse_sparse(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for token in _split_top_level(text):
        label, sep, value = token.rpartition(":")
        if not sep or not label:
            raise UsageError(f"malformed entry {token!r}; expected label:coefficient")
        try:
            coeff = parse_integer(value)
        except ValueError:
            raise UsageError(f"coefficient {value!r} is not an integer") from None
        out[label.strip()] = out.get(label.strip(), 0) + coeff
    if not out:
        raise UsageError("empty label:coefficient list")
    return out


def _divisor_dict(order, divisor) -> dict[str, int]:
    coefficients = divisor.as_dict()
    return {lab: coefficients[lab] for lab in order if coefficients.get(lab)}


def _character_dict(model, chi) -> dict[str, int]:
    return {
        lab: c for lab, c in zip(model.weight_lattice.labels, chi.coords) if c != 0
    }


def _dispatch(ns) -> dict:
    if ns.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {ns.trials}")
    if ns.seed < 0:
        raise UsageError(f"--seed must be at least 0, got {ns.seed}")
    bundle = build_family(ns.family)
    if ns.command not in ("verify", "wonderful-section"):
        model = bundle.model
        if model is None:
            raise DomainError(f"family {bundle.name!r} provides a matrix realization only")

    if ns.command == "class-group":
        data = class_group_data(model)
        return {
            "free_rank": data.presentation.free_rank,
            "invariant_factors": list(data.presentation.invariant_factors),
            "generators": list(data.generators) if data.generators is not None else None,
        }

    if ns.command == "canonical":
        return {"divisor": _divisor_dict(model.label_order, canonical_divisor(model))}

    if ns.command == "divisor":
        try:
            chi = model.character_from_mapping(_parse_sparse(ns.chi))
        except KeyError as e:
            raise DomainError(e.args[0]) from None
        return {
            "character": _character_dict(model, chi),
            "divisor": _divisor_dict(model.label_order, principal_divisor(model, chi)),
        }

    if ns.command == "gorenstein":
        principal, witness = is_principal(model, canonical_divisor(model))
        return {
            "gorenstein": principal,
            "witness_character": _character_dict(model, witness) if principal else None,
        }

    if ns.command == "class-of":
        divisor = model.divisor(_parse_sparse(ns.divisor))
        coords = class_of(model, divisor)
        return {
            "free": list(coords.free),
            "torsion": list(coords.torsion),
            "generators": list(coords.generators) if coords.generators is not None else None,
            "zero": coords.is_zero,
        }

    if ns.command == "verify":
        report = oracle.verification_report(bundle.model, bundle.realization, trials=ns.trials, seed=ns.seed)
        doc = report.to_json_dict()
        if bundle.model is not None:
            report_v = validate_model(bundle.model)
            doc["model_validation"] = {"ok": report_v.ok, "failures": list(report_v.failures)}
        total = len(report.records)
        if not report.stable:
            unstable = sum(1 for rec in report.records if not rec.stable)
            raise ReportError(f"oracle report is unstable: trials disagree on {unstable} of {total} checks", 4, doc)
        if not report.passed:
            failed = sum(1 for rec in report.records if not rec.match)
            detail = f"{failed} of {total} checks do not match" if total else "no check ran"
            raise ReportError(f"verification failed: {detail}", 5, doc)
        return doc

    if ns.command == "wonderful-section":
        if bundle.wonderful is None:
            raise DomainError(f"family {bundle.name!r} has no wonderful-compactification data")
        wm = bundle.wonderful
        try:
            chi = wm.lattice.combination(
                (coeff, wm.lattice.basis_character(lab)) for lab, coeff in _parse_sparse(ns.chi).items()
            )
        except KeyError as e:
            raise DomainError(e.args[0]) from None
        divisor = wonderful_section_divisor(wm, chi)
        return {"divisor": _divisor_dict(wm.color_ids, divisor)}

    if ns.command == "model":
        if not ns.dump:
            raise UsageError("the model subcommand requires --dump")
        return model_to_json_dict(model)

    raise UsageError(f"unknown command {ns.command!r}")


def _emit(stream, doc: dict):
    stream.write(json.dumps(doc, separators=(",", ":")) + "\n")


def run(argv, stdout=None) -> int:
    """Dispatch one invocation; returns the process exit code."""
    stdout = stdout or sys.stdout
    command = argv[0] if argv else None
    parser, sub = _build_parser()
    # A known command's own parser reads the rest of argv, as under the top-level parser.
    known = sub.choices.get(command)
    try:
        ns = parser.parse_args(argv) if known is None else known.parse_args(argv[1:], argparse.Namespace(command=command))
    except UsageError as e:
        _emit(stdout, {"command": command, "inputs": {}, "status": "error", "message": str(e)})
        return 2

    inputs = {"family": ns.family}
    for key in ("chi", "divisor", "trials", "seed"):
        if hasattr(ns, key):
            inputs[key] = getattr(ns, key)

    try:
        result = _dispatch(ns)
    except (UsageError, FamilyParameterError) as e:
        _emit(stdout, {"command": ns.command, "inputs": inputs, "status": "error", "message": str(e)})
        return 2
    except (
        DomainError,
        ForeignLabelError,
        NonIntegralPairingError,
        PicardMembershipError,
        LatticeMismatchError,
        oracle.SemiInvarianceError,
        oracle.IdenticallyZeroError,
    ) as e:
        _emit(stdout, {"command": ns.command, "inputs": inputs, "status": "error", "message": str(e)})
        return 3
    except ReportError as e:
        _emit(stdout, {"command": ns.command, "inputs": inputs, "result": e.report, "status": "error", "message": str(e)})
        return e.exit_code

    _emit(stdout, {"command": ns.command, "inputs": inputs, "result": result, "status": "ok"})
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
