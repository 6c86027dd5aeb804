"""Batch front-end: JSON in, deterministic reports out.

Commands, each declared once as a row of `_COMMANDS` (help text, inputs,
implementation) from which the parser, the job spec and the input check in
`run` are derived:
    classes    conjugacy table of a group
    inertia    fixed-point pairs and their orbits
    euler      chi_top / chi_orb / chi_phy, the series, and the ladder
    series     the generating-series coefficients only
    rr         Euler characteristic of a fractional divisor on a curve
    devissage  the trace-map matrix with its exact rank certificate
    weighted   weighted Euler characteristic and Euler determinant
    report     the combined document for a G-set or a curve

Every value in a report is an exact integer, rational or cyclotomic number;
repeated runs on identical inputs produce byte-identical output.  With
--oracle each command recomputes its quantities by an independent route
(listed in the README), compares the routes with `errors.agree` and records
the evidence; any disagreement exits with status 4.  Validation problems, a
missing input included, exit 2, resource caps 3.

Environment: STACKYRR_CONDUCTOR_CAP and STACKYRR_TUPLE_CAP replace the
conductor and tuples fields of the `limits.Limits` in force for the run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable

from . import limits
from .chartheory import devissage_summary
from .errors import ConsistencyError, ResourceLimitError, ValidationError, agree
from .eulerlab import (
    _strata_parts,
    euler_determinant,
    euler_report,
    euler_series,
    weighted_chi,
)
from .groupoidstack import flattening_bijection, inertia, iterated_inertia, orbits
from .grouptheory import conjugacy_classes, count_commuting_tuples
from .orbicurve import (
    canonical_divisor,
    chi_orb_curve,
    chi_top_via_inertia,
    coarse_rr_oracle,
    degree,
    euler_char_rr,
    multiplicity,
    serre_duality_check,
)
from .serialize import (
    curve_from_json,
    curve_strata_from_json,
    divisor_from_json,
    encode_value,
    group_from_json,
    gset_from_json,
    gset_strata_from_json,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_ORACLE = 4


def report_schema_version() -> str:
    """The frozen schema identifier embedded in every report."""
    return SCHEMA_VERSION


class JobSpec:
    """A parsed, validated unit of work."""

    __slots__ = ("command", "inputs", "m_max", "oracle", "variant", "output_path", "fmt")

    def __init__(self, command: str, inputs: dict | None = None, m_max: int = 3, oracle=False,
                 variant="top", output_path: str | None = None, fmt="json"):
        self.command, self.inputs, self.m_max = command, {} if inputs is None else inputs, m_max
        self.oracle, self.variant, self.output_path, self.fmt = oracle, variant, output_path, fmt


def _load_spec(arg: str):
    """Resolve a CLI argument to parsed JSON: file contents or preset name."""
    if not os.path.exists(arg):
        return arg  # treated as a preset name downstream
    try:
        with open(arg, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{arg}: invalid JSON at {exc.lineno}:{exc.colno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{arg}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise ValidationError(f"{arg}: cannot read ({exc.strerror})") from None


# -- command implementations -------------------------------------------------
#
# Each oracle block compares its routes with `agree`, which raises (exit 4)
# on any disagreement, so the evidence it records is what both routes gave.


def _cmd_classes(spec: JobSpec) -> dict:
    group = group_from_json(spec.inputs["group"])
    table = conjugacy_classes(group)
    result = {
        "order": group.order,
        "class_count": table.count,
        "classes": [
            {
                "representative": rep,
                "size": size,
                "centralizer_order": cent,
                "element_order": group.element_order(rep),
                "members": list(members),
            }
            for rep, size, cent, members in zip(
                table.representatives,
                table.class_sizes,
                table.centralizer_orders,
                table.classes,
            )
        ],
    }
    if spec.oracle:
        agree("group order, by class sizes and by each size x centralizer order",
              group.order, sum(table.class_sizes),
              *(s * z for s, z in zip(table.class_sizes, table.centralizer_orders)))
        result["oracle"] = {
            "class_size_times_centralizer_is_order": True,
            "classes_partition_group": True,
        }
    return result


def _cmd_inertia(spec: JobSpec) -> dict:
    gset = gset_from_json(spec.inputs["gset"])
    iner = inertia(gset)
    dec = orbits(iner)
    result = {
        "base_points": gset.size,
        "group_order": gset.group.order,
        "inertia_points": iner.size,
        "inertia_orbits": dec.count,
        "pairs": [list(p) for p in iner.pairs],
        "orbit_representatives": [list(iner.pairs[r]) for r in dec.representatives],
    }
    if spec.oracle:
        by_points = sum(len(gset.stabilizer_elements(x)) for x in range(gset.size))
        by_elements = sum(
            sum(1 for x in range(gset.size) if gset.act[x][h] == x)
            for h in range(gset.group.order)
        )
        by_classes = sum(
            conjugacy_classes(gset.stabilizer(rep).as_group()[0]).count
            for rep in orbits(gset).representatives
        )
        agree("inertia points, by stabilizers and by fixed sets",
              iner.size, by_points, by_elements)
        agree("inertia orbits, by stabilizer classes", dec.count, by_classes)
        result["oracle"] = {
            "points_by_stabilizers": by_points,
            "points_by_fixed_sets": by_elements,
            "orbits_by_stabilizer_classes": by_classes,
        }
    return result


def _cmd_euler(spec: JobSpec) -> dict:
    gset = gset_from_json(spec.inputs["gset"])
    rep = euler_report(gset, spec.m_max)
    result = {
        "chi_top": rep.chi_top,
        "chi_orb": rep.chi_orb,
        "chi_phy": rep.chi_phy,
        "series": list(rep.series),
        "ladder": {"m": max(0, spec.m_max - 2), "ok": rep.ladder_verified},
    }
    if spec.oracle:
        rebuilt = []
        chain = gset
        for m in range(1, min(spec.m_max, 3) + 1):
            direct = iterated_inertia(gset, m)
            chain = inertia(chain)
            agree(f"points of I^{m}, direct and by repeated inertia", direct.size, chain.size)
            agree(f"orbits of I^{m}, direct and by repeated inertia",
                  orbits(direct).count, orbits(chain).count)
            bij = flattening_bijection(inertia(iterated_inertia(gset, m - 1)), direct)
            agree(f"flattening of I(I^{m - 1}) onto I^{m} is bijective", True, bij.is_bijective())
            rebuilt.append({"m": m, "points": direct.size, "agrees": True})
        result["oracle"] = {"repeated_inertia": rebuilt}
    return result


def _cmd_series(spec: JobSpec) -> dict:
    gset = gset_from_json(spec.inputs["gset"])
    series = euler_series(gset, spec.m_max)
    result = {"series": series, "m_max": spec.m_max}
    if spec.oracle:
        # a third route beside chi_m's walk and recursion: per orbit,
        # |orbit| times a brute-force count over the stabilizer (Limits.tuples)
        counts = [int(v * gset.group.order) for v in series]
        dec = orbits(gset)
        stabs = [gset.stabilizer(rep).as_group()[0] for rep in dec.representatives]
        brute = [
            sum(len(orbit) * count_commuting_tuples(stab, m, "brute")
                for orbit, stab in zip(dec.orbits, stabs))
            for m in range(spec.m_max + 1)
        ]
        agree("commuting tuple counts, by the series and by brute force", counts, brute)
        result["oracle"] = {"tuple_counts": counts, "group_order": gset.group.order}
    return result


def _cmd_rr(spec: JobSpec) -> dict:
    curve = curve_from_json(spec.inputs["curve"])
    divisor = divisor_from_json(spec.inputs["divisor"], curve)
    chi = euler_char_rr(divisor)
    result = {
        "genus": curve.genus,
        "stacky_orders": [r for _, r in curve.stacky_points],
        "degree": degree(divisor),
        "multiplicities": {
            label: multiplicity(divisor, label) for label, _ in curve.stacky_points
        },
        "chi": chi,
    }
    if spec.oracle:
        oracle = coarse_rr_oracle(divisor)
        agree("chi(D), stacky and coarse round-down", chi, oracle)
        agree("Serre duality chi(D) = -chi(K - D)", True, serre_duality_check(divisor))
        result["oracle"] = {
            "coarse_round_down": oracle,
            "agrees": True,
            "serre_duality": True,
        }
    return result


def _cmd_devissage(spec: JobSpec) -> dict:
    gset = gset_from_json(spec.inputs["gset"])
    summary = devissage_summary(gset)
    result = {
        "inertia_orbits": summary["inertia_orbits"],
        "source_dim": summary["source_dim"],
        "rank": summary["rank"],
        "square": summary["square"],
        "ok": summary["invertible"],
        "matrix": summary["matrix"],
    }
    if spec.oracle:
        _agree_full_rank(summary)
    return result


def _agree_full_rank(summary: dict) -> None:
    agree("trace-map rank, inertia orbits and source dimension",
          summary["rank"], summary["inertia_orbits"], summary["source_dim"])


def _cmd_weighted(spec: JobSpec) -> dict:
    if spec.inputs.get("curve") is not None:
        curve = curve_from_json(spec.inputs["curve"])
        strata = curve_strata_from_json(spec.inputs["weights"], curve)
        refined = strata.refine("@refined")
    else:
        gset = gset_from_json(spec.inputs["gset"])
        strata = gset_strata_from_json(spec.inputs["weights"], gset)
        refined = strata.refine()
    chi = weighted_chi(strata, spec.variant)
    result = {"variant": spec.variant, "chi": chi}
    if all(w for w, _, _ in _strata_parts(strata)):
        det = euler_determinant(strata, spec.variant)
        result["determinant"] = det
        if det.is_integral:
            result["determinant_value"] = det.value()
    if spec.oracle:
        refined_chi = weighted_chi(refined, spec.variant)
        agree("weighted chi, before and after refinement", chi, refined_chi)
        result["oracle"] = {"refined_chi": refined_chi, "agrees": True}
    return result


def _cmd_report(spec: JobSpec) -> dict:
    result: dict = {}
    if spec.inputs.get("gset") is not None:
        gset = gset_from_json(spec.inputs["gset"])
        table = conjugacy_classes(gset.group)
        rep = euler_report(gset, spec.m_max)
        summary = devissage_summary(gset)
        if spec.oracle:
            _agree_full_rank(summary)
        iner = inertia(gset)
        result["gset"] = {
            "group_order": gset.group.order,
            "group_classes": table.count,
            "points": gset.size,
            "orbits": orbits(gset).count,
            "euler": {
                "chi_top": rep.chi_top,
                "chi_orb": rep.chi_orb,
                "chi_phy": rep.chi_phy,
                "series": list(rep.series),
                "ladder_ok": rep.ladder_verified,
            },
            "inertia": {
                "points": iner.size,
                "orbits": orbits(iner).count,
            },
            "devissage": {
                "rank": summary["rank"],
                "source_dim": summary["source_dim"],
                "ok": summary["invertible"],
            },
        }
    if spec.inputs.get("curve") is not None:
        curve = curve_from_json(spec.inputs["curve"])
        kan = canonical_divisor(curve)
        part = {
            "genus": curve.genus,
            "stacky_orders": [r for _, r in curve.stacky_points],
            "chi_orb": chi_orb_curve(curve),
            "chi_top_via_inertia": chi_top_via_inertia(curve),
            "canonical_degree": degree(kan),
            "chi_structure_sheaf": 1 - curve.genus,
        }
        if spec.inputs.get("divisor") is not None:
            divisor = divisor_from_json(spec.inputs["divisor"], curve)
            chi, coarse = euler_char_rr(divisor), coarse_rr_oracle(divisor)
            if spec.oracle:
                agree("chi(D), stacky and coarse round-down", chi, coarse)
            part["divisor"] = {"degree": degree(divisor), "chi": chi, "coarse_oracle": coarse}
        result["curve"] = part
    return result


# -- the command table -------------------------------------------------------

REQUIRED, OPTIONAL, ANY = "required", "optional", "any"

# Every input kind, in --help order, with its help text.
_INPUT_HELP = {
    "group": "group JSON file or preset",
    "gset": "action JSON file or preset",
    "curve": "curve JSON file or preset",
    "divisor": "divisor JSON file or preset",
    "weights": "weights JSON file or preset",
}


class Command:
    """One subcommand: its help line, its inputs and its implementation.

    ``inputs`` maps each input kind the command reads to REQUIRED, OPTIONAL
    or ANY; at least one of the ANY kinds must be given.  The parser, the
    job spec and the input check in `run` are all derived from this row.
    ``depth`` and ``variant`` say whether it takes --max-m and --variant.
    """

    __slots__ = ("help", "inputs", "impl", "depth", "variant")

    def __init__(self, help: str, inputs: dict, impl: Callable[[JobSpec], dict],
                 depth: bool = False, variant: bool = False):
        self.help, self.inputs, self.impl, self.depth, self.variant = (
            help, inputs, impl, depth, variant)


_COMMANDS = {
    "classes": Command("conjugacy classes", {"group": REQUIRED}, _cmd_classes),
    "inertia": Command("fixed-point pairs", {"gset": REQUIRED}, _cmd_inertia),
    "euler": Command("Euler characteristics and ladder", {"gset": REQUIRED}, _cmd_euler,
                     depth=True),
    "series": Command("generating series only", {"gset": REQUIRED}, _cmd_series, depth=True),
    "rr": Command("Riemann-Roch on an orbifold curve",
                  {"curve": REQUIRED, "divisor": REQUIRED}, _cmd_rr),
    "devissage": Command("trace-map matrix and rank", {"gset": REQUIRED}, _cmd_devissage),
    "weighted": Command("weighted chi and determinant",
                        {"gset": ANY, "curve": ANY, "weights": REQUIRED}, _cmd_weighted,
                        variant=True),
    "report": Command("combined document",
                      {"gset": ANY, "curve": ANY, "divisor": OPTIONAL}, _cmd_report,
                      depth=True),
}


def _check_inputs(spec: JobSpec) -> Command:
    """The command's row, once the spec gives exactly the inputs it declares."""
    command = _COMMANDS.get(spec.command)
    if command is None:
        raise ValidationError(f"unknown command {spec.command!r}; one of {', '.join(_COMMANDS)}")
    given = {kind for kind, value in spec.inputs.items() if value is not None}
    extra = sorted(given - command.inputs.keys())
    if extra:
        raise ValidationError(f"{spec.command} takes no --{extra[0]}")
    for kind, need in command.inputs.items():
        if need == REQUIRED and kind not in given:
            raise ValidationError(f"{spec.command} needs --{kind}")
    any_of = [kind for kind, need in command.inputs.items() if need == ANY]
    if any_of and not given.intersection(any_of):
        raise ValidationError(
            f"{spec.command} needs " + " and/or ".join(f"--{kind}" for kind in any_of)
        )
    return command


def run(spec: JobSpec) -> tuple[int, str]:
    """Execute a job; returns (exit status, rendered report)."""
    try:
        payload = _check_inputs(spec).impl(spec)
    except ConsistencyError as exc:
        return EXIT_ORACLE, _render_error(spec, "oracle-disagreement", str(exc))
    except ResourceLimitError as exc:
        return EXIT_RESOURCE, _render_error(spec, "resource-limit", str(exc))
    except (ValidationError, ZeroDivisionError) as exc:
        return EXIT_VALIDATION, _render_error(spec, "validation", str(exc))
    document = {
        "schema": SCHEMA_VERSION,
        "command": spec.command,
        "result": encode_value(payload),
    }
    if spec.fmt == "table":
        return EXIT_OK, _render_table(document)
    return EXIT_OK, json.dumps(document, indent=2, sort_keys=True) + "\n"


def _render_error(spec: JobSpec, kind: str, message: str) -> str:
    doc = {
        "schema": SCHEMA_VERSION,
        "command": spec.command,
        "error": {"kind": kind, "message": message},
    }
    if spec.fmt == "table":
        return f"error ({kind}): {message}\n"
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _render_table(document: dict) -> str:
    lines = [f"# {document['command']} (schema {document['schema']})"]

    def walk(prefix: str, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}{k}.", value[k])
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            for i, item in enumerate(value):
                walk(f"{prefix}{i}.", item)
        else:
            lines.append(f"{prefix[:-1]:<40} {_fmt_scalar(value)}")

    walk("", document["result"])
    return "\n".join(lines) + "\n"


def _fmt_scalar(value) -> str:
    if isinstance(value, list):
        if len(value) == 2 and all(isinstance(x, str) for x in value):
            return f"{value[0]}/{value[1]}"
        return "[" + ", ".join(_fmt_scalar(v) for v in value) + "]"
    return str(value)


def load_report(text: str) -> dict:
    """Parse a report document, rejecting unknown schema versions."""
    data = json.loads(text)
    if not isinstance(data, dict) or data.get("schema") != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported report schema {data.get('schema') if isinstance(data, dict) else data!r}"
        )
    return data


def _env_caps() -> dict:
    """The `Limits` fields set in the environment; unset ones are left out."""
    caps = {}
    for field_name, name in (("conductor", "STACKYRR_CONDUCTOR_CAP"),
                             ("tuples", "STACKYRR_TUPLE_CAP")):
        raw = os.environ.get(name)
        if raw is None:
            continue
        try:
            value = int(raw)
        except ValueError:
            value = None
        if value is None or value < 1:
            raise ValidationError(f"{name} must be a positive integer, got {raw!r}")
        caps[field_name] = value
    return caps


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stackyrr",
        description="Exact inertia, Euler-characteristic and Riemann-Roch reports"
        " for finite quotient stacks and orbifold curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for kind, text in _INPUT_HELP.items():
            if kind in command.inputs:
                p.add_argument(f"--{kind}", required=command.inputs[kind] == REQUIRED,
                               help=text)
        if command.depth:
            p.add_argument("--max-m", type=int, default=3, dest="max_m",
                           help="series depth (default 3)")
        if command.variant:
            p.add_argument("--variant", choices=["top", "orb"], default="top")
        p.add_argument("--oracle", action="store_true",
                       help="run every independent cross-check and fail loudly")
        p.add_argument("--format", choices=["json", "table"], default="json")
        p.add_argument("--output", help="write the report here instead of stdout")
    return parser


def jobspec_from_args(args) -> JobSpec:
    inputs = {}
    for kind in _COMMANDS[args.command].inputs:
        value = getattr(args, kind)
        if value is not None:
            inputs[kind] = _load_spec(value)
    return JobSpec(
        command=args.command,
        inputs=inputs,
        m_max=getattr(args, "max_m", 3),
        oracle=args.oracle,
        variant=getattr(args, "variant", "top"),
        output_path=args.output,
        fmt=args.format,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec = JobSpec(args.command, output_path=args.output, fmt=args.format)
    try:
        spec = jobspec_from_args(args)
        caps = _env_caps()
    except ValidationError as exc:
        status, text = EXIT_VALIDATION, _render_error(spec, "validation", str(exc))
    else:
        with limits.using(**caps):
            status, text = run(spec)
    if spec.output_path:
        try:
            with open(spec.output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            status = EXIT_VALIDATION
            text = _render_error(spec, "validation",
                                 f"{spec.output_path}: cannot write ({exc.strerror})")
        else:
            return status
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
