"""Batch front-end: JSON in, deterministic reports out.

Commands
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
--oracle each computed quantity is accompanied by its independent
cross-check and any disagreement exits with status 4.  Validation problems
exit 2, resource caps 3.

Environment: STACKYRR_CONDUCTOR_CAP and STACKYRR_TUPLE_CAP replace the
conductor and tuples fields of the `limits.Limits` in force for the run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

from . import limits
from .chartheory import devissage_summary
from .errors import ConsistencyError, ResourceLimitError, ValidationError
from .eulerlab import (
    _strata_parts,
    euler_determinant,
    euler_report,
    euler_series,
    weighted_chi,
)
from .groupoidstack import flattening_bijection, inertia, iterated_inertia, orbits
from .grouptheory import conjugacy_classes
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


@dataclass
class JobSpec:
    """A parsed, validated unit of work."""

    command: str
    inputs: dict = field(default_factory=dict)
    m_max: int = 3
    oracle: bool = False
    variant: str = "top"
    output_path: str | None = None
    fmt: str = "json"


def _load_spec(arg: str):
    """Resolve a CLI argument to parsed JSON: file contents or preset name."""
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            try:
                return json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{arg}: invalid JSON at {exc.lineno}:{exc.colno}: {exc.msg}") from None
    return arg  # treated as a preset name downstream


# -- command implementations -------------------------------------------------


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
        balanced = all(
            s * z == group.order
            for s, z in zip(table.class_sizes, table.centralizer_orders)
        )
        covers = sum(table.class_sizes) == group.order
        result["oracle"] = {
            "class_size_times_centralizer_is_order": balanced,
            "classes_partition_group": covers,
        }
        if not (balanced and covers):
            raise ConsistencyError("conjugacy bookkeeping failed")
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
        by_classes = 0
        base_dec = orbits(gset)
        for rep in base_dec.representatives:
            sg, _ = gset.stabilizer(rep).as_group()
            by_classes += conjugacy_classes(sg).count
        result["oracle"] = {
            "points_by_stabilizers": by_points,
            "points_by_fixed_sets": by_elements,
            "orbits_by_stabilizer_classes": by_classes,
        }
        if by_points != iner.size or by_elements != iner.size or by_classes != dec.count:
            raise ConsistencyError("inertia counting cross-checks disagree")
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
            bij = flattening_bijection(inertia(iterated_inertia(gset, m - 1)), direct)
            agree = (
                chain.size == direct.size
                and orbits(chain).count == orbits(direct).count
                and bij.is_bijective()
            )
            rebuilt.append({"m": m, "points": direct.size, "agrees": agree})
            if not agree:
                raise ConsistencyError(f"iterated inertia mismatch at depth {m}")
        result["oracle"] = {"repeated_inertia": rebuilt}
    return result


def _cmd_series(spec: JobSpec) -> dict:
    gset = gset_from_json(spec.inputs["gset"])
    series = euler_series(gset, spec.m_max)
    result = {"series": series, "m_max": spec.m_max}
    if spec.oracle:
        # chi_m already runs enumeration and recursion; surface the counts
        counts = [int(v * gset.group.order) for v in series]
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
        duality = serre_duality_check(divisor)
        result["oracle"] = {
            "coarse_round_down": oracle,
            "agrees": oracle == chi,
            "serre_duality": duality,
        }
        if oracle != chi or not duality:
            raise ConsistencyError(
                f"Riemann-Roch oracle disagreement: chi={chi}, oracle={oracle}"
            )
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
    if spec.oracle and not summary["invertible"]:
        raise ConsistencyError("trace-map matrix is not invertible")
    return result


def _cmd_weighted(spec: JobSpec) -> dict:
    if "curve" in spec.inputs and spec.inputs["curve"] is not None:
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
        agree = refined_chi == chi
        result["oracle"] = {"refined_chi": refined_chi, "agrees": agree}
        if not agree:
            raise ConsistencyError("weighted chi changed under refinement")
    return result


def _cmd_report(spec: JobSpec) -> dict:
    result: dict = {}
    if spec.inputs.get("gset") is not None:
        gset = gset_from_json(spec.inputs["gset"])
        table = conjugacy_classes(gset.group)
        rep = euler_report(gset, spec.m_max)
        summary = devissage_summary(gset)
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
            part["divisor"] = {
                "degree": degree(divisor),
                "chi": euler_char_rr(divisor),
                "coarse_oracle": coarse_rr_oracle(divisor),
            }
        result["curve"] = part
    if not result:
        raise ValidationError("report needs --gset and/or --curve")
    return result


_COMMANDS = {
    "classes": _cmd_classes,
    "inertia": _cmd_inertia,
    "euler": _cmd_euler,
    "series": _cmd_series,
    "rr": _cmd_rr,
    "devissage": _cmd_devissage,
    "weighted": _cmd_weighted,
    "report": _cmd_report,
}


def run(spec: JobSpec) -> tuple[int, str]:
    """Execute a job; returns (exit status, rendered report)."""
    try:
        payload = _COMMANDS[spec.command](spec)
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

    def common(p, *, gset=False, group=False, curve=False, divisor=False,
               weights=False, m=False, variant=False):
        if group:
            p.add_argument("--group", required=True, help="group JSON file or preset")
        if gset:
            p.add_argument("--gset", required=gset == "required",
                           help="action JSON file or preset")
        if curve:
            p.add_argument("--curve", required=curve == "required",
                           help="curve JSON file or preset")
        if divisor:
            p.add_argument("--divisor", required=divisor == "required",
                           help="divisor JSON file or preset")
        if weights:
            p.add_argument("--weights", required=True, help="weights JSON file or preset")
        if m:
            p.add_argument("--max-m", type=int, default=3, dest="max_m",
                           help="series depth (default 3)")
        if variant:
            p.add_argument("--variant", choices=["top", "orb"], default="top")
        p.add_argument("--oracle", action="store_true",
                       help="run every independent cross-check and fail loudly")
        p.add_argument("--format", choices=["json", "table"], default="json")
        p.add_argument("--output", help="write the report here instead of stdout")

    common(sub.add_parser("classes", help="conjugacy classes"), group=True)
    common(sub.add_parser("inertia", help="fixed-point pairs"), gset="required")
    common(sub.add_parser("euler", help="Euler characteristics and ladder"),
           gset="required", m=True)
    common(sub.add_parser("series", help="generating series only"),
           gset="required", m=True)
    common(sub.add_parser("rr", help="Riemann-Roch on an orbifold curve"),
           curve="required", divisor="required")
    common(sub.add_parser("devissage", help="trace-map matrix and rank"),
           gset="required")
    common(sub.add_parser("weighted", help="weighted chi and determinant"),
           gset=True, curve=True, weights=True, variant=True)
    common(sub.add_parser("report", help="combined document"),
           gset=True, curve=True, divisor=True, m=True)
    return parser


def jobspec_from_args(args) -> JobSpec:
    inputs = {}
    for kind in ("group", "gset", "curve", "divisor", "weights"):
        value = getattr(args, kind, None)
        inputs[kind] = _load_spec(value) if value is not None else None
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = jobspec_from_args(args)
        if spec.command == "weighted" and not (
            spec.inputs.get("curve") or spec.inputs.get("gset")
        ):
            raise ValidationError("weighted needs --curve or --gset")
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    try:
        caps = _env_caps()
    except ValidationError as exc:
        status, text = EXIT_VALIDATION, _render_error(spec, "validation", str(exc))
    else:
        with limits.using(**caps):
            status, text = run(spec)
    if spec.output_path:
        with open(spec.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
