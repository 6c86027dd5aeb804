"""The batch front-end: exit statuses, determinism, schema discipline."""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from stackyrr import chartheory, cli, groupoidstack, grouptheory, limits
from stackyrr.cli import (
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_RESOURCE,
    EXIT_VALIDATION,
    JobSpec,
    load_report,
    main,
    report_schema_version,
    run,
)
from stackyrr.errors import ValidationError
from stackyrr.groupoidstack import coset_gset, gset_from_generator_action
from stackyrr.grouptheory import subgroup_conjugacy_reps
from stackyrr.smallgroups import cyclic, group_catalog, symmetric


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def test_schema_version():
    assert report_schema_version() == "1"


def test_euler_preset(capsys):
    status, out, _ = run_cli(capsys, "euler", "--gset", "s3-natural.json", "--max-m", "3")
    assert status == EXIT_OK
    doc = load_report(out)
    assert doc["command"] == "euler"
    assert doc["result"]["series"][0] == ["1", "2"]
    assert doc["result"]["ladder"]["ok"] is True


def test_rr_structure_sheaf(capsys):
    status, out, _ = run_cli(capsys, "rr", "--curve", "p237", "--divisor", "zero")
    assert status == EXIT_OK
    assert load_report(out)["result"]["chi"] == 1


def test_devissage_rank(capsys):
    status, out, _ = run_cli(capsys, "devissage", "--gset", "s3-natural")
    assert status == EXIT_OK
    doc = load_report(out)
    assert doc["result"]["rank"] == 2 and doc["result"]["ok"] is True


def test_validation_exit_code(capsys):
    status, out, _ = run_cli(capsys, "euler", "--gset", "no-such-preset")
    assert status == EXIT_VALIDATION
    payload = json.loads(out)
    assert payload["error"]["kind"] == "validation"
    assert "no-such-preset" in payload["error"]["message"]


def test_resource_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("STACKYRR_TUPLE_CAP", "2")
    status, out, _ = run_cli(capsys, "series", "--gset", "pt-s3", "--max-m", "3")
    assert status == EXIT_RESOURCE
    assert json.loads(out)["error"]["kind"] == "resource-limit"


def test_a_group_table_over_the_group_order_cap_exits_3(tmp_path, capsys):
    path = tmp_path / "z6.json"
    path.write_text(json.dumps({"table": [list(row) for row in cyclic(6).mul]}))
    with limits.using(group_order=5):
        status, out, _ = run_cli(capsys, "classes", "--group", str(path))
    assert status == EXIT_RESOURCE
    assert "exceeds Limits.group_order = 5" in json.loads(out)["error"]["message"]
    assert run_cli(capsys, "classes", "--group", str(path))[0] == EXIT_OK


def test_conductor_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("STACKYRR_CONDUCTOR_CAP", "1000")
    status, _, _ = run_cli(capsys, "inertia", "--gset", "pt-q8")
    assert status == EXIT_OK


def test_deterministic_reports(capsys):
    fixtures = [
        ("classes", "--group", "S4"),
        ("inertia", "--gset", "s3-mixed"),
        ("euler", "--gset", "pt-s3", "--max-m", "3", "--oracle"),
        ("series", "--gset", "pt-z2", "--max-m", "4"),
        ("rr", "--curve", "p23", "--divisor", "weight12", "--oracle"),
        ("devissage", "--gset", "d4-vertices"),
        ("weighted", "--curve", "p23", "--weights", "p23-weights", "--oracle"),
        ("report", "--gset", "s3-natural", "--curve", "p237", "--divisor", "zero"),
    ]
    for argv in fixtures:
        s1, out1, _ = run_cli(capsys, *argv)
        s2, out2, _ = run_cli(capsys, *argv)
        assert s1 == s2 == EXIT_OK, argv
        assert out1 == out2, argv


def test_file_input(tmp_path, capsys):
    spec = {"genus": 1, "stacky": [{"label": "p", "order": 4}]}
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(spec))
    div = tmp_path / "div.json"
    div.write_text(json.dumps([{"label": "p", "num": 5, "den": 4}]))
    status, out, _ = run_cli(capsys, "rr", "--curve", str(path), "--divisor", str(div))
    assert status == EXIT_OK
    doc = load_report(out)
    assert doc["result"]["chi"] == 1  # 5/4 + 1 - 1 - 1/4
    assert doc["result"]["multiplicities"]["p"] == 1


def assert_validation_document(status, out, err, *needles):
    assert status == EXIT_VALIDATION
    assert err == ""
    doc = json.loads(out)
    assert doc["command"] == "rr"
    assert doc["error"]["kind"] == "validation"
    for needle in needles:
        assert needle in doc["error"]["message"]


def test_bad_json_file_is_validation_error(tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text("{not json")
    result = run_cli(capsys, "rr", "--curve", str(path), "--divisor", "zero")
    assert_validation_document(*result, "curve.json", "invalid JSON")


@pytest.mark.parametrize("text, reason", [
    ("[" * 100_000, "recursion depth"),
    ("9" * 5001, "digits"),  # over the integer-string digit limit (4300 by default)
], ids=["deep-nesting", "long-integer"])
def test_json_the_decoder_cannot_hold_is_validation_error(tmp_path, capsys, text, reason):
    path = tmp_path / "gset.json"
    path.write_text(text)
    status, out, err = run_cli(capsys, "inertia", "--gset", str(path))
    assert status == EXIT_VALIDATION and err == ""
    error = json.loads(out)["error"]
    assert error["kind"] == "validation"
    assert error["message"].startswith(f"{path}: invalid JSON") and reason in error["message"]


def test_directory_input_is_validation_error(tmp_path, capsys):
    result = run_cli(capsys, "rr", "--curve", str(tmp_path), "--divisor", "zero")
    assert_validation_document(*result, str(tmp_path), "cannot read")


def test_non_utf8_file_is_validation_error(tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_bytes(b'{"genus": 0, "name": "\xff\xfe"}')
    result = run_cli(capsys, "rr", "--curve", str(path), "--divisor", "zero")
    assert_validation_document(*result, "curve.json", "not UTF-8")


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    status = main(["euler", "--gset", "pt-z2", "--output", str(target)])
    capsys.readouterr()
    assert status == EXIT_OK
    doc = load_report(target.read_text())
    assert doc["result"]["chi_phy"] == 2


def test_output_to_a_directory_is_validation_error(tmp_path, capsys):
    result = run_cli(capsys, "rr", "--curve", "p23", "--divisor", "zero",
                     "--output", str(tmp_path))
    assert_validation_document(*result, str(tmp_path), "cannot write")


def test_output_under_a_missing_directory_is_validation_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    result = run_cli(capsys, "rr", "--curve", "p23", "--divisor", "zero",
                     "--output", str(target))
    assert_validation_document(*result, str(target), "cannot write")
    assert not target.parent.exists()


def test_table_format(capsys):
    status, out, _ = run_cli(capsys, "rr", "--curve", "p23", "--divisor", "zero",
                             "--format", "table")
    assert status == EXIT_OK
    assert out.startswith("# rr (schema 1)")
    assert "chi" in out


def test_no_floats_anywhere(capsys):
    for argv in (
        ("euler", "--gset", "s3-mixed", "--max-m", "3"),
        ("rr", "--curve", "p237", "--divisor", "canonical"),
        ("weighted", "--curve", "p23", "--weights", "p23-weights", "--variant", "orb"),
    ):
        status, out, _ = run_cli(capsys, *argv)
        assert status == EXIT_OK

        def scan(v):
            assert not isinstance(v, float), v
            if isinstance(v, dict):
                for x in v.values():
                    scan(x)
            elif isinstance(v, list):
                for x in v:
                    scan(x)

        scan(json.loads(out))


def test_negative_series_depth_is_validation_error(capsys):
    status, out, _ = run_cli(capsys, "series", "--gset", "pt-z2", "--max-m", "-1")
    assert status == EXIT_VALIDATION
    assert json.loads(out)["error"]["kind"] == "validation"


@pytest.mark.parametrize("argv, command, fragment", [
    (["series"], "series", "required: --gset"),
    (["classes", "--group", "S4", "--format", "xml"], "classes", "invalid choice: 'xml'"),
    (["euler", "--gset", "pt-s3", "--max-m", "1e9"], "euler", "invalid int value: '1e9'"),
    (["bogus", "--gset", "pt-s3"], None, "invalid choice: 'bogus'"),
], ids=["missing-input", "format", "max-m", "unknown-command"])
def test_argument_errors_end_in_the_json_error_document(capsys, argv, command, fragment):
    status, out, err = run_cli(capsys, *argv)
    assert status == EXIT_VALIDATION and err == ""
    doc = json.loads(out)
    assert doc["schema"] == "1" and doc["command"] == command
    assert doc["error"]["kind"] == "validation" and fragment in doc["error"]["message"]


def test_weighted_gset(tmp_path, capsys):
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"points": [2, 2, 2]}))
    status, out, _ = run_cli(
        capsys, "weighted", "--gset", "s3-natural", "--weights", str(weights),
        "--variant", "orb", "--oracle",
    )
    assert status == EXIT_OK
    doc = load_report(out)
    assert doc["result"]["chi"] == 1  # 2 * chi_orb = 2 * (1/2)


@pytest.mark.parametrize("oracle", [(), ("--oracle",)], ids=["plain", "oracle"])
def test_weighted_curve_with_a_point_named_like_the_refinement(tmp_path, capsys, oracle):
    # the refinement carves out a point whose label is not yet a stratum
    curve, weights = tmp_path / "curve.json", tmp_path / "weights.json"
    curve.write_text(json.dumps({"genus": 0, "stacky": [{"label": "a", "order": 2}]}))
    weights.write_text(json.dumps({"open": 2, "points": {"@refined": 3, "a": 1}}))
    status, out, _ = run_cli(capsys, "weighted", "--curve", str(curve), "--weights",
                             str(weights), *oracle)
    assert status == EXIT_OK, out
    result = load_report(out)["result"]
    assert result["chi"] == 4  # 3 + 1 + 2 * (2 - 2)
    assert ("oracle" in result) == bool(oracle)
    if oracle:
        assert result["oracle"] == {"refined_chi": 4, "agrees": True}


def test_load_report_rejects_unknown_schema():
    with pytest.raises(ValidationError):
        load_report(json.dumps({"schema": "99", "command": "euler", "result": {}}))


def test_run_jobspec_directly():
    status, text = run(JobSpec("classes", {"group": "Z4"}))
    assert status == EXIT_OK
    doc = json.loads(text)
    assert doc["result"]["class_count"] == 4


def test_every_preset_kind_accepts_json_suffix(capsys):
    for argv in (
        ("classes", "--group", "S3.json"),
        ("inertia", "--gset", "s3-natural.json"),
        ("rr", "--curve", "p23.json", "--divisor", "weight12.json"),
        ("weighted", "--curve", "p23.json", "--weights", "p23-weights.json"),
    ):
        status, out, _ = run_cli(capsys, *argv)
        plain = [a[:-5] if a.endswith(".json") else a for a in argv]
        assert status == EXIT_OK, argv
        assert out == run_cli(capsys, *plain)[1], argv


@pytest.mark.parametrize("name, spec", [
    ("gset", {"group": "S3", "points": 1, "action": [5]}),
    ("gset", {"group": "S3", "points": 1, "action_generators": [5]}),
    ("curve", {"genus": 0, "stacky": [{"label": "p", "order": "3"}]}),
    ("group", {"permutations": [5]}),
    ("group", {"preset": ["S3"]}),
])
def test_malformed_input_is_json_validation_error(tmp_path, capsys, name, spec):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    argv = {
        "gset": ("inertia", "--gset", str(path)),
        "curve": ("rr", "--curve", str(path), "--divisor", "zero"),
        "group": ("classes", "--group", str(path)),
    }[name]
    status, out, _ = run_cli(capsys, *argv)
    assert status == EXIT_VALIDATION
    assert json.loads(out)["error"]["kind"] == "validation"


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_bad_cap_environment_is_json_validation_error(capsys, monkeypatch, value):
    monkeypatch.setenv("STACKYRR_TUPLE_CAP", value)
    status, out, _ = run_cli(capsys, "series", "--gset", "pt-s3")
    assert status == EXIT_VALIDATION
    error = json.loads(out)["error"]
    assert error["kind"] == "validation" and "STACKYRR_TUPLE_CAP" in error["message"]


@pytest.mark.parametrize("argv_files, fragment", [
    ({"gset": {"group": "S3", "points": True, "action": [[0, 0, 0, 0, 0, 0]]}},
     "'points'"),
    ({"curve": {"genus": True}}, "genus"),
    ({"divisor": [{"label": "p2", "num": True, "den": 2}]}, "num/den"),
    ({"curve": {"genus": 0, "stacky": [{"label": 5, "order": 2}]}}, "label"),
    ({"divisor": [{"label": "p2", "num": 1, "den": 0}]}, "denominator must be nonzero"),
    ({"weights": {"open": 1, "points": []}}, "'points' must be an object"),
    ({"divisor": [{"label": ["a"], "num": 1}]}, "label must be a string"),
    ({"divisor": [{"label": 5, "num": 1}, {"label": "5", "num": 1}]},
     "label must be a string"),
    ({"gset": {"group": "S3", "natural": "yes"}}, "'natural' must be true or false"),
    ({"curve": {"genus": 0, "stacky": 5}}, "'stacky' must be a list"),
], ids=["bool-points", "bool-genus", "bool-divisor-num", "int-label", "zero-den",
        "list-weights", "list-divisor-label", "int-divisor-label", "string-natural",
        "int-stacky"])
def test_strict_json_scalars(tmp_path, capsys, argv_files, fragment):
    (kind, spec), = argv_files.items()
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(spec))
    argv = {
        "gset": ("inertia", "--gset", str(path)),
        "curve": ("rr", "--curve", str(path), "--divisor", "zero"),
        "divisor": ("rr", "--curve", "p23", "--divisor", str(path)),
        "weights": ("weighted", "--curve", "p23", "--weights", str(path)),
    }[kind]
    status, out, _ = run_cli(capsys, *argv)
    assert status == EXIT_VALIDATION
    error = json.loads(out)["error"]
    assert error["kind"] == "validation" and fragment in error["message"]


def test_weights_pair_with_underscore_digits_is_validation_error(tmp_path, capsys):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"open": ["1_0", "1"], "points": {"p2": 7, "p3": 11}}))
    status, out, _ = run_cli(capsys, "weighted", "--curve", "p23", "--weights", str(path))
    assert status == EXIT_VALIDATION
    assert json.loads(out)["error"]["message"].startswith("weights.open: bad rational")


@pytest.mark.parametrize("command", ["series", "euler"])
def test_tuple_cap_trips_before_the_walk(capsys, monkeypatch, command):
    # 2^40 commuting 40-tuples in Z2: the recursive count is over the cap at once
    monkeypatch.delenv("STACKYRR_TUPLE_CAP", raising=False)
    start = time.perf_counter()
    status, out, _ = run_cli(capsys, command, "--gset", "pt-z2", "--max-m", "40")
    assert time.perf_counter() - start < 2
    assert status == EXIT_RESOURCE
    assert f"Limits.tuples = {limits.Limits().tuples}" in json.loads(out)["error"]["message"]


_PERMS = {"permutations": [[1, 0, 2], [1, 2, 0]]}
_SWAPS = {"permutations": [[1, 0], [1, 0]]}


@pytest.mark.parametrize("kind, spec, message", [
    ("group", {"table": []}, "empty multiplication table"),
    ("group", {"table": [[0, 1], [1]]}, "row 1 has length 1, expected 2"),
    ("group", {"table": [[0, 1], [1, 2]]}, "entry 2 in row 1 out of range"),
    ("group", {"table": [[1, 0], [0, 1]]}, "index 0 is not an identity at element 0"),
    ("gset", {"group": "S3", "points": 1, "action": [[0] * 5]},
     "action row 0 has length 5 != 6"),
    ("gset", {"group": "S3", "points": 1, "action": [[0] * 5 + [1]]},
     "action value 1 out of range in row 0"),
    ("gset", {"group": "S3", "points": 2, "action": [[0] * 6]}, "action has 1 rows for 2 points"),
    ("gset", {"group": "S3", "natural": True, "points": 3},
     "natural action excludes keys ['points']"),
    ("gset", {"group": "S3", "action": [[0] * 6]}, "gset spec needs a 'points' count"),
    ("gset", {"group": _PERMS, "points": 3, "action_generators": [[1, 0, 2], [1, 2]]},
     "generator column length differs from 'points'"),
    ("gset", {"group": {"table": [[0, 1], [1, 0]]}, "points": 2, "action_generators": [[1, 0]]},
     "group has no recorded generators"),
    ("gset", {"group": _PERMS, "points": 3, "action_generators": [[1, 0, 2]]},
     "expected 2 generator columns, got 1"),
    ("gset", {"group": _PERMS, "points": 3, "action_generators": [[1, 0, 2], [1, 1, 0]]},
     "generator column for element 2 is not a bijection"),
    ("gset", {"group": _SWAPS, "points": 2, "action_generators": [[1, 0], [0, 1]]},
     "generator column 1 disagrees with element 1 at point 0"),
    ("curve", {"genus": 0, "stacky": [{"label": "p"}]}, "stacky[0] needs 'label' and 'order'"),
    ("divisor", [{"num": 1}], "divisor[0] needs 'label' and 'num'"),
    ("divisor", [{"label": "p2", "num": 1}, {"label": "p2", "num": 1}],
     "label 'p2' listed twice"),
    ("weights", {"open": 1, "points": [1]}, "curve weights 'points' must be an object, got [1]"),
    ("weights", {"points": {}}, "weights spec needs an 'open' weight"),
    ("gset-weights", {}, "gset weights need a 'points' list"),
    ("gset-weights", {"points": 5}, "gset weights need a 'points' list"),
    ("weights", [1], "weights spec must be an object, got [1]"),
    ("gset-weights", [1], "weights spec must be an object, got [1]"),
], ids=["empty-table", "short-row", "entry-out-of-range", "no-identity",
        "action-row-length", "action-value", "action-row-count", "natural-with-points",
        "no-points", "generator-column-length", "table-group-generators",
        "generator-column-count", "column-not-bijection", "duplicate-generators",
        "stacky-without-order", "divisor-without-label", "divisor-label-twice",
        "weights-points-list", "weights-without-open", "gset-weights-empty",
        "gset-weights-points-int", "weights-list", "gset-weights-list"])
def test_every_refusal_of_outside_input_exits_2_with_its_message(tmp_path, capsys, kind, spec,
                                                                 message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(spec))
    argv = {
        "group": ("classes", "--group", str(path)),
        "gset": ("inertia", "--gset", str(path)),
        "curve": ("rr", "--curve", str(path), "--divisor", "zero"),
        "divisor": ("rr", "--curve", "p23", "--divisor", str(path)),
        "weights": ("weighted", "--curve", "p23", "--weights", str(path)),
        "gset-weights": ("weighted", "--gset", "s3-natural", "--weights", str(path)),
    }[kind]
    status, out, err = run_cli(capsys, *argv)
    assert (status, err) == (EXIT_VALIDATION, "")
    error = json.loads(out)["error"]
    assert (error["kind"], error["message"]) == ("validation", message)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


_TUPLES = f"tuple enumeration exceeds Limits.tuples = {limits.Limits().tuples}"
_POINTS = f"iterated fixed-point set exceeds Limits.points = {limits.Limits().points}"


@pytest.mark.parametrize("argv, message, seconds", [
    (["series", "--gset", "pt-s3", "--max-m", "100000"], _TUPLES, 2),
    (["series", "--gset", "pt-s3", "--max-m", str(10**30)], _TUPLES, 2),
    (["euler", "--gset", "pt-z2", "--max-m", "24"], _POINTS, 2),
    (["euler", "--gset", "pt-s3", "--max-m", "14"], _POINTS, 2),
    # a free action's counts stay |X| at every m, so only MAX_DEPTH bounds its length
    (["series", "--gset", "z2-free", "--max-m", "10000000"],
     "m_max 10000000 exceeds MAX_DEPTH = 1000", 1),
    (["euler", "--gset", "z2-free", "--max-m", "100000"],
     "m_max 100000 exceeds MAX_DEPTH = 1000", 1),
], ids=["series-1e5", "series-1e30", "euler-z2", "euler-s3", "series-free-1e7", "euler-free-1e5"])
def test_runs_over_a_cap_are_refused_before_the_work(argv, message, seconds):
    # in a child process held to 1 GiB, so a run that does the work fails fast
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if not k.startswith("STACKYRR_")}
    env["PYTHONPATH"] = str(src)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "stackyrr.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory)
    assert time.perf_counter() - start < seconds
    assert done.returncode == EXIT_RESOURCE
    assert json.loads(done.stdout)["error"]["message"] == message


def test_deep_series_counts_masks_not_tuples(capsys, monkeypatch):
    # S3 has 3 * 2^m + 3^m - 3 commuting m-tuples, 43 million at m = 16;
    # they are counted over a few distinct extension masks, not one by one
    monkeypatch.delenv("STACKYRR_TUPLE_CAP", raising=False)
    start = time.perf_counter()
    status, out, _ = run_cli(capsys, "series", "--gset", "pt-s3", "--max-m", "16")
    assert time.perf_counter() - start < 2
    assert status == EXIT_OK
    series = [["1", "6"]] + [(3 * 2**m + 3**m - 3) // 6 for m in range(1, 17)]
    doc = {"command": "series", "result": {"m_max": 16, "series": series}, "schema": "1"}
    assert out == json.dumps(doc, indent=2) + "\n"


def test_main_keeps_the_callers_limits(capsys, monkeypatch):
    monkeypatch.delenv("STACKYRR_TUPLE_CAP", raising=False)
    with limits.using(tuples=5):
        status, out, _ = run_cli(capsys, "series", "--gset", "pt-s3", "--max-m", "3")
        assert status == EXIT_RESOURCE
        assert "Limits.tuples = 5" in json.loads(out)["error"]["message"]
        assert limits.current().tuples == 5
    assert limits.current() == limits.Limits()


def test_environment_cap_does_not_leak(capsys, monkeypatch):
    monkeypatch.setenv("STACKYRR_TUPLE_CAP", "2")
    status, _, _ = run_cli(capsys, "series", "--gset", "pt-s3", "--max-m", "3")
    assert status == EXIT_RESOURCE
    assert limits.current() == limits.Limits()
    monkeypatch.delenv("STACKYRR_TUPLE_CAP")
    status, _, _ = run_cli(capsys, "series", "--gset", "pt-s3", "--max-m", "3")
    assert status == EXIT_OK


@pytest.mark.parametrize("spec, fragment", [
    (JobSpec("classes", {}), "classes needs --group"),
    (JobSpec("rr", {"curve": "p23"}), "rr needs --divisor"),
    (JobSpec("weighted", {"gset": "s3-natural"}), "weighted needs --weights"),
    (JobSpec("weighted", {"weights": "p23-weights"}), "weighted needs --gset and/or --curve"),
    (JobSpec("report", {"divisor": "zero"}), "report needs --gset and/or --curve"),
    (JobSpec("inertia", {"gset": "s3-natural", "curve": "p23"}), "inertia takes no --curve"),
    (JobSpec("nope"), "unknown command 'nope'"),
], ids=["classes", "rr", "weighted-weights", "weighted-base", "report", "extra", "unknown"])
def test_run_rejects_missing_or_undeclared_inputs(spec, fragment):
    status, text = run(spec)
    assert status == EXIT_VALIDATION
    error = json.loads(text)["error"]
    assert error["kind"] == "validation" and fragment in error["message"]


def test_weighted_without_a_base_is_json_validation_error(capsys):
    status, out, err = run_cli(capsys, "weighted", "--weights", "p23-weights")
    assert status == EXIT_VALIDATION and err == ""
    error = json.loads(out)["error"]
    assert error["kind"] == "validation" and "--gset and/or --curve" in error["message"]


# One run per command in the table; the parametrization below reads the
# table, so a command added without an entry here fails with a KeyError.
ORACLE_RUNS = {
    "classes": ("--group", "S4"),
    "inertia": ("--gset", "s3-mixed"),
    "euler": ("--gset", "pt-s3", "--max-m", "2"),
    "series": ("--gset", "s3-mixed", "--max-m", "3"),
    "rr": ("--curve", "p23", "--divisor", "weight12"),
    "devissage": ("--gset", "d4-vertices"),
    "weighted": ("--curve", "p23", "--weights", "p23-weights"),
    "report": ("--gset", "s3-natural", "--curve", "p237", "--divisor", "canonical"),
}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_oracle_goes_through_agree(capsys, monkeypatch, command):
    calls = []

    def counting(quantity, fast, *independent):
        calls.append(quantity)
        return cli_agree(quantity, fast, *independent)

    cli_agree = cli.agree
    monkeypatch.setattr(cli, "agree", counting)
    status, _, _ = run_cli(capsys, command, *ORACLE_RUNS[command])
    assert status == EXIT_OK and calls == []
    status, _, _ = run_cli(capsys, command, *ORACLE_RUNS[command], "--oracle")
    assert status == EXIT_OK and calls

    def disagreeing(quantity, fast, *independent):
        return cli_agree(quantity, fast, *independent, "a wrong value")

    monkeypatch.setattr(cli, "agree", disagreeing)
    status, out, _ = run_cli(capsys, command, *ORACLE_RUNS[command], "--oracle")
    assert status == EXIT_ORACLE
    assert json.loads(out)["error"]["kind"] == "oracle-disagreement"


def test_euler_oracle_exits_4_when_the_flattening_finds_a_difference(monkeypatch):
    # the nested level with its points 0 and 1 swapped is still an action with
    # the direct level's point and orbit counts, but its columns differ
    def relabeled(gset):
        level = groupoidstack.inertia(gset)
        swap = [1, 0, *range(2, level.size)]
        cols = [[swap[col[swap[x]]] for x in range(level.size)] for col in level.cols]
        return groupoidstack.TowerLevel(level.below, 1, level.offsets, level.last, cols)

    monkeypatch.setattr(cli, "inertia", relabeled)
    status, out = run(JobSpec("euler", {"gset": "s3-natural"}, m_max=2, oracle=True))
    error = json.loads(out)["error"]
    assert (status, error["kind"]) == (EXIT_ORACLE, "oracle-disagreement")
    assert error["message"].startswith("first difference between I(I^0) and I^1: ")
    assert "not equivariant: witness" in error["message"]


def test_euler_oracle_exits_4_when_a_depth_2_column_is_corrupt(capsys, monkeypatch):
    argv = ("euler", "--gset", "s3-natural", "--max-m", "3", "--oracle")
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    build = groupoidstack._level_above

    def corrupt(below, depth, cap):
        level = build(below, depth, cap)
        if depth == 2:  # two entries of the first generator's column swapped
            col = list(level.cols[0])
            col[0], col[1] = col[1], col[0]
            level.cols = (tuple(col), *level.cols[1:])
        return level

    monkeypatch.setattr(groupoidstack, "_level_above", corrupt)
    status, out, _ = run_cli(capsys, *argv)
    error = json.loads(out)["error"]
    assert (status, error["kind"]) == (EXIT_ORACLE, "oracle-disagreement")
    assert error["message"] == "Euler ladder at m=1: chi_phy, chi_top, chi_orb: routes disagree: 4 vs 3 vs 4"


def test_series_exits_4_without_oracle_when_the_commute_masks_drop_the_identity(capsys, monkeypatch):
    # the series always checks its two tuple counts, so no --oracle is needed
    real = grouptheory.FiniteGroup.commute_masks
    monkeypatch.setattr(grouptheory.FiniteGroup, "commute_masks", lambda self: tuple(
        mask & ~1 if g else mask for g, mask in enumerate(real(self))))
    status, out, _ = run_cli(capsys, "series", "--gset", "s3-natural")
    error = json.loads(out)["error"]
    assert (status, error["kind"]) == (EXIT_ORACLE, "oracle-disagreement")
    assert error["message"] == ("commuting 2-tuples, by enumeration and by recursion: "
                                "routes disagree: 9 vs 12")


def test_series_oracle_catches_brute_masks_without_the_identity(capsys, monkeypatch):
    # the brute route's own masks, built from the table, lose every pair
    # (g, 1) with g != 1; the series and its library check read other masks
    real = grouptheory._commute_masks
    monkeypatch.setattr(grouptheory, "_commute_masks", lambda mul: tuple(
        mask & ~1 if g else mask for g, mask in enumerate(real(mul))))
    assert run_cli(capsys, "series", "--gset", "s3-natural")[0] == EXIT_OK
    status, out, _ = run_cli(capsys, "series", "--gset", "s3-natural", "--oracle")
    error = json.loads(out)["error"]
    assert (status, error["kind"]) == (EXIT_ORACLE, "oracle-disagreement")
    assert error["message"] == ("commuting tuple counts, by the series and by brute force: "
                                "routes disagree: [3, 6, 12, 24] vs [3, 6, 9, 12]")


def test_classes_oracle_counts_centralizers_on_the_table(capsys, monkeypatch):
    # with every conjugation row the identity, the sweep finds 24 one-element
    # classes of S4, each with centralizer S4, and the table's counts differ
    monkeypatch.setattr(grouptheory.FiniteGroup, "conj_row",
                        lambda self, g: tuple(range(self.order)))
    status, out, _ = run_cli(capsys, "classes", "--group", "S4")
    assert (status, json.loads(out)["result"]["class_count"]) == (EXIT_OK, 24)
    status, out, _ = run_cli(capsys, "classes", "--group", "S4", "--oracle")
    error = json.loads(out)["error"]
    assert (status, error["kind"]) == (EXIT_ORACLE, "oracle-disagreement")
    assert error["message"].startswith("centralizer orders, by the class sweep and counted")


def test_series_oracle_recounts_by_brute_force(capsys, monkeypatch):
    count = cli.count_commuting_tuples
    argv = ("series", "--gset", "s3-mixed", "--max-m", "3", "--oracle")
    monkeypatch.setattr(cli, "count_commuting_tuples",
                        lambda g, m, algorithm: count(g, m, algorithm) + (m == 2))
    status, out, _ = run_cli(capsys, *argv)
    assert status == EXIT_ORACLE
    assert "commuting tuple counts" in json.loads(out)["error"]["message"]
    monkeypatch.setattr(cli, "count_commuting_tuples", count)
    with limits.using(tuples=30):  # S3 has 36 pairs: the brute count trips the cap
        status, out, _ = run_cli(capsys, "series", "--gset", "pt-s3", "--max-m", "2",
                                 "--oracle")
    assert status == EXIT_RESOURCE
    assert "6^2 tuples exceed Limits.tuples" in json.loads(out)["error"]["message"]


def test_inertia_oracle_counts_fixed_sets_without_the_action_table(capsys, monkeypatch):
    sets = [coset_gset(g, sub) for _, g in group_catalog(12) for sub in subgroup_conjugacy_reps(g)]
    for g in (cyclic(60), symmetric(4)):  # regular: the cyclic tree is one path of 59 edges
        sets.append(gset_from_generator_action(g, [list(g.mul[s]) for s in g.generators]))
    expected = [sum(row.count(x) for x, row in enumerate(gset.act)) for gset in sets]
    monkeypatch.setattr(groupoidstack.FiniteGSet, "act", property(_no_action_table))
    assert [cli._fixed_point_total(gset) for gset in sets] == expected
    status, out, _ = run_cli(capsys, "inertia", "--gset", "s3-mixed", "--oracle")
    result = json.loads(out)["result"]
    assert status == EXIT_OK
    assert result["oracle"]["points_by_fixed_sets"] == result["inertia_points"]


def test_inertia_oracle_counts_points_by_orbit_stabilizer(capsys, monkeypatch):
    # |G| x orbits reads only the generator columns, not the stabilizer rows
    # that level 1 is built from, so a wrong orbit count exits 4
    status, out, _ = run_cli(capsys, "inertia", "--gset", "s3-natural", "--oracle")
    assert (status, json.loads(out)["result"]["oracle"]["points_by_stabilizers"]) == (EXIT_OK, 6)
    count = cli.orbit_count
    monkeypatch.setattr(cli, "orbit_count", lambda gset: count(gset) + 1)
    status, out, _ = run_cli(capsys, "inertia", "--gset", "s3-natural", "--oracle")
    error = json.loads(out)["error"]
    assert (status, error["kind"]) == (EXIT_ORACLE, "oracle-disagreement")
    assert error["message"].startswith("inertia points, by |G| x orbits and by fixed sets")


def test_devissage_oracle_catches_two_inertia_orbits_in_one_cell(capsys, monkeypatch):
    # natural S3 has two inertia orbits, one per class of its point stabilizer
    # Z2; sent to the same cell they give two equal rows, so the rank is 1
    status, out, _ = run_cli(capsys, "devissage", "--gset", "s3-natural", "--oracle")
    assert (status, json.loads(out)["result"]["rank"]) == (EXIT_OK, 2)
    cells = chartheory._trace_cells

    def merged(iner):
        found, counts = cells(iner)
        return [found[0]] * len(found), counts

    monkeypatch.setattr(chartheory, "_trace_cells", merged)
    status, out, _ = run_cli(capsys, "devissage", "--gset", "s3-natural", "--oracle")
    error = json.loads(out)["error"]
    assert (status, error["kind"]) == (EXIT_ORACLE, "oracle-disagreement")
    assert error["message"] == ("trace-map rank, inertia orbits and source dimension: "
                                "routes disagree: 1 vs 2 vs 2")


def _no_action_table(self):
    raise AssertionError("the action table was read")


def test_report_oracle_checks_the_divisor_and_the_trace_map(capsys, monkeypatch):
    argv = ("report", "--gset", "s3-natural", "--curve", "p237", "--divisor", "zero",
            "--oracle")
    coarse = cli.coarse_rr_oracle
    monkeypatch.setattr(cli, "coarse_rr_oracle", lambda d: coarse(d) + 1)
    status, out, _ = run_cli(capsys, *argv)
    assert status == EXIT_ORACLE
    assert "chi(D)" in json.loads(out)["error"]["message"]
    status, _, _ = run_cli(capsys, *argv[:-1])  # without --oracle nothing is compared
    assert status == EXIT_OK
    monkeypatch.setattr(cli, "coarse_rr_oracle", coarse)
    summary = cli.devissage_summary
    monkeypatch.setattr(cli, "devissage_summary", lambda g: {**summary(g), "rank": 0})
    status, out, _ = run_cli(capsys, *argv)
    assert status == EXIT_ORACLE
    assert "trace-map rank" in json.loads(out)["error"]["message"]


def test_report_builds_the_base_inertia_once(capsys, monkeypatch):
    # the tower's level 1, held by the report, is rung 0's chi_phy and
    # chi_top and the level the trace map reads: one build serves all three
    built, traced = [], []
    real, cells = groupoidstack._level_above, chartheory._trace_cells

    def level_above(below, depth, cap):
        level = real(below, depth, cap)
        if depth == 1 and below.size == 3:
            built.append(level)
        return level

    def trace_cells(iner):
        traced.append(iner)
        return cells(iner)

    monkeypatch.setattr(groupoidstack, "_level_above", level_above)
    monkeypatch.setattr(chartheory, "_trace_cells", trace_cells)
    status, out, _ = run_cli(capsys, "report", "--gset", "s3-natural", "--curve", "p237",
                             "--divisor", "canonical")
    assert status == EXIT_OK
    assert json.loads(out)["result"]["gset"]["inertia"] == {"points": 6, "orbits": 2}
    assert len(built) == 1 and traced == built
