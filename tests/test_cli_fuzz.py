"""Malformed JSON input never ends in a traceback.

Each value of the seed documents below (the JSON spellings of the presets
and the fixtures of ``test_cli.py``) is replaced, one at a time, by a value
of another JSON type.  The CLI must still answer with a JSON document on
stdout and an exit status in {0, 2, 3, 4}.
"""

import contextlib
import io
import json

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stackyrr.cli import main

P23 = {"genus": 0, "stacky": [{"label": "p2", "order": 2}, {"label": "p3", "order": 3}]}

# (command line before the document's path, document)
SEEDS = [
    (("classes", "--oracle", "--group"), {"permutations": [[1, 0, 2], [1, 2, 0]]}),
    (("classes", "--group"), {"table": [[0, 1], [1, 0]]}),
    (("classes", "--group"), {"preset": "S3"}),
    (("report", "--max-m", "2", "--gset"), {"group": "S3", "natural": True}),
    (("report", "--max-m", "2", "--gset"), {"group": "S3", "points": 1, "action": [[0] * 6]}),
    (("euler", "--oracle", "--max-m", "2", "--gset"),
     {"group": {"permutations": [[1, 0]]}, "points": 2, "action_generators": [[1, 0]]}),
    (("inertia", "--oracle", "--gset"),
     {"group": {"permutations": [[1, 0]]}, "points": 2, "action": [[0, 1], [1, 0]]}),
    (("rr", "--oracle", "--divisor", "canonical", "--curve"), P23),
    (("report", "--curve"), {"genus": 1, "stacky": [{"label": "p", "order": 4}]}),
    (("rr", "--oracle", "--curve", "p23", "--divisor"),
     [{"label": "p2", "num": 5, "den": 2}, {"label": "cusp", "num": 1}]),
    (("weighted", "--oracle", "--curve", "p23", "--weights"),
     {"open": 5, "points": {"p2": 7, "p3": ["11", "1"]}}),
    (("weighted", "--oracle", "--gset", "s3-natural", "--weights"), {"points": [2, 2, 2]}),
]


def _paths(doc, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


def _get(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _replace(doc, path, value):
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    _get(copy, path[:-1])[path[-1]] = value
    return copy


def _kind(value):
    # bool before int: JSON true is not a number
    for kind in (type(None), bool, int, float, str, list, dict):
        if isinstance(value, kind):
            return kind


CASES = [(argv, doc, path) for argv, doc in SEEDS for path in _paths(doc)]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(CASES), value=JSON_VALUES)
def test_replaced_value_ends_in_a_json_report(tmp_path_factory, case, value):
    argv, doc, path = case
    assume(_kind(value) is not _kind(_get(doc, path)))
    spec = tmp_path_factory.getbasetemp() / "fuzz-input.json"
    spec.write_text(json.dumps(_replace(doc, path, value)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = main([*argv, str(spec)])
    assert status in (0, 2, 3, 4)
    assert isinstance(json.loads(out.getvalue()), dict)
