"""Knob audit: every optional parameter of a public function in src/htbif is
set by some call in src/htbif or bench outside the tests.  A default that no
such call varies belongs in a constant.  A call sets a parameter when it
passes it by position or keyword with anything but the default literal."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "main.argv": "console-script entry point: argparse reads sys.argv when argv is None",
    "admissible_lambda.margin": "bench/test_inputs.py wraps it in a spy with three positional arguments",
}


def _optional_parameters():
    """{"function.parameter": (position or None, default node)} over the public
    module-level functions and the public methods of src/htbif."""
    knobs = {}
    for path in sorted((ROOT / "src" / "htbif").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [(node, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            functions += [(node, 1) for node in cls.body if isinstance(node, ast.FunctionDef)]
        for fn, self_slots in functions:
            if fn.name.startswith("_"):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, (arg, default) in enumerate(zip(positional[first:], args.defaults)):
                knobs[f"{fn.name}.{arg.arg}"] = (first + i - self_slots, default)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    knobs[f"{fn.name}.{arg.arg}"] = (None, default)
    return knobs


def _set_in(knobs, tree):
    """The knobs some call in the parsed module sets."""
    found = set()
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        passed = {kw.arg: kw.value for kw in call.keywords if kw.arg is not None}
        for i, value in enumerate(call.args):
            if isinstance(value, ast.Starred):
                break
            passed[i] = value
        for knob, (position, default) in knobs.items():
            fn, param = knob.split(".")
            value = passed.get(param, passed.get(position))
            if fn == name and value is not None and ast.dump(value) != ast.dump(default):
                found.add(knob)
    return found


def _set_knobs(knobs):
    """The knobs some non-test call in src/htbif or bench sets."""
    paths = [*(ROOT / "src" / "htbif").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    found = set()
    for path in paths:
        if not path.name.startswith("test_"):
            found |= _set_in(knobs, ast.parse(path.read_text(encoding="utf-8")))
    return found


def test_every_optional_parameter_is_set_by_a_caller():
    knobs = _optional_parameters()
    unset = sorted(set(knobs) - _set_knobs(knobs) - set(ALLOWED))
    assert unset == [], f"optional parameters no caller sets (make them constants): {unset}"


def test_allow_list_names_live_unset_parameters():
    knobs = _optional_parameters()
    stale = sorted(set(ALLOWED) - (set(knobs) - _set_knobs(knobs)))
    assert stale == [], f"allow-list entries that are gone or now set by a caller: {stale}"


def test_a_default_literal_or_a_starred_tail_sets_nothing():
    knobs = _optional_parameters()

    def sets(source):
        return "census.n_points" in _set_in(knobs, ast.parse(source))

    assert sets("census(n, p, 501)") and sets("perturbed.census(n, p, n_points=k)")
    assert not sets("census(n, p, 2001)") and not sets("census(n, p, n_points=2001)")
    assert not sets("census(n, *rest)") and not sets("other(n, p, 501)")
