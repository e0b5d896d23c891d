"""Machine-check of the driver-cap rotation invariant (VERDICT r4 item 8).

The driver oracle-checks only the first ~CAP queries of the registry each
round, so the registry order IS the verification window.  The invariant the
rounds rely on: after the upcoming round runs the current window, every SQL
mirror has a driver hash row at most one round old — i.e. every mirror is
either inside the in-cap window now, or hash-green in the LATEST
CORRECTNESS_r*.json.  This test fails the build the moment an edit to
QUERIES would let any mirror go >1 round stale (no judgment call, no
COVERAGE.md claim — a red test).
"""

from __future__ import annotations

import glob
import json
import os
import re

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CAP = 50


def _correctness_files():
    return sorted(
        glob.glob(os.path.join(REPO, "CORRECTNESS_r*.json")),
        key=lambda p: int(re.search(r"r(\d+)", os.path.basename(p)).group(1)),
    )


@pytest.fixture(scope="module")
def registry():
    from knowledgegraph__bh_ray import queries as Q

    return list(Q.QUERIES), Q.build_oracle_sql()


def test_every_mirror_in_cap_or_green_latest_round(registry):
    order, sqls = registry
    files = _correctness_files()
    if not files:
        pytest.skip("no CORRECTNESS files yet (round 1)")
    latest = json.load(open(files[-1]))
    latest_green = {k for k, v in latest.items() if v.get("hash_match")}
    in_cap = set(order[:CAP])
    stale = [k for k in sqls if k not in in_cap and k not in latest_green]
    assert not stale, (
        f"mirrors displaced past the {CAP}-row cap without a hash-green row "
        f"in {os.path.basename(files[-1])} — they would go >1 round stale: "
        f"{stale}"
    )


def test_never_checked_queries_lead_the_window(registry):
    """Queries with no driver row in ANY round (mirror or rows-run) must sit
    inside the cap — a driver-env-only failure would otherwise stay
    invisible forever."""
    order, _ = registry
    files = _correctness_files()
    if not files:
        pytest.skip("no CORRECTNESS files yet (round 1)")
    seen = set()
    for p in files:
        seen.update(json.load(open(p)).keys())
    never = [k for k in order if k not in seen]
    outside = [k for k in never if k not in set(order[:CAP])]
    assert not outside, f"never-driver-run queries outside the cap: {outside}"


def test_registry_has_no_shadowed_keys():
    """The dict-literal gotcha: moving a key without deleting the old entry
    keeps the FIRST position and silently shadows the intended slot."""
    import inspect

    from knowledgegraph__bh_ray import queries as Q

    src = inspect.getsource(Q)
    block = src.split("QUERIES = {", 1)[1].split("\n}", 1)[0]
    keys = re.findall(r'^\s{4}"(\w+)":', block, re.M)
    dupes = {k for k in keys if keys.count(k) > 1}
    assert not dupes, f"duplicate keys in the QUERIES literal: {dupes}"
    assert len(keys) == len(Q.QUERIES)


def test_no_pass_through_query_functions():
    """A registry entry that only forwards ``sf_dir`` (and constants) to a
    pipeline function IS that function: ``QUERIES`` names it directly.  So
    no ``q_*`` function's body, docstring aside, may be one
    ``return f(sf_dir, <constants>)`` with ``f`` a pipeline function.  A
    call of a private helper of this module (``_run_table(sf_dir,
    "nodes")`` names the ``kg_run`` table it reads) is not a pass-through."""
    import ast
    import inspect

    from knowledgegraph__bh_ray import queries as Q

    def _const(node):
        return isinstance(node, ast.Constant) or (
            isinstance(node, ast.Name) and node.id.isupper())

    wrappers = []
    for fn in ast.parse(inspect.getsource(Q)).body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("q_")):
            continue
        body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        call = body[0].value
        if not isinstance(call, ast.Call):
            continue
        if isinstance(call.func, ast.Name) and call.func.id.startswith("_"):
            continue
        args = call.args
        if (args and isinstance(args[0], ast.Name) and args[0].id == "sf_dir"
                and all(_const(a) for a in args[1:])
                and all(_const(k.value) for k in call.keywords)):
            wrappers.append(fn.name)
    assert not wrappers, (
        f"q_* functions that only forward sf_dir — register the pipeline "
        f"function itself: {wrappers}")
