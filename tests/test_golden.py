"""Golden corpus: frozen reports that refactors must reproduce.

golden/reports.json holds the output of `analyze --vertex all` for small
family specs (at most 12 vertices) under all five matrix kinds, plus one
ranged `family-scan`.  Each case is re-run through the CLI and compared
with its frozen output: labels and certificate kinds (in order) exactly,
C, certificate bounds and oracle minima within 1e-9, stated times and
oracle argmins within 1e-7.  Detail strings are not compared; they print
numbers that may move in their last digits.

To regenerate after an intended behaviour change (list what moved):

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from qwsed.cli import main

CORPUS = pathlib.Path(__file__).with_name("golden") / "reports.json"

SPECS = (
    "complete:4", "complete:5", "path:5", "cycle:6", "star:4", "star:5",
    "multipartite:2,3", "rook:3,3", "hamming:2,3", "lollipop:4,3",
    "barbell:4,1,4", "doublestar:2,2", "doublestar:3,2", "threshold:2,2,2",
    "cone:cycle:5", "doublecone:disconnected:empty:4",
    "doublecone:connected:cycle:4", "xtail:3,3,1", "ytail:3,3,1",
    "multipartite:3,3,3",
)
KINDS = ("adjacency", "laplacian", "gen:0.5", "norm-adj", "norm-lap")
SCAN = ("family-scan", "--family", "star:3..8", "--matrix", "laplacian",
        "--vertex", "leaf")

VALUE_TOL = 1e-9
TIME_TOL = 1e-7


def cases() -> list[list[str]]:
    out = [["analyze", "--family", spec, "--matrix", kind, "--vertex", "all"]
           for spec in SPECS for kind in KINDS]
    return out + [list(SCAN)]


def run_case(argv: list[str], out: pathlib.Path):
    assert main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


def _reports(payload) -> list[dict]:
    if isinstance(payload, list):
        return payload
    return payload.get("reports", [payload])


def _close(a, b, tol: float) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= tol


def compare(got, want) -> list[str]:
    """Differences between two outputs of one case beyond the tolerances."""
    problems = []
    g_reps, w_reps = _reports(got), _reports(want)
    if len(g_reps) != len(w_reps):
        return [f"{len(g_reps)} reports, expected {len(w_reps)}"]
    for g, w in zip(g_reps, w_reps):
        where = f"vertex {w['vertex']}"
        for key in ("graph", "matrix", "vertex", "classification"):
            if g[key] != w[key]:
                problems.append(f"{where}: {key} {g[key]!r} != {w[key]!r}")
        if not _close(g["C"], w["C"], VALUE_TOL):
            problems.append(f"{where}: C {g['C']!r} != {w['C']!r}")
        g_kinds = [c["kind"] for c in g["certificates"]]
        w_kinds = [c["kind"] for c in w["certificates"]]
        if g_kinds != w_kinds:
            problems.append(f"{where}: certificates {g_kinds} != {w_kinds}")
            continue
        for gc, wc in zip(g["certificates"], w["certificates"]):
            if gc["S"] != wc["S"]:
                problems.append(f"{where}: {wc['kind']} subset {gc['S']} != {wc['S']}")
            if not (_close(gc["bound"], wc["bound"], VALUE_TOL)
                    and _close(gc["a"], wc["a"], VALUE_TOL)):
                problems.append(f"{where}: {wc['kind']} bound or mass moved")
            gt, wt = gc["equality_times"], wc["equality_times"]
            if len(gt) != len(wt) or not all(_close(x, y, TIME_TOL)
                                             for x, y in zip(gt, wt)):
                problems.append(f"{where}: {wc['kind']} times {gt} != {wt}")
        go, wo = g["oracle"], w["oracle"]
        if (go is None) != (wo is None):
            problems.append(f"{where}: oracle presence differs")
        elif wo is not None:
            if (go["certified"], go["grid"]) != (wo["certified"], wo["grid"]):
                problems.append(f"{where}: oracle grid or certification differs")
            if not all(_close(x, y, VALUE_TOL) for x, y in zip(go["window"], wo["window"])):
                problems.append(f"{where}: oracle window {go['window']} != {wo['window']}")
            if not _close(go["minimum"], wo["minimum"], VALUE_TOL):
                problems.append(f"{where}: minimum {go['minimum']!r} != {wo['minimum']!r}")
            if not _close(go["argmin"], wo["argmin"], TIME_TOL):
                problems.append(f"{where}: argmin {go['argmin']!r} != {wo['argmin']!r}")
    if isinstance(want, dict) and "trend" in want:
        if (got.get("trend_direction") != want["trend_direction"]
                or [r["size"] for r in got["trend"]] != [r["size"] for r in want["trend"]]
                or not all(_close(a["C"], b["C"], VALUE_TOL)
                           for a, b in zip(got["trend"], want["trend"]))):
            problems.append("trend differs")
    return problems


@pytest.fixture(scope="module")
def corpus() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))["cases"]


def test_corpus_covers_every_case(corpus):
    assert [c["argv"] for c in corpus] == cases()


@pytest.mark.parametrize("i", range(len(cases())),
                         ids=[" ".join(argv[1:]) for argv in cases()])
def test_golden_report(i, corpus, tmp_path):
    case = corpus[i]
    got = run_case(case["argv"], tmp_path / "out.json")
    assert compare(got, case["output"]) == []


def _write(path: pathlib.Path) -> None:
    path.parent.mkdir(exist_ok=True)
    scratch = path.with_suffix(".tmp")
    entries = []
    for argv in cases():
        entries.append({"argv": argv, "output": run_case(argv, scratch)})
    scratch.unlink()
    path.write_text(json.dumps({"cases": entries}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write(CORPUS)
    sys.exit(0)
