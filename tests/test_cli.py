import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import cases as golden_cases

from qwsed import cli
from qwsed.cli import build_parser, expand_family_range, main
from qwsed.graphs import WeightedGraph, write_graph_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_complete_graph(capsys):
    code, out, err = run(capsys, "analyze", "--family", "complete:5",
                         "--vertex", "0")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["classification"] == "tightly-sedentary"
    assert payload["C"] == pytest.approx(0.6, abs=1e-9)
    assert payload["matrix"] == "adjacency"
    assert payload["oracle"]["certified"] is True


def test_analyze_star_center_laplacian(capsys):
    code, out, _ = run(capsys, "analyze", "--family", "star:9",
                       "--matrix", "laplacian", "--vertex", "center")
    assert code == 0
    payload = json.loads(out)
    assert payload["C"] == pytest.approx(0.8, abs=1e-9)
    assert payload["vertex"] == 0


def test_analyze_all_vertices_is_array(capsys):
    code, out, _ = run(capsys, "analyze", "--family", "path:3",
                       "--vertex", "all")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 3
    assert payload[0]["classification"] == payload[2]["classification"]


def test_analyze_unresolved_exits_zero(tmp_path, capsys):
    g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 0.7), (0, 2, 0.3)))
    path = tmp_path / "wt.graph"
    write_graph_file(g, path)
    code, out, _ = run(capsys, "analyze", "--graph", str(path),
                       "--vertex", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "unresolved"
    assert payload["C"] is None


def test_analyze_writes_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "--family", "complete:4",
                       "--vertex", "0", "--out", str(dest))
    assert code == 0 and out == ""
    payload = json.loads(dest.read_text())
    assert payload["C"] == pytest.approx(0.5, abs=1e-9)


def test_error_paths_exit_two(tmp_path, capsys):
    cases = [
        ("analyze", "--family", "complete:5", "--vertex", "banana"),
        ("analyze", "--family", "complete:5", "--vertex", "9"),
        ("analyze", "--graph", str(tmp_path / "missing.graph"),
         "--vertex", "0"),
        ("analyze", "--family", "complete:5", "--matrix", "bogus",
         "--vertex", "0"),
        ("family-scan", "--family", "star:9..3", "--vertex", "leaf"),
        ("mixing-check", "--family", "complete:3", "--vertex", "0"),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


@pytest.mark.parametrize("window", ["inf", "-inf", "nan", "0", "-1"])
@pytest.mark.parametrize("argv", [
    ("analyze", "--family", "complete:5", "--vertex", "0"),
    ("sweep", "--family", "complete:5", "--vertex", "0"),
    ("family-scan", "--family", "star:3..5", "--vertex", "leaf"),
    ("oracle", "--family", "complete:5", "--vertex", "0"),
    ("mixing-check", "--family", "doublecone:disconnected:empty:4",
     "--matrix", "laplacian", "--pair", "0,1"),
])
def test_window_must_be_finite_and_positive(capsys, argv, window):
    code, out, err = run(capsys, *argv, f"--window={window}")
    assert code == 2 and out == ""
    assert err.startswith("error: --window") and err.count("\n") == 1


@pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("pair", [(), ("--pair", "0,1")], ids=["column", "pair"])
def test_time_must_be_finite(capsys, time, pair):
    # a non-finite time would print NaN or Infinity, which is not JSON
    code, out, err = run(capsys, "mixing-check", "--family", "complete:3",
                         f"--time={time}", *pair)
    assert code == 2 and out == ""
    assert err == f"error: --time must be a finite time, got {time}\n"


@pytest.mark.parametrize("pair", [(), ("--pair", "0,1")], ids=["column", "pair"])
def test_a_negative_time_is_checked(capsys, pair):
    code, out, _ = run(capsys, "mixing-check", "--family", "complete:3",
                       "--time=-1.5", *pair)
    assert code == 0
    payload = json.loads(out)
    assert (payload.get("fractional_revival") or payload)["time"] == -1.5


@pytest.mark.parametrize("alpha,message", [
    ("nan", "error: alpha must be finite, got nan"),
    ("inf", "error: alpha must be finite, got inf"),
    ("-inf", "error: alpha must be finite, got -inf"),
    # finite, but 1e308 times a degree of 2 overflows
    ("1e308", "error: the gen:1e+308 matrix of this graph has an entry that "
              "is not finite"),
])
def test_gen_alpha_must_give_a_finite_matrix(capsys, alpha, message):
    code, out, err = run(capsys, "analyze", "--family", "complete:3",
                         "--matrix", f"gen:{alpha}")
    assert code == 2 and out == ""
    assert err == message + "\n"


def test_an_overflowing_weight_is_refused(tmp_path, capsys):
    # (A + A^T) / 2 overflows for a weight above half the largest float
    path = tmp_path / "big.graph"
    path.write_text("2 1\n0 1 1.7e308\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--graph", str(path))
    assert code == 2 and out == ""
    assert err == ("error: the adjacency matrix of this graph has an entry "
                   "that is not finite\n")


def test_sweep_csv_shape(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "complete:4",
                       "--vertex", "0", "--window", str(math.pi),
                       "--grid", "4096")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,re,im,abs"
    assert len(lines) == 4097
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0 and first[3] == pytest.approx(1.0, abs=1e-12)
    min_abs = 1.0
    for row in lines[1:]:
        t, re, im, mag = (float(x) for x in row.split(","))
        assert re * re + im * im == pytest.approx(mag * mag, abs=1e-12)
        min_abs = min(min_abs, mag)
    assert min_abs == pytest.approx(0.5, abs=1e-6)


def test_sweep_double_cone_laplacian_apex(capsys):
    code, out, _ = run(capsys, "sweep", "--family",
                       "doublecone:disconnected:empty:8", "--matrix",
                       "laplacian", "--vertex", "apex:0", "--window",
                       str(math.pi), "--grid", "8192")
    assert code == 0
    rows = [[float(x) for x in line.split(",")]
            for line in out.strip().splitlines()[1:]]
    best = min(rows, key=lambda r: r[3])
    assert best[3] == pytest.approx(0.2, abs=1e-6)
    assert best[0] == pytest.approx(math.pi / 2.0, abs=1e-3)


def test_family_scan_star_trend(capsys):
    code, out, _ = run(capsys, "family-scan", "--family", "star:3..8",
                       "--vertex", "leaf")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["reports"]) == 6
    for report, point in zip(payload["reports"], payload["trend"]):
        n = report["graph"].removeprefix("star:")
        assert point["C"] == pytest.approx(1.0 - 2.0 / int(n), abs=1e-9)
    assert payload["trend_direction"] == "nondecreasing"


def test_family_scan_rook_row(capsys):
    code, out, _ = run(capsys, "family-scan", "--family", "hamming:2,3..6",
                       "--vertex", "0")
    assert code == 0
    payload = json.loads(out)
    sizes = [p["size"] for p in payload["trend"]]
    assert sizes == [9, 16, 25, 36]  # vertex counts of the n x n rook graphs
    for n, point in zip(range(3, 7), payload["trend"]):
        assert point["C"] == pytest.approx((1.0 - 2.0 / n) ** 2, abs=1e-9)
    assert payload["trend_direction"] == "nondecreasing"


def test_family_scan_single_member_matches_analyze(capsys):
    code, scan_out, _ = run(capsys, "family-scan", "--family",
                            "complete:5..5", "--vertex", "0")
    assert code == 0
    code, analyze_out, _ = run(capsys, "analyze", "--family", "complete:5",
                               "--vertex", "0")
    assert code == 0
    assert scan_out == analyze_out


def test_family_scan_reports_equal_analyze_in_member_order(capsys):
    code, out, _ = run(capsys, "family-scan", "--family", "star:3..7",
                       "--vertex", "leaf")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert len(reports) == 5
    for n, report in zip(range(3, 8), reports):
        # 'leaf' selects every leaf; the scan classifies the first, leaf:0
        code, single, _ = run(capsys, "analyze", "--family", f"star:{n}",
                              "--vertex", "leaf:0")
        assert code == 0
        assert report == json.loads(single)


def test_expand_family_range():
    specs = expand_family_range("complete:4..6")
    assert [str(s) for s in specs] == ["complete:4", "complete:5",
                                       "complete:6"]
    assert expand_family_range("complete:5") == ["complete:5"]
    with pytest.raises(Exception):
        expand_family_range("complete:6..4")
    with pytest.raises(Exception):
        expand_family_range("rook:3..5,4..6")


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--family", "complete:5",
                       "--vertex", "0", "--window",
                       str(2.0 * math.pi / 5.0))
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"]["minimum"] == pytest.approx(0.6, abs=1e-6)
    assert payload["oracle"]["argmin"] == pytest.approx(math.pi / 5.0,
                                                        abs=1e-6)
    assert payload["oracle"]["certified"] is False  # explicit window


def test_oracle_without_window_needs_a_period(capsys):
    code, out, err = run(capsys, "oracle", "--family", "path:5", "--vertex", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: no certified period") and err.count("\n") == 1


def test_mixing_check_uniform(capsys):
    t_local = math.pi / (3.0 * math.sqrt(3.0))
    code, out, _ = run(capsys, "mixing-check", "--family", "star:3",
                       "--vertex", "center", "--time", str(t_local))
    assert code == 0
    payload = json.loads(out)
    assert payload["uniform_mixing"] is True
    code, out, _ = run(capsys, "mixing-check", "--family", "star:3",
                       "--vertex", "leaf:0", "--time", str(t_local))
    assert json.loads(out)["uniform_mixing"] is False


def test_mixing_check_fractional_revival_pair(capsys):
    code, out, _ = run(capsys, "mixing-check", "--family",
                       "doublecone:disconnected:empty:4", "--matrix",
                       "laplacian", "--vertex", "apex:0", "--pair", "0,1",
                       "--time", str(math.pi / 3.0))
    assert code == 0
    fr = json.loads(out)["fractional_revival"]
    assert fr["proper"] is True
    assert fr["alpha"] ** 2 + fr["beta"] ** 2 == pytest.approx(1.0, abs=1e-9)
    assert fr["beta"] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-9)


def test_mixing_check_pair_search(capsys):
    code, out, _ = run(capsys, "mixing-check", "--family",
                       "doublecone:disconnected:empty:4", "--matrix",
                       "laplacian", "--vertex", "apex:0", "--pair", "0,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["fractional_revival"] is not None
    assert payload["fractional_revival"]["time"] == pytest.approx(
        math.pi / 3.0, abs=1e-6)


@pytest.mark.parametrize("argv,message", [
    (("oracle", "--family", "star:3", "--vertex", "all"),
     "oracle takes one vertex; --vertex all is for analyze"),
    (("sweep", "--family", "star:3", "--vertex", "all"),
     "sweep takes one vertex; --vertex all is for analyze"),
    (("mixing-check", "--family", "star:3", "--vertex", "all", "--time", "1"),
     "mixing-check takes one vertex; --vertex all is for analyze"),
    (("mixing-check", "--family", "star:3", "--pair", "all,1"),
     "each side of --pair takes one vertex; --vertex all is for analyze"),
    (("mixing-check", "--family", "star:3", "--pair", "0,ALL", "--time", "1"),
     "each side of --pair takes one vertex; --vertex all is for analyze"),
    (("family-scan", "--family", "star:3..4", "--vertex", "all"),
     "family-scan takes one vertex; --vertex all is for analyze"),
], ids=["oracle", "sweep", "mixing-check", "pair-search", "pair-time", "family-scan"])
def test_one_vertex_commands_refuse_all(tmp_path, capsys, argv, message):
    """'all' used to report vertex 0 alone and exit 0; only analyze takes it."""
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("vertex,message", [
    ("banana", "vertex selector 'banana' matches nothing"),
    ("all", "mixing-check takes one vertex; --vertex all is for analyze"),
    ("9", "vertex 9 out of range for 4 vertices"),
])
@pytest.mark.parametrize("time", [("--time", "1"), ()], ids=["time", "search"])
def test_mixing_check_pair_resolves_the_vertex(tmp_path, capsys, vertex, message, time):
    """--vertex is refused with --pair as without it; --pair used to skip it."""
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "mixing-check", "--family", "star:3", "--pair", "0,1",
                            "--vertex", vertex, *time, "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err == f"error: {message}\n"


def test_a_role_still_picks_its_first_vertex(capsys):
    code, by_role, _ = run(capsys, "oracle", "--family", "star:3", "--vertex", "leaf")
    assert code == 0
    code, by_label, _ = run(capsys, "oracle", "--family", "star:3", "--vertex", "leaf:0")
    assert code == 0 and by_role == by_label
    assert json.loads(by_role)["vertex"] == 1


def test_parser_rejects_missing_source():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["analyze", "--vertex", "0"])
    with pytest.raises(SystemExit):
        parser.parse_args(["analyze", "--graph", "a.graph", "--family",
                           "complete:3", "--vertex", "0"])


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    built = []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    for _ in range(2):
        code, out, _ = run(capsys, "analyze", "--family", "complete:3", "--vertex", "0")
        assert code == 0 and json.loads(out)["vertex"] == 0
    assert built == [1]


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_sweep_grid_must_be_positive(capsys, grid):
    code, out, err = run(capsys, "sweep", "--family", "complete:4", "--vertex", "0",
                         f"--grid={grid}")
    assert code == 2 and out == ""
    assert err.startswith("error: --grid") and err.count("\n") == 1


_SOURCE_ARGS = {
    "analyze": ("--family", "complete:5"),
    "sweep": ("--family", "complete:5"),
    "family-scan": ("--family", "complete:5"),
    "oracle": ("--family", "complete:5"),
    "mixing-check": ("--family", "complete:5", "--time", "1.0"),
}


@pytest.mark.parametrize("command,flag", [
    *((c, ("--grid", "8")) for c in sorted(_SOURCE_ARGS) if c != "sweep"),
    *((c, ("--format", "json")) for c in sorted(_SOURCE_ARGS)),
])
def test_no_grid_override_and_no_format_flag(capsys, command, flag):
    """--grid is sweep's number of sample times alone; no command takes
    --format."""
    with pytest.raises(SystemExit) as exc:
        main([command, *_SOURCE_ARGS[command], *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["adjacency", "laplacian"])
def test_rook_3_5_meets_the_product_constant(capsys, kind):
    """(1 - 2/3)(1 - 2/5) = 0.2 at every vertex of K_3 □ K_5."""
    code, out, _ = run(capsys, "analyze", "--family", "rook:3,5", "--vertex", "0",
                       "--matrix", kind)
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "tightly-sedentary"
    assert abs(payload["C"] - 0.2) <= 1e-12


# -- long windows ----------------------------------------------------------------


@pytest.mark.parametrize("window", ["1e305", "1e308"])
@pytest.mark.parametrize("argv", [
    ("analyze", "--family", "path:3"),
    ("oracle", "--family", "path:3"),
    ("mixing-check", "--family", "path:3", "--pair", "0,2"),
], ids=["analyze", "oracle", "mixing-check"])
def test_a_window_too_long_to_scan_exits_two(capsys, argv, window):
    # its grid size or its refinement's step cap overflows a float
    code, out, err = run(capsys, *argv, "--window", window)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_long_window_that_scans_still_reports(capsys):
    code, out, err = run(capsys, "analyze", "--family", "path:3", "--window", "1e300")
    assert code == 0 and err == ""
    assert json.loads(out)["oracle"]["window"] == [0.0, 1e300]


# -- the report writer -----------------------------------------------------------


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 7, math.nan,
                   math.inf, -math.inf, 1.7976931348623157e308, 0.1]
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-10**40, max_value=10**40),
    st.floats(allow_subnormal=True),
    st.sampled_from(_SPECIAL_FLOATS),
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é \U0001f600", "\ud800", "/"]),
    st.text().map(_Str),
    st.integers().map(_Int),
    st.floats().map(_Float),
    st.floats().map(np.float64),
    st.sampled_from(_SPECIAL_FLOATS).map(np.float64),
)
_json_values = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.text().map(_Str)), kids, max_size=4)),
    max_leaves=40)


def _written(value) -> str:
    out: list[str] = []
    cli._write_json(value, "\n", out)
    return "".join(out)


@settings(max_examples=400, deadline=None)
@given(_json_values)
def test_report_writer_writes_the_bytes_of_json(value):
    want = json.dumps(value, indent=2)
    assert _written(value) == want
    assert cli._dump(value) == want + "\n"


def test_report_writer_hands_keys_json_converts_to_json():
    value = {"a": {1: "a", 2.5: None, True: [], None: {}}}
    assert cli._dump(value) == json.dumps(value, indent=2) + "\n"


def _circular():
    x: list = []
    x.append({"x": x})
    return x


@pytest.mark.parametrize("make", [
    lambda: {"a": [1.0, object()]},
    lambda: [np.int64(3)],
    lambda: {"s": {1, 2}},
    lambda: {(1, 2): 3},
    _circular,
], ids=["object", "np.int64", "set", "tuple-key", "circular"])
def test_report_writer_raises_as_json_does(make):
    with pytest.raises((TypeError, ValueError)) as want:
        json.dumps(make(), indent=2)
    with pytest.raises(want.type) as got:
        cli._dump(make())
    assert str(got.value) == str(want.value)


def test_every_golden_argv_writes_the_bytes_of_json(tmp_path):
    for argv in golden_cases():
        dest = tmp_path / "out.json"
        assert main(argv + ["--out", str(dest)]) == 0
        text = dest.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n", argv
