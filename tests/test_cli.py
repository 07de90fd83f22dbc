"""End-to-end tests for the cubekit command line tool."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cubekit import cli, diagnostics, median, polygonal, racg
from cubekit.errors import ConsistencyError
from cubekit.formats import parse_graph, serialize_graph
from cubekit.median import MedianGraph
from fixtures import grid_graph

SQUARE = """\
vertex a
vertex b
vertex c
vertex d
edge a b
edge b c
edge c d
edge d a
"""

K23 = """\
vertex u1
vertex u2
vertex w1
vertex w2
vertex w3
edge u1 w1
edge u1 w2
edge u1 w3
edge u2 w1
edge u2 w2
edge u2 w3
"""

C5 = """\
vertex a
vertex b
vertex c
vertex d
vertex e
edge a b
edge b c
edge c d
edge d e
edge e a
"""

SUBS = """\
sub top : a b
sub side : b c
"""

HEX_POLY = """\
vertex v0
vertex v1
vertex v2
vertex v3
vertex v4
vertex v5
edge e0 v0 v1
edge e1 v1 v2
edge e2 v2 v3
edge e3 v3 v4
edge e4 v4 v5
edge e5 v5 v0
polygon P : +e0 +e1 +e2 +e3 +e4 +e5
"""

WALL_LESS_POLY = """\
vertex a
vertex b
"""

WALL_LESS_DUAL = """\
# dual cube complex of {path}
vertex o
# sidecar: wall labels
# principal a -> o
# principal b -> o
"""


def ngon_text(n):
    text = "".join(f"vertex v{i}\n" for i in range(n))
    text += "".join(f"edge e{i} v{i} v{(i + 1) % n}\n" for i in range(n))
    return text + "polygon P : " + " ".join(f"+e{i}" for i in range(n)) + "\n"


TRIANGLE_POLY = """\
vertex p
vertex q
vertex r
edge e1 p q
edge e2 q r
edge e3 r p
polygon P : +e1 +e2 +e3
"""

PENTAGON_POWER = """\
generators a b
param k = 1,2,3
relator (a^k b^k)^5
"""

SQUARE_POWER = """\
generators a b
param k = 1,2,3
relator (a^k b^k)^4
"""


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run_json(capsys, argv):
    code = cli.main(["--json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestExitCodes:
    def test_median_pass_is_zero(self, files, capsys):
        assert cli.main(["median", "check", files("g", SQUARE)]) == 0

    def test_median_fail_is_one(self, files, capsys):
        code, rep = run_json(capsys, ["median", "check", files("g", K23)])
        assert code == 1
        assert rep["verdict"] is False
        witness = rep["results"][2]["witness"]
        assert sorted(witness["triple"]) == ["w1", "w2", "w3"]

    def test_missing_file_is_two(self, capsys):
        assert cli.main(["median", "check", "/nonexistent/g.graph"]) == 2

    def test_parse_error_is_two(self, files, capsys):
        code = cli.main(["median", "check", files("g", "vertex a\nedge a\n")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_semantic_error_is_two(self, files, capsys):
        # parses fine, fails graph validation inside the library
        text = "vertex a\nvertex b\nedge a b\nedge a b\n"
        assert cli.main(["median", "check", files("g", text)]) == 2

    def test_relhyp_verdicts(self, files, capsys):
        assert cli.main(["racg", "relhyp", files("c4", SQUARE)]) == 1
        assert cli.main(["racg", "relhyp", files("c5", C5)]) == 0

    def test_odd_polygon_split_by_phase(self, files, capsys):
        path = files("t", TRIANGLE_POLY)
        # validate treats the rejection as its own verdict
        code, rep = run_json(capsys, ["poly", "validate", path])
        assert code == 1
        assert rep["verdict"] is False
        assert "3 sides" in rep["results"][0]["witness"]
        # any analysis needing the complex reports an input error
        assert cli.main(["poly", "sc", path]) == 2

    def test_size_cap_is_four(self, files, capsys):
        # the 26-gon's dual is the 13-cube, past the median recognition cap
        path = files("big", ngon_text(26))
        assert cli.main(["poly", "dual", path]) == 4
        assert "exceeds 4000 vertices, the IS_MEDIAN_CAP" in capsys.readouterr().err

    def test_poly_sc_answers_any_polygon(self, files, capsys):
        code, rep = run_json(capsys, ["poly", "sc", files("big", ngon_text(26))])
        assert code == 0
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["piece_count"]["value"] == 0
        assert results["cover_values"]["value"] == {"P": None}

    @pytest.mark.parametrize("as_json", [[], ["--json"]])
    def test_failed_cubulation_is_three(self, as_json, files, capsys, monkeypatch):
        # the dual is median by construction, so a failed recognition is a bug
        def not_median(self):
            return median.MedianVerdict(False, ("a", "b", "c"), ())

        monkeypatch.setattr(median.MedianGraph, "is_median", not_median)
        assert cli.main(as_json + ["poly", "dual", files("h", HEX_POLY)]) == 3
        assert "the dual is not median" in capsys.readouterr().err

    def test_median_size_cap_is_four(self, files, capsys, monkeypatch):
        monkeypatch.setattr(median, "IS_MEDIAN_CAP", 3)
        assert cli.main(["median", "check", files("g", SQUARE)]) == 4
        assert "is_median cap is 3 vertices" in capsys.readouterr().err

    def test_internal_check_failure_is_three(self, files, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ConsistencyError("cross-check failed")

        monkeypatch.setattr(diagnostics, "delta", broken)
        assert cli.main(["diag", "delta", files("g", SQUARE)]) == 3
        assert "cross-check failed" in capsys.readouterr().err

    def test_stray_exception_is_three(self, files, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise IndexError("index 7 out of range")

        monkeypatch.setattr(diagnostics, "delta", broken)
        assert cli.main(["diag", "delta", files("g", SQUARE)]) == 3
        err = capsys.readouterr().err
        assert "internal error: IndexError: index 7 out of range" in err
        assert "Traceback" in err

    @pytest.mark.parametrize(
        "argv", [["median", "check"], ["poly", "dual"], ["--json", "poly", "dual"]]
    )
    def test_undecodable_file_is_two(self, argv, tmp_path, capsys):
        path = tmp_path / "bin"
        path.write_bytes(b"\xff\xfe\x00vertex a\n")
        assert cli.main(argv + [str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: 'utf-8' codec")

    @pytest.mark.parametrize("op", ["rect"])
    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_search_cap_below_one_is_two(self, op, cap, files, capsys):
        assert cli.main(["diag", op, files("g", SQUARE), "--cap", cap]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --cap must be at least 1 (got {cap})\n"

    @pytest.mark.parametrize("op", ["rect"])
    def test_search_cap_of_one_is_accepted(self, op, files, capsys):
        code, rep = run_json(capsys, ["diag", op, files("g", SQUARE), "--cap", "1"])
        assert code == 0
        assert rep["parameters"]["cap"] == 1

    @pytest.mark.parametrize(
        "lam, message",
        [
            ("1/0", "error: --lambda 1/0 has a zero denominator"),
            ("abc", "error: Invalid literal for Fraction: 'abc'"),
            ("5/4", "error: lambda must"),
        ],
    )
    @pytest.mark.parametrize("cmd", ["sc", "poly"])
    def test_bad_lambda_is_two(self, cmd, lam, message, files, capsys):
        if cmd == "sc":
            argv = ["sc", "check", files("p", PENTAGON_POWER)]
        else:
            argv = ["poly", "sc", files("h", HEX_POLY)]
        assert cli.main(argv + ["--lambda", lam]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("op", ["delta", "bigon"])
    @pytest.mark.parametrize("metric", ["l1", "linf"])
    def test_metric_size_cap_is_four_before_any_table(
        self, op, metric, files, capsys, monkeypatch
    ):
        built = []
        monkeypatch.setattr(
            MedianGraph, "dist_matrix", lambda self, m="l1": built.append(m)
        )
        monkeypatch.setattr(diagnostics, "DELTA_SIZE_LIMIT", 3)
        argv = ["diag", op, files("g", SQUARE), "--metric", metric]
        assert cli.main(argv) == 4
        assert "capped at 3 vertices" in capsys.readouterr().err
        assert built == []


def test_search_cap_defaults_are_the_library_constants():
    parser = cli._build_parser()
    rect = parser.parse_args(["diag", "rect", "g"])
    assert rect.cap == diagnostics.RECT_STATE_CAP


@pytest.mark.parametrize("op, name", [("rect", "RECT_STATE_CAP")])
def test_search_cap_help_prints_the_library_default(op, name, capsys):
    with pytest.raises(SystemExit):
        cli.main(["diag", op, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"(default {getattr(diagnostics, name)})" in text


def test_grid_has_no_cap_option(files, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["diag", "grid", files("g", SQUARE), "--cap", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap 5" in capsys.readouterr().err
    code, rep = run_json(capsys, ["diag", "grid", files("g", SQUARE)])
    assert code == 0 and rep["parameters"] == {}


def test_grid_on_a_long_ladder_is_exact(files, capsys):
    # P1100 x K2 (2 202 vertices): a recursive search over its chains ran
    # out of stack here
    n = 1100
    text = "".join(f"vertex {i}{s}\n" for i in range(n + 1) for s in "ab")
    text += "".join(f"edge {i}a {i}b\n" for i in range(n + 1))
    text += "".join(f"edge {i}{s} {i + 1}{s}\n" for i in range(n) for s in "ab")
    code, rep = run_json(capsys, ["diag", "grid", files("ladder", text)])
    assert code == 0
    results = {r["quantity"]: r for r in rep["results"]}
    assert results["grid_pareto"]["value"] == [[1100, 1]]
    assert results["grid_pareto"]["method"] == "exact"
    assert results["grid_thinness"]["value"] == 1


def test_import_does_not_load_scipy():
    # cubekit imports nothing from scipy, even where scipy is installed
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, cubekit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _grid_file(files) -> str:
    grid = grid_graph(3, 2)
    return files("grid", serialize_graph(grid.ids, [(grid.ids[a], grid.ids[b]) for a, b in grid.edges]))


@pytest.mark.parametrize(
    "argv,code,bfs",
    [
        (["median", "check", "GRID"], 0, False),
        (["median", "hyperplanes", "GRID"], 0, False),
        (["median", "cubes", "GRID"], 0, False),
        (["diag", "grid", "GRID"], 0, False),
        (["median", "check", "K23"], 1, True),
        (["median", "dist", "GRID", "0,0", "3,2", "--metric", "linf"], 0, True),
        (["coneoff", "build", "GRID", "ROW"], 0, True),
    ],
    ids=["check", "hyperplanes", "cubes", "diag_grid", "reject", "dist_linf", "coneoff"],
)
def test_bfs_table_only_where_the_certificate_fails(argv, code, bfs, files, capsys, monkeypatch):
    # median inputs read their distance table off their hyperplanes; a
    # reject, the linf cone-off and a clique cone-off (triangles) run a BFS
    calls, real = [], median._bfs_table

    def spy(n, arcs):
        calls.append(n)
        return real(n, arcs)

    monkeypatch.setattr(median, "_bfs_table", spy)
    paths = {"GRID": _grid_file(files), "K23": files("k", K23), "ROW": files("r", "sub row : 0,0 1,0 2,0\n")}
    assert cli.main(["--json", *(paths.get(a, a) for a in argv)]) == code
    assert bool(calls) == bfs


def test_median_check_on_a_grid_leaves_scipy_unloaded(files):
    # recognition, a reject, and the BFS tables of the linf metric and of a
    # cone-off, all in one fresh process, load nothing from scipy
    src = Path(__file__).resolve().parent.parent / "src"
    grid, k23, row = _grid_file(files), files("k", K23), files("r", "sub row : 0,0 1,0 2,0\n")
    runs = [
        ["median", "check", grid],
        ["median", "check", k23],
        ["median", "dist", grid, "0,0", "3,2", "--metric", "linf"],
        ["coneoff", "build", grid, row],
        ["diag", "delta", grid, "--metric", "linf"],
    ]
    code = (
        "import sys; from cubekit import cli; "
        f"codes = [cli.main(['--json', *argv]) for argv in {runs!r}]; "
        "print(codes, sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[0, 1, 0, 0, 0] []"


class TestCachedParser:
    """``main`` builds the argparse tree once per process and reuses it."""

    def test_parsers_are_built_on_the_first_call_only(
        self, files, capsys, monkeypatch
    ):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli._build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        path = files("g", SQUARE)
        assert cli.main(["median", "check", path]) == 0
        first = len(built)
        assert first > 1
        assert cli.main(["diag", "grid", path]) == 0
        assert cli.main(["racg", "squares", path]) == 0
        assert len(built) == first

    def test_no_state_leaks_between_calls(self, files, capsys):
        g = files("g", SQUARE)
        _, rep = run_json(capsys, ["diag", "rect", g, "--cap", "5"])
        assert rep["parameters"]["cap"] == 5
        _, rep = run_json(capsys, ["diag", "rect", g])
        assert rep["parameters"]["cap"] == diagnostics.RECT_STATE_CAP

        s = files("s", SUBS)
        _, rep = run_json(capsys, ["coneoff", "build", g, s, "--pair", "a", "c"])
        assert "pair_distance" in {r["quantity"] for r in rep["results"]}
        _, rep = run_json(capsys, ["coneoff", "build", g, s])
        assert "pair_distance" not in {r["quantity"] for r in rep["results"]}
        assert rep["parameters"] == {"kind": "clique"}

        _, rep = run_json(capsys, ["racg", "nf", g, "a", "b"])
        assert rep["parameters"]["word"] == ["a", "b"]
        _, rep = run_json(capsys, ["racg", "nf", g])
        assert rep["parameters"]["word"] == []

    def test_library_patched_after_caching_is_honoured(
        self, files, capsys, monkeypatch
    ):
        def broken(*args, **kwargs):
            raise ConsistencyError("cross-check failed")

        path = files("g", SQUARE)
        assert cli.main(["diag", "delta", path]) == 0
        monkeypatch.setattr(diagnostics, "delta", broken)
        assert cli.main(["diag", "delta", path]) == 3
        assert "cross-check failed" in capsys.readouterr().err

    def test_import_builds_no_parser(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def spy(self, *a, **k):\n"
            "    built.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = spy\n"
            "import cubekit.cli\n"
            "print(len(built), cubekit.cli._build_parser.cache_info().currsize)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 0"


class TestReportShape:
    def test_json_fields(self, files, capsys):
        code, rep = run_json(capsys, ["median", "check", files("g", SQUARE)])
        assert code == 0
        assert set(rep) == {
            "anchors",
            "command",
            "duration_s",
            "inputs",
            "parameters",
            "results",
            "verdict",
        }
        assert rep["command"] == "median check"
        assert len(rep["inputs"][0]["sha256"]) == 64
        for r in rep["results"]:
            assert {"quantity", "value", "method"} <= set(r)
            assert r["method"] in {"exact", "lower_bound"}

    def test_json_deterministic_modulo_duration(self, files, capsys):
        path = files("p", PENTAGON_POWER)
        _, a = run_json(capsys, ["sc", "check", path])
        _, b = run_json(capsys, ["sc", "check", path])
        a.pop("duration_s")
        b.pop("duration_s")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_anchor_echoed(self, files, capsys):
        _, rep = run_json(capsys, ["diag", "grid", files("g", SQUARE)])
        assert rep["anchors"] == [cli.ANCHORS["diag grid"]]

    def test_version_lists_every_command(self, capsys):
        assert cli.main(["--version"]) == 0
        out = capsys.readouterr().out
        for cmd in cli.ANCHORS:
            assert cmd in out

    def test_anchor_keys_match_command_tree(self):
        expected = {
            "median check",
            "median hyperplanes",
            "median cubes",
            "median dist",
            "diag grid",
            "diag rect",
            "diag delta",
            "diag bigon",
            "coneoff build",
            "coneoff fineness",
            "coneoff probe",
            "racg nf",
            "racg ball",
            "racg squares",
            "racg contracting",
            "racg jdecomp",
            "racg relhyp",
            "sc check",
            "poly validate",
            "poly sc",
            "poly walls",
            "poly dual",
            "poly classify",
            "poly project",
        }
        assert set(cli.ANCHORS) == expected


class TestMedianCommands:
    def test_hyperplane_listing(self, files, capsys):
        _, rep = run_json(capsys, ["median", "hyperplanes", files("g", SQUARE)])
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["hyperplane_count"]["value"] == 2
        listing = results["hyperplanes"]["value"]
        assert all(h["dimension"] == 2 for h in listing)
        assert all(h["side_sizes"] == [2, 2] for h in listing)

    def test_cubes(self, files, capsys):
        _, rep = run_json(capsys, ["median", "cubes", files("g", SQUARE)])
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["maximal_cube_count"]["value"] == 1
        assert results["cube_count_by_dimension"]["value"] == {"1": 4, "2": 1}

    @pytest.mark.parametrize(
        "argv,built_any",
        [
            (["median", "hyperplanes", "GRID"], False),
            (["median", "dist", "GRID", "0,0", "3,2", "--metric", "linf"], False),
            (["median", "cubes", "GRID"], True),
            (["poly", "classify", "HEX"], True),
        ],
        ids=["hyperplanes", "dist_linf", "cubes", "poly_classify"],
    )
    def test_only_maximal_cubes_are_built(self, argv, built_any, files, capsys, monkeypatch):
        # cube counts, hyperplane dimensions and the linf cone-off read the
        # cube rows; a Cube object is made only for a maximal cube listed
        built = []

        class Spy(median.Cube):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self.maximal)

        monkeypatch.setattr(median, "Cube", Spy)
        grid = grid_graph(3, 2)
        text = serialize_graph(grid.ids, [(grid.ids[a], grid.ids[b]) for a, b in grid.edges])
        paths = {"GRID": files("g", text), "HEX": files("h", HEX_POLY)}
        code, _ = run_json(capsys, [paths.get(a, a) for a in argv])
        assert code == 0
        assert all(built) and bool(built) == built_any

    def test_dist_metrics(self, files, capsys):
        path = files("g", SQUARE)
        _, l1 = run_json(capsys, ["median", "dist", path, "a", "c"])
        _, li = run_json(
            capsys, ["median", "dist", path, "a", "c", "--metric", "linf"]
        )
        assert l1["results"][0]["value"] == 2
        assert li["results"][0]["value"] == 1
        assert li["parameters"]["metric"] == "linf"


class TestDiagCommands:
    def test_grid_witness(self, files, capsys):
        _, rep = run_json(capsys, ["diag", "grid", files("g", SQUARE)])
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["grid_thinness"]["value"] == 1
        w = results["grid_thinness"]["witness"]
        assert len(w["verticals"]) == 1 and len(w["horizontals"]) == 1

    def test_delta_and_bigon(self, files, capsys):
        path = files("g", SQUARE)
        _, d = run_json(capsys, ["diag", "delta", path, "--metric", "linf"])
        assert d["results"][0]["value"] == 0
        _, b = run_json(capsys, ["diag", "bigon", path])
        assert b["results"][0]["value"] == 1


class TestConeoffCommands:
    def test_build_with_pair(self, files, capsys):
        g, s = files("g", SQUARE), files("s", SUBS)
        _, rep = run_json(capsys, ["coneoff", "build", g, s, "--pair", "a", "c"])
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["members"]["value"] == ["side", "top"]
        assert results["pair_distance"]["value"] == 2
        assert len(rep["inputs"]) == 2

    def test_apex_build(self, files, capsys):
        g, s = files("g", SQUARE), files("s", SUBS)
        _, rep = run_json(capsys, ["coneoff", "build", g, s, "--kind", "apex"])
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["vertices"]["value"] == 6

    def test_fineness(self, files, capsys):
        g, s = files("g", SQUARE), files("s", SUBS)
        _, rep = run_json(capsys, ["coneoff", "fineness", g, s])
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["edge_multiplicity"]["value"] == 1
        assert results["common_crossings"]["value"] == 0

    def test_probe(self, files, capsys):
        g, s = files("g", SQUARE), files("s", SUBS)
        _, rep = run_json(
            capsys,
            ["coneoff", "probe", g, s, "--edge", "a", "b", "--probe-length", "4"],
        )
        r = rep["results"][0]
        assert r["quantity"] == "cycle_count"
        assert r["method"] in {"exact", "lower_bound"}


class TestRacgCommands:
    def test_nf(self, files, capsys):
        _, rep = run_json(capsys, ["racg", "nf", files("g", SQUARE), "a", "b", "a"])
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["normal_form"]["value"] == "b"
        assert results["length"]["value"] == 1

    def test_ball(self, files, capsys):
        _, rep = run_json(capsys, ["racg", "ball", files("g", C5), "-r", "2"])
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["vertices"]["value"] == 21

    def test_squares(self, files, capsys):
        _, rep = run_json(capsys, ["racg", "squares", files("g", SQUARE)])
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["squares"]["value"] == [["a", "b", "c", "d"]]

    def test_contracting(self, files, capsys):
        _, rep = run_json(capsys, ["racg", "contracting", files("g", C5)])
        results = {r["quantity"]: r for r in rep["results"]}
        assert all(results["contracting"]["value"].values())

    def test_jdecomp_trace(self, files, capsys):
        _, rep = run_json(capsys, ["racg", "jdecomp", files("g", SQUARE)])
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["trace"]["value"] == [[["a", "b", "c", "d"]]]
        assert results["trivial"]["value"] is True

    def test_relhyp_report(self, files, capsys):
        code, rep = run_json(capsys, ["racg", "relhyp", files("g", C5)])
        assert code == 0
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["peripherals"]["value"] == []
        assert "trace" in results

    def test_squares_are_searched_once(self, files, capsys, monkeypatch):
        calls = []
        real = racg.DefiningGraph.induced_squares

        def spy(dg):
            calls.append(dg)
            return real(dg)

        monkeypatch.setattr(racg.DefiningGraph, "induced_squares", spy)
        _, rep = run_json(capsys, ["racg", "squares", files("g", SQUARE)])
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["square_vertices"]["value"] == ["a", "b", "c", "d"]
        assert len(calls) == 1

    def test_k2x15_is_decided_from_squares(self, files, capsys):
        # K_{2x15} has 2^15 closed join sides, past JOIN_ENUM_CAP, but the
        # squares seed and its cover check never enumerate joins
        vs = [f"{c}{i}" for i in range(15) for c in "xy"]
        text = "".join(f"vertex {v}\n" for v in vs)
        text += "".join(
            f"edge {a} {b}\n" for i, a in enumerate(vs) for b in vs[i + 1 :]
            if a[1:] != b[1:]
        )
        g = files("g", text)
        code, rep = run_json(capsys, ["racg", "relhyp", g])
        assert code == 1
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["peripherals"]["value"] == [sorted(vs)]
        # jdecomp gives no verdict, so it exits 0 with the trivial fixed point
        code, rep = run_json(capsys, ["racg", "jdecomp", g])
        assert code == 0
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["members"]["value"] == [sorted(vs)]
        assert results["trivial"]["value"] is True
        for op in ("relhyp", "jdecomp"):
            assert cli.main(["racg", op, g, "--seed", "large_joins"]) == 4
            assert "JOIN_ENUM_CAP" in capsys.readouterr().err

    def test_sixteen_generators_past_the_old_subset_scan(self, files, capsys):
        # C4 with a 12-vertex path hanging off corner a: 16 generators
        path = [f"p{i}" for i in range(12)]
        text = SQUARE + "".join(f"vertex {v}\n" for v in path)
        text += "".join(f"edge {u} {w}\n" for u, w in zip(["a"] + path, path))
        g = files("g", text)
        code, rep = run_json(capsys, ["racg", "relhyp", g])
        assert code == 0
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["peripherals"]["value"] == [["a", "b", "c", "d"]]
        code, rep = run_json(capsys, ["racg", "contracting", g])
        assert code == 0
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["join_peripherals"]["value"] == [["a", "b", "c", "d"]]


class TestScCommand:
    def test_pass(self, files, capsys):
        code, rep = run_json(capsys, ["sc", "check", files("p", PENTAGON_POWER)])
        assert code == 0
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["Cprime"]["value"] == "pass"
        assert results["T"]["value"] == "pass"
        assert rep["verdict"] is True

    def test_fail_with_piece_witness(self, files, capsys):
        code, rep = run_json(capsys, ["sc", "check", files("p", SQUARE_POWER)])
        assert code == 1
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["Cprime"]["value"] == "fail"
        assert results["Cprime"]["witness"]["length"] == 2
        assert results["T"]["value"] == "pass"

    def test_values_filter(self, files, capsys):
        path = files("p", SQUARE_POWER)
        code, rep = run_json(capsys, ["sc", "check", path, "--values", "1"])
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["relator_count"]["value"] == 1
        assert rep["parameters"]["values"] == [1]

    def test_bad_lambda_is_input_error(self, files, capsys):
        path = files("p", PENTAGON_POWER)
        assert cli.main(["sc", "check", path, "--lambda", "5/4"]) == 2


class TestPolyCommands:
    def test_validate(self, files, capsys):
        code, rep = run_json(capsys, ["poly", "validate", files("h", HEX_POLY)])
        assert code == 0
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["sides"]["value"] == {"P": 6}

    def test_sc(self, files, capsys):
        code, rep = run_json(capsys, ["poly", "sc", files("h", HEX_POLY)])
        assert code == 0
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["cover_values"]["value"] == {"P": None}

    def test_walls(self, files, capsys):
        _, rep = run_json(capsys, ["poly", "walls", files("h", HEX_POLY)])
        results = {r["quantity"]: r for r in rep["results"]}
        listing = results["walls"]["value"]
        assert len(listing) == 3
        assert all(w["two_sided"] for w in listing)
        assert listing[0]["edges"] == ["e0", "e3"]

    def test_dual_text_roundtrip(self, files, capsys):
        cli.main(["poly", "dual", files("h", HEX_POLY)])
        out = capsys.readouterr().out
        vs, es = parse_graph(out)
        g = MedianGraph(vs, es)
        assert g.n == 8 and len(g.edges) == 12
        assert g.is_median().ok
        assert "# wall 0 : e0 e3" in out
        assert "# principal v0 ->" in out

    def test_wall_less_dual(self, files, capsys):
        # one vertex, no edges, every complex vertex on it
        path = files("w", WALL_LESS_POLY)
        assert cli.main(["poly", "dual", path]) == 0
        assert capsys.readouterr().out == WALL_LESS_DUAL.format(path=path)
        code, rep = run_json(capsys, ["poly", "dual", path])
        assert code == 0
        values = [(r["quantity"], r["value"], r["method"]) for r in rep["results"]]
        assert values == [
            ("vertices", 1, "exact"),
            ("edges", 0, "exact"),
            ("walls", 0, "exact"),
            ("hyperplane_walls", [], "exact"),
            ("graph", {"edges": [], "vertices": ["o"]}, "exact"),
            ("principal", {"a": "o", "b": "o"}, "exact"),
        ]
        assert rep["parameters"] == {} and rep["verdict"] is None

    def test_dual_json(self, files, capsys):
        _, rep = run_json(capsys, ["poly", "dual", files("h", HEX_POLY)])
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["vertices"]["value"] == 8
        assert sorted(results["hyperplane_walls"]["value"]) == [0, 1, 2]
        graph = results["graph"]["value"]
        assert len(graph["vertices"]) == 8 and len(graph["edges"]) == 12

    def test_classify(self, files, capsys):
        code, rep = run_json(capsys, ["poly", "classify", files("h", HEX_POLY)])
        assert code == 0
        results = {r["quantity"]: r for r in rep["results"]}
        tags = results["tags"]["value"]
        assert tags[0]["kind"] == "cell-cube" and tags[0]["dimension"] == 3

    def test_project_and_transfer(self, files, capsys):
        path = files("h", HEX_POLY)
        code, rep = run_json(capsys, ["poly", "project", path, "o000"])
        assert code == 0
        assert rep["results"][0]["value"]["kind"] == "polygon-center"
        code, rep = run_json(capsys, ["poly", "project", path, "o000", "o111"])
        assert code == 0
        results = {r["quantity"]: r for r in rep["results"]}
        assert results["dual_disjoint"]["value"] == 1
        assert rep["verdict"] is True

    def test_transfer_projects_each_vertex_once(self, files, capsys, monkeypatch):
        calls = []

        def spy(x, dc, v, report=None):
            calls.append(v)
            return real(x, dc, v, report)

        real = polygonal.dual_projection
        monkeypatch.setattr(polygonal, "dual_projection", spy)
        path = files("h", HEX_POLY)
        _, rep = run_json(capsys, ["poly", "project", path, "o000", "o111"])
        assert calls == ["o000", "o111"]
        assert rep["results"][0]["value"]["kind"] == "polygon-center"
        calls.clear()
        run_json(capsys, ["poly", "project", path, "o000"])
        assert calls == ["o000"]

    def test_unknown_dual_vertex_is_input_error(self, files, capsys):
        assert cli.main(["poly", "project", files("h", HEX_POLY), "zzz"]) == 2

    def test_projection_out_of_an_unmatched_cube_is_input_error(self, files, capsys):
        # the wall-less complex has one dual vertex, in no classified cube:
        # classify fails its verdict, and projecting from it is bad input
        path = files("w", WALL_LESS_POLY)
        assert cli.main(["poly", "classify", path]) == 1
        capsys.readouterr()
        for argv in (["o"], ["o", "o"]):
            assert cli.main(["poly", "project", path, *argv]) == 2
            err = capsys.readouterr().err
            assert "projection needs a small-cancellation complex" in err
