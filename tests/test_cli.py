import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from toricpack import cli, jsonio
from toricpack.cli import main

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Files that are no JSON document: bytes that are not UTF-8, arrays nested
# too deep to decode, and an integer past the interpreter's digit limit for
# conversion.  All are parse failures, exit 1.
UNDECODABLE = [
    b'\xff\xfe{"dim": 2}',
    b"[" * 100000 + b"]" * 100000,
    b'{"dim": ' + b"1" * 5000 + b"}",
]
UNDECODABLE_IDS = ["not utf-8", "nested 100000 deep", "5000-digit integer"]


@pytest.fixture()
def square_spec(tmp_path, capsys):
    path = tmp_path / "square.json"
    code, _, _ = run(capsys, "family", "cube", "2", "1", "-o", str(path), "--name", "square")
    assert code == 0
    return path


class TestFamily:
    @pytest.mark.parametrize(
        "args",
        [
            ("simplex", "3", "1"),
            ("simplex", "1", "5/2"),
            ("cube", "4"),
            ("chopped_simplex", "1/10", "1/10"),
            ("chopped_simplex", "9/10", "1/20"),
            ("product", "simplex:1:1", "simplex:2:1"),
            ("scale", "cube:2:1", "3"),
        ],
    )
    def test_roundtrip_validates(self, tmp_path, capsys, args):
        out = tmp_path / "spec.json"
        code, _, _ = run(capsys, "family", *args, "-o", str(out))
        assert code == 0
        code, stdout, _ = run(capsys, "validate", str(out))
        assert code == 0
        assert "valid Delzant polytope" in stdout

    def test_unknown_generator(self, capsys):
        code, _, err = run(capsys, "family", "dodecahedron", "1")
        assert code == 1
        assert "unknown generator" in err

    def test_invalid_args_domain(self, capsys):
        code, _, err = run(capsys, "family", "chopped_simplex", "3/4", "1/2")
        assert code == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (("simplex", "0"), "simplex dimension must be >= 1, got 0"),
            (("simplex", "-1"), "simplex dimension must be >= 1, got -1"),
            (("product", "simplex:0", "cube:1"), "simplex dimension must be >= 1, got 0"),
            (("cube", "0"), "cube dimension must be >= 1, got 0"),
            (("cube", "-1"), "cube dimension must be >= 1, got -1"),
        ],
    )
    def test_dimension_below_one_named(self, capsys, args, message):
        code, out, err = run(capsys, "family", *args)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (("chopped_simplex", "1/2", "1/2", "3"),
             "chop parameters give an invalid polytope: not simple at vertex 6"),
            (("chopped_simplex", "1", "0"), "chop depth must be less than 1"),
            (("simplex", "2", "0"), "scale must be positive"),
            (("cube", "2", "0"), "scale must be positive"),
            (("scale", "cube:2", "0"), "scale factor must be positive"),
            # A negative rational reaches the generator, not argparse.
            (("chopped_simplex", "-1/10", "1/10"), "chop depths must be nonnegative"),
            (("cube", "2", "-1/2"), "scale must be positive"),
        ],
    )
    def test_generator_domain_error_named(self, capsys, args, message):
        code, out, err = run(capsys, "family", *args)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("n", ["1", "0"])
    def test_chopped_simplex_dimension_named(self, capsys, n):
        code, out, err = run(capsys, "family", "chopped_simplex", "1/10", "1/10", n)
        assert code == 2
        assert out == ""
        assert err == f"error: chopped simplex dimension must be >= 2, got {n}\n"

    def test_non_integer_n_refused(self, capsys):
        # int() would take the underscores and the space, and refuse 5000
        # digits with a message that names no argument.
        for n in ["2.5", "1_0", "2_0", " 2", "1" * 5000]:
            code, out, err = run(capsys, "family", "cube", n)
            assert code == 1
            assert out == ""
            assert err == f"error: args[0] must be an integer, got {n!r}\n"

    @pytest.mark.parametrize("scale", ["\u0662", "2.0", "1e3", "+2", "2/0"])
    def test_non_rational_scale_refused(self, capsys, scale):
        code, out, err = run(capsys, "family", "cube", "2", scale)
        assert (code, out) == (1, "")
        assert err == f"error: args[1] must be an integer or a rational string, got {scale!r}\n"

    def test_prism_counts(self, tmp_path, capsys):
        out = tmp_path / "prism.json"
        run(capsys, "family", "product", "simplex:1:1", "simplex:2:1", "-o", str(out))
        code, stdout, _ = run(capsys, "validate", str(out), "--json")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["num_vertices"] == 6 and doc["num_facets"] == 5


class TestValidate:
    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 1
        assert err.startswith(f"error: {bad}: Expecting property name")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "does-not-exist.json")
        assert code == 1

    @pytest.mark.parametrize("data", UNDECODABLE, ids=UNDECODABLE_IDS)
    def test_undecodable_spec(self, tmp_path, capsys, data):
        spec = tmp_path / "bad.json"
        spec.write_bytes(data)
        code, out, err = run(capsys, "validate", str(spec))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {spec}: ")

    def test_non_delzant(self, tmp_path, capsys):
        spec = tmp_path / "tri.json"
        spec.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "halfspaces": [
                        {"normal": [1, 0], "offset": "0"},
                        {"normal": [0, 1], "offset": "0"},
                        {"normal": [-1, -2], "offset": "-2"},
                    ],
                }
            )
        )
        code, _, err = run(capsys, "validate", str(spec))
        assert code == 2
        assert "not unimodular at vertex 1 (det = -2)" in err

    def test_both_forms_rejected(self, tmp_path, capsys):
        spec = tmp_path / "both.json"
        spec.write_text(
            json.dumps({"generator": "cube", "args": ["2"], "dim": 2, "halfspaces": []})
        )
        code, _, err = run(capsys, "validate", str(spec))
        assert code == 1

    def test_generator_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "gen.json"
        spec.write_text(json.dumps({"generator": "chopped_simplex", "args": ["1/10", "1/10"]}))
        code, stdout, _ = run(capsys, "validate", str(spec), "--json")
        assert code == 0
        assert json.loads(stdout)["num_facets"] == 5

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("dim", 2.9, "dim must be an integer"),
            ("dim", True, "dim must be an integer"),
            ("normal", [1.7, 0], "halfspace 0: normal entries must be integers"),
            ("normal", [0, True], "halfspace 0: normal entries must be integers"),
            ("offset", True, "halfspace 0: offset must be"),
            ("offset", 0.5, "halfspace 0: offset must be"),
            ("offset", "zero", "halfspace 0: offset must be"),
            ("normal", [0, 0], "halfspace 0: normal must be nonzero, got [0, 0]"),
            ("normal", [1], "halfspace 0: normal must have 2 entries, got [1]"),
            ("dim", 0, "error: dim must be at least 1, got 0"),
            ("dim", -1, "error: dim must be at least 1, got -1"),
            # Only -?[0-9]+(/[0-9]+)? is read: an exponent would be expanded
            # digit by digit, and other digit scripts would pass as digits.
            ("offset", "-1e10000000", "halfspace 0: offset must be"),
            ("offset", "1.5", "halfspace 0: offset must be"),
            ("offset", "+1", "halfspace 0: offset must be"),
            ("offset", " 1", "halfspace 0: offset must be"),
            ("offset", "1/0", "halfspace 0: offset must be"),
            ("offset", "\u0662", "halfspace 0: offset must be"),
        ],
    )
    def test_malformed_spec_refused(self, tmp_path, capsys, field, value, message):
        # The unit square with one field of its first halfspace (or dim)
        # replaced by a value that is not an exact integer or rational.
        doc = {
            "dim": 2,
            "halfspaces": [
                {"normal": [1, 0], "offset": "0"},
                {"normal": [0, 1], "offset": "0"},
                {"normal": [-1, 0], "offset": "-1"},
                {"normal": [0, -1], "offset": "-1"},
            ],
        }
        if field == "dim":
            doc["dim"] = value
        else:
            doc["halfspaces"][0][field] = value
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(spec))
        assert code == 1
        assert out == ""
        assert message in err


    @pytest.mark.parametrize("name", [5, True, [1], {}])
    @pytest.mark.parametrize("command", [["validate"], ["pack", "--json"]])
    def test_name_must_be_a_string(self, tmp_path, capsys, command, name):
        # A number, a boolean or a list would be printed as a label; an
        # empty object would be dropped.
        spec = tmp_path / "named.json"
        spec.write_text(json.dumps({"name": name, "generator": "cube", "args": [2]}))
        code, out, err = run(capsys, command[0], str(spec), *command[1:])
        assert code == 1
        assert out == ""
        assert f"name must be a string, got {name!r}" in err

    @pytest.mark.parametrize("args", [5, "2", {"n": 2}, None])
    def test_generator_args_must_be_a_list(self, tmp_path, capsys, args):
        spec = tmp_path / "gen.json"
        spec.write_text(json.dumps({"generator": "cube", "args": args}))
        code, out, err = run(capsys, "validate", str(spec))
        assert code == 1
        assert out == ""
        assert "generator args must be a list" in err

    @pytest.mark.parametrize(
        "generator,args,message",
        [
            ("cube", [2.5], "args[0] must be an integer, got 2.5"),
            ("cube", [True], "args[0] must be an integer, got True"),
            ("cube", [None], "args[0] must be an integer, got None"),
            ("chopped_simplex", ["1/10", 0.5], "args[1] must be an integer or a rational string"),
            ("cube", [2, "half"], "args[1] must be an integer or a rational string"),
            ("product", ["simplex:2.5", "cube:2"],
             "args[0] = 'simplex:2.5': args[0] must be an integer, got '2.5'"),
            ("product", ["cube:2", "simplex"], "args[1] = 'simplex': simplex takes: n [scale]"),
            ("product", ["cube:2", 2], "args[1] must be a generator spec, got 2"),
            ("scale", ["orb:2", "3"], "args[0] must be a generator spec, got 'orb:2'"),
            ("cube", ["1_0"], "args[0] must be an integer, got '1_0'"),
            ("cube", ["2_0"], "args[0] must be an integer, got '2_0'"),
            ("cube", [" 2"], "args[0] must be an integer, got ' 2'"),
            ("cube", [], "cube takes: n [scale]"),
            ("cube", [2, 1, 1], "cube takes: n [scale]"),
            ("chopped_simplex", ["1/10"], "chopped_simplex takes: eps1 eps2 [n]"),
            ("chopped_simplex", ["1/10", "1/10", 2, 2], "chopped_simplex takes: eps1 eps2 [n]"),
            ("scale", ["cube:2"], "scale takes: spec lam"),
        ],
    )
    def test_generator_arg_refused(self, tmp_path, capsys, generator, args, message):
        spec = tmp_path / "gen.json"
        spec.write_text(json.dumps({"generator": generator, "args": args}))
        code, out, err = run(capsys, "validate", str(spec))
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "generator,args",
        [
            ("cube", [2, 1]),
            ("cube", ["2", "3/2"]),
            ("chopped_simplex", ["1/10", "1/5", 3]),
            ("scale", ["cube:2:1", 3]),
        ],
    )
    def test_generator_args_by_role(self, tmp_path, capsys, generator, args):
        spec = tmp_path / "gen.json"
        spec.write_text(json.dumps({"generator": generator, "args": args}))
        code, out, err = run(capsys, "validate", str(spec))
        assert code == 0, err
        assert "valid Delzant polytope" in out


class TestPack:
    def test_square_json(self, square_spec, capsys):
        code, stdout, _ = run(capsys, "pack", str(square_spec), "--all", "--json")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["max_density"] == "1"
        assert doc["num_maximizers"] == 2
        assert doc["maximal_packings"] == [
            ["0", "1", "1", "0"],
            ["1", "0", "0", "1"],
        ]
        assert doc["packing_polytope"]["dim"] == 4
        assert len(doc["packing_polytope"]["halfspaces"]) == 10

    def test_first_only_without_all(self, square_spec, capsys):
        code, stdout, _ = run(capsys, "pack", str(square_spec), "--json")
        doc = json.loads(stdout)
        assert doc["num_maximizers"] == 2
        assert len(doc["maximal_packings"]) == 1

    def test_pentagon_density(self, tmp_path, capsys):
        spec = tmp_path / "pent.json"
        run(capsys, "family", "chopped_simplex", "1/10", "1/10", "-o", str(spec))
        code, stdout, _ = run(capsys, "pack", str(spec), "--json")
        assert json.loads(stdout)["max_density"] == "83/98"

    def test_sliver_density(self, tmp_path, capsys):
        spec = tmp_path / "sliver.json"
        run(capsys, "family", "chopped_simplex", "9/10", "1/20", "-o", str(spec))
        code, stdout, _ = run(capsys, "pack", str(spec), "--json")
        assert json.loads(stdout)["max_density"] == "2/25"

    def test_render_svg(self, square_spec, tmp_path, capsys):
        svg = tmp_path / "out.svg"
        code, _, _ = run(
            capsys, "pack", str(square_spec), "--render", str(svg), "--json"
        )
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert 'viewBox="0 0 800 800"' in text
        assert 'fill-opacity="0.4"' in text
        assert "r=1" in text

    def test_render_rejects_3d(self, tmp_path, capsys):
        spec = tmp_path / "cube3.json"
        run(capsys, "family", "cube", "3", "-o", str(spec))
        code, _, err = run(capsys, "render", str(spec), str(tmp_path / "x.svg"))
        assert code == 2

    def test_pack_render_rejects_3d_before_maximize(self, tmp_path, capsys, monkeypatch):
        # pack --render refuses a non-planar spec as render does, before any
        # packing is maximized.
        spec = tmp_path / "cube3.json"
        run(capsys, "family", "cube", "3", "-o", str(spec))
        svg = tmp_path / "x.svg"
        refused = run(capsys, "render", str(spec), str(svg))
        calls = []
        monkeypatch.setattr(cli, "maximize", calls.append)
        assert run(capsys, "pack", str(spec), "--render", str(svg)) == refused
        assert refused == (2, "", "error: SVG rendering needs a planar polytope\n")
        assert calls == [] and not svg.exists()

    def test_text_builds_no_packing_polytope(self, square_spec, capsys, monkeypatch):
        # Text mode prints the density and the maximizers only; the packing
        # polytope's rows are written for the JSON report alone.
        calls = []
        original = jsonio._packing_rows
        monkeypatch.setattr(jsonio, "_packing_rows", lambda D: calls.append(D) or original(D))
        assert run(capsys, "pack", str(square_spec)) == (
            0, "square: max density 1 (2 maximal packing(s))\n  0 1 1 0\n", ""
        )
        assert run(capsys, "pack", str(square_spec), "--all")[0] == 0
        assert calls == []
        assert run(capsys, "pack", str(square_spec), "--json")[0] == 0
        assert len(calls) == 1

    def test_deterministic_output(self, square_spec, capsys):
        _, out1, _ = run(capsys, "pack", str(square_spec), "--all", "--json")
        _, out2, _ = run(capsys, "pack", str(square_spec), "--all", "--json")
        assert out1 == out2


class TestInfo:
    def test_report_fields(self, square_spec, capsys):
        code, stdout, _ = run(capsys, "info", str(square_spec))
        assert code == 0
        doc = json.loads(stdout)
        assert doc["euler_characteristic"] == 4
        assert doc["volume"] == "1"
        assert doc["corner_radii"] == ["1", "1", "1", "1"]
        assert len(doc["fan_rays"]) == 4
        assert len(doc["frames"]) == 4
        assert all(e["length"] == "1" for e in doc["edges"])
        assert doc["pair_bounds"][0][3] == "2"

    def test_safe_radius_field(self, square_spec, capsys):
        code, stdout, _ = run(capsys, "info", str(square_spec), "--safe-radius")
        assert code == 0
        assert json.loads(stdout)["safe_radius_estimate"] == "1/2"

    def test_deterministic(self, square_spec, capsys):
        _, out1, _ = run(capsys, "info", str(square_spec))
        _, out2, _ = run(capsys, "info", str(square_spec))
        assert out1 == out2


class TestScan:
    @pytest.fixture()
    def direction(self, tmp_path):
        path = tmp_path / "dir.json"
        path.write_text(json.dumps({"s2": ["0", "0", "-1", "0"]}))
        return path

    def test_rectangle_scan(self, square_spec, direction, tmp_path, capsys):
        csv_path = tmp_path / "scan.csv"
        summary_path = tmp_path / "sum.json"
        code, _, _ = run(
            capsys,
            "scan",
            "--base",
            str(square_spec),
            "--dir",
            str(direction),
            "--samples",
            "16",
            "--csv",
            str(csv_path),
            "--summary",
            str(summary_path),
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,volume,omega,omega_decimal,n_maximizers"
        assert len(lines) == 18
        omegas = [F(line.split(",")[2]) for line in lines[1:]]
        assert omegas[0] == 1 and omegas[-1] == F(1, 2)
        assert all(a > b for a, b in zip(omegas, omegas[1:]))
        summary = json.loads(summary_path.read_text())
        assert summary["vol_root_midpoint_concave"] is True
        assert summary["omega_root_midpoint_convex_near_zero"] is True
        assert summary["endpoints_homothetic"] is False

    def test_constant_direction(self, square_spec, tmp_path, capsys):
        d = tmp_path / "zero.json"
        d.write_text(json.dumps({"s2": ["0", "0", "0", "0"]}))
        code, stdout, err = run(
            capsys, "scan", "--base", str(square_spec), "--dir", str(d), "--samples", "4"
        )
        assert code == 0
        rows = stdout.strip().splitlines()[1:]
        value_columns = {row.split(",", 1)[1] for row in rows}
        assert len(value_columns) == 1

    def test_collapse_direction_names_t(self, square_spec, tmp_path, capsys):
        d = tmp_path / "bad.json"
        d.write_text(json.dumps({"s2": ["2", "0", "0", "0"]}))
        code, _, err = run(
            capsys, "scan", "--base", str(square_spec), "--dir", str(d), "--samples", "4"
        )
        assert code == 2
        assert "t = 1/2" in err

    def test_direction_length_named(self, square_spec, tmp_path, capsys):
        d = tmp_path / "short.json"
        d.write_text(json.dumps({"s2": [0, 0, -1]}))
        code, out, err = run(
            capsys, "scan", "--base", str(square_spec), "--dir", str(d), "--samples", "4"
        )
        assert code == 2
        assert out == ""
        assert err == "error: offset vector has 3 entries, the polytope has 4 facets\n"

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_named(self, square_spec, direction, capsys, samples):
        code, out, err = run(
            capsys, "scan", "--base", str(square_spec), "--dir", str(direction),
            "--samples", samples,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --samples must be at least 1, got {samples}\n"

    def test_missing_s2(self, square_spec, tmp_path, capsys):
        d = tmp_path / "empty.json"
        d.write_text("{}")
        code, _, err = run(
            capsys, "scan", "--base", str(square_spec), "--dir", str(d)
        )
        assert code == 1

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"s2": 5}, "s2 must be a list"),
            ({"s2": None}, "s2 must be a list"),
            ({"s2": [True, 0, 0, 0]}, "s2[0] must be an integer or a rational string"),
            ({"s2": [0, 0.5, 0, 0]}, "s2[1] must be an integer or a rational string"),
            ({"s2": [0, 0, None, 0]}, "s2[2] must be an integer or a rational string"),
            ({"s2": [0, 0, 0, "half"]}, "s2[3] must be an integer or a rational string"),
            ({"s2": [0, 0, -1, 0], "s1": None}, "s1 must be a list"),
            ({"s2": [0, 0, -1, 0], "s1": [0, False, 0, 0]}, "s1[1] must be an integer"),
            ({"s2": [0, 0, -1, 0], "s1": [0, 0]}, "s1 has 2 entries, s2 has 4"),
            ({"s2": [0, 0, "-1e9", 0]}, "s2[2] must be an integer or a rational string"),
        ],
    )
    def test_malformed_direction_refused(self, square_spec, tmp_path, capsys, doc, message):
        d = tmp_path / "bad.json"
        d.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "scan", "--base", str(square_spec), "--dir", str(d), "--samples", "4"
        )
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("data", UNDECODABLE, ids=UNDECODABLE_IDS)
    def test_undecodable_direction_refused(self, square_spec, tmp_path, capsys, data):
        d = tmp_path / "bad.json"
        d.write_bytes(data)
        code, out, err = run(
            capsys, "scan", "--base", str(square_spec), "--dir", str(d), "--samples", "4"
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {d}: ")

    def test_direction_entries_exact(self, square_spec, tmp_path, capsys):
        # JSON integers and rational strings mix freely, as in spec offsets.
        d = tmp_path / "dir.json"
        d.write_text(json.dumps({"s1": [0, "0", 0, "0"], "s2": [0, "0", -1, "-0/3"]}))
        code, out, _ = run(
            capsys, "scan", "--base", str(square_spec), "--dir", str(d), "--samples", "2"
        )
        assert code == 0
        assert [row.split(",")[2] for row in out.strip().splitlines()[1:]] == ["1", "2/3", "1/2"]


def toricpack_process(*argv):
    """``python -m toricpack <argv>`` in a fresh process."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "toricpack", *argv],
                          env=env, capture_output=True, text=True)


def test_python_dash_m(tmp_path):
    # ``python -m toricpack`` runs the CLI and exits with its code.
    spec = tmp_path / "square.json"
    made = toricpack_process("family", "cube", "2", "-o", str(spec))
    assert made.returncode == 0, made.stderr
    packed = toricpack_process("pack", str(spec), "--json")
    assert packed.returncode == 0, packed.stderr
    assert json.loads(packed.stdout)["max_density"] == "1"
    bad = toricpack_process("family", "cube", "2.5")
    assert bad.returncode == 1
    assert "args[0] must be an integer" in bad.stderr


def test_parser_reused_across_calls(tmp_path, capsys):
    # ``main`` builds its parser once per process.  A second call with
    # other flags prints what a fresh process prints: no option of the
    # first call carries over.
    spec = tmp_path / "pentagon.json"
    assert toricpack_process("family", "chopped_simplex", "1/10", "1/10", "-o", str(spec),
                             "--name", "pentagon").returncode == 0
    calls = [("pack", str(spec), "--all", "--json"), ("pack", str(spec))]
    fresh = [toricpack_process(*argv) for argv in calls]
    reused = [run(capsys, *argv) for argv in calls]
    assert reused == [(p.returncode, p.stdout, p.stderr) for p in fresh]
    assert reused[0][1] != reused[1][1]
