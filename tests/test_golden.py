"""Golden outputs: the CLI's bytes on fixed specs must not change.

Each case pins the sha256 of one command's stdout followed by its stderr
(and, for ``render``, the SVG file it writes).
A refactor that keeps every exact result keeps these digests; a change that
alters any output byte (a number, an order, a field, a message) fails here
and must say why in its own record before the digest is updated.
"""

import hashlib
import json

import pytest

from toricpack.cli import main

SPECS = {
    "square": ("cube", "2", "1"),
    "pentagon": ("chopped_simplex", "1/10", "1/10"),
    "prism": ("product", "simplex:1:1", "simplex:2:1"),
    "cube3": ("cube", "3"),
    "chopped3": ("chopped_simplex", "1/10", "1/5", "3"),
    "cube4": ("cube", "4"),
    "simplex2xsquare": ("product", "simplex:2:1", "cube:2"),
    "chopped4": ("chopped_simplex", "1/10", "1/5", "4"),
    "chopped5": ("chopped_simplex", "1/10", "1/5", "5"),
    "simplex2": ("simplex", "2"),
    "pentagon20": ("chopped_simplex", "1/20", "1/20"),
}

COMMANDS = {
    "validate": ("validate", "{spec}", "--json"),
    "info": ("info", "{spec}", "--safe-radius"),
    "pack": ("pack", "{spec}", "--all", "--json"),
    "pack text": ("pack", "{spec}"),
    "pack text --all": ("pack", "{spec}", "--all"),
}

GOLDEN = {
    ("square", "validate"): "efab1279b97b68e571fbd3a780cb00748b241aae23e91eb3cc78001d7189f90d",
    ("square", "info"): "c6c09b2ec620badb0a6534adc33ca9827f0c781c2d022df2cf7457ae193cb50c",
    ("square", "pack"): "505d9cc34c84e6ab13c1da6229bb07d3f9ff0f27375054b86aa4224e7b44b247",
    ("pentagon", "validate"): "6206d98bd7acb1903047d99ea1a8e32416cc788deda9d898a64a7e4031e9988c",
    ("pentagon", "info"): "f1efee1805c2d3f79466fb1d91986bb052f3361cd88a4eb16bd8508e8ef4bfe4",
    ("pentagon", "pack"): "26fd35e47fca368f2dfb7daf14dc03e0b03980cf44809d2c4b49c5b204ae86fe",
    ("prism", "validate"): "c8003c5f73c683d31de10f90cd6507edcc4db0f462db9ffb654f08a1fa9da997",
    ("prism", "info"): "f87e29195dc0ffafef57f40af13fa507f3598f4cc056ddae3d2aec8b9a4a23b7",
    ("prism", "pack"): "218495f1763f351daca480e71b55d747af51b07e0e8053b053d30d79cc2c3040",
    ("cube3", "validate"): "910eec2cb9e56181838c8f6a1bee1ca9fa3ed3b40c7330980e826e7abe28c40a",
    ("cube3", "info"): "8d6f6f1c13ea6c81eea1d03891ffb7b93e4987dcc61007aa4f1b05699262225e",
    ("cube3", "pack"): "080e43eb76f49da1235ae464a84bb7db1044bc01ea01b4e0c64e91ecf18fbdf9",
    ("chopped3", "validate"): "06b5e40be124567c29da2584153f334309a52c78f42a50b05e90f6231bbf8878",
    ("chopped3", "info"): "de498dacb30582594ce4925a7bc4de5d13ff39ec60369e14b51b72f0587d66c4",
    ("chopped3", "pack"): "058cf713431fc4ea09823848d6328e7bc9450d813d32e4e7a75f54443114b30d",
    ("square", "scan"): "4ed3f4df49884b9defca372775793e9feebd881ddeadc08218bcdae6393bf581",
    ("chopped3", "scan"): "4cb82d1840679ab55fc75429f484b47232f7f4dcd7909ed6f3f2de0b6704176d",
    ("pentagon", "render"): "8fc1b6d71dfbeb4f4462e2f53f733f30fdf87ad0cbdb36f7bd5529bfb3d5ed58",
    # The outline starts at vertex 0 and goes on to its smaller neighbour.
    ("square", "render"): "769e37b30da4afc5341a7ae706c16458fd5165f5eb909967f862223854a21ffb",
    ("simplex2", "render"): "a2b1da37314a2f7075c93b8dd5044d0021c6277b06a06b76b192a76c26f93dee",
    ("pentagon20", "render"): "4f60afde1f344ae638edab40a1a6fb2ba4507b6d82b5f32dc68f1da672e4e7ec",
    # Packing polytopes of 743, 1816 and 1400 vertices, of which maximize
    # enumerates the 42, 31 and 115 blocked ones.
    ("cube4", "pack"): "f8dd95ffd087149118653cc2905421fe2cd55be80650e4937fd15d2e0495d3b3",
    ("simplex2xsquare", "pack"): "968585253a054f980a47698bf6222d812b7082091a22aa0cdda0a0b117402f57",
    ("chopped4", "pack"): "df4346754580f41389549ba0236b8a4410daea3cc8f73f0b26cb14b1ea944cae",
    # 80 maximizers; this digest was computed by ranking every vertex of
    # the packing polytope, not only the blocked ones.
    ("chopped5", "pack"): "68cc7c71cc1cb9dd9a755b942a882ade801470928561cc0594c846df5f278107",
    # Text mode prints the density and the first or every maximizer.
    ("square", "pack text"): "4e5f0a689170d13f08d95aa62331dc95db7f1bee95cbc764bbaaeee15867e417",
    ("square", "pack text --all"): "22c5eda50b0da9a72f0dd64dd241cf7953082803843af4c125d4c3a65a5bc0f1",
    ("pentagon", "pack text"): "06078548d593c9f454e7fd3ea941398d5b08d0731353945747874ce085919ba2",
    ("pentagon", "pack text --all"): "06078548d593c9f454e7fd3ea941398d5b08d0731353945747874ce085919ba2",
    ("prism", "pack text"): "5ea3baffe7cc2c3a9acaeeb3cd894451d78438a36bafedb76b94959b022d310d",
    ("prism", "pack text --all"): "d9d7ee3eb13d7c0889568e0e6d49542feee99d22031fd3a72780565f90e3582b",
    ("cube3", "pack text"): "9ff42dcce105f9055333f28cd561400791cb12c5edc736dce166b28c9ca1dc4e",
    ("cube3", "pack text --all"): "331ca35b05aff7229073e205633bb830103f74bb76428dc898f2e6e2cb341e1e",
    ("chopped3", "pack text"): "35f401c6726e713f52aea2ceb4635e2d74e66545b124143d2edd2e8fb7a70684",
    ("chopped3", "pack text --all"): "91ba19181070aa5e2222a3732773c15e6a81630d1cf4bea274fc502caf54c421",
    ("cube4", "pack text"): "2ab8d12c8a9669b00f26a545f47d75ece4f92597f9f23289822fac65e8fb6456",
    ("cube4", "pack text --all"): "2bdda79747aeb717f73b9c5b70c2456d9b5dc572035a01cad4e1b9413b2b6579",
    ("simplex2xsquare", "pack text"): "2b9d85c5fdf7909b0a8806b466993a61ec7bb227dd3fe6c13c43b0aff886e86c",
    ("simplex2xsquare", "pack text --all"): "c26d303153a800a544108493ba328eeb3123aeb18d6f3e46bc4caf75020c084b",
    ("chopped4", "pack text"): "b99dcfa82bd4f2599e9489f2f7da6dded75d74309284877bfb3c0fd2abf0cc0f",
    ("chopped4", "pack text --all"): "76a48672cb16bffeaa54433139975ea2810b8dc53ab20e35430d52479f024d73",
    ("chopped5", "pack text"): "35869ca9ddf39816d0fd66bdacbe5b49846ebe072bcebb8b51e49a4ca164cf66",
    ("chopped5", "pack text --all"): "f23a70e82744d78445ef100056e806ebf9a020b638bef7e0495487b3f2756af7",
}

# The segment of the chopped 3-simplex that the benchmark's ``family``
# workload scans; it has 12 maximizers at t = 0 and 8 at every other sample.
CHOPPED3_DIRECTION = {"s2": ["1/50", "-1/50", "1/100", "0", "-1/60", "1/70"]}


def run_digest(capsys, argv) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return hashlib.sha256((captured.out + captured.err).encode()).hexdigest()


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    for name, args in SPECS.items():
        assert main(["family", *args, "-o", str(d / f"{name}.json"), "--name", name]) == 0
    (d / "dir.json").write_text(json.dumps({"s2": ["0", "0", "-1", "0"]}), encoding="utf-8")
    (d / "chopped3-dir.json").write_text(json.dumps(CHOPPED3_DIRECTION), encoding="utf-8")
    return d


@pytest.mark.parametrize("spec,command", [k for k in GOLDEN if k[1] in COMMANDS])
def test_command_output(spec_dir, capsys, spec, command):
    argv = [a.format(spec=spec_dir / f"{spec}.json") for a in COMMANDS[command]]
    assert run_digest(capsys, argv) == GOLDEN[spec, command]


def test_square_scan(spec_dir, capsys):
    argv = ["scan", "--base", str(spec_dir / "square.json"), "--dir", str(spec_dir / "dir.json"),
            "--samples", "16"]
    assert run_digest(capsys, argv) == GOLDEN["square", "scan"]


def test_chopped3_scan(spec_dir, capsys):
    argv = ["scan", "--base", str(spec_dir / "chopped3.json"), "--dir",
            str(spec_dir / "chopped3-dir.json"), "--samples", "8"]
    assert run_digest(capsys, argv) == GOLDEN["chopped3", "scan"]


@pytest.mark.parametrize("spec", [k[0] for k in GOLDEN if k[1] == "render"])
def test_render(spec_dir, capsys, spec):
    # The digest covers stdout, stderr and the SVG file, in that order.
    svg = spec_dir / f"{spec}.svg"
    code = main(["render", str(spec_dir / f"{spec}.json"), str(svg)])
    assert code == 0
    captured = capsys.readouterr()
    digest = hashlib.sha256((captured.out + captured.err + svg.read_text()).encode())
    assert digest.hexdigest() == GOLDEN[spec, "render"]
