import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import build_packing_polytope
from test_packing import BASES, admissible_offsets

from toricpack.delzant import make_chopped_simplex, make_cube
from toricpack.jsonio import (
    SpecFileError,
    dumps,
    generator_polytope,
    hrep_from_json,
    hrep_to_json,
    info_report,
    load_spec_document,
    pack_report,
    scan_csv,
    spec_file_document,
)
from toricpack.packing import maximize
from toricpack.perturb import perturb, scan_segment

F = Fraction


class TestHRepSchema:
    def test_roundtrip(self, pentagon):
        doc = hrep_to_json(pentagon.hrep)
        back = hrep_from_json(doc)
        assert back == pentagon.hrep

    def test_string_offsets(self, pentagon):
        doc = hrep_to_json(pentagon.hrep)
        offsets = {h["offset"] for h in doc["halfspaces"]}
        assert "-9/10" in offsets
        assert all(isinstance(h["offset"], str) for h in doc["halfspaces"])
        assert all(
            all(isinstance(c, int) for c in h["normal"]) for h in doc["halfspaces"]
        )

    def test_malformed(self):
        with pytest.raises(SpecFileError):
            hrep_from_json({"dim": 2})

    @pytest.mark.parametrize(
        "normal, message",
        [
            ([0, 0], "halfspace 1: normal must be nonzero, got [0, 0]"),
            ([1], "halfspace 1: normal must have 2 entries, got [1]"),
            ([1, 0, 0], "halfspace 1: normal must have 2 entries, got [1, 0, 0]"),
        ],
    )
    def test_bad_normal_named(self, normal, message):
        doc = {
            "dim": 2,
            "halfspaces": [
                {"normal": [1, 0], "offset": 0},
                {"normal": normal, "offset": 0},
            ],
        }
        with pytest.raises(SpecFileError) as info:
            hrep_from_json(doc)
        assert str(info.value) == message


    @pytest.mark.parametrize("dim", [0, -1])
    @pytest.mark.parametrize("halfspaces", [[], [{"normal": [1], "offset": 0}]])
    def test_dim_below_one_named(self, dim, halfspaces):
        # Refused before any halfspace is read, so a normal with one entry
        # does not hide the bad dim.
        with pytest.raises(SpecFileError) as info:
            hrep_from_json({"dim": dim, "halfspaces": halfspaces})
        assert str(info.value) == f"dim must be at least 1, got {dim}"


class TestVRepSchema:
    def test_square(self, square):
        doc = info_report(square)
        assert doc["vertices"] == [
            ["0", "0"],
            ["0", "1"],
            ["1", "0"],
            ["1", "1"],
        ]
        assert sorted(e["vertices"] for e in doc["edges"]) == [[0, 1], [0, 2], [1, 3], [2, 3]]


class TestSpecDocuments:
    def test_generator_document(self):
        name, D = load_spec_document(
            {"name": "pent", "generator": "chopped_simplex", "args": ["1/10", "1/10"]}
        )
        assert name == "pent"
        assert D.hrep.num_facets == 5

    def test_both_forms_rejected(self):
        with pytest.raises(SpecFileError, match="not both"):
            load_spec_document({"generator": "cube", "args": ["2"], "halfspaces": []})

    def test_neither_form_rejected(self):
        with pytest.raises(SpecFileError):
            load_spec_document({"name": "nothing"})

    @pytest.mark.parametrize("doc", [[], [{"generator": "cube", "args": [2]}], "cube", 2, None])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(SpecFileError, match="^spec document must be a JSON object$"):
            load_spec_document(doc)

    def test_unknown_generator(self):
        with pytest.raises(SpecFileError, match="unknown generator"):
            generator_polytope("orb", ["1"])

    @pytest.mark.parametrize("arg", ["1_0", "2_0", " 2", "2 ", "+2", "-", "", "\u00b2", "\uff12"])
    def test_integer_arg_ascii_digits_only(self, arg):
        with pytest.raises(SpecFileError) as info:
            generator_polytope("cube", [arg])
        assert str(info.value) == f"args[0] must be an integer, got {arg!r}"

    def test_wrong_arity(self):
        with pytest.raises(SpecFileError):
            generator_polytope("product", ["simplex:1:1"])

    def test_emitted_spec_reloads(self, prism):
        doc = spec_file_document(prism, "prism")
        name, back = load_spec_document(json.loads(dumps(doc)))
        assert name == "prism"
        assert back.vertices == prism.vertices


class TestReports:
    def test_info_fields(self, pentagon):
        doc = info_report(pentagon, "pent")
        assert doc["name"] == "pent"
        assert doc["volume"] == "49/100"
        assert len(doc["frames"]) == 5
        assert doc["corner_radii"][0] == "9/10"
        lengths = sorted(e["length"] for e in doc["edges"])
        assert lengths == ["1/10", "1/10", "4/5", "9/10", "9/10"]

    def test_pack_report_shapes(self, square):
        best, packs = maximize(square)
        doc = pack_report(square, best, packs, all_maximizers=False)
        assert doc["max_density"] == "1"
        assert doc["num_maximizers"] == 2
        assert len(doc["maximal_packings"]) == 1

    def test_scan_csv_header_and_rows(self, square):
        res = scan_segment(square, (0,) * 4, (0, 0, -1, 0), 4)
        lines = scan_csv(res).strip().splitlines()
        assert lines[0] == "t,volume,omega,omega_decimal,n_maximizers"
        assert len(lines) == 6
        assert lines[1].startswith("0,1,1,")
        assert lines[-1].startswith("1,2,1/2,")

    def test_dumps_deterministic(self, square):
        doc1 = info_report(square)
        doc2 = info_report(square)
        assert dumps(doc1) == dumps(doc2)


ROW_CASES = dict(BASES, cube5=make_cube(5), chopped5=make_chopped_simplex(F(1, 10), F(1, 5), 5))


class TestPackingRows:
    """``pack --json`` writes the packing polytope's rows straight from the
    pair bounds: the full system built as halfspaces, in its order."""

    @staticmethod
    def check(D):
        rows = pack_report(D, *maximize(D))["packing_polytope"]
        assert rows == hrep_to_json(build_packing_polytope(D))

    @pytest.mark.parametrize("name", sorted(ROW_CASES))
    def test_polytopes(self, name):
        self.check(ROW_CASES[name])

    @given(admissible_offsets({name: BASES[name] for name in ("pentagon", "cube3")}))
    @settings(max_examples=25, deadline=None)
    def test_offsets(self, drawn):
        name, s = drawn
        self.check(perturb(BASES[name], s))

    def test_no_fraction_matrix(self):
        # The rows come from the integer edge slots: neither the pair-bound
        # matrix of Fractions nor the frames are built for the report.
        D = make_cube(3)
        pack_report(D, *maximize(D))
        assert "pair_bounds" not in D.__dict__
        assert "frames" not in D.__dict__


# Strings that json escapes: quotes, backslashes, control characters,
# non-ASCII text and characters outside the basic plane.
ESCAPED = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\u20ac\U0001f600a '))
STRINGS = st.text() | ESCAPED
BIG = st.integers(10**999, 10**1001)
SCALARS = st.booleans() | st.integers() | BIG | BIG.map(lambda x: -x) | STRINGS
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(STRINGS, inner),
    max_leaves=40,
)


class TestDumps:
    """``dumps`` writes the bytes of ``json.dumps(doc, indent=2)`` plus a
    newline, for every document the reports can hold."""

    @given(DOCUMENTS)
    @settings(max_examples=300, deadline=None)
    @example([])
    @example({})
    @example({"a": [[], {}, [1, -2, True, False], ("x", "\"\\\u00e9"), [0, "0"]]})
    def test_equals_json(self, doc):
        assert dumps(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("name", ["pentagon", "cube3"])
    def test_reports(self, name):
        D = BASES[name]
        for doc in (info_report(D, name), pack_report(D, *maximize(D), name)):
            assert dumps(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("value", [1.5, None, [1, None], {"x": 1.5}, {1: "a"}, {1, 2}])
    def test_refuses_other_types(self, value):
        with pytest.raises(TypeError):
            dumps(value)
