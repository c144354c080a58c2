import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsc import (
    FDSC,
    ParameterError,
    apply_cut,
    k1_cut,
    k11_cut,
    k1m_cut,
    make_dim,
    neighbor_set,
    parse_label,
    validate_family,
)
from fdsc.cuts import (
    STRUCTURE,
    SUBSTRUCTURE,
    FaultFamily,
    balanced_module_addresses,
    family_from_json,
    family_to_json,
    star,
)
from fdsc.labels import complement_address, concat_halves

D1, D2, D3 = make_dim(1), make_dim(2), make_dim(3)


def labels(dim, *texts):
    return [parse_label(t, dim) for t in texts]


class TestK1:
    def test_n4(self):
        fam = k1_cut(0, D2)
        assert len(fam) == 4
        assert fam.vertex_union() == set(labels(D2, "1000", "1100", "1111", "0100"))
        assert all(len(el.leaves) == 0 for el in fam.elements)

    @pytest.mark.parametrize("d,size", [(1, 3), (2, 4), (3, 5), (4, 6)])
    def test_size_is_degree(self, d, size):
        assert len(k1_cut(0, make_dim(d))) == size


class TestK11:
    def test_worked_example_n8(self):
        fam = k11_cut(0, D3)
        got = {
            (format(el.center, "08b"), format(el.sorted_leaves()[0], "08b"))
            for el in fam.elements
        }
        assert got == {
            ("10000000", "00001000"),
            ("11110000", "01110000"),
            ("11000000", "01000000"),
            ("11111111", "01111111"),
        }

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_label_level_shape(self, d):
        dim = make_dim(d)
        for u in (0, (1 << dim.n) - 1, parse_label("10" * (dim.n // 2), dim)):
            fam = k11_cut(u, dim)
            assert len(fam) == d + 1
            ok, violation = validate_family(fam, dim)
            assert ok, violation
            union = fam.vertex_union()
            nbrs = set(neighbor_set(u, dim))
            assert nbrs <= union
            assert u not in union
            # exactly one element carries two neighbors of u
            doubles = [el for el in fam.elements if len(el.vertices & nbrs) == 2]
            assert len(doubles) == 1

    def test_d1_rejected(self):
        with pytest.raises(ParameterError):
            k11_cut(0, D1)


class TestK1m:
    def test_worked_example_n4(self):
        fam, u = k1m_cut(D2, 2, 0b00)
        assert format(u, "04b") == "1100"
        got = {
            (format(el.center, "04b"), tuple(format(x, "04b") for x in el.sorted_leaves()))
            for el in fam.elements
        }
        assert got == {
            ("1011", ("0011", "0111")),
            ("1000", ("0000", "0100")),
        }

    def test_worked_example_n8(self, fdsc8):
        fam, u = k1m_cut(D3, 2, 0b0000)
        assert format(u, "08b") == "11110000"
        assert len(fam) == 2
        report = apply_cut(fdsc8, fam)
        assert report.is_cut
        assert report.isolated_target == u

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_label_level_shape_all_m(self, d):
        dim = make_dim(d)
        addresses = balanced_module_addresses(dim)
        assert addresses[0] == 0
        assert len(addresses) == dim.n // 2
        for b1 in addresses:
            for m in range(2, d + 2):
                fam, u = k1m_cut(dim, m, b1)
                assert len(fam) == d // 2 + 1
                ok, violation = validate_family(fam, dim)
                assert ok, violation
                assert all(len(el.leaves) == m for el in fam.elements)
                union = fam.vertex_union()
                assert set(neighbor_set(u, dim)) <= union
                assert u not in union
                assert u == concat_halves(complement_address(b1, dim), b1, dim)

    @pytest.mark.parametrize("d", [2, 3])
    def test_all_equal_half_addresses_accepted_small_d(self, d):
        # below d = 4 every equal-half address is self-similar
        dim = make_dim(d)
        quarter = dim.n // 4
        assert balanced_module_addresses(dim) == [
            (q << quarter) | q for q in range(1 << quarter)
        ]

    def test_m_out_of_range(self):
        with pytest.raises(ParameterError):
            k1m_cut(D2, 1, 0)
        with pytest.raises(ParameterError):
            k1m_cut(D2, 4, 0)

    def test_unequal_halves_rejected(self):
        with pytest.raises(ParameterError) as err:
            k1m_cut(D3, 2, 0b0110)
        assert "equal" in str(err.value)

    def test_unbalanced_half_rejected(self):
        # equal halves, but the half 0001 splits into 00 / 01: neither
        # equal nor complementary, so the intermediate star degenerates
        with pytest.raises(ParameterError):
            k1m_cut(make_dim(4), 2, 0b00010001)

    def test_rejection_matches_construction_validity(self):
        # the acceptance predicate is exact: every rejected equal-half
        # address really does break some element of the raw construction
        dim = make_dim(4)
        accepted = set(balanced_module_addresses(dim))
        quarter = dim.n // 4
        for q in range(1 << quarter):
            b1 = (q << quarter) | q
            if b1 in accepted:
                continue
            with pytest.raises(ParameterError):
                k1m_cut(dim, 2, b1)

    def test_too_small_rejected(self):
        with pytest.raises(ParameterError):
            k1m_cut(D1, 2, 0)


class TestValidate:
    def test_valid_two_leaf_star(self):
        fam = FaultFamily(
            elements=[star(0, labels(D2, "1111", "0100"))], pattern_m=2, mode=STRUCTURE
        )
        assert validate_family(fam, D2) == (True, None)

    def test_non_adjacent_leaf(self):
        fam = FaultFamily(
            elements=[star(0, labels(D2, "0011"))], pattern_m=1, mode=STRUCTURE
        )
        ok, violation = validate_family(fam, D2)
        assert not ok
        assert "0011" in violation and "not adjacent" in violation

    def test_structure_mode_leaf_count(self):
        fam = FaultFamily(elements=[star(0, [8])], pattern_m=2, mode=STRUCTURE)
        ok, violation = validate_family(fam, D2)
        assert not ok and "exactly 2" in violation

    def test_substructure_allows_fewer_leaves(self):
        fam = FaultFamily(
            elements=[star(0), star(8, [0])], pattern_m=2, mode=SUBSTRUCTURE
        )
        assert validate_family(fam, D2) == (True, None)

    def test_substructure_monotone_in_m(self):
        fam = k11_cut(0, D3)
        for m in range(1, 6):
            relaxed = FaultFamily(fam.elements, pattern_m=m, mode=SUBSTRUCTURE)
            assert validate_family(relaxed, D3)[0]

    def test_center_cannot_be_leaf(self):
        fam = FaultFamily(elements=[star(0, [0, 8])], pattern_m=2, mode=STRUCTURE)
        ok, violation = validate_family(fam, D2)
        assert not ok and "own leaf" in violation


class TestApply:
    def test_k1_isolates(self, fdsc4):
        report = apply_cut(fdsc4, k1_cut(0, D2))
        assert report.is_cut
        assert report.isolated_target == 0
        assert report.census.component_sizes == [11, 1]

    def test_k11_isolates_n8(self, fdsc8):
        report = apply_cut(fdsc8, k11_cut(0, D3))
        assert report.is_cut
        assert report.isolated_target == 0

    def test_k11_still_disconnects_at_d2(self, fdsc4):
        report = apply_cut(fdsc4, k11_cut(0, D2))
        assert report.is_cut
        assert report.isolated_target == 0

    def test_single_star_is_not_a_cut(self, fdsc4):
        fam = FaultFamily(
            elements=[star(parse_label("1011", D2), labels(D2, "0011", "0111"))],
            pattern_m=2,
            mode=STRUCTURE,
        )
        report = apply_cut(fdsc4, fam)
        assert not report.is_cut
        assert report.census.component_count == 1

    def test_trivial_survivor_counts_as_cut(self, fdsc2):
        fam = FaultFamily(
            elements=[star(0, [1, 2])], pattern_m=2, mode=STRUCTURE
        )
        report = apply_cut(fdsc2, fam)
        assert report.is_cut
        assert report.census.surviving == 1


class TestJson:
    def test_round_trip(self):
        fam, _ = k1m_cut(D3, 3, 0b0101)
        obj = family_to_json(fam, D3)
        back = family_from_json(obj, D3)
        assert back.mode == fam.mode
        assert back.pattern_m == fam.pattern_m
        assert [el.vertices for el in back.elements] == [el.vertices for el in fam.elements]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.data())
    def test_round_trip_random_families(self, data):
        # valid structure and substructure families at d = 2, 3 read back
        # as the same family: element order, centers, leaves, m and mode
        dim = data.draw(st.sampled_from((D2, D3)))
        mode = data.draw(st.sampled_from((STRUCTURE, SUBSTRUCTURE)))
        m = data.draw(st.integers(0, dim.d + 2))  # up to the degree
        elements = []
        for center in data.draw(st.lists(st.integers(0, (1 << dim.n) - 1), max_size=5)):
            nbrs = neighbor_set(center, dim)
            k = m if mode == STRUCTURE else data.draw(st.integers(0, m))
            elements.append(star(center, data.draw(st.permutations(nbrs))[:k]))
        fam = FaultFamily(elements, pattern_m=m, mode=mode)
        assert validate_family(fam, dim) == (True, None)
        assert family_from_json(family_to_json(fam, dim), dim) == fam

    def test_shape(self):
        obj = family_to_json(k1_cut(0, D1), D1)
        assert obj["mode"] == "structure"
        assert obj["m"] == 0
        assert obj["elements"][0] == {"center": "10", "leaves": []}

    def test_malformed(self):
        with pytest.raises(ParameterError):
            family_from_json({"mode": "structure"}, D2)
        with pytest.raises(ParameterError):
            family_from_json({"mode": "weird", "m": 1, "elements": []}, D2)
        for elements in (
            [{"leaves": []}],
            [7],
            [{"center": 1011}],
            None,
            # a list of digits used to parse as the label it spells
            [{"center": ["0", "0", "0", "0"], "leaves": [["0", "0", "0", "1"]]}],
            [{"center": "0000", "leaves": [["0", "0", "0", "1"]]}],
        ):
            with pytest.raises(ParameterError, match="malformed family JSON"):
                family_from_json({"mode": "structure", "m": 0, "elements": elements}, D2)
        for m in (1.7, True, "2", None):
            with pytest.raises(ParameterError, match="malformed family JSON"):
                family_from_json({"mode": "structure", "m": m, "elements": []}, D2)

    @pytest.mark.parametrize(
        "obj",
        [
            # a misspelled key used to drop the leaves and read a different family
            {"mode": "substructure", "m": 1, "elements": [{"center": "0000", "leafs": ["1000"]}]},
            {"mode": "structure", "m": 0, "elements": [], "budget": 3},
            # a dict of elements or leaves used to be iterated by its keys
            {"mode": "structure", "m": 0, "elements": {"0000": []}},
            {"mode": "substructure", "m": 1, "elements": [{"center": "0000", "leaves": {"1000": 1}}]},
            {"mode": "substructure", "m": 1, "elements": [{"center": "0000", "leaves": "1000"}]},
        ],
        ids=["leafs", "top-level-extra", "elements-dict", "leaves-dict", "leaves-string"],
    )
    def test_unknown_keys_and_non_lists_refused(self, obj):
        with pytest.raises(ParameterError, match="malformed family JSON"):
            family_from_json(obj, D2)

    def test_leaves_stay_optional(self):
        fam = family_from_json({"mode": "structure", "m": 0, "elements": [{"center": "0000"}]}, D2)
        assert [el.vertices for el in fam.elements] == [{0}]
