import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsc import (
    DSC,
    FDSC,
    LabelParseError,
    ParameterError,
    apex_pair,
    e1_neighbor,
    external_neighbor,
    f_neighbor,
    format_label,
    make_dim,
    module_address,
    neighbor_set,
    parse_label,
    swap_neighbor,
)
from fdsc.labels import complement_address, concat_halves, inner_address

from refimpl import all_labels, ref_e1, ref_f, ref_neighbors, ref_swap

D1, D2, D3, D4 = make_dim(1), make_dim(2), make_dim(3), make_dim(4)


def lab(text, dim):
    return parse_label(text, dim)


class TestMakeDim:
    def test_widths(self):
        assert make_dim(1).n == 2
        assert make_dim(3).n == 8
        assert make_dim(6).n == 64

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            make_dim(7)  # n = 128 exceeds the 64-bit cap
        with pytest.raises(ParameterError):
            make_dim(0)


class TestSingleBitMaps:
    def test_e1_examples(self):
        assert format_label(e1_neighbor(lab("0000", D2), D2), D2) == "1000"
        assert format_label(e1_neighbor(lab("11000000", D3), D3), D3) == "01000000"

    def test_f_examples(self):
        assert format_label(f_neighbor(lab("0000", D2), D2), D2) == "0100"
        assert format_label(f_neighbor(lab("00000000", D3), D3), D3) == "01000000"

    def test_involutions_exhaustive_n4(self):
        for u in range(16):
            assert e1_neighbor(e1_neighbor(u, D2), D2) == u
            assert f_neighbor(f_neighbor(u, D2), D2) == u

    def test_matches_reference(self):
        for dim in (D1, D2, D3):
            for text in all_labels(dim.n):
                u = parse_label(text, dim)
                assert format_label(e1_neighbor(u, dim), dim) == ref_e1(text)
                assert format_label(f_neighbor(u, dim), dim) == ref_f(text)


class TestSwap:
    def test_examples(self):
        assert format_label(swap_neighbor(lab("0000", D2), 1, D2), D2) == "1111"
        assert format_label(swap_neighbor(lab("1100", D2), 1, D2), D2) == "0011"
        assert format_label(swap_neighbor(lab("00000000", D3), 2, D3), D3) == "11110000"

    def test_level_out_of_range(self):
        with pytest.raises(ParameterError):
            swap_neighbor(0, 0, D2)
        with pytest.raises(ParameterError):
            swap_neighbor(0, 3, D2)

    def test_matches_reference_exhaustive(self):
        for dim in (D1, D2, D3):
            for text in all_labels(dim.n):
                u = parse_label(text, dim)
                for k in range(1, dim.d + 1):
                    got = format_label(swap_neighbor(u, k, dim), dim)
                    assert got == ref_swap(text, k)

    def test_matches_reference_sampled_wide(self):
        rng = random.Random(7)
        for d in (4, 5, 6):
            dim = make_dim(d)
            for _ in range(200):
                u = rng.randrange(1 << dim.n)
                text = format_label(u, dim)
                for k in range(1, d + 1):
                    assert format_label(swap_neighbor(u, k, dim), dim) == ref_swap(text, k)


class TestNeighborSet:
    def test_example_n4(self):
        got = [format_label(v, D2) for v in neighbor_set(lab("0000", D2), D2)]
        assert got == ["1000", "1100", "1111", "0100"]  # u_1, level 2, cross, u_f

    def test_example_n8(self):
        got = [format_label(v, D3) for v in neighbor_set(0, D3)]
        assert got == [
            "10000000",  # u_1
            "11110000",  # level-2 swap
            "11000000",  # level-3 swap
            "11111111",  # cross edge
            "01000000",  # u_f
        ]

    def test_n2_is_complete_graph(self):
        # every vertex of the smallest folded cube is adjacent to the other three
        for u in range(4):
            labels = set(neighbor_set(u, D1))
            assert labels == set(range(4)) - {u}

    def test_degree_and_distinctness(self):
        for dim in (D1, D2, D3, D4):
            for variant, want in ((FDSC, dim.d + 2), (DSC, dim.d + 1)):
                for u in range(0, 1 << dim.n, max(1, (1 << dim.n) // 512)):
                    nbrs = neighbor_set(u, dim, variant)
                    labels = set(nbrs)
                    assert len(nbrs) == want
                    assert len(labels) == want
                    assert u not in labels

    def test_matches_reference(self):
        for dim in (D1, D2, D3):
            for text in all_labels(dim.n):
                u = parse_label(text, dim)
                for variant in (FDSC, DSC):
                    got = {format_label(v, dim) for v in neighbor_set(u, dim, variant)}
                    assert got == ref_neighbors(text, variant)

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(st.data())
    def test_positions_match_reference_every_width(self, data):
        # d = 1..6; a drawn level j > 0 copies m1 onto m2 at that level, so
        # the complementing branch of the swap occurs at every width
        dim = make_dim(data.draw(st.integers(1, 6)))
        n, d = dim.n, dim.d
        u = data.draw(st.integers(0, (1 << n) - 1))
        j = data.draw(st.integers(0, d))
        if j:
            p = n >> j
            run = (u >> (n - p)) & ((1 << p) - 1)
            u = (u & ~(((1 << p) - 1) << (n - 2 * p))) | (run << (n - 2 * p))
        text = format_label(u, dim)
        want = [ref_e1(text), *(ref_swap(text, k) for k in range(2, d + 1)), ref_swap(text, 1)]
        for variant, tail in ((FDSC, [ref_f(text)]), (DSC, [])):
            got = [format_label(v, dim) for v in neighbor_set(u, dim, variant)]
            assert got == want + tail
            assert set(got) == ref_neighbors(text, variant)
        for k in range(1, d + 1):
            assert format_label(swap_neighbor(u, k, dim), dim) == ref_swap(text, k)

    def test_symmetry_with_matching_kinds(self):
        for dim in (D1, D2, D3):
            for u in range(1 << dim.n):
                for i, v in enumerate(neighbor_set(u, dim, FDSC)):
                    assert neighbor_set(v, dim, FDSC)[i] == u

    def test_involution_fixed_point_free_exhaustive(self):
        for dim in (D1, D2, D3, D4):
            for u in range(1 << dim.n):
                assert e1_neighbor(u, dim) != u
                assert f_neighbor(u, dim) != u
                for k in range(1, dim.d + 1):
                    v = swap_neighbor(u, k, dim)
                    assert v != u
                    assert swap_neighbor(v, k, dim) == u

    def test_top_swap_is_two_bit_flip(self):
        for dim in (D1, D2, D3, D4):
            head = 0b11 << (dim.n - 2)
            for u in range(0, 1 << dim.n, max(1, (1 << dim.n) // 4096)):
                assert swap_neighbor(u, dim.d, dim) == u ^ head
                assert e1_neighbor(swap_neighbor(u, dim.d, dim), dim) == f_neighbor(u, dim)


class TestModuleAddressing:
    def test_module_address_examples(self):
        assert module_address(lab("1100", D2), D2) == 0b00
        assert module_address(lab("0011", D2), D2) == 0b11
        assert module_address(lab("10110101", D3), D3) == 0b0101

    def test_apex_pair_examples(self):
        assert apex_pair(0b00, D2) == (lab("0000", D2), lab("1100", D2))
        assert apex_pair(0b11, D2) == (lab("1111", D2), lab("0011", D2))
        assert apex_pair(0b0101, D3) == (lab("01010101", D3), lab("10100101", D3))

    def test_apex_externals_exhaustive(self):
        # b.b goes to ~b.~b and ~b.b goes to b.~b, for every module address
        for dim in (D2, D3, D4):
            for b in range(1 << dim.half):
                comp = complement_address(b, dim)
                low, high = apex_pair(b, dim)
                assert external_neighbor(low, dim) == concat_halves(comp, comp, dim)
                assert external_neighbor(high, dim) == concat_halves(b, comp, dim)

    def test_halves_roundtrip(self):
        for u in range(256):
            assert concat_halves(inner_address(u, D3), module_address(u, D3), D3) == u


class TestCodec:
    def test_round_trip(self):
        u = parse_label("1100", D2)
        assert format_label(u, D2) == "1100"
        assert parse_label("0000", D2) == 0

    def test_bit_positions(self):
        # leftmost character is s_1, the most significant bit
        assert parse_label("1000", D2) == 8

    def test_alphabet_error_carries_position(self):
        with pytest.raises(LabelParseError) as err:
            parse_label("0120", D2)
        assert err.value.position == 2

    def test_length_error(self):
        with pytest.raises(LabelParseError):
            parse_label("210", D2)
        with pytest.raises(LabelParseError):
            parse_label("01000", D2)

    def test_round_trip_sampled_wide(self):
        rng = random.Random(11)
        dim = make_dim(6)
        for _ in range(200):
            u = rng.randrange(1 << 64)
            assert parse_label(format_label(u, dim), dim) == u

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_round_trip_every_width(self, data):
        # d = 1..6, labels over the full n = 2^d bits, both ends included
        dim = make_dim(data.draw(st.integers(1, 6)))
        u = data.draw(st.integers(0, (1 << dim.n) - 1))
        text = format_label(u, dim)
        assert len(text) == dim.n
        assert parse_label(text, dim) == u
