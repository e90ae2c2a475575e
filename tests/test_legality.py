"""Tests for data-transformation legality checks."""

import pytest

from repro import errors
from repro.datatrans.layout import DimAtom, Layout
from repro.datatrans.legality import (
    LegalityError,
    assert_bijective,
    check_transformable,
)
from repro.decomp.model import DataDecomp


class TestCheckTransformable:
    def test_clean_program(self, figure1_program):
        assert check_transformable(figure1_program, "A") == []

    def test_undeclared(self, figure1_program):
        problems = check_transformable(figure1_program, "Z")
        assert problems and "not declared" in problems[0]

    def test_general_affine_decomp_rejected(self, figure1_program):
        dd = DataDecomp("A", [[1, 1]], [0])
        problems = check_transformable(figure1_program, "A", dd)
        assert any("not supported" in p for p in problems)

    def test_unit_decomp_ok(self, figure1_program):
        dd = DataDecomp("A", [[1, 0]], [0])
        assert check_transformable(figure1_program, "A", dd) == []

    def test_replicated_ok(self, figure1_program):
        dd = DataDecomp("A", [[0, 0]], [0], replicated=True)
        assert check_transformable(figure1_program, "A", dd) == []


class TestBijectivity:
    def test_good_layout(self):
        assert_bijective(Layout.identity((4, 4)), "A")

    def test_broken_chain_detected(self):
        # Two atoms both claiming to be the low part of dim 0.
        lay = Layout(
            orig_dims=(8,),
            atoms=(
                DimAtom(src=0, extent=4, div=1, mod=4),
                DimAtom(src=0, extent=4, div=1, mod=4),
            ),
        )
        with pytest.raises(LegalityError):
            assert_bijective(lay, "A")

    def test_undersized_coverage_detected(self):
        # mod 4 atom alone only distinguishes 4 of 8 values.
        lay = Layout(
            orig_dims=(8,),
            atoms=(DimAtom(src=0, extent=4, div=1, mod=4),),
        )
        with pytest.raises(LegalityError):
            assert_bijective(lay, "A")

    def test_raises_the_package_legality_error(self):
        # One class: what assert_bijective raises is repro's typed
        # CompileError for "a non-bijective data layout".
        lay = Layout(
            orig_dims=(8,),
            atoms=(DimAtom(src=0, extent=4, div=1, mod=4),),
        )
        with pytest.raises(errors.LegalityError) as info:
            assert_bijective(lay, "A")
        assert isinstance(info.value, errors.ReproError)
        assert LegalityError is errors.LegalityError
