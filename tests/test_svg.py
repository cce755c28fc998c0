"""Deterministic SVG rendering of planar instances."""

from fractions import Fraction

import pytest

from dualdepth import form_simplex, gen_instance, render_svg
from dualdepth.svg import UnsupportedDimensionError


class TestRenderSvg:
    def test_triangle_with_witness(self, triangle):
        data = render_svg(triangle, witness=(Fraction(1, 4), Fraction(1, 4)))
        text = data.decode("utf-8")
        assert text.count('class="hyperplane"') == 3
        assert text.count('id="witness"') == 1
        assert text.startswith('<?xml version="1.0"')
        assert text.rstrip().endswith("</svg>")

    def test_byte_determinism(self, triangle):
        a = render_svg(triangle, witness=(0, 0))
        b = render_svg(triangle, witness=(0, 0))
        assert a == b

    def test_partition_overlay(self):
        from dualdepth import dual_tverberg_plane

        F = gen_instance("random-rational", 6, 2, seed=7)
        res = dual_tverberg_plane(F)
        tris = [form_simplex(F, g).vertices for g in res.groups]
        text = render_svg(F, triangles=tris, witness=res.witness).decode("utf-8")
        assert text.count('class="group"') == 2
        assert text.count("<polygon") == 2
        assert text.count('id="witness"') == 1

    def test_rejects_non_planar(self):
        F = gen_instance("random-rational", 4, 3, seed=0)
        with pytest.raises(UnsupportedDimensionError):
            render_svg(F)

    def test_offscreen_line_skipped(self):
        from dualdepth import Hyperplane, Instance

        F = Instance(2, [Hyperplane((Fraction(1), Fraction(0)), Fraction(100))])
        text = render_svg(F).decode("utf-8")
        assert text.count('class="hyperplane"') == 0
