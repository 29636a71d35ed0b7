"""SVG rendering: structural checks, and the embedding against a dense
solve over every node (``oracle_positions``).  The bytes of the seed-0
benchmark SVGs are pinned in ``test_pinned_outputs.py``."""

import json
import math
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from altknot import augment, parse_pd, render, render_svg, serialize_pd
from altknot.errors import RenderError

from conftest import (
    TREFOIL,
    assert_positions_match_oracle,
    corpus_diagrams,
    oracle_has_close_pair,
)

SVG_NS = "{http://www.w3.org/2000/svg}"
SRC = Path(__file__).resolve().parent.parent / "src"


def _paths(svg: str):
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"
    return root.findall(f".//{SVG_NS}path")


class TestRender:
    def test_trefoil_structure(self, trefoil):
        svg = render_svg(trefoil)
        paths = _paths(svg)
        assert len(paths) == len(trefoil.edges)
        assert all(p.get("class") == "strand" for p in paths)

    def test_augmented_two_stroke_classes(self):
        (seed, d), = corpus_diagrams(1)
        res = augment(d)
        svg = render_svg(res.g)
        classes = {p.get("class") for p in _paths(svg)}
        assert classes == {"strand", "strand aug"}

    def test_disconnected_rejected(self):
        with pytest.raises(RenderError):
            render_svg(parse_pd(TREFOIL + " O(9)"))

    def test_single_loop_renders_circle(self):
        svg = render_svg(parse_pd("O(1)"))
        root = ET.fromstring(svg)
        assert root.findall(f".//{SVG_NS}circle")

    def test_kink_renders(self, kink_unknot):
        # the crossing and both midpoints lie on the pinned cycle, so the
        # solve has no rows
        svg = render_svg(kink_unknot)
        assert _paths(svg)


class TestWithoutNumpy:
    # a fresh interpreter, so that the test process's own imports (numpy,
    # for the oracle) do not count; numpy is a test extra, not a runtime
    # dependency
    SCRIPT = (
        "import json, sys\n"
        "from altknot.cli import run\n"
        "codes = [run(sys.argv[1:7]), run(sys.argv[7:])]\n"
        "print(json.dumps({'codes': codes, 'numpy': 'numpy' in sys.modules}))\n"
    )

    def test_cli_augments_and_renders_without_numpy(self, tmp_path):
        (_seed, d), = corpus_diagrams(1)
        src, pd, svg, drawn = (tmp_path / name for name in ("d.pd", "g.pd", "g.svg", "drawn.svg"))
        src.write_text(f"# name: knot\n{serialize_pd(d)}\n")
        argv = ["augment", str(src), "--emit-pd", str(pd), "--emit-svg", str(svg), "render", str(pd), str(drawn)]
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *argv], env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, check=True,
        )
        assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0, 0], "numpy": False}
        g = augment(d).g
        assert pd.read_text() == f"# name: knot\n{serialize_pd(g)}\n\n"
        assert svg.read_text() == render_svg(g)
        assert drawn.read_text() == render_svg(parse_pd(serialize_pd(g)))


class TestPositions:
    def test_small_diagrams_match_oracle(
        self, trefoil, kink_unknot, curl, granny_sum, hopf, fig8, borromean
    ):
        for d in (trefoil, kink_unknot, curl, granny_sum, hopf, fig8, borromean):
            assert not assert_positions_match_oracle(d)

    def test_corpus_matches_oracle(self):
        for _seed, d in corpus_diagrams(12):
            assert_positions_match_oracle(d)
            assert_positions_match_oracle(augment(d).g)

    def test_both_fall_back_on_coincident_crossings(self, bench_inputs):
        # the one benchmark block of seeds 0-1 whose embedding puts two
        # crossings within 1e-6 of the span of each other
        (block,) = [
            b for f in bench_inputs.batch_inputs(0, n_files=30, blocks=4)
            for b in f.blocks if b.name == "f22-b3"
        ]
        assert assert_positions_match_oracle(parse_pd(block.pd))


def _close(pts, eps):
    pts = np.array(pts, dtype=float)
    want = oracle_has_close_pair(pts, eps)
    assert render._has_close_pair(pts, eps) == want
    return want


class TestCloseTest:
    EPS = 2.0 ** -20  # a power of two, so that shifts by it are exact

    def test_coincident_points(self):
        assert _close([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]], self.EPS)
        assert _close([[0.5, 0.25], [0.5, 0.25]], self.EPS)

    def test_points_exactly_eps_apart(self):
        e = self.EPS
        assert not _close([[0.0, 0.0], [e, 0.0], [1.0, 1.0]], e)
        assert not _close([[0.0, 0.0], [0.0, e], [e, e], [1.0, 1.0]], e)
        assert _close([[0.0, 0.0], [np.nextafter(e, 0.0), 0.0], [1.0, 1.0]], e)

    def test_points_straddling_a_cell_border(self):
        e = self.EPS
        border = 7 * e  # within a hair of the 7th cell border from the origin
        assert _close([[0.0, 0.0], [border - 0.3 * e, 0.5], [border + 0.3 * e, 0.5], [1.0, 1.0]], e)
        # diagonal neighbours, on both sides of a border in each coordinate
        assert _close([[0.0, 0.0], [border - 0.3 * e, border - 0.3 * e],
                       [border + 0.3 * e, border + 0.3 * e], [1.0, 1.0]], e)
        assert not _close([[0.0, 0.0], [border - 0.6 * e, 0.5], [border + 0.6 * e, 0.5]], e)

    def test_random_clouds_at_their_pair_distances(self):
        # eps set to one of the cloud's own pair distances: the pair at
        # exactly eps is not close, a nearer one is
        rng = random.Random(0)
        verdicts = set()
        for _ in range(200):
            pts = np.array([[rng.random(), rng.random()] for _ in range(rng.randint(2, 30))])
            dists = sorted(
                math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
                for i in range(len(pts)) for j in range(i + 1, len(pts))
            )
            verdicts.add(_close(pts, dists[rng.randrange(min(3, len(dists)))]))
        assert verdicts == {True, False}
