"""CLI surface: commands, exit codes, batch mode, environment seed."""

import json
import os
from pathlib import Path

import pytest

from altknot.cli import run
from altknot.diagram import serialize_pd
from altknot.generate import random_knot_diagram

from conftest import TREFOIL


@pytest.fixture
def trefoil_file(tmp_path):
    p = tmp_path / "trefoil.pd"
    p.write_text(f"# name: trefoil\n{TREFOIL}\n")
    return str(p)


@pytest.fixture
def knot_file(tmp_path):
    d, _ = random_knot_diagram(5, 12, 2)
    p = tmp_path / "knot.pd"
    p.write_text(serialize_pd(d) + "\n")
    return str(p)


def _json_lines(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return [json.loads(line) for line in out if line.strip()]


class TestAnalyze:
    def test_trefoil(self, trefoil_file, capsys):
        assert run(["analyze", trefoil_file]) == 0
        (rep,) = _json_lines(capsys)
        assert rep["t"] == 1 and rep["alternating"] is True
        assert rep["name"] == "trefoil"
        assert rep["torus_2q"] == 3

    def test_batch_order(self, tmp_path, capsys):
        p = tmp_path / "corpus.pd"
        p.write_text(
            "# name: one\nX(1,4,2,5) X(3,6,4,1) X(5,2,6,3)\n\n"
            "# name: two\nO(1)\n\n# name: three\nX(1,1,2,2)\n"
        )
        assert run(["analyze", str(p)]) == 0
        names = [r["name"] for r in _json_lines(capsys)]
        assert names == ["one", "two", "three"]

    def test_syntax_error_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.pd"
        p.write_text("X(1,2,3)\n")
        assert run(["analyze", str(p)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PDSyntaxError"

    def test_missing_file_exit_2(self, tmp_path):
        assert run(["analyze", str(tmp_path / "nope.pd")]) == 2


class TestReduce:
    def test_reduce_reports_trace(self, tmp_path, capsys):
        p = tmp_path / "f.pd"
        p.write_text("X(4,2,5,1) X(3,6,4,1) X(5,2,6,3)\n")  # flipped trefoil
        assert run(["reduce", str(p)]) == 0
        (rep,) = _json_lines(capsys)
        assert rep["trace"]["crossings_before"] == 3
        assert rep["trace"]["crossings_after"] == 0
        assert [s["kind"] for s in rep["trace"]["steps"]] == ["r2", "nugatory"]


class TestAugment:
    def test_alternating_input_exit_1(self, trefoil_file, capsys):
        assert run(["augment", trefoil_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "PreconditionError"
        assert err["name"] == "trefoil" and err["exit"] == 1

    def test_bad_block_does_not_stop_batch(self, tmp_path, capsys):
        blocks, knots = [], []
        for name, seed in (("first", 5), ("last", 6)):
            d, _ = random_knot_diagram(seed, 12, 2)
            knots.append(d)
            blocks.append(f"# name: {name}\n{serialize_pd(d)}")
        blocks.insert(1, f"# name: trefoil\n{TREFOIL}")
        p = tmp_path / "corpus.pd"
        p.write_text("\n\n".join(blocks) + "\n")
        pd_out = str(tmp_path / "aug.pd")
        svg_out = str(tmp_path / "aug.svg")
        assert run(["augment", str(p), "--emit-pd", pd_out, "--emit-svg", svg_out]) == 1
        captured = capsys.readouterr()
        results = [json.loads(x) for x in captured.out.splitlines()]
        assert [r["name"] for r in results] == ["first", "last"]
        (err,) = [json.loads(x) for x in captured.err.splitlines()]
        assert err == {"name": "trefoil", "error": "PreconditionError",
                       "message": err["message"], "exit": 1}
        emitted = Path(pd_out).read_text()
        assert emitted == "".join(f"# name: {r['name']}\n{r['pd_G']}\n\n" for r in results)
        from altknot import augment, render_svg

        assert Path(svg_out).read_text() == render_svg(augment(knots[-1]).g)

    def test_worst_block_code_wins(self, tmp_path, capsys):
        p = tmp_path / "corpus.pd"
        p.write_text(f"# name: alt\n{TREFOIL}\n\n# name: broken\nX(1,2,3)\n")
        assert run(["augment", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errs = [json.loads(x) for x in captured.err.splitlines()]
        assert [(e["name"], e["exit"]) for e in errs] == [("alt", 1), ("broken", 2)]
        assert not any("pd" in e for e in errs)

    def test_exit_3_record_carries_the_input(self, tmp_path, capsys, monkeypatch):
        from altknot import cli
        from altknot.errors import InvariantError

        def broken_augment(d):
            raise InvariantError("guarantee failed")

        monkeypatch.setattr(cli, "augment", broken_augment)
        d, _ = random_knot_diagram(5, 12, 2)
        pd = serialize_pd(d)
        p = tmp_path / "corpus.pd"
        p.write_text(f"# name: alt\n{TREFOIL}\n\n# name: knot\n{pd}\n")
        assert run(["augment", str(p)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        errs = [json.loads(x) for x in captured.err.splitlines()]
        assert errs == [
            {"name": "alt", "error": "InvariantError", "message": "guarantee failed",
             "exit": 3, "pd": TREFOIL},
            {"name": "knot", "error": "InvariantError", "message": "guarantee failed",
             "exit": 3, "pd": pd},
        ]
        from altknot import parse_pd

        from conftest import same_map

        assert same_map(parse_pd(errs[1]["pd"]), d)

    def test_qualifying_input(self, knot_file, tmp_path, capsys):
        pd_out = str(tmp_path / "aug.pd")
        svg_out = str(tmp_path / "aug.svg")
        assert run(["augment", knot_file, "--emit-pd", pd_out,
                    "--emit-svg", svg_out]) == 0
        (rep,) = _json_lines(capsys)
        assert rep["bound_check"] is True
        assert rep["certificate"]["verdict"] == "hyperbolic"
        assert rep["t_D"] <= rep["t_G"] <= 5 * rep["t_D"]
        assert os.path.exists(pd_out) and os.path.exists(svg_out)
        from altknot import parse_pd, validate_diagram

        blocks = [b for b in Path(pd_out).read_text().split("\n\n") if b.strip()]
        assert validate_diagram(parse_pd(blocks[0])).valid


class TestBounds:
    def test_values(self, capsys):
        assert run(["bounds", "--twist", "4"]) == 0
        (rep,) = _json_lines(capsys)
        assert rep["lower"] == pytest.approx(2.029883213, abs=1e-6)
        assert rep["upper"] == pytest.approx(30.448248192, abs=1e-6)

    def test_claim(self, capsys):
        assert run(["bounds", "--twist", "4", "--claim-min-twist", "3"]) == 0
        (rep,) = _json_lines(capsys)
        assert "altvol_lower" in rep

    def test_domain_error_exit_1(self, capsys):
        assert run(["bounds", "--twist", "0"]) == 1

    def test_text_format(self, capsys):
        assert run(["--format", "text", "bounds", "--twist", "2"]) == 0
        out = capsys.readouterr().out
        assert "upper:" in out


class TestGen:
    def test_deterministic(self, capsys):
        assert run(["gen", "--seed", "3", "--letters", "10", "--flips", "2"]) == 0
        first = _json_lines(capsys)
        assert run(["gen", "--seed", "3", "--letters", "10", "--flips", "2"]) == 0
        second = _json_lines(capsys)
        assert first == second

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("ALTKNOT_SEED", "3")
        assert run(["gen", "--letters", "10", "--flips", "2"]) == 0
        (rep,) = _json_lines(capsys)
        assert rep["seed"] == 3

    @pytest.mark.parametrize("command", ["gen", "selfcheck"])
    def test_unreadable_env_seed_exit_2(self, command, capsys, monkeypatch):
        # a default seed that is not an integer is an input error with one
        # record, never a bare traceback
        monkeypatch.setenv("ALTKNOT_SEED", "abc")
        assert run([command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ValueError",
            "message": "ALTKNOT_SEED is not an integer: 'abc'",
            "exit": 2,
        }

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["gen", "--seed", "3", "--flips", "-3"], "--flips"),
            (["selfcheck", "--cases", "0"], "--cases"),
            (["selfcheck", "--cases", "-1"], "--cases"),
            (["gen", "--seed", "3", "--letters", "0"], "--letters"),
            (["gen", "--seed", "3", "--letters", "-2"], "--letters"),
            (["gen", "--seed", "3", "--max-crossings", "0"], "--max-crossings"),
            (["gen", "--seed", "3", "--max-crossings", "-1"], "--max-crossings"),
        ],
    )
    def test_out_of_range_counts_exit_2(self, argv, option, capsys):
        # no flips below zero; no draw of no letters, nor one capped
        # below one crossing, which could only retry until it gave up; and
        # no selfcheck of no cases, which would pass vacuously
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {option}: must be at least" in captured.err


class TestSelfcheckAndRender:
    def test_selfcheck_passes(self, capsys):
        assert run(["selfcheck", "--cases", "4", "--seed", "0"]) == 0
        (rep,) = _json_lines(capsys)
        assert rep["passed"] == rep["cases"] == 4

    def test_selfcheck_reports_a_case_that_raises(self, capsys, monkeypatch):
        # the case's progress line comes out like every other's, and the
        # summary counts it as failed
        from altknot import selfcheck
        from altknot.errors import ConstructionError

        real = selfcheck.run_case

        def run_case(seed, *args, **kwargs):
            if seed == 1:
                raise ConstructionError("boom")
            return real(seed, *args, **kwargs)

        monkeypatch.setattr(selfcheck, "run_case", run_case)
        seen = []
        report = selfcheck.run_selfcheck(3, seed=0, progress=seen.append)
        assert [case.seed for case in seen] == [0, 1, 2]
        assert [case.ok for case in seen] == [True, False, True]
        assert seen[1].failures == ["ConstructionError: boom"]
        assert (report["cases"], report["passed"]) == (3, 2)
        assert report["failed"] == [{"seed": 1, "failures": ["ConstructionError: boom"]}]
        capsys.readouterr()
        assert run(["--format", "text", "selfcheck", "--cases", "3", "--seed", "0"]) == 1
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("seed ")]
        assert [line.split(":")[0] for line in lines] == ["seed 0", "seed 1", "seed 2"]
        assert lines[1] == "seed 1: 0 crossings, t 0 -> 0, 0 ms [FAIL]"

    def test_render(self, trefoil_file, tmp_path):
        out = str(tmp_path / "t.svg")
        assert run(["render", trefoil_file, out]) == 0
        assert Path(out).read_text().startswith("<svg")

    def test_render_takes_one_block(self, tmp_path, capsys):
        from altknot import parse_pd, render_svg

        out = tmp_path / "t.svg"
        p = tmp_path / "one.pd"
        p.write_text(f"\n# name: trefoil\n{TREFOIL}\n\n\n")
        assert run(["render", str(p), str(out)]) == 0
        assert out.read_text() == render_svg(parse_pd(TREFOIL))
        out.unlink()
        p = tmp_path / "two.pd"
        p.write_text(f"# name: a\n{TREFOIL}\n\n# name: b\n{TREFOIL}\n")
        assert run(["render", str(p), str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "PDSyntaxError",
            "message": "render takes one diagram; the file holds 2 blocks",
            "exit": 2,
        }
        assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "reduce", "augment", "render"])
def test_undecodable_input_exit_2(command, tmp_path, capsys):
    # a file that is not UTF-8 is an input error with a record naming the
    # first bad byte, never a bare traceback
    p = tmp_path / "bad.pd"
    p.write_bytes(TREFOIL.encode() + b"\n\xff\xfe")
    out = tmp_path / "t.svg"
    argv = [command, str(p)] + ([str(out)] if command == "render" else [])
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "PDSyntaxError",
        "message": f"input is not UTF-8: byte {len(TREFOIL) + 1} is 0xff",
        "exit": 2,
    }
    assert not out.exists()


class TestParserReuse:
    """One parser serves every ``run`` call of a process; each call must
    behave as it does on a parser of its own."""

    @staticmethod
    def _calls(capsys, argvs):
        out = []
        for argv in argvs:
            code = run(argv)
            out.append((code, capsys.readouterr().out))
        return out

    def _alone(self, capsys, argvs):
        from altknot import cli

        out = []
        for argv in argvs:
            cli._parser.cache_clear()
            out += self._calls(capsys, [argv])
        return out

    def test_format_does_not_stick(self, trefoil_file, capsys):
        argvs = [["--format", "text", "analyze", trefoil_file], ["analyze", trefoil_file]]
        together = self._calls(capsys, argvs)
        assert together == self._alone(capsys, argvs)
        assert json.loads(together[1][1])["name"] == "trefoil"
        assert "name: trefoil" in together[0][1].splitlines()

    def test_emit_svg_does_not_stick(self, knot_file, tmp_path, capsys):
        svg = tmp_path / "aug.svg"
        argvs = [["augment", knot_file, "--emit-svg", str(svg)], ["augment", knot_file]]
        code, out = self._calls(capsys, argvs[:1])[0]
        assert code == 0 and svg.exists()
        svg.unlink()
        assert self._calls(capsys, argvs[1:]) == [(code, out)]
        assert not svg.exists()
        assert self._alone(capsys, argvs) == [(code, out)] * 2

    def test_env_seed_read_per_call(self, capsys, monkeypatch):
        argv = ["gen", "--letters", "10", "--flips", "2"]
        together = []
        for seed in ("3", "4"):
            monkeypatch.setenv("ALTKNOT_SEED", seed)
            together += self._calls(capsys, [argv])
            assert together[-1] == self._alone(capsys, [argv])[0]
        assert [json.loads(out)["seed"] for _code, out in together] == [3, 4]


@pytest.mark.parametrize("command", ["analyze", "reduce", "augment"])
def test_titled_block_without_pd_text_gets_a_record(command, tmp_path, capsys):
    # a title followed by another title, or by the end of the file, with
    # no PD text between is an input error under its own name; the
    # blocks around it still run
    d, _ = random_knot_diagram(5, 12, 2)
    p = tmp_path / "corpus.pd"
    p.write_text(f"# name: a\n\n# name: b\n{serialize_pd(d)}\n\n# name: c\n")
    assert run([command, str(p)]) == 2
    captured = capsys.readouterr()
    assert [json.loads(x)["name"] for x in captured.out.splitlines()] == ["b"]
    errs = [json.loads(x) for x in captured.err.splitlines()]
    assert errs == [
        {"name": name, "error": "PDSyntaxError", "message": "titled block holds no PD text", "exit": 2}
        for name in ("a", "c")
    ]


@pytest.mark.parametrize("command", ["analyze", "reduce", "augment"])
def test_title_after_pd_text_starts_a_new_block(command, tmp_path, capsys):
    # a title right after PD text closes the block being read: each block
    # runs under its own name, exactly as with a blank line before the title
    joined = tmp_path / "joined.pd"
    joined.write_text(f"# name: a\n{TREFOIL}\n# name: b\nX(1,1,2,2)\n")
    apart = tmp_path / "apart.pd"
    apart.write_text(f"# name: a\n{TREFOIL}\n\n# name: b\nX(1,1,2,2)\n")
    code = run([command, str(joined)])
    got = capsys.readouterr()
    assert (code, got.out, got.err) == (run([command, str(apart)]), *capsys.readouterr())
    records = [json.loads(x) for x in (got.out + got.err).splitlines()]
    assert sorted(r["name"] for r in records) == ["a", "b"]
    assert all(r.get("error") != "IncidenceError" for r in records)
