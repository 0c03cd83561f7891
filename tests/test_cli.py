"""End-to-end command-line behaviour and exit codes."""

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import origami_h2
from origami_h2 import cli, congruence, enumeration, origami_core, sl2_orbit
from origami_h2.origami_core import key_to_text

COUNTS_HEADER = "n,total,formula_total,a_count,a_formula,b_count,b_formula,match"

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
NAMED_ORBITS_GOLDEN = GOLDEN_DIR / "named_orbits.json"
COUNTS_GOLDEN = GOLDEN_DIR / "counts.json"


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCounts:
    def test_csv(self, capsys):
        rc, out, _ = run(capsys, "counts", "3", "5")
        assert rc == 0
        assert out.splitlines() == [
            COUNTS_HEADER,
            "3,3,3,,,,,true",
            "4,9,9,,,,,true",
            "5,27,27,18,18,9,9,true",
        ]

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "--format", "json", "counts", "4", "6")
        assert rc == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        by_n = {r["n"]: r for r in doc["reports"]}
        assert set(by_n) == {4, 5, 6}
        assert by_n[5]["a_count"] == 18 and by_n[5]["b_count"] == 9
        assert by_n[4]["a_count"] is None
        assert by_n[6]["one_cylinder"] + by_n[6]["two_cylinder"] == 36
        assert all(r["match"] is True for r in doc["reports"])

    @pytest.mark.parametrize("lo,hi", [("2", "5"), ("5", "4")])
    def test_bad_range(self, capsys, lo, hi):
        rc, out, err = run(capsys, "counts", lo, hi)
        assert rc == 2
        assert out == ""
        assert "invalid range" in err

    def test_rejects_n_above_limit(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"enumerated {args} despite the size limit")

        monkeypatch.setattr(cli, "verify_counts", refuse)
        rc, out, err = run(capsys, "counts", "3", "101")
        assert rc == 2
        assert out == "" and "n_max = 101 exceeds the census limit 100" in err


class TestOrbit:
    def test_summary_n3(self, capsys):
        rc, out, _ = run(capsys, "orbit", "L(2,2)")
        assert rc == 0
        doc = json.loads(out)
        assert doc == {
            "schema_version": 1,
            "n": 3,
            "size": 3,
            "cusp_widths": [1, 2],
            "level": 2,
            "invariant": 1,
        }

    def test_even_n_has_no_invariant(self, capsys):
        rc, out, _ = run(capsys, "orbit", "L(2,3)")
        assert rc == 0
        doc = json.loads(out)
        assert doc["n"] == 4 and doc["size"] == 9 and doc["level"] == 12
        assert doc["invariant"] is None

    def test_three_weierstrass_orbit(self, capsys):
        rc, out, _ = run(capsys, "orbit", "L(3,3)")
        assert rc == 0
        doc = json.loads(out)
        assert doc["size"] == 9 and doc["level"] == 15 and doc["invariant"] == 3

    def test_same_orbit_from_another_member(self, capsys):
        # S maps L(2,4) to (a relabelling of) this two-cylinder surface, so
        # both seeds must report the identical orbit
        _, out1, _ = run(capsys, "orbit", "L(2,4)")
        _, out2, _ = run(capsys, "orbit", "2cyl(3,1,1,2,0,0)")
        assert out1 == out2

    def test_rejects_other_stratum(self, capsys):
        rc, out, err = run(capsys, "orbit", "2cyl(1,1,2,2,0,0)")
        assert rc == 3
        assert out == "" and "unsupported surface" in err
        # a zero length or height describes no surface at all
        for surface in ("1cyl(0,1,2;0;1)", "2cyl(0,1,1,2,0,0)"):
            rc, out, err = run(capsys, "orbit", surface)
            assert rc == 3
            assert out == "" and "must be positive" in err

    def test_rejects_imprimitive(self, capsys):
        rc, _, err = run(capsys, "orbit", "1cyl(2,2,2;0;1)")
        assert rc == 3
        assert "not a primitive" in err

    def test_rejects_imprimitive_before_building(self, capsys, monkeypatch):
        def refuse(diag):
            raise AssertionError(f"built {diag} although it is imprimitive")

        monkeypatch.setattr(cli, "build_from_diagram", refuse)
        rc, out, err = run(capsys, "orbit", "1cyl(2,2,2;0;1)")
        assert rc == 3
        assert out == "" and "not a primitive" in err

    def test_rejects_garbage(self, capsys):
        rc, _, err = run(capsys, "orbit", "wedge(1,2)")
        assert rc == 2
        assert "cannot parse" in err

    def test_respects_orbit_bound(self, capsys):
        rc, _, err = run(capsys, "--max-orbit-n", "3", "orbit", "L(2,4)")
        assert rc == 2
        assert "exceeds" in err

    def test_orbit_bound_checked_before_building(self, capsys, monkeypatch):
        def refuse(diag):
            raise AssertionError(f"built {diag} despite the size bound")

        monkeypatch.setattr(cli, "build_from_diagram", refuse)
        rc, out, err = run(capsys, "orbit", "2cyl(1,1,1,300000,0,0)")
        assert rc == 2
        assert out == "" and "n = 300001 exceeds --max-orbit-n = 25" in err


class TestNoncong:
    def test_certificate_c4(self, capsys):
        rc, out, _ = run(capsys, "noncong", "C", "4")
        assert rc == 0
        doc = json.loads(out)
        assert doc["verdict"] == "noncongruence"
        assert (doc["k"], doc["k_prime"]) == (2, 4)
        assert doc["d"] == 9 and doc["delta"] == 48
        assert doc["m"] == 3 and doc["level"] == 12
        assert doc["orbit_label"] == "C" and doc["n"] == 4
        assert "|" in doc["surface_key"]

    def test_inconclusive_n3(self, capsys):
        rc, out, _ = run(capsys, "noncong", "A", "3")
        assert rc == 4
        assert out.strip() == "inconclusive"

    def test_bad_parity(self, capsys):
        rc, _, err = run(capsys, "noncong", "C", "3")
        assert rc == 2
        assert "C_n needs even n >= 4" in err
        for label, n, message in (("A", "4", "A_n needs odd n >= 3"), ("B", "3", "B_n needs odd n >= 5")):
            rc, out, err = run(capsys, "noncong", label, n)
            assert rc == 2
            assert out == "" and message in err

    def test_respects_orbit_bound(self, capsys):
        rc, _, err = run(capsys, "--max-orbit-n", "5", "noncong", "B", "7")
        assert rc == 2
        assert "exceeds" in err

    def test_orbit_bound_checked_before_building(self, capsys, monkeypatch):
        def refuse(label, n):
            raise AssertionError(f"built the {label}_{n} seed despite the size bound")

        monkeypatch.setattr(cli, "seed_surface", refuse)
        rc, out, err = run(capsys, "noncong", "A", "300001")
        assert rc == 2
        assert out == "" and "n = 300001 exceeds --max-orbit-n = 25" in err

    def test_unknown_label_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["noncong", "D", "5"])
        assert exc_info.value.code == 2


def stdout_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()


def named_orbit_outputs(n_max=21):
    """stdout of ``orbit <seed>`` and ``noncong <label> <n>`` per named orbit."""
    outputs = {}
    for n in range(3, n_max + 1):
        labels = "C" if n % 2 == 0 else "A" if n == 3 else "AB"
        for label in labels:
            seed = f"L(3,{n - 2})" if label == "B" else f"L(2,{n - 1})"
            for argv in (["orbit", seed], ["noncong", label, str(n)]):
                outputs[" ".join(argv)] = stdout_of(argv)
    return outputs


def counts_outputs():
    """stdout of ``counts 3 25`` in csv and in json."""
    argvs = (["--format", fmt, "counts", "3", "25"] for fmt in ("csv", "json"))
    return {" ".join(argv): stdout_of(argv) for argv in argvs}


def test_named_orbits_match_golden():
    # regenerate with: PYTHONPATH=src python3 tests/test_cli.py
    golden = json.loads(NAMED_ORBITS_GOLDEN.read_text())
    assert len(golden) == 56
    assert named_orbit_outputs() == golden


def test_counts_match_golden():
    # regenerate with: PYTHONPATH=src python3 tests/test_cli.py
    assert counts_outputs() == json.loads(COUNTS_GOLDEN.read_text())


class TestBadcases:
    GOLDEN = [
        "n,d_factored,delta_factored",
        "9,3^4,2^3*3*5",
        "15,2^4*3^3,2^6*3^2*5^2*11",
        "21,2^4*3^4,2^8*3^3*5*17",
        "27,2^2*3^6,2^7*3^2*5^4*11*23",
        "51,2^8*3^4,2^8*3^2*5^4*23*47",
    ]

    def test_csv(self, capsys):
        rc, out, _ = run(capsys, "badcases")
        assert rc == 0
        assert out.splitlines() == self.GOLDEN

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "--format", "json", "badcases")
        assert rc == 0
        rows = json.loads(out)["rows"]
        assert rows[0] == {"n": 9, "d_factored": "3^4", "delta_factored": "2^3*3*5"}
        assert [r["n"] for r in rows] == [9, 15, 21, 27, 51]


class TestVerify:
    @pytest.mark.parametrize("suite", ["orbits", "levels", "invariant"])
    def test_suites_pass(self, capsys, suite):
        rc, out, _ = run(capsys, "verify", suite, "7")
        assert rc == 0
        lines = out.splitlines()
        assert lines and all(line.startswith("ok n=") for line in lines)
        # the invariant sweep only reports odd n
        want_ns = [3, 5, 7] if suite == "invariant" else [3, 4, 5, 6, 7]
        assert [int(line.split("=")[1].split(":")[0]) for line in lines] == want_ns

    def test_orbits_must_be_the_census_as_a_set(self, capsys, monkeypatch):
        # one diagram swapped for an 8-square one: every size still agrees
        real = enumeration._candidates

        def swapped(n):
            diagrams = {c for _, coords in real(n) for c in coords}
            diagrams.remove(min(diagrams))
            return [((1, 1, 1, 7), [*diagrams, (1, 1, 1, 7, 0, 0)])]

        monkeypatch.setattr(cli, "_candidates", swapped)
        rc, out, _ = run(capsys, "verify", "orbits", "7")
        assert rc == 1
        assert out.splitlines()[-1] == "FAIL n=7: A=54 + B=36 vs total 90"

    def test_orbits_run_no_census_sweep(self, capsys, monkeypatch):
        # the layout check of every tuple belongs to counts, not to verify orbits
        def no_sweep(n):
            raise AssertionError(f"census sweep at n={n}")

        monkeypatch.setattr(enumeration, "_sweep", no_sweep)
        rc, out, _ = run(capsys, "verify", "orbits", "7")
        assert rc == 0
        assert out.splitlines() == [
            "ok n=3: A=3 vs total 3",
            "ok n=4: C=9 vs total 9",
            "ok n=5: A=18 + B=9 vs total 27",
            "ok n=6: C=36 vs total 36",
            "ok n=7: A=54 + B=36 vs total 90",
        ]

    def test_invariant_computes_odd_orbits_only(self, capsys, monkeypatch):
        sizes = []
        real = cli.orbit

        def counting(o):
            sizes.append(o.n)
            return real(o)

        monkeypatch.setattr(cli, "orbit", counting)
        rc, _, _ = run(capsys, "verify", "invariant", "8")
        assert rc == 0
        # A3, A5, B5, A7, B7: no C orbit is computed for the odd-only suite
        assert sorted(sizes) == [3, 5, 5, 7, 7]

    def test_rejects_tiny_n_max(self, capsys):
        rc, _, err = run(capsys, "verify", "levels", "2")
        assert rc == 2
        assert "need n_max >= 3" in err

    def test_respects_orbit_bound(self, capsys):
        rc, _, err = run(capsys, "verify", "orbits", "30")
        assert rc == 2
        assert "exceeds" in err


class TestKeysComputed:
    """The orbit is computed on cylinder diagrams; keys are made only for output."""

    @staticmethod
    def count_keys(monkeypatch) -> list:
        calls = []
        real = origami_core.canonical_key

        def counting(o):
            calls.append(o.n)
            return real(o)

        for module in (origami_core, sl2_orbit, congruence, enumeration, cli):
            if getattr(module, "canonical_key", None) is real:
                monkeypatch.setattr(module, "canonical_key", counting)
        return calls

    @pytest.mark.parametrize("surface", ["L(3,29)", "2cyl(1,2,3,11,1,4)"])
    def test_orbit_computes_no_key(self, capsys, monkeypatch, surface):
        calls = self.count_keys(monkeypatch)
        rc, out, _ = run(capsys, "--max-orbit-n", "31", "orbit", surface)
        assert rc == 0 and json.loads(out)["size"] > 1000
        assert calls == []

    def test_noncong_keys_only_the_certified_carriers(self, capsys, monkeypatch, named_orbit):
        orb = named_orbit("B", 29)
        pair_at = {orb.key(d): (orb.widths[i], orb.widths[orb.s_perm[i]]) for i, d in enumerate(orb.diagrams)}
        calls = self.count_keys(monkeypatch)
        rc, out, _ = run(capsys, "--max-orbit-n", "29", "noncong", "B", "29")
        assert rc == 0
        doc = json.loads(out)
        carriers = [k for k, pair in pair_at.items() if pair == (doc["k"], doc["k_prime"])]
        assert doc["surface_key"] == key_to_text(min(carriers))
        # the carriers, plus the surface and its image for each of the two
        # memberships verify_certificate checks
        assert len(calls) <= len(carriers) + 4

    def test_noncong_lists_no_cusp(self, capsys, monkeypatch):
        # the certificate reads widths and single positions: no view that
        # lists every member of the orbit is built
        made = []

        def keeping(o):
            made.append(sl2_orbit.orbit(o))
            return made[-1]

        monkeypatch.setattr(cli, "orbit", keeping)
        rc, _, _ = run(capsys, "--max-orbit-n", "29", "noncong", "B", "29")
        assert rc == 0 and len(made) == 1
        assert "diagrams" not in vars(made[0])


class TestNoDiskWrites:
    COMMANDS = (["orbit", "L(2,4)"], ["noncong", "C", "4"], ["verify", "orbits", "6"])

    def test_cli_writes_nothing(self, capsys, tmp_path, monkeypatch):
        with_flag = [run(capsys, "--cache-dir", str(tmp_path / "c"), *cmd) for cmd in self.COMMANDS]
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.setenv("ORIGAMI_H2_CACHE", str(tmp_path / "env"))
        without = [run(capsys, *cmd) for cmd in self.COMMANDS]
        assert [rc for rc, _, _ in with_flag] == [0, 0, 0]
        assert with_flag == without
        assert list(tmp_path.iterdir()) == []

    def test_help_says_cache_dir_is_ignored(self):
        help_text = " ".join(cli.build_parser().format_help().split())
        assert "--cache-dir PATH ignored:" in help_text


class TestGlobalFlags:
    def test_max_orbit_n_floor(self):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["--max-orbit-n", "2", "badcases"])
        assert exc_info.value.code == 2

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()


LAUNCHER = """#!{python}
import sys
from {module} import {attr}
if __name__ == "__main__":
    sys.exit({attr}())
"""


def assert_help_lists_commands(exe, **kwargs):
    proc = subprocess.run(
        [exe, "--help"], capture_output=True, text=True, timeout=60, **kwargs
    )
    assert proc.returncode == 0, proc.stderr
    # match the subcommand rows, not "noncongruence" in the description
    for command in ("counts", "noncong"):
        assert re.search(rf"^ +{command}( |$)", proc.stdout, re.MULTILINE), command


def test_console_script_installed(tmp_path):
    # Build the launcher pip would install from the [project.scripts] entry,
    # so the declaration and its target are checked without an install.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "origami-h2" in scripts
    module, _, attr = scripts["origami-h2"].partition(":")
    assert module and attr.isidentifier()

    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "origami-h2"
    launcher.write_text(LAUNCHER.format(python=sys.executable, module=module, attr=attr))
    launcher.chmod(0o755)

    search_path = os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")])
    exe = shutil.which("origami-h2", path=search_path)
    assert exe == str(launcher)
    # the suite's own PYTHONPATH may be relative to the checkout
    src_dir = str(Path(origami_h2.__file__).resolve().parent.parent)
    env = dict(os.environ, PATH=search_path)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    assert_help_lists_commands(exe, cwd=tmp_path, env=env)


@pytest.mark.skipif(
    shutil.which("origami-h2") is None, reason="origami-h2 is not installed on PATH"
)
def test_installed_executable_on_path():
    assert_help_lists_commands(shutil.which("origami-h2"))


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    NAMED_ORBITS_GOLDEN.write_text(json.dumps(named_orbit_outputs(), indent=1) + "\n")
    COUNTS_GOLDEN.write_text(json.dumps(counts_outputs(), indent=1) + "\n")
