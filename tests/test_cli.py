"""End-to-end command-line behaviour, exit codes, and the orbit cache."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import origami_h2
from origami_h2 import cli, sl2_orbit

COUNTS_HEADER = "n,total,formula_total,a_count,a_formula,b_count,b_formula,match"


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCounts:
    def test_csv(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "--cache-dir", str(tmp_path), "counts", "3", "5")
        assert rc == 0
        assert out.splitlines() == [
            COUNTS_HEADER,
            "3,3,3,,,,,true",
            "4,9,9,,,,,true",
            "5,27,27,18,18,9,9,true",
        ]

    def test_json(self, capsys, tmp_path):
        rc, out, _ = run(
            capsys, "--cache-dir", str(tmp_path), "--format", "json", "counts", "4", "6"
        )
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
    def test_bad_range(self, capsys, tmp_path, lo, hi):
        rc, out, err = run(capsys, "--cache-dir", str(tmp_path), "counts", lo, hi)
        assert rc == 2
        assert out == ""
        assert "invalid range" in err


class TestOrbit:
    def test_summary_n3(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "--cache-dir", str(tmp_path), "orbit", "L(2,2)")
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

    def test_even_n_has_no_invariant(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "--cache-dir", str(tmp_path), "orbit", "L(2,3)")
        assert rc == 0
        doc = json.loads(out)
        assert doc["n"] == 4 and doc["size"] == 9 and doc["level"] == 12
        assert doc["invariant"] is None

    def test_three_weierstrass_orbit(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "--cache-dir", str(tmp_path), "orbit", "L(3,3)")
        assert rc == 0
        doc = json.loads(out)
        assert doc["size"] == 9 and doc["level"] == 15 and doc["invariant"] == 3

    def test_rejects_other_stratum(self, capsys, tmp_path):
        rc, out, err = run(
            capsys, "--cache-dir", str(tmp_path), "orbit", "2cyl(1,1,2,2,0,0)"
        )
        assert rc == 3
        assert out == "" and "unsupported surface" in err

    def test_rejects_imprimitive(self, capsys, tmp_path):
        rc, _, err = run(capsys, "--cache-dir", str(tmp_path), "orbit", "1cyl(2,2,2;0;1)")
        assert rc == 3
        assert "not a primitive" in err

    def test_rejects_garbage(self, capsys, tmp_path):
        rc, _, err = run(capsys, "--cache-dir", str(tmp_path), "orbit", "wedge(1,2)")
        assert rc == 2
        assert "cannot parse" in err

    def test_respects_orbit_bound(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "--cache-dir", str(tmp_path), "--max-orbit-n", "3", "orbit", "L(2,4)"
        )
        assert rc == 2
        assert "exceeds" in err

    def test_orbit_bound_checked_before_building(self, capsys, tmp_path, monkeypatch):
        def refuse(diag):
            raise AssertionError(f"built {diag} despite the size bound")

        monkeypatch.setattr(cli, "build_from_diagram", refuse)
        rc, out, err = run(
            capsys, "--cache-dir", str(tmp_path), "orbit", "2cyl(1,1,1,300000,0,0)"
        )
        assert rc == 2
        assert out == "" and "n = 300001 exceeds --max-orbit-n = 25" in err


class TestNoncong:
    def test_certificate_c4(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "--cache-dir", str(tmp_path), "noncong", "C", "4")
        assert rc == 0
        doc = json.loads(out)
        assert doc["verdict"] == "noncongruence"
        assert (doc["k"], doc["k_prime"]) == (2, 4)
        assert doc["d"] == 9 and doc["delta"] == 48
        assert doc["m"] == 3 and doc["level"] == 12
        assert doc["orbit_label"] == "C" and doc["n"] == 4
        assert "|" in doc["surface_key"]

    def test_inconclusive_n3(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "--cache-dir", str(tmp_path), "noncong", "A", "3")
        assert rc == 4
        assert out.strip() == "inconclusive"

    def test_bad_parity(self, capsys, tmp_path):
        rc, _, err = run(capsys, "--cache-dir", str(tmp_path), "noncong", "C", "3")
        assert rc == 2
        assert "C_n needs even n >= 4" in err

    def test_respects_orbit_bound(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "--cache-dir", str(tmp_path), "--max-orbit-n", "5", "noncong", "B", "7"
        )
        assert rc == 2
        assert "exceeds" in err

    def test_unknown_label_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["--cache-dir", str(tmp_path), "noncong", "D", "5"])
        assert exc_info.value.code == 2


class TestBadcases:
    GOLDEN = [
        "n,d_factored,delta_factored",
        "9,3^4,2^3*3*5",
        "15,2^4*3^3,2^6*3^2*5^2*11",
        "21,2^4*3^4,2^8*3^3*5*17",
        "27,2^2*3^6,2^7*3^2*5^4*11*23",
        "51,2^8*3^4,2^8*3^2*5^4*23*47",
    ]

    def test_csv(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "--cache-dir", str(tmp_path), "badcases")
        assert rc == 0
        assert out.splitlines() == self.GOLDEN

    def test_json(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "--cache-dir", str(tmp_path), "--format", "json", "badcases")
        assert rc == 0
        rows = json.loads(out)["rows"]
        assert rows[0] == {"n": 9, "d_factored": "3^4", "delta_factored": "2^3*3*5"}
        assert [r["n"] for r in rows] == [9, 15, 21, 27, 51]


class TestVerify:
    @pytest.mark.parametrize("suite", ["orbits", "levels", "invariant"])
    def test_suites_pass(self, capsys, tmp_path, suite):
        rc, out, _ = run(capsys, "--cache-dir", str(tmp_path), "verify", suite, "7")
        assert rc == 0
        lines = out.splitlines()
        assert lines and all(line.startswith("ok n=") for line in lines)
        # the invariant sweep only reports odd n
        want_ns = [3, 5, 7] if suite == "invariant" else [3, 4, 5, 6, 7]
        assert [int(line.split("=")[1].split(":")[0]) for line in lines] == want_ns

    def test_rejects_tiny_n_max(self, capsys, tmp_path):
        rc, _, err = run(capsys, "--cache-dir", str(tmp_path), "verify", "levels", "2")
        assert rc == 2
        assert "need n_max >= 3" in err

    def test_respects_orbit_bound(self, capsys, tmp_path):
        rc, _, err = run(capsys, "--cache-dir", str(tmp_path), "verify", "orbits", "30")
        assert rc == 2
        assert "exceeds" in err


class TestCache:
    def orbit_files(self, cache_dir):
        manifest = json.loads((cache_dir / "manifest.json").read_text())
        return {e["orbit_file"] for e in manifest["entries"].values()}

    def test_second_run_hits(self, capsys, tmp_path):
        rc1, out1, _ = run(capsys, "--cache-dir", str(tmp_path), "orbit", "L(2,4)")
        files = self.orbit_files(tmp_path)
        assert rc1 == 0 and len(files) == 1
        payload = (tmp_path / files.pop()).read_bytes()

        rc2, out2, _ = run(capsys, "--cache-dir", str(tmp_path), "orbit", "L(2,4)")
        assert rc2 == 0 and out2 == out1
        assert (tmp_path / self.orbit_files(tmp_path).pop()).read_bytes() == payload

    def test_same_orbit_different_seed(self, capsys, tmp_path):
        # S maps L(2,4) to (a relabelling of) this two-cylinder surface, so
        # both seeds must report the identical orbit
        _, out1, _ = run(capsys, "--cache-dir", str(tmp_path), "orbit", "L(2,4)")
        _, out2, _ = run(
            capsys, "--cache-dir", str(tmp_path), "orbit", "2cyl(3,1,1,2,0,0)"
        )
        assert out1 == out2
        assert len(self.orbit_files(tmp_path)) == 1

    def test_corrupt_file_is_recomputed(self, capsys, tmp_path):
        _, out1, _ = run(capsys, "--cache-dir", str(tmp_path), "orbit", "L(2,4)")
        name = self.orbit_files(tmp_path).pop()
        (tmp_path / name).write_bytes(b'{"schema_version": 1}')
        rc, out2, _ = run(capsys, "--cache-dir", str(tmp_path), "orbit", "L(2,4)")
        assert rc == 0 and out2 == out1
        # the recompute healed the cache in place
        data = (tmp_path / name).read_bytes()
        assert b'"t_edges"' in data

    def rewrite_checksummed(self, cache_dir, name, data: bytes) -> None:
        """Replace an orbit file and re-sign it, so only its content is wrong."""
        (cache_dir / name).write_bytes(data)
        path = cache_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        for entry in manifest["entries"].values():
            entry["checksum"] = hashlib.sha256(data).hexdigest()
        path.write_text(json.dumps(manifest))

    @pytest.mark.parametrize(
        "data",
        [b"[]", b'{"schema_version": 3, "cusps": 5}', b'{"schema_version": 3, "surfaces": null}'],
        ids=["list", "cusps-number", "surfaces-null"],
    )
    def test_checksummed_malformed_file_is_recomputed(self, capsys, tmp_path, data):
        _, out1, _ = run(capsys, "--cache-dir", str(tmp_path), "orbit", "L(2,4)")
        name = self.orbit_files(tmp_path).pop()
        payload = (tmp_path / name).read_bytes()
        self.rewrite_checksummed(tmp_path, name, data)
        rc, out2, _ = run(capsys, "--cache-dir", str(tmp_path), "orbit", "L(2,4)")
        assert rc == 0 and out2 == out1
        assert (tmp_path / name).read_bytes() == payload

    def test_checksummed_torus_cover_text_is_recomputed(self, capsys, tmp_path, monkeypatch):
        # a canonical text of a transitive pair outside H(2): the 5-cycle
        # beside the identity, a torus cover with no cone point
        _, out1, _ = run(capsys, "--cache-dir", str(tmp_path), "orbit", "L(2,4)")
        name = self.orbit_files(tmp_path).pop()
        payload = (tmp_path / name).read_bytes()
        doc = json.loads(payload)
        doc["surfaces"][0] = "1,2,3,4,0|0,1,2,3,4"
        self.rewrite_checksummed(tmp_path, name, json.dumps(doc).encode())
        rejected = []
        real = sl2_orbit.key_from_text

        def spy(text):
            try:
                return real(text)
            except ValueError as exc:
                rejected.append(str(exc))
                raise

        monkeypatch.setattr(sl2_orbit, "key_from_text", spy)
        rc, out2, _ = run(capsys, "--cache-dir", str(tmp_path), "orbit", "L(2,4)")
        assert rc == 0 and out2 == out1
        assert rejected == ["text is not a surface in H(2)"]
        assert (tmp_path / name).read_bytes() == payload

    def test_schema_2_file_is_rewritten_as_schema_3(self, capsys, tmp_path, as_schema_2):
        _, out1, _ = run(capsys, "--cache-dir", str(tmp_path), "orbit", "L(3,4)")
        name = self.orbit_files(tmp_path).pop()
        payload = (tmp_path / name).read_bytes()
        self.rewrite_checksummed(tmp_path, name, as_schema_2(payload.decode()).encode())
        rc, out2, _ = run(capsys, "--cache-dir", str(tmp_path), "orbit", "L(3,4)")
        assert rc == 0 and out2 == out1
        assert (tmp_path / name).read_bytes() == payload
        assert json.loads(payload)["schema_version"] == 3

    def test_env_var_fallback(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("ORIGAMI_H2_CACHE", str(tmp_path / "envcache"))
        rc, _, _ = run(capsys, "orbit", "L(2,2)")
        assert rc == 0
        assert (tmp_path / "envcache" / "manifest.json").exists()


class TestGlobalFlags:
    def test_max_orbit_n_floor(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["--cache-dir", str(tmp_path), "--max-orbit-n", "2", "badcases"])
        assert exc_info.value.code == 2


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
