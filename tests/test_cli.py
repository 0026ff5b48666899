import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monsterrep import mm_cli, mm_rep, verify
from monsterrep.modp_core import ALLOWED_P


def test_parse_word_atoms():
    atoms = mm_cli.parse_word("x1a3*y0*z1fff*d155*t1*l2")
    assert [a.tag for a in atoms] == ["x", "y", "z", "d", "t", "l"]
    assert atoms[0].payload == 0x1a3
    assert atoms[2].payload == 0x1fff
    assert atoms[4].payload == 1 and atoms[5].payload == 2
    assert mm_cli.parse_word("") == []


def test_parse_word_permutation():
    ident = ",".join(str(i) for i in range(24))
    atoms = mm_cli.parse_word(f"p[{ident}]")
    assert atoms[0].tag == "p"
    assert atoms[0].payload.perm.is_identity()


def test_parse_word_errors():
    with pytest.raises(ValueError, match="position"):
        mm_cli.parse_word("x1a3*q7")
    with pytest.raises(ValueError, match="preserve the Golay code"):
        images = list(range(24))
        images[0], images[1] = 1, 0
        mm_cli.parse_word("p[" + ",".join(map(str, images)) + "]")
    with pytest.raises(ValueError):
        mm_cli.parse_word("t5")
    with pytest.raises(ValueError):
        mm_cli.parse_word("x1a3**y1")


def test_apply_command(tmp_path):
    v = mm_rep.rand(3, 11)
    src = tmp_path / "a.mmv"
    dst = tmp_path / "b.mmv"
    mm_rep.write_vector(v, src)
    rc = mm_cli.main(["apply", "--in", str(src), "--word", "", "--out", str(dst)])
    assert rc == 0
    assert src.read_bytes() == dst.read_bytes()
    rc = mm_cli.main(["apply", "--in", str(src), "--word", "t1*t2", "--out", str(dst)])
    assert rc == 0
    assert src.read_bytes() == dst.read_bytes()
    rc = mm_cli.main(["apply", "--in", str(src), "--word", "l1*l1*l1", "--out", str(dst)])
    assert rc == 0
    assert src.read_bytes() == dst.read_bytes()
    rc = mm_cli.main(["apply", "--in", str(src), "--word", "zzz", "--out", str(dst)])
    assert rc == 2


def test_apply_bad_input_files(tmp_path, capsys):
    """Bad MMV1 files exit with code 2 and one error line, no traceback."""
    v = mm_rep.rand(3, 13)
    good = tmp_path / "good.mmv"
    mm_rep.write_vector(v, good)
    data = good.read_bytes()
    coord = bytearray(data)
    coord[9 + 1000] = 3
    cases = {"magic": b"MMV0" + data[4:], "truncated": data[:6],
             "p5": data[:4] + bytes([5]) + data[5:], "coord": bytes(coord)}
    for name, blob in cases.items():
        src = tmp_path / f"{name}.mmv"
        src.write_bytes(blob)
        rc = mm_cli.main(["apply", "--in", str(src), "--word", "t1",
                          "--out", str(tmp_path / "out.mmv")])
        err = capsys.readouterr().err
        assert rc == 2, name
        assert err.startswith("input error: ") and "Traceback" not in err, name
    assert "coordinate 1000 is 3" in err
    assert not (tmp_path / "out.mmv").exists()
    rc = mm_cli.main(["apply", "--in", str(tmp_path / "missing.mmv"), "--word", "t1",
                      "--out", str(tmp_path / "out.mmv")])
    assert rc == 2 and capsys.readouterr().err.startswith("input error: ")


_WORD_TEXT = st.one_of(st.text(), st.text(alphabet="xyzdptl0123456789abcdefABCDEF*[],- _"))


@settings(max_examples=300, deadline=None)
@given(_WORD_TEXT)
def test_parse_word_arbitrary_text(text):
    """Any text parses to atoms or raises ValueError."""
    try:
        atoms = mm_cli.parse_word(text)
    except ValueError:
        return
    assert all(isinstance(at, mm_rep.GeneratorAtom) for at in atoms)


_GOOD_MMV1 = {}
_CORRUPTIONS = ("truncated", "padded", "magic", "modulus", "count", "coordinate")


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(ALLOWED_P), kind=st.sampled_from(_CORRUPTIONS), data=st.data())
def test_corrupt_mmv1_files_fail_cleanly(tmp_path_factory, p, kind, data):
    """A truncated or padded MMV1 file, or one with a bad magic, modulus
    byte, coordinate count or a coordinate >= p, raises ValueError in
    read_vector, and `apply` exits 2 with one error line and no output."""
    if p not in _GOOD_MMV1:
        path = tmp_path_factory.mktemp("mmv1") / "good.mmv"
        mm_rep.write_vector(mm_rep.rand(p, 50 + p), path)
        _GOOD_MMV1[p] = (path.parent, path.read_bytes())
    tmp, blob = _GOOD_MMV1[p]
    blob = bytearray(blob)
    if kind == "truncated":
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    elif kind == "padded":
        blob += data.draw(st.binary(min_size=1, max_size=16))
    elif kind == "magic":
        blob[:4] = data.draw(st.binary(min_size=4, max_size=4).filter(lambda b: b != b"MMV1"))
    elif kind == "modulus":
        blob[4] = data.draw(st.integers(0, 255).filter(lambda b: b not in ALLOWED_P))
    elif kind == "count":
        count = data.draw(st.integers(0, 2**32 - 1).filter(lambda n: n != mm_rep.DIM))
        blob[5:9] = count.to_bytes(4, "little")
    else:
        blob[9 + data.draw(st.integers(0, mm_rep.DIM - 1))] = data.draw(st.integers(p, 255))
    src, dst = tmp / "bad.mmv", tmp / "out.mmv"
    src.write_bytes(blob)
    with pytest.raises(ValueError):
        mm_rep.read_vector(src)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = mm_cli.main(["apply", "--in", str(src), "--word", "t1", "--out", str(dst)])
    assert rc == 2 and not dst.exists()
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: "), lines


def test_apply_unwritable_output(tmp_path, capsys):
    """An output path in a missing directory exits with code 2 and one
    error line, no traceback."""
    src = tmp_path / "a.mmv"
    mm_rep.write_vector(mm_rep.rand(3, 14), src)
    rc = mm_cli.main(["apply", "--in", str(src), "--word", "t1",
                      "--out", str(tmp_path / "nodir" / "x.mmv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("output error: ") and "Traceback" not in err


def test_apply_matches_library(tmp_path):
    v = mm_rep.rand(7, 12)
    src, dst = tmp_path / "a.mmv", tmp_path / "b.mmv"
    mm_rep.write_vector(v, src)
    assert mm_cli.main(["apply", "--in", str(src), "--word", "x1a3*t1*l2",
                        "--out", str(dst)]) == 0
    got = mm_rep.read_vector(dst)
    want = mm_rep.apply_word(v, mm_cli.parse_word("x1a3*t1*l2"))
    assert got == want


def test_info_topics(capsys):
    for topic in ("basis", "cocycle", "short-counts", "layout"):
        assert mm_cli.main(["info", topic]) == 0
    out = capsys.readouterr().out
    assert "98280" in out
    assert "196884" in out
    assert "storage: one uint8 per coordinate in this order; the value p reads as 0" in out
    assert mm_cli.main(["info"][:1] + ["layout"]) == 0


def test_verify_exit_codes(capsys):
    assert mm_cli.main(["verify", "golay"]) == 0
    out = capsys.readouterr().out
    assert "ALL SUITES PASSED" in out
    assert "0^1 8^759" in out or "weight distribution" in out


def test_verify_exhaustive_only(capsys):
    assert mm_cli.main(["verify", "loop", "--samples", "0"]) == 0
    assert mm_cli.main(["verify", "qx", "--samples", "0"]) == 0


def test_verify_json(tmp_path, capsys):
    """--json writes the printed reports back as data; exit codes stay."""
    path = tmp_path / "verify.json"
    assert mm_cli.main(["verify", "rep-norm", "--p", "3", "--samples", "1",
                        "--json", str(path)]) == 0
    out = capsys.readouterr().out
    (rep,) = json.loads(path.read_text())
    assert rep["suite"] == "rep-norm" and rep["seconds"] > 0
    names = [c["name"] for c in rep["checks"]]
    assert names == ["p=3: norm form invariant under every atom class (1 vectors x 9 atoms)",
                     "p=3: check_vector accepts every atom output (1 vectors x 9 atoms)"]
    for c in rep["checks"]:
        assert (c["count"], c["fails"], c["first_bad"]) == (9, 0, "")
        assert c["name"] in out
    assert mm_cli.main(["verify", "golay", "--json", str(tmp_path / "nodir" / "v.json")]) == 2
    assert capsys.readouterr().err.startswith("output error: ")


def test_verify_deterministic(capsys):
    mm_cli.main(["verify", "loop", "--samples", "1000", "--seed", "5"])
    first = capsys.readouterr().out
    mm_cli.main(["verify", "loop", "--samples", "1000", "--seed", "5"])
    second = capsys.readouterr().out
    strip = lambda s: [l.split("(")[0] for l in s.splitlines() if l.startswith("  [")]
    assert strip(first) == strip(second)


def test_bench_smoke(capsys):
    from monsterrep import mm_cli
    assert mm_cli.main(["bench", "--p", "3", "--reps", "1",
                        "--word-class", "tau"]) == 0
    out = capsys.readouterr().out
    assert "0.73" in out and "1.35" in out
    assert re.search(r"atoms\): \d+\.\d\d ms  \(\d+\.\d\dx the paper's 0\.73 ms\)", out)
    assert re.search(r"\n    min of 1 runs; mean \d+\.\d\d ms\n", out)
    assert "kernels vs scalar reference" in out


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_bench_rejects_nonpositive_reps(reps, capsys):
    """A repetition count below 1 is a usage error (exit code 2), not a
    ZeroDivisionError traceback."""
    with pytest.raises(SystemExit) as exc:
        mm_cli.main(["bench", "--p", "3", "--reps", reps, "--word-class", "tau"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --reps: must be a positive integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["loop", "--samples", "-1"],
                                  ["rep-norm", "--p", "3", "--samples", "-2"]])
def test_verify_rejects_negative_samples(argv, capsys):
    """A negative sample count is a usage error (exit code 2), not an
    OverflowError traceback or a run that checks nothing; library callers
    of run_suite get a ValueError."""
    with pytest.raises(SystemExit) as exc:
        mm_cli.main(["verify"] + argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --samples: must be a non-negative integer" in err
    assert "Traceback" not in err
    with pytest.raises(ValueError, match="non-negative"):
        verify.run_suite("rep-norm", samples=-2, p=3)


def test_bench_rejects_unknown_word_class(capsys):
    """A misspelt atom class is a usage error (exit code 2), not a run
    that times no atom; every class names at least one bench atom."""
    with pytest.raises(SystemExit) as exc:
        mm_cli.main(["bench", "--p", "3", "--reps", "1", "--word-class", "tua"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --word-class: invalid choice: 'tua'" in err
    assert "Traceback" not in err
    names = [n for n, _ in mm_cli._bench_atoms()]
    assert set(mm_cli.WORD_CLASSES) == {n.partition("^")[0] for n in names}


def test_python_dash_m_entry_point():
    """``python -m monsterrep`` runs the CLI without runpy's warning."""
    import os
    import subprocess
    import sys

    import monsterrep

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(monsterrep.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                          "monsterrep", "info", "layout"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "total 196884" in res.stdout
    assert "Warning" not in res.stderr
