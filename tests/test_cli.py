import ast
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import betachow
import betachow.beta
import betachow.chow
import betachow.cli
from betachow.chow import config_classes, cyclic_config
from betachow.cli import main, verify_rows
from betachow.reporting import parse_config_file
from betachow.search import SRing, load_solution_set


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_small_grid_passes(capsys):
    code, out, _ = run(capsys, "verify", "--chow-n-hi", "2", "--beta-n-hi", "3",
                       "--q-mult", "4")
    assert code == 0
    assert "beta_cyclic,2,6,10/9,4," in out
    assert "FAIL" not in out


def test_verify_mutation_detected(capsys, monkeypatch):
    real = betachow.beta.f_poly
    monkeypatch.setattr(betachow.beta, "f_poly", lambda n, q: real(n, q) + 1)
    code, out, err = run(capsys, "verify", "--chow-n-hi", "2", "--beta-n-hi", "2",
                         "--q-mult", "4")
    assert code == 1
    assert "FIRST FAILING ROW" in err


def test_verify_intersection_mutation_detected(capsys, monkeypatch):
    real = betachow.cli.top_intersection
    cl = config_classes(cyclic_config(2, 7))
    target = [cl["D"], cl["Ht7"]]

    def off_by_one(classes):
        value = real(classes)
        return value + 1 if list(classes) == target else value

    monkeypatch.setattr(betachow.cli, "top_intersection", off_by_one)
    code, _, err = run(capsys, "verify", "--chow-n-hi", "2", "--beta-n-hi", "2",
                       "--q-mult", "4")
    assert code == 1
    row = json.loads(err.split("FIRST FAILING ROW: ", 1)[1])
    assert (row["section"], row["n"], row["q_or_l"], row["verdict"]) == \
        ("intersection", "2", "7", "FAIL")


def test_verify_builds_one_fraction_per_top_product(monkeypatch):
    # a dense per-entry product (or per-entry Fraction classes) builds
    # thousands more Fractions here than there are top products, and a
    # Fraction beta scan several per row where the ints need none but the
    # printed beta
    built, beta_built, marked_built = [], [], []
    calls = {"cli": 0, "beta": 0}

    def counting(log):
        class Counting(Fraction):
            def __new__(cls, *args, **kwargs):
                log.append(args)
                return Fraction(*args, **kwargs)
        return Counting

    monkeypatch.setattr(betachow.chow, "Fraction", counting(built))
    monkeypatch.setattr(betachow.beta, "Fraction", counting(beta_built))
    for name, module in (("cli", betachow.cli), ("beta", betachow.beta)):
        def counted(classes, real=module.top_intersection, name=name):
            calls[name] += 1
            return real(classes)

        monkeypatch.setattr(module, "top_intersection", counted)

    def counted_marked(*args, real=betachow.cli.scan_marked):
        before = len(beta_built)
        rows = real(*args)
        marked_built.append(len(beta_built) - before)
        return rows

    monkeypatch.setattr(betachow.cli, "scan_marked", counted_marked)
    rows = verify_rows(4, 3, 4)
    assert all(row["verdict"] for row in rows)
    # every identity is checked: 1 + n*q products per (n, q), n = 2..4, q = 3n..4n
    assert calls["cli"] == sum(1 + n * q for n in range(2, 5) for q in range(3 * n, 4 * n + 1))
    assert len(built) <= 2 * (calls["cli"] + calls["beta"])
    cyclic_rows = sum(row["section"] == "beta_cyclic" for row in rows)
    assert cyclic_rows == sum(n + 1 for n in range(2, 4))         # q = 3n..4n
    assert len(beta_built) <= cyclic_rows + sum(marked_built)


def test_verify_benchmark_panel(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    code, _, _ = run(capsys, "verify", "--chow-n-hi", "7", "--beta-n-hi", "12",
                     "--q-mult", "20", "--out", str(out))
    assert code == 0
    data = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert data[0] == ",".join(betachow.cli.VERIFY_FIELDS)
    assert len(data) - 1 == 2680


def test_verify_reproducible_bytes(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (p1, p2):
        code, _, _ = run(capsys, "verify", "--chow-n-hi", "2", "--beta-n-hi", "2",
                         "--q-mult", "4", "--out", str(path))
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().startswith("# betachow")


def test_chow_power(capsys):
    code, out, _ = run(capsys, "chow", "--config", "cyclic", "--n", "2",
                       "--q", "6", "--power", "D,n")
    assert code == 0
    assert "power D,n,12" in out


def test_chow_mixed_power_and_nef(capsys):
    code, out, _ = run(capsys, "chow", "--config", "cyclic", "--n", "2", "--q", "6",
                       "--power", "D,1", "Ht1,1", "--nef=-E1")
    assert code == 0
    assert "power D,1 Ht1,1,2" in out
    assert "fails-witness" in out and "E1" in out


def test_chow_classes_json(capsys):
    code, out, _ = run(capsys, "chow", "--config", "marked", "--n", "2",
                       "--ell", "10", "--classes", "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    header = json.loads(lines[0])
    assert header["command"] == "chow"
    records = [json.loads(t) for t in lines[1:]]
    a_row = next(r for r in records if r["item"] == "A")
    assert json.loads(a_row["value"])["a"] == "31"


def test_chow_usage_error(capsys):
    code, _, err = run(capsys, "chow", "--config", "cyclic", "--n", "2", "--q", "6")
    assert code == 2
    assert "nothing to do" in err


def test_chow_marked_refuses_a_q_other_than_2n(tmp_path, capsys):
    out = tmp_path / "out.txt"
    marked = ("chow", "--config", "marked", "--n", "2", "--ell", "10", "--classes")
    code, printed, err = run(capsys, *marked, "--q", "7", "--out", str(out))
    assert (code, printed) == (2, "")
    assert "marked configuration needs q = 2n" in err
    assert not out.exists()
    for q in (["--q", "4"], []):
        code, printed, _ = run(capsys, *marked, *q)
        assert code == 0
    assert "# q=None" in printed.splitlines()


def test_chow_cyclic_refuses_an_ell(tmp_path, capsys):
    out = tmp_path / "out.txt"
    cyclic = ("chow", "--config", "cyclic", "--n", "2", "--q", "6", "--power", "D,n")
    code, printed, err = run(capsys, *cyclic, "--ell", "3", "--out", str(out))
    assert (code, printed) == (2, "")
    assert "cyclic configuration takes no ell" in err
    assert not out.exists()
    code, printed, _ = run(capsys, *cyclic)
    assert code == 0
    assert "# ell=None" in printed.splitlines()


@pytest.mark.parametrize("expr, message", [
    ("1/0*D", "zero denominator"),
    ("D + ", "ends with an operator"),
    ("D -", "ends with an operator"),
])
def test_chow_bad_class_expression_exits_2(capsys, expr, message):
    code, out, err = run(capsys, "chow", "--config", "cyclic", "--n", "2", "--q", "6",
                         "--nef", expr)
    assert code == 2
    assert message in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("power, message", [
    (["D,1000000"], "top product needs exactly n = 2 classes"),
    (["D,1", "Ht1,999999"], "top product needs exactly n = 2 classes"),
    (["D,0", "Ht1,0"], "empty product"),
], ids=["D^1000000", "sum-1000000", "sum-0"])
def test_chow_power_refuses_a_wrong_exponent_sum_before_building_the_product(
        capsys, power, message):
    # a list of a million classes alone takes 8 MB
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "chow", "--config", "cyclic", "--n", "2", "--q", "6",
                             "--power", *power)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert peak < 2 ** 20, peak


@pytest.mark.parametrize("power", [["D,-1", "Ht1,2"], ["Ht1,2", "D,-1"]])
def test_chow_negative_power_exits_2(capsys, power):
    code, out, err = run(capsys, "chow", "--config", "cyclic", "--n", "2", "--q", "6",
                         "--power", *power)
    assert code == 2
    assert "--power exponent must be >= 0" in err and "Traceback" not in err
    assert out == ""


def test_beta_command(capsys):
    code, out, _ = run(capsys, "beta", "--cyclic", "2", "6", "--numeric-N", "50")
    assert code == 0
    assert "10/9" in out
    code, out, _ = run(capsys, "beta", "--marked", "2", "10")
    assert "661/84" in out
    code, out, _ = run(capsys, "beta", "--counting-l", "4")
    assert "9/32" in out


@pytest.mark.parametrize("argv, message", [
    (["--marked", "2", "10", "--index", "9"], "index must be in 1..2n = 1..4, got 9"),
    (["--marked", "2", "10", "--index", "5"], "index must be in 1..2n = 1..4, got 5"),
    (["--marked", "2", "10", "--index", "-1"], "index must be in 1..2n = 1..4, got -1"),
    (["--marked", "2", "10", "--index", "0"], "index must be in 1..2n = 1..4, got 0"),
    (["--cyclic", "2", "6", "--numeric-N", "0"], "cutoff N must be >= 1"),
    (["--cyclic", "2", "6", "--numeric-N", "-1"], "cutoff N must be >= 1"),
    (["--counting-l", "0"], "ell must be >= 1"),
    (["--counting-l", "-1"], "ell must be >= 1"),
])
def test_beta_option_out_of_range_exits_2(capsys, argv, message):
    code, out, err = run(capsys, "beta", *argv)
    assert code == 2
    assert f"error: {message}" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["--cyclic", "2", "6", "--index", "3"], "--index needs --marked"),
    (["--marked", "2", "10", "--numeric-N", "50"], "--numeric-N needs --cyclic"),
])
def test_beta_refuses_a_flag_of_the_other_mode(tmp_path, capsys, argv, message):
    out = tmp_path / "out.txt"
    code, printed, err = run(capsys, "beta", *argv, "--out", str(out))
    assert (code, printed) == (2, "")
    assert f"error: {message}" in err and "Traceback" not in err
    assert not out.exists()


def test_beta_marked_index_picks_one_row(capsys):
    for index in ("1", "4"):
        code, out, _ = run(capsys, "beta", "--marked", "2", "10", "--index", index)
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("beta_marked")]
        assert len(rows) == 1 and f"i={index}," in rows[0]


# sha256 of each command's output bytes at an earlier commit, before verify's
# scans ran in ints and fmt dispatched on the exact type of a cell
OUTPUT_PINS = [
    (["verify", "--chow-n-hi", "7", "--beta-n-hi", "12", "--q-mult", "20"],
     "680b2a1aa9b9c15d373055a4788d53bcb56c3c880e2562f351f608c5453b33df",
     "7070c36799ad899e208b6a3f970b8643a965e28c9518233efb7c294ab1511af6"),
    (["beta", "--cyclic", "3", "10", "--numeric-N", "5", "--marked", "3", "100",
      "--counting-l", "7"],
     "94663658d9841dd53643d546ef89de2eb43b6df84752727ad3ff1295e70c5f17",
     "3cad9ad9424a5523f74da034743b53905d29a75c113035a02a8d398a97e1f87d"),
    (["chow", "--config", "cyclic", "--n", "3", "--q", "9", "--power", "D,n",
      "--nef", "D - 2*Ht1", "--classes"],
     "26df90c0635292f46a1af85fc55e6171bddeb3d69c2643f32bf392b964315d75",
     "5dee0b479cc881bb0ae78769699fb700a9f5b66f173d86742655c3f4369fee5d"),
    (["heights", "--form", "x0+2*x1", "--point", "3,5", "--s", "inf,2"],
     "9f63e09030b4b6bd0e77e5f1b919aff655ffe37b0940b3b6394fa46a5aa6b5b1",
     "8edb4c7f6b9c735d1178e0083a84c2d199b9030dd814513331142ce8b6f9e2e9"),
]


@pytest.mark.parametrize("argv, csv_sha, json_sha", OUTPUT_PINS,
                         ids=[argv[0] for argv, _, _ in OUTPUT_PINS])
def test_rendered_output_matches_its_pinned_bytes(tmp_path, capsys, argv, csv_sha, json_sha):
    for extra, sha in (([], csv_sha), (["--json"], json_sha)):
        out = tmp_path / "out.txt"
        code, printed, err = run(capsys, *argv, *extra, "--out", str(out))
        assert (code, printed, err) == (0, "", "")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


def test_heights_command(capsys):
    code, out, _ = run(capsys, "heights", "--form", "x0", "--point", "2,3",
                       "--s", "inf")
    assert code == 0
    assert "inf,yes,3/2," in out
    assert "h,,3," in out
    assert "height_check,,pass," in out


def test_heights_subscheme_column(capsys):
    code, out, _ = run(capsys, "heights", "--form", "x0", "--point", "4,6",
                       "--subscheme", "x1")
    assert code == 0
    lines = out.splitlines()
    fields = "place,in_s,value,lambda,subscheme_value"
    assert lines[lines.index(fields) + 1:][:3] == [
        "inf,yes,3/2,0.4054651081081644,1", "2,no,2,0.6931471805599453,1", "3,no,1,0.0,1"]
    assert "# subscheme=x1" in lines


def test_heights_subscheme_generator_vanishing_at_the_point(capsys):
    # x1 vanishes at [1:0], so its local value is +infinity and the
    # subscheme's minimum is the form's own value at every place
    code, out, err = run(capsys, "heights", "--form", "x0+x1", "--point", "1,0",
                         "--subscheme", "x1", "--json")
    assert (code, err) == (0, "")
    rows = [json.loads(line) for line in out.splitlines()[1:]]
    places = [r for r in rows if r["subscheme_value"] != ""]
    assert places and all(r["subscheme_value"] == r["value"] for r in places)


@pytest.mark.parametrize("point", ["1,-1", "1,2"])
def test_heights_refuses_a_non_homogeneous_form_at_its_zero_too(capsys, point):
    # x0^2 + x1 vanishes at [1:-1]: the form is checked before it is evaluated
    code, out, err = run(capsys, "heights", "--form", "x0^2 + x1", "--point", point)
    assert (code, out) == (2, "")
    assert "nonconstant homogeneous form" in err and "point on support" not in err


def test_heights_resource_bound(capsys):
    big = str(2 ** 140 + 1)
    code, _, err = run(capsys, "heights", "--form", "x0", "--point", f"{big},3",
                       "--s", "inf")
    assert code == 3
    assert "resource bound" in err


def test_heights_bad_form_is_a_usage_error_before_factoring(capsys):
    # F(P) is past the factorization bound, and the form is checked first
    code, _, err = run(capsys, "heights", "--form", "1/2*x0", "--point",
                       "1361129467683753853853498429727072845827,3")
    assert code == 2
    assert "form 1/2*x0 needs integer coefficients" in err


def test_a_reader_gone_from_stdout_exits_141_and_writes_no_error(tmp_path):
    # the 2000-sample audit writes 148,742 bytes, past a 64 KiB pipe buffer,
    # so a reader that takes one line and closes the pipe breaks a write:
    # the status is the one a shell reports for a process SIGPIPE ended
    forms = tmp_path / "f.txt"
    forms.write_text("x0\nx1\nx2\nx0+x1+x2\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "betachow.cli", "audit", "subspace", "--forms", str(forms),
         "--samples", "2000", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.stdout.readline() == f"# betachow {betachow.__version__}\n".encode()
    proc.stdout.close()
    assert proc.wait(timeout=120) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_heights_logs_past_the_float_range(capsys):
    # h^9 = 10^324 does not fit a float, but its log does
    code, out, _ = run(capsys, "heights", "--form", "x0^9", "--point",
                       "1," + "1" + "0" * 36, "--s", "inf")
    assert code == 0
    row = next(line for line in out.splitlines() if line.startswith("inf,"))
    assert abs(float(row.rsplit(",", 1)[1]) - 324 * math.log(10)) < 1e-9


@pytest.mark.parametrize("bound", ["0", "-2"])
def test_audit_height_bound_below_one_is_a_usage_error(tmp_path, capsys, bound):
    forms = tmp_path / "coords.txt"
    forms.write_text("x0\nx1\nx2\n")
    code, out, err = run(capsys, "audit", "subspace", "--forms", str(forms),
                         "--samples", "3", "--height-bound", bound)
    assert code == 2
    assert "height bound must be >= 1" in err
    assert out == ""


def test_audit_sample_count_below_zero_is_a_usage_error(tmp_path, capsys):
    forms = tmp_path / "coords.txt"
    forms.write_text("x0\nx1\nx2\n")
    code, out, err = run(capsys, "audit", "subspace", "--forms", str(forms), "--samples", "-3")
    assert (code, out) == (2, "")
    assert "sample count must be >= 0" in err
    code, out, _ = run(capsys, "audit", "subspace", "--forms", str(forms), "--samples", "0",
                       "--format", "json")
    assert code == 0
    assert json.loads(out.splitlines()[-1]) == {
        "max_defect": None, "on_support": 0, "samples": 0, "summary": True, "violators": 0}


@pytest.mark.parametrize("kind", ["subspace", "levinduke"])
def test_audit_of_constant_forms_is_a_usage_error(tmp_path, capsys, kind):
    # forms in no variable leave points with no coordinate to draw
    forms = tmp_path / "one.txt"
    forms.write_text("1\n")
    code, out, err = run(capsys, "audit", kind, "--forms", str(forms), "--samples", "1")
    assert (code, out) == (2, "")
    assert "sample dimension must be >= 0" in err


@pytest.mark.parametrize("argv, option, value", [
    (["audit", "subspace", "--forms", "{coords}", "--samples", "3"], "--epsilon", "-1/2"),
    (["heights", "--form", "x0+x1"], "--point", "-1,2"),
    (["heights", "--point", "1,2"], "--form", "-x0+x1"),
    (["chow", "--config", "cyclic", "--n", "2", "--q", "6"], "--nef", "-D"),
])
def test_option_value_starting_with_a_dash(tmp_path, capsys, argv, option, value):
    (tmp_path / "coords.txt").write_text("x0\nx1\nx2\n")
    argv = [a.format(coords=tmp_path / "coords.txt") for a in argv]
    joined = run(capsys, *argv, f"{option}={value}")
    assert joined[0] == 0 and joined[1]
    assert run(capsys, *argv, option, value) == joined


def test_option_string_is_not_taken_as_a_value(capsys):
    code, out, err = run(capsys, "heights", "--form", "x0", "--point", "--s", "inf")
    assert (code, out) == (2, "")
    assert "argument --point: expected one argument" in err


def test_every_header_writer_carries_the_package_version(tmp_path, capsys):
    version = betachow.__version__
    forms = tmp_path / "g.txt"
    forms.write_text("1\n")
    sol, ck = tmp_path / "sol.jsonl", tmp_path / "run.ckpt"
    code, _, _ = run(capsys, "search", "cor12", "--forms", str(forms), "--box", "1",
                     "--dim", "2", "--checkpoint", str(ck), "--json", "--out", str(sol))
    assert code == 0
    for path, kind in ((sol, "solution-set"), (ck, "checkpoint")):
        header = json.loads(path.read_text().splitlines()[0])
        assert (header["artifact"], header["kind"], header["version"]) == \
            ("betachow", kind, version)
    grid = ["verify", "--chow-n-hi", "2", "--beta-n-hi", "2", "--q-mult", "4"]
    code, out, _ = run(capsys, *grid)
    assert code == 0 and out.splitlines()[0] == f"# betachow {version}"
    code, out, _ = run(capsys, *grid, "--json")
    header = json.loads(out.splitlines()[0])
    assert code == 0 and (header["artifact"], header["version"]) == ("betachow", version)


def test_search_cor12_jsonl_and_reload(tmp_path, capsys):
    forms = tmp_path / "g.txt"
    forms.write_text("1\n")
    out_path = tmp_path / "sols.jsonl"
    code, _, _ = run(capsys, "search", "cor12", "--forms", str(forms),
                     "--box", "10", "--dim", "2", "--format", "json",
                     "--out", str(out_path))
    assert code == 0
    sols = load_solution_set(str(out_path))
    assert sols.points == [(-1, 1), (1, -1), (1, 1)]


def test_search_checkpoint_resume(tmp_path, capsys):
    forms = tmp_path / "g.txt"
    forms.write_text("1\n")
    ck = tmp_path / "ck.jsonl"
    out1 = tmp_path / "a.jsonl"
    code, _, _ = run(capsys, "search", "cor12", "--forms", str(forms),
                     "--box", "6", "--dim", "2", "--format", "json",
                     "--checkpoint", str(ck), "--out", str(out1))
    assert code == 0
    assert ck.exists() and len(ck.read_text().splitlines()) == 14
    # second run resumes from the completed checkpoint, byte-identical output
    out2 = tmp_path / "b.jsonl"
    code, _, _ = run(capsys, "search", "cor12", "--forms", str(forms),
                     "--box", "6", "--dim", "2", "--format", "json",
                     "--checkpoint", str(ck), "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(ck.read_text().splitlines()) == 14


def test_search_degeneracy_and_growth(tmp_path, capsys):
    forms = tmp_path / "g.txt"
    forms.write_text("1\n")
    code, out, _ = run(capsys, "search", "cor12", "--forms", str(forms),
                       "--box", "10", "--dim", "2", "--degeneracy", "2",
                       "--growth", "5,10", "--format", "json",
                       "--out", str(tmp_path / "s.jsonl"))
    assert code == 0
    rep = json.loads(out.strip().splitlines()[-1])
    assert rep["growth"] == [[5, 3], [10, 3]]
    assert rep["kernel_dims"] == {"1": 0, "2": 3}


_LINES = [f"x0+{i}*x1+{i * i}*x2\n" for i in range(1, 7)]
# sha256 of the degeneracy report's JSON line, pinned before the report was
# built as a plain dict: (kind, forms file, flags, sha256)
DEGENERACY_PINS = [
    ("cor12", "1\n", "--dim 2 --box 10 --degeneracy 3 --growth 5,10",
     "934d206a66ce25e70126fe063f06e6d3f572b5b18be552a6a8a62a3569ade3b0"),
    ("cor12", "1\n", "--dim 2 --box 10 --degeneracy 10 --growth 5,10",
     "c16d95a190e076fc807e01c2bdb4e217a759d25eb3b2cde03a42ab2bfe827211"),
    ("cor12", "x0+2*x1+6\n", "--dim 2 --box 1 --degeneracy 4",
     "ad1745e270e98a06c474a78b83af7379d4b5b1fe801a2f456ca6a41c6add8f90"),
    ("cor12", "x0+2*x1+6\n", "--dim 2 --box 2 --degeneracy 4",
     "2214549393394e8ff5540f0c3f583965106745861cc86eb4e5c8d414305a7286"),
    ("cor12", "x0+2*x1+6\n", "--dim 2 --box 3 --degeneracy 4",
     "0a1313fd4cd7a06d32b8a0caa626d6aa302508b71c520609444d4eca80145ea5"),
    ("cor12", "x0+2*x1+6\n", "--dim 2 --box 4 --degeneracy 4",
     "cd5881d2142358730bdebe9d83b8ec612cf90028787e869ea4fe0fed3aaac4b9"),
    ("cor12", "x0+2*x1+6\n", "--dim 2 --box 6 --degeneracy 4",
     "27411968b3c857d817069e60b27591233bfefffa5658125e5c67580324032869"),
    ("cor12", "1\n", "--s-primes 2,3 --denom-cap 1 --box 6 --degeneracy 4 --growth 1,3,6",
     "52bc8d5fecba4849274126666350b97fd499e4a66a1f8194f7b74e59123d26e7"),
    ("cor12", "x0+2*x1+3*x2+7\n", "--dim 3 --box 8 --degeneracy 2",
     "7170b2a0ef372841e43a9f9168f7b0ea75e7e25d43d865f2b3e1ef82b966d0ff"),
    ("cor12", "x0+2*x1+6\n", "--dim 2 --box 0 --degeneracy 4",
     "d7ac8c0d1c338328fb7d042f376eb9c6ffeb6f2caccfc302c54dbc70bd54dfb9"),
    ("thm16", "".join(_LINES), "--box 2 --degeneracy 3",
     "23fb4cb94e7ed19721135e53ae6d7705936fa63623bddd8bc63673e9ff5ffe28"),
    ("thm16", "".join(_LINES), "--box 4 --degeneracy 3",
     "6252462c65636cf5f2b878dc37798ca066c6f9ce32796562cf39d04f013fd4cb"),
    ("thm16", "".join(_LINES), "--box 6 --degeneracy 3",
     "224b963b03f797f2b96dbd6ff4cdf2056d60ecb6fe5a2c9e2c4ffbd751d1f1b8"),
    ("thm11", "".join(_LINES[:5]) + "G: x0\n", "--box 3 --degeneracy 3",
     "0172c40d61b2a74fdb592b0e2944794d23d4f33c73660f2f29480904cee288f8"),
    ("thm11", "".join(_LINES[:5]) + "G: x0\n", "--box 6 --degeneracy 3",
     "a779ccaf65ab8d1a39dc3f0f949ae8647158624f362233886159d3dc244df4b9"),
    ("thm11", "".join(_LINES[:5]) + "G: x0\n", "--box 12 --degeneracy 3",
     "d9bdb7c720e32a0b8ba7bbc7409661b78d678255616bd6ddb15a59af14a93213"),
]


@pytest.mark.parametrize("kind, forms, flags, sha", DEGENERACY_PINS,
                         ids=[f"{kind}-{flags}" for kind, _, flags, _ in DEGENERACY_PINS])
def test_degeneracy_report_matches_its_pinned_bytes(tmp_path, capsys, kind, forms, flags, sha):
    path = tmp_path / "forms.txt"
    path.write_text(forms)
    code, out, err = run(capsys, "search", kind, "--forms", str(path), *flags.split(),
                         "--out", str(tmp_path / "s.txt"))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == sha


# sha256 of `search --format csv` output bytes, pinned before the report and
# solution-file headers were built by one function: (forms file name, its
# text, argv).  The head echoes the forms path, so the file is written and
# named relative to the working directory.
SEARCH_CSV_PINS = [
    ("g.txt", "1\n",
     ["cor12", "--dim", "2", "--box", "6", "--s-primes", "2,3", "--denom-cap", "1"],
     "67e738de75736c13a7c9cb45785b27f5e10262fb7ddd0ce0553a3fcf7a126681"),
    ("thm11.txt", "".join(_LINES[:5]) + "G: x0\n",
     ["thm11", "--box", "12", "--mode", "ii", "--s-primes", "2,3"],
     "0b3832b59a717fe54ee9f48b35c57da2ff4052a90e181084010e796dd4ea47f0"),
    ("thm16.txt", "".join(_LINES),
     ["thm16", "--box", "6", "--s-primes", "2"],
     "41cf8d55f5c71b669d5c90633b86792a38a33095ada11a0245a1509e239df5a1"),
]


@pytest.mark.parametrize("name, text, argv, sha", SEARCH_CSV_PINS,
                         ids=[argv[0] for _, _, argv, _ in SEARCH_CSV_PINS])
def test_search_csv_matches_its_pinned_bytes(tmp_path, capsys, monkeypatch, name, text,
                                             argv, sha):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    code, printed, err = run(capsys, "search", argv[0], "--forms", name, *argv[1:],
                             "--format", "csv", "--out", "out.csv")
    assert (code, printed, err) == (0, "", "")
    assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == sha


def test_search_cor12_s_primes_and_denominators(tmp_path, capsys):
    forms = tmp_path / "g.txt"
    forms.write_text("1\n")
    out_path = tmp_path / "s2.jsonl"
    code, _, _ = run(capsys, "search", "cor12", "--forms", str(forms),
                     "--box", "4", "--dim", "2", "--s-primes", "2",
                     "--denom-cap", "1", "--format", "json",
                     "--out", str(out_path))
    assert code == 0
    sols = load_solution_set(str(out_path))
    # with 2 inverted, (1/2, 1) works: (1/2)(1)(1 - 3/2) = -1/4, a 2-unit
    assert (Fraction(1, 2), Fraction(1)) in sols.points
    assert len(sols.points) > 3


def test_search_thm11_cli(tmp_path, capsys):
    forms = tmp_path / "forms.txt"
    forms.write_text("x0\nx1\nx2\nG: 1\n")
    code, out, _ = run(capsys, "search", "thm11", "--forms", str(forms),
                       "--mode", "i", "--box", "1", "--dim", "2")
    assert code == 0
    assert "1:1:1" in out


def test_search_thm16_cli(tmp_path, capsys):
    forms = tmp_path / "six.txt"
    forms.write_text("".join(f"x0+{i}*x1+{i * i}*x2\n" for i in range(6)))
    code, out, _ = run(capsys, "search", "thm16", "--forms", str(forms),
                       "--box", "1", "--dim", "2")
    assert code == 0
    assert "1:0:0" in out


def test_audit_cli_json(tmp_path, capsys):
    forms = tmp_path / "coords.txt"
    forms.write_text("x0\nx1\nx2\n")
    code, out, _ = run(capsys, "audit", "subspace", "--forms", str(forms),
                       "--samples", "10", "--seed", "4", "--height-bound", "100",
                       "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["samples"] == 10
    assert summary["violators"] == 0


def test_audit_reproducible(tmp_path, capsys):
    forms = tmp_path / "coords.txt"
    forms.write_text("x0\nx1\nx2\n")
    paths = [tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"]
    for p in paths:
        code, _, _ = run(capsys, "audit", "levinduke", "--forms", str(forms),
                         "--samples", "8", "--seed", "9", "--height-bound", "500",
                         "--format", "json", "--out", str(p))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_config_file(tmp_path, capsys):
    forms = tmp_path / "g.txt"
    forms.write_text("1\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"forms={forms}\nbox=5\ndim=2\n")
    code, out, _ = run(capsys, "search", "cor12", "--config-file", str(cfg))
    assert code == 0
    assert "1:1" in out
    parsed = parse_config_file(str(cfg))
    assert parsed["box"] == "5"


def test_config_file_skips_comments_and_names_a_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# verify on a small grid\n\nchow-n-hi=2  # trailing comment\n"
                   "   \nbeta-n-hi=2\nq-mult=4\n")
    code, out, _ = run(capsys, "verify", "--config-file", str(cfg))
    assert code == 0 and "# chow_n_hi=2" in out and "FAIL" not in out
    cfg.write_text("# verify\n\nchow-n-hi=2\nq-mult 4\n")
    code, out, err = run(capsys, "verify", "--config-file", str(cfg))
    assert (code, out) == (2, "")
    assert "malformed config line: 'q-mult 4'" in err and "Traceback" not in err


def test_out_to_a_device_is_written_in_place(capsys):
    code, out, err = run(capsys, "verify", "--chow-n-hi", "2", "--beta-n-hi", "2",
                         "--q-mult", "4", "--out", os.devnull)
    assert (code, out, err) == (0, "", "")


def test_forms_file_declaring_g_twice_is_a_usage_error(tmp_path, capsys):
    forms = tmp_path / "forms.txt"
    forms.write_text("x0\nx1\nx2\nG: 1\nG: x0\n")
    code, out, err = run(capsys, "search", "thm11", "--forms", str(forms),
                         "--box", "1", "--dim", "2")
    assert (code, out) == (2, "")
    assert "forms file declares G twice" in err


def test_chow_inconclusive_nef_verdict(capsys):
    code, out, _ = run(capsys, "chow", "--config", "cyclic", "--n", "2", "--q", "6",
                       "--nef", "H")
    assert code == 0
    assert out.splitlines()[-1] == ("nef H,inconclusive: witness family nonnegative but "
                                    "the class matches no certified family")


def test_usage_errors(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "search", "cor12", "--forms", "/does/not/exist",
               "--box", "2", "--dim", "2")[0] == 2


@pytest.mark.parametrize("argv", [
    ["search", "cor12", "--forms", "{zero}", "--box", "2", "--dim", "2"],
    ["heights", "--form", "x0", "--point", "1/0,1"],
    ["audit", "levinduke", "--forms", "{coords}", "--epsilon", "1/0", "--samples", "2"],
])
def test_zero_denominator_is_a_usage_error(tmp_path, capsys, argv):
    (tmp_path / "zero.txt").write_text("1/0*x0 + x1\n")
    (tmp_path / "coords.txt").write_text("x0\nx1\nx2\n")
    argv = [a.format(zero=tmp_path / "zero.txt", coords=tmp_path / "coords.txt") for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "zero denominator" in err and "Traceback" not in err


def test_worker_count_env(monkeypatch):
    from betachow.reporting import worker_count
    monkeypatch.setenv("BETACHOW_WORKERS", "3")
    assert worker_count(None) == 3
    assert worker_count(2) == 2
    monkeypatch.delenv("BETACHOW_WORKERS")
    assert worker_count(None) == 1


@pytest.mark.parametrize("lines, message", [
    (["x0", "x1", "x2", "x0+x1", "x0+x1+x2", "x1+x2"], "general position"),
    (["x0", "x1", "x2", "x0+x1+x2"], "3n"),
])
@pytest.mark.parametrize("checkpoint", [False, True])
def test_search_thm16_hypotheses_fail_loudly(tmp_path, capsys, lines, message, checkpoint):
    forms = tmp_path / "forms.txt"
    forms.write_text("\n".join(lines) + "\n")
    ck = tmp_path / "ck.jsonl"
    extra = ["--checkpoint", str(ck)] if checkpoint else []
    code, out, err = run(capsys, "search", "thm16", "--forms", str(forms),
                         "--box", "2", "--dim", "2", *extra)
    assert code == 2
    assert message in err
    assert out == ""
    assert not ck.exists()


def _cor12_checkpoint_run(capsys, tmp_path, g_text, ck, out_name):
    forms = tmp_path / ("g-" + "".join(c if c.isalnum() else "_" for c in g_text) + ".txt")
    forms.write_text(g_text + "\n")
    out = tmp_path / out_name
    code, _, err = run(capsys, "search", "cor12", "--forms", str(forms),
                       "--box", "6", "--dim", "2", "--format", "json",
                       "--checkpoint", str(ck), "--out", str(out))
    return code, out, err


def test_checkpoint_header_refuses_another_search(tmp_path, capsys):
    ck = tmp_path / "ck.jsonl"
    code, _, _ = _cor12_checkpoint_run(capsys, tmp_path, "x0+2*x1+6", ck, "a.jsonl")
    assert code == 0
    header = json.loads(ck.read_text().splitlines()[0])
    assert header["kind"] == "checkpoint"
    assert header["descriptor"]["g"] == "x0 + 2*x1 + 6"
    before = ck.read_bytes()
    code, out, err = _cor12_checkpoint_run(capsys, tmp_path, "1", ck, "b.jsonl")
    assert code == 2
    assert "another search" in err
    assert not out.exists()
    assert ck.read_bytes() == before


def test_checkpoint_without_header_is_refused(tmp_path, capsys):
    ck = tmp_path / "ck.jsonl"
    ck.write_text('{"first": "-6", "records": []}\n')
    code, _, err = _cor12_checkpoint_run(capsys, tmp_path, "1", ck, "a.jsonl")
    assert code == 2
    assert "another search" in err


@pytest.mark.parametrize("record, message", [
    ({"x": 1}, "malformed record"),
    ({"first": "-1", "records": [{"point": ["1", "1"]}]}, "malformed solution record"),
])
def test_checkpoint_malformed_record_is_refused(tmp_path, capsys, record, message):
    ck = tmp_path / "ck.jsonl"
    code, _, _ = _cor12_checkpoint_run(capsys, tmp_path, "1", ck, "a.jsonl")
    assert code == 0
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join([lines[0], json.dumps(record)]) + "\n")
    code, _, err = _cor12_checkpoint_run(capsys, tmp_path, "1", ck, "b.jsonl")
    assert code == 2
    assert message in err


@pytest.mark.parametrize("tear", ["no-newline", "bad-json"])
def test_checkpoint_torn_final_line_is_dropped(tmp_path, capsys, tear):
    full = tmp_path / "full.jsonl"
    code, ref, _ = _cor12_checkpoint_run(capsys, tmp_path, "1", full, "ref.jsonl")
    assert code == 0
    lines = full.read_text().splitlines(keepends=True)
    ck = tmp_path / "ck.jsonl"
    if tear == "no-newline":
        torn = lines[:8] + [lines[8].rstrip("\n")]
    else:
        torn = lines[:8] + [lines[8][:10] + "\n"]
    ck.write_text("".join(torn))
    code, out, _ = _cor12_checkpoint_run(capsys, tmp_path, "1", ck, "out.jsonl")
    assert code == 0
    assert out.read_bytes() == ref.read_bytes()
    assert ck.read_bytes() == full.read_bytes()


def test_checkpoint_resumed_records_are_reverified(tmp_path, capsys):
    for g_text, point, message in [
        ("1", ["-1", "-1"], "fails its predicate"),
        # 1*1*1*(1 - 3) = -2 divides g = 2, but the box has two coordinates
        ("2", ["1", "1", "1"], "not a point of the search box"),
    ]:
        ck = tmp_path / f"ck-{g_text}.jsonl"
        code, _, _ = _cor12_checkpoint_run(capsys, tmp_path, g_text, ck, "a.jsonl")
        assert code == 0
        lines = ck.read_text().splitlines()
        i = next(k for k, line in enumerate(lines) if '"first": "-1"' in line)
        rec = json.loads(lines[i])
        rec["records"].append({"point": point, "witnesses": {}})
        lines[i] = json.dumps(rec)
        ck.write_text("\n".join(lines) + "\n")
        code, _, err = _cor12_checkpoint_run(capsys, tmp_path, g_text, ck, "b.jsonl")
        assert code == 2
        assert message in err


def _checkpointed_record_edit(capsys, tmp_path, edit):
    """A cor12 checkpoint with one stored record edited by edit(lines, i, j),
    where lines[i] is a range holding records and lines[j] another range;
    returns the resumed run's exit code and stderr, and whether the file
    was left as it was."""
    ck = tmp_path / "ck.jsonl"
    code, _, _ = _cor12_checkpoint_run(capsys, tmp_path, "1", ck, "a.jsonl")
    assert code == 0
    lines = [json.loads(line) for line in ck.read_text().splitlines()]
    i = next(k for k, rec in enumerate(lines[1:], 1) if rec["records"])
    j = next(k for k in range(1, len(lines)) if k != i)
    edit(lines, i, j)
    ck.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
    before = ck.read_bytes()
    code, out, err = _cor12_checkpoint_run(capsys, tmp_path, "1", ck, "b.jsonl")
    return code, err, ck.read_bytes() == before and not out.exists()


def test_checkpoint_record_under_another_first_coordinate_is_refused(tmp_path, capsys):
    def move(lines, i, j):
        lines[j]["records"].append(lines[i]["records"].pop())
    code, err, untouched = _checkpointed_record_edit(capsys, tmp_path, move)
    assert code == 2
    assert "under first coordinate" in err
    assert untouched


def test_checkpoint_record_stored_twice_is_refused(tmp_path, capsys):
    def duplicate(lines, i, j):
        lines[i]["records"].append(lines[i]["records"][0])
    code, err, untouched = _checkpointed_record_edit(capsys, tmp_path, duplicate)
    assert code == 2
    assert "twice" in err
    assert untouched


@pytest.mark.parametrize("coordinate", ["1/0", None, 3, "1/1", "6/4", "+3", "-0", " 1", "1.0"])
def test_checkpoint_coordinate_that_is_not_canonical_text_is_refused(tmp_path, capsys,
                                                                     coordinate):
    def edit(lines, i, j):
        lines[i]["records"][0]["point"][-1] = coordinate
    code, err, untouched = _checkpointed_record_edit(capsys, tmp_path, edit)
    assert code == 2
    assert "is not canonical" in err
    assert untouched


def test_checkpoint_point_that_is_not_a_list_is_refused(tmp_path, capsys):
    def edit(lines, i, j):
        rec = lines[i]["records"][0]
        rec["point"] = ",".join(rec["point"])
    code, err, untouched = _checkpointed_record_edit(capsys, tmp_path, edit)
    assert code == 2
    assert "is not a list of coordinates" in err
    assert untouched


def test_checkpoint_record_with_tampered_witnesses_is_refused(tmp_path, capsys):
    def fabricate(lines, i, j):
        lines[i]["records"][0]["witnesses"] = {"7": [1]}
    code, err, untouched = _checkpointed_record_edit(capsys, tmp_path, fabricate)
    assert code == 2
    assert "has witnesses that differ from its predicate" in err
    assert untouched


SIX_LINES = "".join(f"x0+{i}*x1+{i * i}*x2\n" for i in range(6))


@pytest.mark.parametrize("kind, lines, extra", [
    ("thm16", SIX_LINES, ("--s-primes", "2")),
    ("thm11", "x0\nx1\nx2\nx0+x1+x2\nG: x0+2*x1+3*x2\n", ("--s-primes", "2", "--mode", "ii")),
    ("cor12", "1\n", ()),
], ids=["thm16", "thm11", "cor12"])
@pytest.mark.parametrize("checkpoint", [False, True])
def test_projective_search_refuses_a_denominator_cap(tmp_path, capsys, kind, lines, extra,
                                                     checkpoint):
    # a projective box, or cor12's over an empty S, holds integer points only:
    # a cap would be echoed, unused
    forms = tmp_path / "forms.txt"
    forms.write_text(lines)
    out, ck = tmp_path / "o.jsonl", tmp_path / "ck.jsonl"
    more = ("--checkpoint", str(ck)) if checkpoint else ()
    code, stdout, err = run(capsys, "search", kind, "--forms", str(forms), "--box", "3",
                            "--dim", "2", "--denom-cap", "2", "--format", "json",
                            *extra, *more, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert "denom_cap must be 0" in err
    assert not out.exists() and not ck.exists()


@pytest.mark.parametrize("kind, lines", [("cor12", "1\n"), ("thm16", SIX_LINES)],
                         ids=["cor12", "thm16"])
@pytest.mark.parametrize("unread, extra, message", [
    ("G: x0\n", (), "reads no G: a 'G:' line marks thm11's reference form"),
    ("", ("--mode", "ii"), "has no mode 'ii': --mode ii is thm11's"),
    ("", ("--assert-general-position",), "takes no general-position assertion"),
], ids=["g-line", "mode-ii", "assert-general-position"])
def test_search_refuses_an_input_its_kind_never_reads(tmp_path, capsys, kind, lines, unread,
                                                      extra, message):
    forms, out, ck = tmp_path / "forms.txt", tmp_path / "o.csv", tmp_path / "ck.jsonl"
    forms.write_text(lines)
    argv = ["search", kind, "--forms", str(forms), "--box", "3", "--dim", "2",
            "--checkpoint", str(ck)]
    assert run(capsys, *argv, "--out", str(tmp_path / "first.txt"))[0] == 0
    # half a checkpoint: a run that read it would append the rest
    ck.write_text("".join(ck.read_text().splitlines(keepends=True)[:3]))
    before = ck.read_bytes()
    forms.write_text(lines + unread)
    for more in ((), ("--checkpoint", str(ck))):
        code, stdout, err = run(capsys, *argv[:-2], *extra, *more, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert f"error: {kind} {message}" in err
        assert not out.exists() and ck.read_bytes() == before


def _growth_counts(capsys, tmp_path, kind, forms_text, box, growth, extra=()):
    forms = tmp_path / f"{kind}.txt"
    forms.write_text(forms_text)
    code, out, _ = run(capsys, "search", kind, "--forms", str(forms), "--box", str(box),
                       "--dim", "2", "--format", "json", "--degeneracy", "1",
                       "--growth", growth, *extra, "--out", str(tmp_path / "g.jsonl"))
    assert code == 0
    return [tuple(pair) for pair in json.loads(out.strip().splitlines()[-1])["growth"]]


def _count(capsys, tmp_path, kind, bound, extra=()):
    out = tmp_path / f"count-{bound}.jsonl"
    code, _, _ = run(capsys, "search", kind, "--forms", str(tmp_path / f"{kind}.txt"),
                     "--box", str(bound), "--dim", "2", "--format", "json", *extra,
                     "--out", str(out))
    assert code == 0
    return len(load_solution_set(str(out)).points)


@pytest.mark.parametrize("kind, forms_text, extra", [
    ("cor12", "1\n", ("--s-primes", "2,3", "--denom-cap", "2")),
    ("thm16", SIX_LINES, ()),
])
def test_growth_matches_independent_searches(tmp_path, capsys, kind, forms_text, extra):
    # 5 lies above --box 4: the one search runs at 5, its counts cut by height
    growth = _growth_counts(capsys, tmp_path, kind, forms_text, 4, "0,1,3,4,5", extra)
    assert growth == [(b, _count(capsys, tmp_path, kind, b, extra)) for b in (0, 1, 3, 4, 5)]
    assert growth[-1][1] > growth[2][1] > 0


def test_growth_rejects_a_negative_bound(tmp_path, capsys):
    forms = tmp_path / "g.txt"
    forms.write_text("1\n")
    code, _, err = run(capsys, "search", "cor12", "--forms", str(forms), "--box", "3",
                       "--dim", "2", "--degeneracy", "1", "--growth", "2,-1")
    assert code == 2
    assert "invalid search box" in err


def test_growth_without_degeneracy_is_refused(tmp_path, capsys):
    forms = tmp_path / "g.txt"
    forms.write_text("1\n")
    out = tmp_path / "out.jsonl"
    code, _, err = run(capsys, "search", "cor12", "--forms", str(forms), "--box", "3",
                       "--dim", "2", "--growth=-5,x", "--out", str(out))
    assert code == 2
    assert "--growth needs --degeneracy" in err
    assert not out.exists()


@pytest.mark.parametrize("degree", ["0", "-1"])
@pytest.mark.parametrize("growth", [(), ("--growth", "1,2")])
def test_degeneracy_below_one_is_refused(tmp_path, capsys, degree, growth):
    forms = tmp_path / "g.txt"
    forms.write_text("1\n")
    out = tmp_path / "out.jsonl"
    code, stdout, err = run(capsys, "search", "cor12", "--forms", str(forms), "--box", "3",
                            "--dim", "2", f"--degeneracy={degree}", *growth, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert "--degeneracy must be >= 1" in err
    assert not out.exists()


GROWTH_PREFIX_CASES = [
    *((f"cor12-cap{cap}-dim{dim}", "cor12", "1\n" if dim == 2 else "1/2*x0+x1+x2+3\n",
       ("--dim", str(dim), "--s-primes", "2,3", "--denom-cap", str(cap)), 1)
      for cap in (1, 2) for dim in (2, 3)),
    *((f"thm11-{mode}", "thm11", "x0\nx1\nx2\nx0+x1+x2\nG: x0+2*x1+3*x2\n",
       ("--dim", "2", "--mode", mode, "--s-primes", "2"), 3) for mode in ("i", "ii")),
    ("thm16", "thm16", SIX_LINES, ("--dim", "2", "--s-primes", "2,3"), 3),
]


def _search_calls(monkeypatch) -> dict:
    """Counts of the searches the CLI builds and runs from now on."""
    calls = {"search_spec": 0, "runs": 0}

    def counting(name, key):
        real = getattr(betachow.cli, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(betachow.cli, name, wrapper)

    counting("search_spec", "search_spec")
    counting("run_search", "runs")
    counting("search_with_checkpoint", "runs")
    return calls


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("kind, forms_text, extra, box",
                         [case[1:] for case in GROWTH_PREFIX_CASES],
                         ids=[case[0] for case in GROWTH_PREFIX_CASES])
def test_growth_run_writes_the_plain_box_output(tmp_path, capsys, monkeypatch, kind,
                                                forms_text, extra, box, workers):
    # one search at the top growth bound: its points of height <= --box are
    # the --box output, plain, checkpointed and resumed alike
    forms = tmp_path / "forms.txt"
    forms.write_text(forms_text)
    argv = ["search", kind, "--forms", str(forms), "--box", str(box), *extra,
            "--format", "json", "--workers", workers]
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "plain.jsonl"))
    assert code == 0
    plain = (tmp_path / "plain.jsonl").read_bytes()
    n_plain = len(load_solution_set(str(tmp_path / "plain.jsonl")).points)
    calls = _search_calls(monkeypatch)
    ck = tmp_path / "ck.jsonl"
    growth = ["--degeneracy", "1", "--growth", f"0,{box},{box + 1}"]
    for name in ("plain", "checkpointed", "resumed"):
        more = () if name == "plain" else ("--checkpoint", str(ck))
        if name == "resumed":
            lines = ck.read_text().splitlines(keepends=True)
            ck.write_text("".join(lines[:len(lines) // 2]))
        calls.update(search_spec=0, runs=0)
        out = tmp_path / f"{name}.jsonl"
        code, stdout, _ = run(capsys, *argv, *growth, *more, "--out", str(out))
        assert code == 0
        assert out.read_bytes() == plain
        assert calls == {"search_spec": 1, "runs": 1}
        counts = json.loads(stdout.strip().splitlines()[-1])["growth"]
        assert counts[:2] == [[0, 0], [box, n_plain]] and counts[2][0] == box + 1
        assert counts[2][1] > n_plain > 0
    assert json.loads(ck.read_text().splitlines()[0])["descriptor"]["bound"] == box + 1


@pytest.mark.parametrize("args, message", [
    (("--box", "3", "--growth", "2,x"), "--growth takes a comma list of ints, got '2,x'"),
    (("--box", "3", "--growth", "2,,4"), "--growth takes a comma list of ints, got '2,,4'"),
    (("--box", "3", "--growth", "2,-1"), "invalid search box"),
    (("--box=-1", "--growth", "2,4"), "invalid search box"),
    (("--box", "3", "--s-primes", "2,x"), "--s-primes: 'x' is not an int"),
])
@pytest.mark.parametrize("checkpoint", [False, True])
def test_bad_growth_or_box_is_refused_before_anything_runs(tmp_path, capsys, monkeypatch,
                                                           args, message, checkpoint):
    forms = tmp_path / "g.txt"
    forms.write_text("1\n")
    out, ck = tmp_path / "o.jsonl", tmp_path / "ck.jsonl"
    calls = _search_calls(monkeypatch)
    more = ("--checkpoint", str(ck)) if checkpoint else ()
    code, stdout, err = run(capsys, "search", "cor12", "--forms", str(forms), *args,
                            "--dim", "2", "--degeneracy", "1", *more, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert message in err
    assert calls == {"search_spec": 0, "runs": 0}
    assert not out.exists() and not ck.exists()


@pytest.mark.parametrize("command", [
    ("search", "cor12", "--forms", "{forms}", "--box", "2", "--dim", "2"),
    ("audit", "subspace", "--forms", "{forms}", "--samples", "3"),
    ("verify", "--chow-n-hi", "2", "--beta-n-hi", "2", "--q-mult", "3"),
    ("chow", "--config", "cyclic", "--n", "2", "--q", "6", "--power", "D,n"),
    ("beta", "--cyclic", "2", "6"),
    ("heights", "--form", "x0", "--point", "2,3"),
])
@pytest.mark.parametrize("workers, env, message", [
    ("0", None, "--workers must be >= 1, got 0"),
    ("-4", None, "--workers must be >= 1, got -4"),
    (None, "abc", "BETACHOW_WORKERS must be an int >= 1, got 'abc'"),
    (None, "0", "BETACHOW_WORKERS must be an int >= 1, got '0'"),
    (None, "-2", "BETACHOW_WORKERS must be an int >= 1, got '-2'"),
    (None, "1.5", "BETACHOW_WORKERS must be an int >= 1, got '1.5'"),
])
def test_bad_worker_count_is_refused_before_anything_runs(tmp_path, capsys, monkeypatch,
                                                          command, workers, env, message):
    forms = tmp_path / "forms.txt"
    forms.write_text("x0\nx1\nx2\nx0+x1+x2\n" if command[0] == "audit" else "1\n")
    if env is None:
        monkeypatch.delenv("BETACHOW_WORKERS", raising=False)
    else:
        monkeypatch.setenv("BETACHOW_WORKERS", env)
    ran = []
    for name in ("search_spec", "iter_sample_points", "subspace_rows", "verify_rows",
                 "config_classes", "beta_exact_cyclic", "proximity_counting"):
        monkeypatch.setattr(betachow.cli, name, lambda *a, **k: ran.append(a))
    out = tmp_path / "out.txt"
    argv = [a.format(forms=forms) for a in command]
    more = ("--workers", workers) if workers is not None else ()
    code, stdout, err = run(capsys, *argv, *more, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert message in err
    assert ran == [] and not out.exists()


def test_non_integer_workers_flag_is_refused(tmp_path, capsys):
    forms = tmp_path / "g.txt"
    forms.write_text("1\n")
    out = tmp_path / "out.txt"
    code, stdout, err = run(capsys, "search", "cor12", "--forms", str(forms), "--box", "2",
                            "--workers", "two", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert "--workers" in err and not out.exists()


def test_checkpoint_is_never_opened_for_writing_from_scratch(tmp_path, capsys, monkeypatch):
    # a torn tail is truncated in place: a crash can never find the
    # checkpoint emptied by a rewrite
    import builtins
    import betachow.search
    modes = []

    def recording_open(file, mode="r", *args, **kwargs):
        modes.append(mode)
        return builtins.open(file, mode, *args, **kwargs)

    monkeypatch.setattr(betachow.search, "open", recording_open, raising=False)
    ck = tmp_path / "ck.jsonl"
    code, ref, _ = _cor12_checkpoint_run(capsys, tmp_path, "1", ck, "ref.jsonl")
    assert code == 0
    full = ck.read_bytes()
    lines = full.splitlines(keepends=True)
    for torn in (lines[:8] + [lines[8].rstrip(b"\n")], lines[:8] + [lines[8][:10] + b"\n"],
                 [lines[0][:10]], [b"\n", b"  \n"]):
        ck.write_bytes(b"".join(torn))
        code, out, _ = _cor12_checkpoint_run(capsys, tmp_path, "1", ck, "out.jsonl")
        assert code == 0
        assert out.read_bytes() == ref.read_bytes()
        assert ck.read_bytes() == full
    assert modes and all("w" not in m for m in modes)


def test_cli_imports_no_private_search_name():
    tree = ast.parse(Path(betachow.cli.__file__).read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module in ("search", "betachow.search")
             for alias in node.names]
    assert "search_spec" in names
    assert [n for n in names if n.startswith("_")] == []


def test_package_imports_no_test_only_dependency():
    # the runtime dependency list stays empty: sympy, hypothesis and numpy
    # are for the tests only
    imported = set()
    for path in sorted(Path(betachow.cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {(path.name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                imported.add((path.name, node.module.split(".")[0]))
    assert len({name for name, _ in imported}) >= 10      # every module was read
    assert [(name, mod) for name, mod in imported
            if mod in ("sympy", "hypothesis", "numpy")] == []


@pytest.mark.parametrize("argv", [
    ["search", "cor12", "--forms", "{g}", "--box", "12", "--dim", "2",
     "--s-primes", "2", "--denom-cap", "1", "--format", "json"],
    ["audit", "subspace", "--forms", "{lines}", "--samples", "9", "--seed", "3",
     "--height-bound", "50", "--format", "json"],
    ["audit", "levinduke", "--forms", "{lines}", "--samples", "9", "--seed", "3",
     "--height-bound", "50", "--s", "inf,2,3", "--format", "json"],
    # box 7 gives 8 first coordinates, enough to shard over 4 workers
    ["search", "thm11", "--forms", "{thm11}", "--mode", "ii", "--box", "7", "--dim", "2",
     "--s-primes", "2", "--format", "json"],
    ["search", "thm16", "--forms", "{six}", "--box", "7", "--dim", "2", "--format", "json"],
])
def test_output_independent_of_workers(tmp_path, capsys, argv):
    (tmp_path / "g.txt").write_text("1\n")
    (tmp_path / "lines.txt").write_text("x0\nx1\nx2\nx0+x1+x2\n")
    (tmp_path / "thm11.txt").write_text("x0\nx1\nx2\nx0+x1+x2\nG: x0+2*x1+3*x2\n")
    (tmp_path / "six.txt").write_text(SIX_LINES)
    paths = {name: tmp_path / f"{name}.txt" for name in ("g", "lines", "thm11", "six")}
    argv = [a.format(**paths) for a in argv]
    outputs = []
    for workers in ("1", "2", "3", "4"):
        out = tmp_path / f"w{workers}.txt"
        code, _, _ = run(capsys, *argv, "--workers", workers, "--out", str(out))
        assert code == 0
        outputs.append(out.read_bytes())
    assert len(set(outputs)) == 1


@pytest.mark.parametrize("kind, lines, message", [
    ("subspace", "1/2*x0 + x1 + x2", "form 1/2*x0 + x1 + x2 needs integer coefficients"),
    ("levinduke", "1/2*x0 + x1 + x2", "form 1/2*x0 + x1 + x2 needs integer coefficients"),
    ("subspace", "x0^2 + x1", "general position check restricted to hyperplanes"),
    ("levinduke", "x0^2 + x1", "forms must be homogeneous of degree >= 1"),
    # a G line, which only search thm11 reads
    ("subspace", "x0+x1+x2\nG: x0", "audit reads no G: a 'G:' line marks thm11's"),
    ("levinduke", "G: x0", "audit reads no G: a 'G:' line marks thm11's"),
])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_audit_rejects_bad_forms(tmp_path, capsys, kind, lines, message, workers):
    forms = tmp_path / "forms.txt"
    forms.write_text(f"x0\nx1\nx2\n{lines}\n")
    out = tmp_path / "out.jsonl"
    code, _, err = run(capsys, "audit", kind, "--forms", str(forms), "--samples", "9",
                       "--seed", "3", "--height-bound", "50", "--workers", workers,
                       "--out", str(out))
    assert code == 2
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["audit", "subspace", "--forms", "{forms}", "--samples", "3", "--s", "inf,x"],
     "--s: 'x' is neither 'inf' nor an int"),
    (["audit", "levinduke", "--forms", "{forms}", "--samples", "3", "--s", "inf,4"],
     "--s: 4 is not prime"),
    (["heights", "--form", "x0", "--point", "2,3", "--s", "2,x"],
     "--s: 'x' is neither 'inf' nor an int"),
    (["heights", "--form", "x0", "--point", "2,3", "--s", "inf,4"], "--s: 4 is not prime"),
    *((["chow", "--config", "cyclic", "--n", "2", "--q", "6", "--power", *power],
      f"--power: {token!r} is not NAME,EXP with EXP an int or n")
      for power, token in [(["D,x"], "D,x"), (["D"], "D"), (["D,"], "D,"),
                           (["Ht1,2", "D,1.5"], "D,1.5")]),
])
def test_bad_place_is_refused_by_its_flag(tmp_path, capsys, argv, message):
    forms = tmp_path / "forms.txt"
    forms.write_text("x0\nx1\nx2\n")
    out = tmp_path / "out.txt"
    code, stdout, err = run(capsys, *[a.format(forms=forms) for a in argv], "--out", str(out))
    assert (code, stdout) == (2, "")
    assert message in err and "invalid literal" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["heights", "--form", "x0+2*x1", "--point", "3,5"],
    ["audit", "subspace", "--forms", "{forms}", "--samples", "20", "--seed", "3",
     "--height-bound", "50"],
])
def test_s_is_normalized_once(tmp_path, capsys, argv):
    # --s takes S's primes in any order and repeated; the head echoes the
    # text as typed, and every row is that of the one SRing((2, 3))
    forms = tmp_path / "forms.txt"
    forms.write_text("x0\nx1\nx2\nx0+x1+x2\n")
    rows = []
    for s in ("3,2,2", "inf,2,3"):
        code, out, err = run(capsys, *[a.format(forms=forms) for a in argv], "--s", s,
                             "--format", "json")
        assert (code, err) == (0, "")
        head, *body = out.splitlines()
        assert json.loads(head)["params"]["s"] == s
        rows.append(body)
    assert rows[0] == rows[1] and len(rows[0]) > 2
    # SRing itself takes S only strictly ascending
    with pytest.raises(ValueError, match="strictly ascending"):
        SRing((3, 2))


def _general_position_calls(monkeypatch) -> list:
    import betachow.search
    calls = []
    real = betachow.search.hyperplanes_general_position
    monkeypatch.setattr(betachow.search, "hyperplanes_general_position",
                        lambda forms: calls.append(len(forms)) or real(forms))
    return calls


def _checkpointed(capsys, tmp_path, kind, forms_text, box, ck, out_name="out.jsonl"):
    forms = tmp_path / f"{kind}.txt"
    forms.write_text(forms_text)
    out = tmp_path / out_name
    code, _, _ = run(capsys, "search", kind, "--forms", str(forms), "--box", str(box),
                     "--dim", "2", "--format", "json", "--checkpoint", str(ck),
                     "--out", str(out))
    assert code == 0
    return out.read_bytes()


def test_checkpointed_thm16_checks_its_hypotheses_once_per_run(tmp_path, capsys, monkeypatch):
    calls = _general_position_calls(monkeypatch)
    ck = tmp_path / "ck.jsonl"
    full = _checkpointed(capsys, tmp_path, "thm16", SIX_LINES, 4, ck)
    assert calls == [6]
    lines = ck.read_text().splitlines(keepends=True)
    assert len(lines) == 6                      # header and 5 first coordinates
    ck.write_text("".join(lines[:3]))
    assert _checkpointed(capsys, tmp_path, "thm16", SIX_LINES, 4, ck, "resumed.jsonl") == full
    assert calls == [6, 6]


def _rows_work(monkeypatch) -> dict:
    """Counts of the box coordinate lists built and the polynomial texts
    parsed from now on."""
    import betachow.search
    calls = {"values": 0, "parse": 0}
    values, parse = betachow.search.SearchBox.coordinate_values, betachow.search.parse_poly

    def counting_values(box, s):
        calls["values"] += 1
        return values(box, s)

    def counting_parse(*args):
        calls["parse"] += 1
        return parse(*args)

    monkeypatch.setattr(betachow.search.SearchBox, "coordinate_values", counting_values)
    monkeypatch.setattr(betachow.search, "parse_poly", counting_parse)
    return calls


def test_checkpointed_thm11_checks_its_hypotheses_once_per_run(tmp_path, capsys, monkeypatch):
    calls = _general_position_calls(monkeypatch)
    work = _rows_work(monkeypatch)
    ck = tmp_path / "ck.jsonl"
    full = _checkpointed(capsys, tmp_path, "thm11", "x0\nx1\nx2\nG: 1\n", 6, ck)
    # one parse per form and one for G; projective rows need no coordinate list
    assert calls == [3] and work == {"values": 0, "parse": 4}
    lines = ck.read_text().splitlines(keepends=True)
    ck.write_text("".join(lines[:4]))
    work.update(values=0, parse=0)
    assert _checkpointed(capsys, tmp_path, "thm11", "x0\nx1\nx2\nG: 1\n", 6, ck,
                         "resumed.jsonl") == full
    assert calls == [3, 3] and work == {"values": 0, "parse": 4}


def test_checkpointed_cor12_builds_its_rows_once_per_run(tmp_path, capsys, monkeypatch):
    calls = _rows_work(monkeypatch)
    ck = tmp_path / "ck.jsonl"
    full = _checkpointed(capsys, tmp_path, "cor12", "3-x0+x1\n", 5, ck)
    assert calls["values"] == 1 and calls["parse"] == 1
    lines = ck.read_text().splitlines(keepends=True)
    assert len(lines) == 12                     # header and 11 first coordinates
    ck.write_text("".join(lines[:5]))
    calls.update(values=0, parse=0)
    assert _checkpointed(capsys, tmp_path, "cor12", "3-x0+x1\n", 5, ck, "resumed.jsonl") == full
    assert calls["values"] == 1 and calls["parse"] == 1


def test_growth_search_checks_its_hypotheses_once_per_run(tmp_path, capsys, monkeypatch):
    calls = _general_position_calls(monkeypatch)
    work = _rows_work(monkeypatch)
    growth = _growth_counts(capsys, tmp_path, "thm16", SIX_LINES, 4, "3,5")
    assert calls == [6] and work["parse"] == 6
    assert growth[1][1] > growth[0][1]          # the one search ran at 5
    calls.clear()
    work.update(values=0, parse=0)
    _growth_counts(capsys, tmp_path, "thm11", "x0\nx1\nx2\nG: 1\n", 4, "3,5")
    assert calls == [3] and work == {"values": 0, "parse": 4}
    work.update(values=0, parse=0)
    growth = _growth_counts(capsys, tmp_path, "cor12", "3-x0+x1\n", 4, "3,5")
    assert work == {"values": 1, "parse": 1}    # one coordinate list, at the top bound
    assert growth[1][1] > growth[0][1]


@pytest.mark.parametrize("g_text, extra", [
    ("3-x0+x1", ()),
    ("1/2*x0+x1+3", ("--s-primes", "2,3", "--denom-cap", "1")),
])
def test_cor12_checkpoint_and_resume_match_plain_run(tmp_path, capsys, g_text, extra):
    forms = tmp_path / "g.txt"
    forms.write_text(g_text + "\n")
    argv = ["search", "cor12", "--forms", str(forms), "--box", "5", "--dim", "2",
            "--format", "json", *extra]
    outputs = []
    ck = tmp_path / "ck.jsonl"
    for name, more in [("plain", ()), ("checkpointed", ("--checkpoint", str(ck))),
                       ("resumed", ("--checkpoint", str(ck)))]:
        if name == "resumed":
            lines = ck.read_text().splitlines(keepends=True)
            ck.write_text("".join(lines[:len(lines) // 2]))
        out = tmp_path / f"{name}.jsonl"
        code, _, _ = run(capsys, *argv, *more, "--out", str(out))
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(load_solution_set(str(tmp_path / "plain.jsonl")).points) > 3


def test_cor12_growth_reaches_box_10000(tmp_path, capsys):
    # 4 * 10^8 box points; the divisor-driven enumeration visits 2 per row
    growth = _growth_counts(capsys, tmp_path, "cor12", "1\n", 10000, "10,100,1000,10000")
    assert growth == [(10, 3), (100, 3), (1000, 3), (10000, 3)]


@pytest.mark.parametrize("kind, forms_text, extra", [
    ("thm11", "x0\nx1\nx2\nx0+x1+x2\nG: x0+2*x1+3*x2\n", ("--mode", "ii", "--s-primes", "2")),
    ("thm16", SIX_LINES, ()),
])
def test_checkpoint_and_resume_match_plain_run_for_any_workers(tmp_path, capsys, monkeypatch,
                                                               kind, forms_text, extra):
    import betachow.search
    forms = tmp_path / "forms.txt"
    forms.write_text(forms_text)
    # box 7: 8 first coordinates in 4 parts, enough to shard over 4 workers
    argv = ["search", kind, "--forms", str(forms), "--box", "7", "--dim", "2",
            "--format", "json", *extra]
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "plain.jsonl"))
    assert code == 0
    plain = (tmp_path / "plain.jsonl").read_bytes()
    calls = []     # (workers, part size, first coordinates) of each checkpointed sharded call
    real = betachow.search.sharded

    def spy(fn, items, n, size):
        if fn.func is betachow.search._search_part:
            calls.append((n, size, [str(v) for v in items]))
        return real(fn, items, n, size)

    monkeypatch.setattr(betachow.search, "sharded", spy)
    checkpoints = []
    for workers in (1, 2, 3, 4):
        ck = tmp_path / f"ck{workers}.jsonl"
        for name in ("full", "resumed"):
            if name == "resumed":
                lines = ck.read_text().splitlines(keepends=True)
                ck.write_text("".join(lines[:len(lines) // 2]))
            calls.clear()
            out = tmp_path / f"{name}{workers}.jsonl"
            code, _, _ = run(capsys, *argv, "--checkpoint", str(ck), "--workers",
                             str(workers), "--out", str(out))
            assert code == 0
            assert out.read_bytes() == plain
            # one pool for the run, the pending first coordinates ascending,
            # 2 per part: each holds 15 rows (x1 in -7..7), about 32 a part
            firsts = [str(v) for v in range(8)][0 if name == "full" else 3:]
            assert calls == [(workers, 2, firsts)]
        checkpoints.append(ck.read_bytes())
    assert len(set(checkpoints)) == 1
    assert len(checkpoints[0].splitlines()) == 9     # header and 8 first coordinates
    assert len(load_solution_set(str(tmp_path / "plain.jsonl")).points) >= 3


SRC = Path(__file__).resolve().parent.parent / "src"

# Runs a checkpointed search that is killed at its die_at-th write to the
# checkpoint (the header is write 1), after writing the first `keep`
# characters of it straight to the file.  The child leads its own process
# group, and SIGKILL to that group takes its pool workers down with it;
# exiting the child alone would orphan them, and a pool replaces workers
# killed one by one.
CHECKPOINT_CHILD = """
import os, signal, sys
import betachow.search
from betachow.cli import main
writes = 0


class Dying:
    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def flush(self):
        self.fh.flush()

    def write(self, text):
        global writes
        writes += 1
        if writes == {die_at}:
            # past the file's buffer: a line the run left unflushed is lost
            os.write(self.fh.fileno(), text[:{keep}].encode())
            os.killpg(os.getpid(), signal.SIGKILL)
        return self.fh.write(text)


def dying_open(path, mode="r", *args, **kwargs):
    fh = open(path, mode, *args, **kwargs)
    return Dying(fh) if mode == "a" else fh


betachow.search.open = dying_open
sys.exit(main({argv!r}))
"""


# k coordinate lines survive the crash, the first part's and one more:
# thm16 at box 7 has 8 first coordinates in parts of 2, this cor12 37 in
# parts of 32, so the crash hits the second line of the second part
@pytest.mark.parametrize("kind, forms_text, args, k", [
    ("thm16", SIX_LINES, ("--box", "7"), 3),
    ("cor12", "1/2*x0 - x1 + 3\n", ("--box", "4", "--s-primes", "2,3", "--denom-cap", "2"), 33),
])
def test_a_killed_checkpointed_search_resumes_to_the_plain_run(tmp_path, capsys, monkeypatch,
                                                               kind, forms_text, args, k):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "forms.txt").write_text(forms_text)
    argv = ["search", kind, "--forms", "forms.txt", *args, "--dim", "2", "--format", "json"]
    assert run(capsys, *argv, "--out", "plain.jsonl")[0] == 0
    plain = (tmp_path / "plain.jsonl").read_bytes()
    assert run(capsys, *argv, "--checkpoint", "full.ckpt", "--out", "full.jsonl")[0] == 0
    full = (tmp_path / "full.ckpt").read_bytes()
    lines = full.splitlines(keepends=True)
    assert len(lines) > k + 2 and len(lines[k + 1]) > 2
    torn_header = lines[0][:len(lines[0]) // 2]
    # (workers, checkpoint at the start, write to die at, characters of it
    # written): after the header and k lines; after k lines and half of the
    # next; half of the header; and after a resume has cut a torn header
    # off, before it writes the header
    crashes = [(workers, b"", k + 2, keep) for workers in ("1", "2")
               for keep in (0, len(lines[k + 1]) // 2)]
    crashes += [("1", b"", 1, len(torn_header)), ("2", torn_header, 1, 0)]
    ck = tmp_path / "ck.ckpt"
    for workers, start, die_at, keep in crashes:
        ck.write_bytes(start)
        more = ["--checkpoint", "ck.ckpt", "--workers", workers, "--out", "out.jsonl"]
        child = CHECKPOINT_CHILD.format(die_at=die_at, keep=keep, argv=[*argv, *more])
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(SRC)}, start_new_session=True)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert ck.read_bytes() == b"".join(lines[:die_at - 1]) + lines[die_at - 1][:keep]
        assert not (tmp_path / "out.jsonl").exists()
        assert run(capsys, *argv, *more)[0] == 0
        assert (tmp_path / "out.jsonl").read_bytes() == plain
        assert ck.read_bytes() == full
        (tmp_path / "out.jsonl").unlink()


DATA = Path(__file__).parent / "data"
THM11_PINNED = "1/2*x0 + x1\nx1\nx2\nx0 + x1 + x2\nG: x0 + 3*x1 + 5*x2\n"


@pytest.mark.parametrize("name, forms_text, args, full_sha, plain_sha", [
    ("cor12", "1/2*x0 - x1 + 3\n",
     ("--box", "1", "--s-primes", "2,3", "--denom-cap", "2"),
     "1fa96592b7404f6e13c3869741fd1b0b46deedb1065fb914b3e6d7834767ab3a",
     "404548bb7575545c8a36bd90d15462776dd48396228899c91a5fe5b27f6e7613"),
    ("thm11", THM11_PINNED, ("--mode", "ii", "--box", "5", "--s-primes", "2"),
     "e52a4f1d91af3bdead703a60e1d87dc6ee0d445d1fa3785c6cb095eeefd995eb",
     "6cd6b6b81ab821726bafec6abe65a66f3017c537697ab49d9791cfbfcfc3024a"),
    ("thm16", "".join(f"x0+{i}*x1+{i * i}*x2\n" for i in range(6)), ("--box", "7"),
     "1de3e0f752ca87702aa2db05507de6f510716e2e373332d3bb644b62e3558232",
     "ef8ee7125898203dae4019fdda4f4f807c1a98e59b25c8c7751b589d7894f3fa"),
])
def test_checkpoint_from_an_earlier_version_resumes_to_the_plain_run(
        tmp_path, capsys, name, forms_text, args, full_sha, plain_sha):
    # tests/data/<name>.half.ckpt is the first half of a checkpoint that an
    # earlier commit wrote for this search; the hashes are of that commit's
    # completed checkpoint and of its plain output, so the on-disk format
    # and the output bytes are pinned across commits, not only within one
    forms = tmp_path / "forms.txt"
    forms.write_text(forms_text)
    argv = ["search", name, "--forms", str(forms), *args, "--dim", "2", "--format", "json"]
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "plain.jsonl"))
    assert code == 0
    plain = (tmp_path / "plain.jsonl").read_bytes()
    assert hashlib.sha256(plain).hexdigest() == plain_sha
    for workers in ("1", "2", "3", "4"):
        ck = tmp_path / f"ck{workers}.jsonl"
        ck.write_bytes((DATA / f"{name}.half.ckpt").read_bytes())
        out = tmp_path / f"resumed{workers}.jsonl"
        code, _, _ = run(capsys, *argv, "--checkpoint", str(ck), "--workers", workers,
                         "--out", str(out))
        assert code == 0
        assert out.read_bytes() == plain
        assert hashlib.sha256(ck.read_bytes()).hexdigest() == full_sha


# tests/data/audit_*.jsonl were written by an earlier commit (before the
# subspace audit took its finite places from the maximal minors) from
# tests/data/audit_forms.txt, run from tests/data; the audits must keep
# reproducing them byte for byte
@pytest.mark.parametrize("golden, argv", [
    (f"audit_subspace_s{s}_h{e}.jsonl",
     ["subspace", "--s", f"inf,{s}", "--height-bound", str(10 ** e)])
    for s in (2, 7) for e in (3, 12)
] + [("audit_levinduke.jsonl",
      ["levinduke", "--s", "inf,2,3", "--height-bound", str(10 ** 6)])])
def test_audit_reproduces_its_golden_output(tmp_path, capsys, monkeypatch, golden, argv):
    monkeypatch.chdir(DATA)
    out = tmp_path / golden
    code, _, _ = run(capsys, "audit", argv[0], "--forms", "audit_forms.txt", *argv[1:],
                     "--samples", "40", "--seed", "1", "--format", "json", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_audit_csv_flags_read_true_false(tmp_path, capsys):
    forms = tmp_path / "coords.txt"
    forms.write_text("x0\nx1\nx2\n")
    # seed 1 at height 1 draws points on the coordinate lines and off them
    code, out, _ = run(capsys, "audit", "levinduke", "--forms", str(forms),
                       "--samples", "12", "--height-bound", "1", "--format", "csv")
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    *points, summary = rows
    assert {r["on_support"] for r in points} == {"true", "false"}
    assert {r["verdict"] for r in points} <= {"pass", "FAIL", ""}
    assert all(r["verdict"] == "" for r in points if r["on_support"] == "true")
    assert all(r["summary"] == "" for r in points)
    # the Levin-Duke audit has no defect: the summary's max_defect is empty
    assert (summary["summary"], summary["max_defect"]) == ("true", "")
    assert summary["on_support"] == str(sum(r["on_support"] == "true" for r in points))

    code, out, _ = run(capsys, "audit", "levinduke", "--forms", str(forms),
                       "--samples", "12", "--height-bound", "1", "--format", "json")
    records = [json.loads(line) for line in out.splitlines()[1:]]
    assert {r["on_support"] for r in records[:-1]} == {True, False}
    assert (records[-1]["summary"], records[-1]["max_defect"]) == (True, None)


def test_audit_runs_past_the_factorization_bound(tmp_path, capsys):
    # values at height 10^41 pass 2^128; no row factors them
    code, out, err = run(capsys, "audit", "subspace", "--forms", str(DATA / "audit_forms.txt"),
                         "--s", "inf,2", "--samples", "10", "--height-bound", str(10 ** 41),
                         "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out.splitlines()[-1])["samples"] == 10


def test_thm16_runs_past_the_factorization_bound(tmp_path, capsys):
    # t = 2^70 + 1 puts most values past 2^128; the check factors none of
    # them, and [1:0:0], whose values are all 1, has an empty witness map
    forms = tmp_path / "forms.txt"
    forms.write_text("".join(f"x0+{t}*x1+{t * t}*x2\n" for t in (2 ** 70 + 1, 3, 5, 7, 9, 11)))
    code, out, err = run(capsys, "search", "thm16", "--forms", str(forms), "--box", "2",
                         "--dim", "2", "--format", "json")
    assert (code, err) == (0, "")
    assert [json.loads(line)["point"] for line in out.splitlines()[1:]] == [["1", "0", "0"]]


def test_thm16_witnesses_factor_only_the_part_of_values_prime_to_s(tmp_path, capsys):
    # at [1:0:0] the first form's value 2^130 is an S-unit past the
    # factorization bound; with its S part stripped nothing is factored
    forms = tmp_path / "forms.txt"
    forms.write_text(f"{2 ** 130}*x0+{2 ** 130}*x1+{2 ** 130}*x2\n"
                     + "".join(f"x0+{t}*x1+{t * t}*x2\n" for t in range(2, 7)))
    argv = ["search", "thm16", "--forms", str(forms), "--s-primes", "2", "--box", "1",
            "--dim", "2", "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    records = [json.loads(line) for line in out.splitlines()[1:]]
    assert [(r["point"], r["witnesses"]) for r in records] == [(["1", "0", "0"], {})]
    path = tmp_path / "sols.jsonl"
    path.write_text(out)
    assert load_solution_set(str(path)).points == [(1, 0, 0)]
    ck = tmp_path / "ck.jsonl"
    for _ in range(2):                      # the second run resumes the checkpoint
        assert run(capsys, *argv, "--checkpoint", str(ck)) == (0, out, "")


def test_audit_minor_past_the_factorization_bound_is_a_resource_error(tmp_path, capsys):
    forms = tmp_path / "forms.txt"
    forms.write_text(f"x0\nx1\nx2\nx0+{3 ** 90}*x1+x2\n")
    # the minors are factored at the start, so even a run with no rows stops
    code, out, err = run(capsys, "audit", "subspace", "--forms", str(forms), "--samples", "0")
    assert (code, out) == (3, "")
    assert "factorization bound exceeded" in err
