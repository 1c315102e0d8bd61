"""End-to-end tests of the command-line interface."""

import ast
import contextlib
import io
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaff import (
    LambdaFactor,
    SeriesControl,
    cesaro,
    curve_model,
    deriv_side_factor,
    deriv_side_total,
    root_side_em,
    root_side_total,
    vertical_spacing,
)
from zetaff.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_TOL,
    _mu_grid,
    build_parser,
    main,
    parse_curve_file,
)

C25 = vertical_spacing(25)

#: the package source, put on the PYTHONPATH of every child interpreter
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

VALID_CURVE = """\
# genus-2 curve over F_25
q 25 genus 2
0.6 0.7 1
0.4 {c_minus} 1
0.6 {c_minus} 1
0.4 0.7 1
0.0 0.0 -1
1.0 0.0 -1
""".format(c_minus=C25 - 0.7)


@pytest.fixture
def curve_file(tmp_path):
    path = tmp_path / "curve.txt"
    path.write_text(VALID_CURVE)
    return str(path)


def test_parse_curve_file(curve_file, tmp_path):
    curve = parse_curve_file(curve_file)
    assert curve.q == 25 and curve.genus == 2
    assert len(curve.factors) == 6

    bad = tmp_path / "bad.txt"
    bad.write_text("genus 2 q 25\n0.6 0.7 1\n")
    with pytest.raises(Exception):
        parse_curve_file(str(bad))


def test_check_curve_ok(curve_file, capsys):
    assert main(["check-curve", "--curve", curve_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "valid curve" in out and "genus=2" in out


def test_build_parser_is_built_once():
    assert build_parser() is build_parser()


def test_check_curve_fails_when_the_functional_equation_fails(curve_file, monkeypatch, capsys):
    monkeypatch.setattr(curve_model, "check_functional_equation", lambda *args: (False, 0.5))
    assert main(["check-curve", "--curve", curve_file]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("invalid input: invalid curve: functional equation fails")


def test_check_curve_invalid_inputs(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert main(["check-curve", "--curve", missing]) == EXIT_INVALID

    asym = tmp_path / "asym.txt"
    asym.write_text("q 25 genus 1\n0.6 0.7 1\n0.4 %s 1\n" % (C25 - 0.7))
    assert main(["check-curve", "--curve", str(asym)]) == EXIT_INVALID
    assert "invalid curve" in capsys.readouterr().err

    badpole = tmp_path / "badpole.txt"
    badpole.write_text("q 25 genus 0\n0.5 0.3 -1\n")
    assert main(["check-curve", "--curve", str(badpole)]) == EXIT_INVALID

    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    assert main(["check-curve", "--curve", str(empty)]) == EXIT_INVALID


@pytest.mark.parametrize("text, lineno", [
    ("q x genus 1\n", 1),  # header fields that are not integers
    ("q 25 genus 1\n0.5 1\n", 2),  # a factor line with two fields
    ("q 25 genus 1\n0.5 abc 1\n", 2),  # a factor field that is not a number
    ("# comment\nq 25 genus 1\n0.5 0.3 2\n", 3),  # nu = 2
    ("q 25 genus 0\n0 0 -1\n0.5 0.3 -1\n", 3),  # a pole factor other than (0, 0), (1, 0)
    ("q 25 genus 1\n0.5 0.3 1\n0.5 -0.3 1\n", 3),  # a negative tau0, as LambdaFactor rules
])
def test_check_curve_reports_the_bad_line(text, lineno, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main(["check-curve", "--curve", str(path)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: invalid curve: line {lineno}: ")
    assert err.count("\n") == 1


def scan_args(tmp_path, name, extra=()):
    out = tmp_path / name
    return ["scan-mu", "--out", str(out), *extra], out


def test_scan_mu_default_grid(tmp_path):
    args, out = scan_args(tmp_path, "scan.csv")
    assert main(args) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "mu,re_deriv,im_deriv,re_root,im_root,abs_diff,rel_diff"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 41  # -1.45 .. 2.55 step 0.1
    mus = [float(r[0]) for r in rows]
    assert mus[0] == pytest.approx(-1.45) and mus[-1] == pytest.approx(2.55)
    assert mus == sorted(mus)
    assert all(float(r[6]) <= 1e-6 for r in rows)


def test_scan_mu_repeat_runs_byte_identical(tmp_path):
    args1, out1 = scan_args(tmp_path, "a.csv")
    args2, out2 = scan_args(tmp_path, "b.csv")
    assert main(args1) == EXIT_OK
    assert main(args2) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_scan_mu_curve_file(curve_file, tmp_path):
    args, out = scan_args(
        tmp_path, "curve.csv", ["--curve", curve_file, "--mu-min", "2.0",
                                "--mu-max", "2.6", "--mu-step", "0.2", "--tol", "1e-6"]
    )
    assert main(args) == EXIT_OK
    assert len(out.read_text().splitlines()) == 1 + 4


def per_row_csv(argv):
    """scan-mu's CSV as a loop of one-order calls per row writes it: the
    reference the grid calls must match byte for byte."""
    args = build_parser().parse_args(["scan-mu", *argv])
    s0 = complex(args.s0_re, args.s0_im)
    ctl = SeriesControl(n_terms=args.terms)
    if args.curve:
        curve = parse_curve_file(args.curve)

        def row(mu):
            return (deriv_side_total(curve, s0, mu, ctl),
                    root_side_total(curve, s0, mu, args.k))
    else:
        factor = LambdaFactor(args.sigma0, args.tau0, 1)

        def row(mu):
            return (deriv_side_factor(args.q, factor, s0, mu, ctl),
                    root_side_em(factor, args.q, s0, mu, args.k).value)

    lines = ["mu,re_deriv,im_deriv,re_root,im_root,abs_diff,rel_diff"]
    for mu in _mu_grid(args.mu_min, args.mu_max, args.mu_step):
        d, r = row(mu)
        abs_diff = abs(d - r)
        values = (mu, d.real, d.imag, r.real, r.imag, abs_diff, abs_diff / (1.0 + abs(d)))
        lines.append(",".join(f"{v:.17g}" for v in values))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("extra", [[], ["--k", "1000"], ["curve"], ["curve", "--k", "10"],
                                   ["--mu-min", "-3", "--mu-max", "0.5", "--mu-step", "0.5"]])
def test_scan_mu_csv_matches_one_order_per_row(extra, curve_file, tmp_path):
    extra = [x for e in extra for x in (["--curve", curve_file] if e == "curve" else [e])]
    args, out = scan_args(tmp_path, "grid.csv", extra)
    assert main(args) == EXIT_OK
    assert out.read_bytes() == per_row_csv(extra).encode()


def test_scan_mu_error_exits(tmp_path, capsys):
    # grid hits the singular order mu = 1, or an order within 1e-9 of it,
    # which the root side rejects
    for lo, hi in (("0.5", "1.5"), ("1.0000000000005", "1.0000000000005")):
        args, out = scan_args(tmp_path, "x.csv", ["--mu-min", lo, "--mu-max", hi,
                                                  "--mu-step", "0.25"])
        assert main(args) == EXIT_INVALID
        assert "mu = 1" in capsys.readouterr().err
        assert not out.exists()
    # empty grid
    args, _ = scan_args(tmp_path, "y.csv", ["--mu-min", "2.0", "--mu-max", "1.0"])
    assert main(args) == EXIT_INVALID
    assert capsys.readouterr().err == "invalid input: empty mu grid: 2.0 > 1.0\n"
    # nonpositive step
    args, _ = scan_args(tmp_path, "z.csv", ["--mu-step", "0"])
    assert main(args) == EXIT_INVALID
    # steps so small that the grid would overflow, or exhaust memory
    for step in ("5e-324", "1e-300", "3.9e-6"):
        args, _ = scan_args(tmp_path, "t.csv", ["--mu-step", step])
        assert main(args) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("invalid input:")
    # an order so large that the tail bound overflows a double
    args, _ = scan_args(tmp_path, "v.csv", ["--mu-min", "300", "--mu-max", "300"])
    assert main(args) == EXIT_INVALID
    # an explicit k whose window misses the rung nearest s0
    args, _ = scan_args(tmp_path, "u.csv", ["--q", "3", "--s0-im", "30", "--k", "4"])
    assert main(args) == EXIT_INVALID
    assert "misses the rung" in capsys.readouterr().err
    # and the default k, when no candidate's window reaches it: C*1000 < 2000
    args, out = scan_args(tmp_path, "w.csv", ["--s0-im", "2000"])
    assert main(args) == EXIT_INVALID
    assert "misses the rung" in capsys.readouterr().err
    assert not out.exists()
    # unreachable tolerance
    args, _ = scan_args(tmp_path, "w.csv", ["--mu-min", "2.0", "--mu-max", "2.2",
                                            "--mu-step", "0.1", "--tol", "1e-20"])
    assert main(args) == EXIT_TOL


@pytest.mark.parametrize(
    "argv",
    [
        ["scan-mu", "--mu-min", "nan"],
        ["scan-mu", "--mu-max", "inf"],
        ["scan-mu", "--mu-step", "nan"],
        ["scan-mu", "--s0-re", "nan"],
        ["lemma", "--symbol", "k", "--t-max-periods", "nan"],
        ["scan-mu", "--tau0", "nan"],
        ["critical-line", "--random", "--s0-re", "nan"],
        ["critical-line", "--random", "--offline", "nan"],
    ],
)
def test_non_finite_input_exits_invalid(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    if argv[0] == "scan-mu":
        argv = [*argv, "--out", str(out)]
    assert main(argv) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("invalid input: ")
    assert not out.exists()


def test_lemma_invalid_n_exits_before_any_path_work(monkeypatch):
    def no_path_work(*args, **kwargs):
        raise AssertionError("verify_lemma must not run for an invalid n")

    monkeypatch.setattr(cesaro, "verify_lemma", no_path_work)
    for n in ("0", "-1"):
        assert main(["lemma", "--symbol", "alpha_n", "--n", n]) == EXIT_INVALID


def test_lemma_out_of_memory_exits_invalid(monkeypatch, capsys):
    # a path too long for memory ended in a MemoryError traceback
    def too_long(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cesaro, "verify_lemma", too_long)
    assert main(["lemma", "--symbol", "k"]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err == "invalid input: out of memory\n"


_MU_BOUND = st.one_of(
    st.floats(-6.0, 6.0), st.sampled_from([math.nan, math.inf, -math.inf])
)


@given(
    k=st.one_of(st.none(), st.integers(-3, 0), st.integers(1, 3000)),
    mu_min=_MU_BOUND,
    span=st.floats(0.0, 3.0),
    mu_max=st.one_of(st.none(), _MU_BOUND),
    mu_step=st.sampled_from(["0.25", "0.5", "1.0", "nan", "0"]),
    io_fault=st.sampled_from([None, "curve", "out"]),
    q=st.one_of(st.sampled_from([25, 2, 4, 49]), st.integers(-5, 64)),
    s0_re=st.one_of(st.just(5.1238), st.floats(-2000.0, 10.0)),
    # no more than 200 terms, or too many to accept: no example asks for a
    # large array
    terms=st.one_of(st.integers(1, 200), st.integers(2**53, 10**20)),
)
@settings(max_examples=40, deadline=None)
def test_scan_mu_exit_code_contract(k, mu_min, span, mu_max, mu_step, io_fault, q, s0_re,
                                    terms):
    # scan-mu exits 0, 1 or 2 and never escapes with a traceback, whatever
    # the field, s0, the truncations, the mu bounds, and whether its files
    # can be opened
    if mu_max is None:
        mu_max = mu_min + span
    missing = os.path.join(os.devnull, "missing")  # no file can be below a device
    # "--opt=value", so that argparse reads "-inf" and "-1e-05" as values
    argv = ["scan-mu", f"--mu-min={mu_min!r}", f"--mu-max={mu_max!r}",
            f"--mu-step={mu_step}", f"--out={missing if io_fault == 'out' else os.devnull}",
            f"--q={q}", f"--s0-re={s0_re!r}", f"--terms={terms}"]
    if io_fault == "curve":
        argv.append(f"--curve={missing}")
    if k is not None:
        argv.append(f"--k={k}")
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (EXIT_OK, EXIT_TOL, EXIT_INVALID)
    if io_fault is not None:
        assert code == EXIT_INVALID and err.getvalue().startswith("invalid input: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["scan-mu", "--curve", "{missing}"],
        ["scan-mu", "--out", "{missing}"],
        ["check-curve", "--curve", "{missing}"],
        ["lemma", "--q", "6"],
        ["lemma", "--sigma0", "nan"],
        ["critical-line", "--random", "--q", "6"],
        ["critical-line", "--random", "--q", "1"],
        ["scan-mu", "--terms", "0"],
        ["scan-mu", "--terms", "-3"],
        ["scan-mu", "--q", "0"],
        ["scan-mu", "--s0-re=-1000"],
        ["scan-mu", "--s0-im", "1e308"],
        ["scan-mu", "--terms", "100000000000000000000"],
        ["lemma", "--symbol", "k", "--s0-re", "1e300"],
        ["check-curve", "--curve", "{not_utf8}"],
        ["scan-mu", "--curve", "{not_utf8}"],
    ],
)
def test_every_failure_is_reported_by_main(argv, tmp_path, capsys):
    # scan-mu's missing --curve and --out escaped as FileNotFoundError,
    # check-curve printed "invalid curve: ", and the rest printed "error: "
    # from outside the per-command handlers; q <= 0, an Re(s0) whose q^(-s0)
    # overflows, 10^20 terms, a lemma closed form that overflows and a curve
    # file that is not UTF-8 ended in tracebacks
    missing = str(tmp_path / "no" / "such.txt")
    not_utf8 = tmp_path / "not_utf8.txt"
    not_utf8.write_bytes(b"\xff\xfe\x00q")
    argv = [arg.format(missing=missing, not_utf8=not_utf8) for arg in argv]
    assert main(argv) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and err.count("\n") == 1
    assert not os.path.exists(missing)


@pytest.mark.parametrize("argv", [["scan-mu"], ["lemma"], ["critical-line", "--random"]])
@pytest.mark.parametrize("tol", ["nan", "-1e-06"])
def test_a_nan_or_negative_tol_is_a_usage_error(argv, tol, tmp_path, capsys):
    # scan-mu --tol nan exited 0 whatever the rows, as worst > nan is False
    out = tmp_path / "out.csv"
    if argv[0] == "scan-mu":
        argv = [*argv, "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--tol={tol}"])
    assert exc.value.code == EXIT_INVALID
    assert f"argument --tol: invalid tolerance value: '{tol}'" in capsys.readouterr().err
    assert not out.exists()


def test_kappas_that_are_not_numbers_are_a_usage_error(capsys):
    # "0.3,abc" escaped as a ValueError from float()
    with pytest.raises(SystemExit) as exc:
        main(["critical-line", "--kappas", "0.3,abc"])
    assert exc.value.code == EXIT_INVALID
    assert "argument --kappas: invalid float_list value: '0.3,abc'" in capsys.readouterr().err


def test_closed_stdout_pipe_exits_invalid_without_a_traceback():
    # the read end is closed before the child starts, so its first write to
    # stdout, or the flush main makes, meets a closed pipe every time
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "zetaff", "scan-mu"], stdout=write_end,
                              stderr=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": SRC})
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_INVALID
    assert proc.stderr == "invalid input: [Errno 32] Broken pipe\n"


def test_closed_stdout_pipe_in_process(monkeypatch, capsys):
    # the same branch in this process, on a real pipe whose read end is
    # closed: main points the pipe's descriptor at /dev/null, so closing the
    # stream after it does not meet the pipe again
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(["scan-mu"]) == EXIT_INVALID
        monkeypatch.undo()
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
    assert capsys.readouterr().err == "invalid input: [Errno 32] Broken pipe\n"


def test_lemma_single_symbol(capsys):
    rc = main(["lemma", "--symbol", "alpha_n", "--t-max-periods", "200"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "alpha_n" in out and "2/2 within tol" in out


def test_lemma_verdict_is_relative_to_the_closed_form(capsys):
    # at tau0 = 1e6 the k3 closed forms are about 1.3e17, and the numeric
    # values a few hundred off them: 2e-15 relative, but far outside 5e-3
    argv = ["lemma", "--symbol", "k3", "--tau0", "1e6", "--t-max-periods", "1000"]
    assert main(argv) == EXIT_OK
    assert "2/2 within tol 0.005" in capsys.readouterr().out
    assert main([*argv, "--tol", "0"]) == EXIT_TOL


def test_lemma_short_path_fails_tolerance(capsys):
    rc = main(["lemma", "--symbol", "k", "--t-max-periods", "10"])
    assert rc == EXIT_TOL
    assert "no classical limit" in capsys.readouterr().err


def test_critical_line_explicit_kappas(capsys):
    kappas = f"0.3,{C25 - 0.3}"
    rc = main(["critical-line", "--g", "1", "--kappas", kappas])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "r(s0, +0) = 0j" in out
    assert "X_eps: 0j" in out
    blocks = "  ncheck_block: 0j\n  s_block: 0j\n"
    assert out == (
        "r(s0, +0) = 0j\n" + blocks
        + "r(s0, -1) = 0j\n" + blocks
        + "r(s0, -2) = 0j\n" + blocks + "  X_eps: 0j\n"
    )


def test_critical_line_random_and_offline(capsys):
    rc = main(["critical-line", "--g", "3", "--random", "--seed", "7",
               "--offline", "0.6"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "off-line family at sigma0 = 0.6" in out
    assert "does not imply the Riemann hypothesis" in out


def test_critical_line_invalid_inputs(capsys):
    assert main(["critical-line", "--g", "1", "--kappas", "0.3,0.4"]) == EXIT_INVALID
    assert main(["critical-line", "--g", "1", "--kappas", "0.3"]) == EXIT_INVALID
    capsys.readouterr()
    # an off-line root family must lie in the critical strip 0 <= sigma0 <= 1
    for offline in ("5", "-0.1"):
        assert main(["critical-line", "--random", "--offline", offline]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("invalid input: ")


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["--g", "2", "--kappas", "0.3", "--random"], "not allowed with argument"),
        (["--g", "1"], "one of the arguments --kappas --random is required"),
    ],
    ids=["both", "neither"],
)
def test_critical_line_takes_kappas_or_random(argv, message, capsys):
    # --random silently dropped --kappas, so a kappa list that cannot serve
    # genus 2 went unreported; giving neither raised a ZetaffError
    with pytest.raises(SystemExit) as exc:
        main(["critical-line", *argv])
    assert exc.value.code == EXIT_INVALID
    assert message in capsys.readouterr().err


def test_console_entry_point(curve_file):
    proc = subprocess.run(
        [sys.executable, "-m", "zetaff", "check-curve", "--curve", curve_file],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0
    assert "valid curve" in proc.stdout


def test_shared_argument_rules_live_in_errors_py():
    """The argument rules, the finiteness rule and the rule for computed
    values are defined in errors.py alone.  No other module tests
    isinstance(..., bool), it calls _is_int instead; none calls _is_finite,
    a real argument's range is checked by _require_range; and none calls an
    isfinite, of math, cmath or NumPy: a computed value and the samples
    are checked by _finite or _computed."""
    pkg = os.path.join(SRC, "zetaff")
    rules = {"_is_finite", "_require_finite", "_point", "_require_range", "_is_int",
             "_require_int", "_is_tol", "_require_tol", "_floats", "_reals", "_orders",
             "_finite", "_finite_rows", "_computed"}
    found = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py") or name == "errors.py":
            continue
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in rules:
                found.append(f"{name}: defines {node.name}")
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and len(node.args) == 2
                    and any(getattr(n, "id", None) == "bool" for n in ast.walk(node.args[1]))):
                found.append(f"{name}:{node.lineno}: isinstance(..., bool)")
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_is_finite":
                found.append(f"{name}:{node.lineno}: calls _is_finite")
            # math.isfinite, np.isfinite, or isfinite imported by name
            if "isfinite" in (getattr(node, key, None) for key in ("attr", "id", "name")):
                found.append(f"{name}: names isfinite")
    assert found == []


def test_import_loads_only_numpy_and_the_standard_library():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import zetaff, zetaff.cli\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['numpy', 'zetaff']\n"
