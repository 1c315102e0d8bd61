"""End-to-end tests of the command-line interface."""

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


def test_scan_mu_deterministic_across_thread_counts(tmp_path, monkeypatch):
    args1, out1 = scan_args(tmp_path, "scan1.csv")
    monkeypatch.setenv("ZETAFF_THREADS", "1")
    assert main(args1) == EXIT_OK
    args4, out4 = scan_args(tmp_path, "scan4.csv")
    monkeypatch.setenv("ZETAFF_THREADS", "4")
    assert main(args4) == EXIT_OK
    assert out1.read_bytes() == out4.read_bytes()


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
    # grid hits the singular order mu = 1
    args, _ = scan_args(tmp_path, "x.csv", ["--mu-min", "0.5", "--mu-max", "1.5",
                                            "--mu-step", "0.25"])
    assert main(args) == EXIT_INVALID
    assert "mu = 1" in capsys.readouterr().err
    # empty grid
    args, _ = scan_args(tmp_path, "y.csv", ["--mu-min", "2.0", "--mu-max", "1.0"])
    assert main(args) == EXIT_INVALID
    # nonpositive step
    args, _ = scan_args(tmp_path, "z.csv", ["--mu-step", "0"])
    assert main(args) == EXIT_INVALID
    # an order so large that the tail bound overflows a double
    args, _ = scan_args(tmp_path, "v.csv", ["--mu-min", "300", "--mu-max", "300"])
    assert main(args) == EXIT_INVALID
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
)
@settings(max_examples=40, deadline=None)
def test_scan_mu_exit_code_contract(k, mu_min, span, mu_max, mu_step, io_fault):
    # scan-mu exits 0, 1 or 2 and never escapes with a traceback, whatever
    # the truncation, the mu bounds, and whether its files can be opened
    if mu_max is None:
        mu_max = mu_min + span
    missing = os.path.join(os.devnull, "missing")  # no file can be below a device
    # "--opt=value", so that argparse reads "-inf" and "-1e-05" as values
    argv = ["scan-mu", f"--mu-min={mu_min!r}", f"--mu-max={mu_max!r}",
            f"--mu-step={mu_step}", f"--out={missing if io_fault == 'out' else os.devnull}"]
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
        ["critical-line", "--q", "6"],
        ["critical-line", "--q", "1"],
        ["scan-mu", "--terms", "0"],
        ["scan-mu", "--terms", "-3"],
    ],
)
def test_every_failure_is_reported_by_main(argv, tmp_path, capsys):
    # scan-mu's missing --curve and --out escaped as FileNotFoundError,
    # check-curve printed "invalid curve: ", and the rest printed "error: "
    # from outside the per-command handlers
    missing = str(tmp_path / "no" / "such.txt")
    assert main([arg.format(missing=missing) for arg in argv]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and err.count("\n") == 1
    assert not os.path.exists(missing)


def test_kappas_that_are_not_numbers_are_a_usage_error(capsys):
    # "0.3,abc" escaped as a ValueError from float()
    with pytest.raises(SystemExit) as exc:
        main(["critical-line", "--kappas", "0.3,abc"])
    assert exc.value.code == EXIT_INVALID
    assert "argument --kappas: invalid float_list value: '0.3,abc'" in capsys.readouterr().err


def test_closed_stdout_pipe_exits_invalid_without_a_traceback():
    # the read end is closed before the child starts, so its first write to
    # stdout, or the flush main makes, meets a closed pipe every time
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "zetaff", "scan-mu"], stdout=write_end,
                              stderr=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_INVALID
    assert proc.stderr == "invalid input: [Errno 32] Broken pipe\n"


def test_lemma_single_symbol(capsys):
    rc = main(["lemma", "--symbol", "alpha_n", "--t-max-periods", "200"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "alpha_n" in out and "2/2 within tol" in out


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
    assert main(["critical-line", "--g", "1"]) == EXIT_INVALID
    assert main(["critical-line", "--g", "1", "--kappas", "0.3"]) == EXIT_INVALID
    capsys.readouterr()
    # an off-line root family must lie in the critical strip 0 <= sigma0 <= 1
    for offline in ("5", "-0.1"):
        assert main(["critical-line", "--random", "--offline", offline]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("invalid input: ")


def test_console_entry_point(curve_file):
    proc = subprocess.run(
        [sys.executable, "-m", "zetaff", "check-curve", "--curve", curve_file],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "valid curve" in proc.stdout


def test_import_loads_only_numpy_and_the_standard_library():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import zetaff, zetaff.cli\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['numpy', 'zetaff']\n"
