"""Command-line interface: parsing, exit codes, and fast suites."""

import json

import pytest

import ebiortho.biortho
import ebiortho.cli
import ebiortho.limits
import ebiortho.qkernel

from ebiortho.cli import main, parse_rational


def test_parse_rational_exact():
    from fractions import Fraction

    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("+7/4") == Fraction(7, 4)
    for bad in ("0.5", "1e-3", "a/b", "1/2/3", ""):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_run_settings_are_validated(capsys):
    for bad in (["--tol", "0.5"], ["--tol", "0"], ["--quad", "7"], ["--quad", "6"]):
        assert main(["verify", "measures", *bad]) == 2
    assert main(["verify", "measures", "--tol", "1e-2"]) == 0
    assert "PASS" in capsys.readouterr().out
    # the run settings belong to verify alone
    assert main(["--quad", "256", "verify", "measures"]) == 2
    vector = ["0", "0", "0", "0", "1/2", "1/2", "0"]
    assert main(["classify", *vector, "--quad", "256"]) == 2


def test_classify_known_system(capsys):
    code = main(["classify", "0", "0", "0", "0", "1/2", "1/2", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "system:  True" in out
    assert "face:    40as" in out


def test_classify_prints_reduction_word(capsys):
    code = main(["classify", "2", "-1", "0", "0", "0", "0", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "translate" in out
    assert "reduced: (1, 0, 0, 0, 0, 0; 0)" in out


CLASSIFY_GOLDEN = {
    "5/2 -1 1/3 -2/3 0 -1/6 7/4": """\
input:   (5/2, -1, 1/3, -2/3, 0, -1/6; 7/4)
word:    translate(-1, 1, 0, 0, 0, 0, 0) ; translate(-1, 0, 0, 1, 0, 0, 0) ; translate(0, 0, 0, 0, 0, 0, -2)
reduced: (1/2, 0, 1/3, 1/3, 0, -1/6; -1/4)
tile:    P_II,(5) (dim 4; tight: pair_lo-1-4)
zeta:    -1/4
z-dependent: False
system:  True
face:    0031vp
valuation rtilde n=1: 0
valuation norm   n=1: 0
""",
    "-3 2 1 1/2 1/2 0 -5/2": """\
input:   (-3, 2, 1, 1/2, 1/2, 0; -5/2)
word:    translate(1, -1, 0, 0, 0, 0, 0) ; translate(1, -1, 0, 0, 0, 0, 0) ; translate(1, 0, -1, 0, 0, 0, 0) ; translate(0, 0, 0, 0, 0, 0, 2)
reduced: (0, 0, 0, 1/2, 1/2, 0; -1/2)
tile:    P_I (dim 1; tight: nonneg-0, nonneg-1, nonneg-2, nonneg-5)
zeta:    -1/2
z-dependent: True
system:  True
face:    31vp
valuation rtilde n=1: -1/2
valuation norm   n=1: 0
""",
}


@pytest.mark.parametrize("vector", sorted(CLASSIFY_GOLDEN))
def test_classify_full_output_of_multi_step_words(capsys, vector):
    assert main(["classify", *vector.split()]) == 0
    assert capsys.readouterr().out == CLASSIFY_GOLDEN[vector]


def test_classify_rejects_floats():
    assert main(["classify", "0.5", "0", "0", "0", "0", "0", "0"]) == 2


def test_classify_rejects_unbalanced():
    assert main(["classify", "1", "1", "0", "0", "0", "0", "0"]) == 2


def test_classify_rejects_zero_denominator(capsys):
    with pytest.raises(ValueError):
        parse_rational("1/0")
    assert main(["classify", "1/0", "0", "0", "0", "0", "0", "0"]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_classify_accepts_negative_fractions(capsys):
    assert main(["classify", "0", "0", "0", "0", "1/2", "1/2", "-1/2"]) == 0
    out = capsys.readouterr().out
    assert "input:   (0, 0, 0, 0, 1/2, 1/2; -1/2)" in out
    assert main(["classify", "-1/2", "1/2", "0", "0", "1", "0", "-1/4"]) == 0
    assert "input:   (-1/2, 1/2, 0, 0, 1, 0; -1/4)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "elliptic-discrete", "--N", "-1"],
        ["verify", "elliptic-discrete", "--N", "3", "--draws", "0"],
        ["verify", "pastro", "--nmax", "-1"],
    ],
)
def test_verify_rejects_empty_or_negative_counts(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "must be at least 1" in captured.err
    assert "PASS" not in captured.out


def test_usage_errors():
    assert main(["no-such-command"]) == 2
    assert main(["verify", "no-such-kind"]) == 2
    assert main(["verify", "pastro", "--tol", "0.5"]) == 2
    assert main(["verify", "limit", "--face", "bogus"]) == 2


def test_verify_measures_passes(capsys):
    assert main(["verify", "measures"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_pastro_passes(capsys):
    assert main(["verify", "pastro", "--nmax", "3"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_pastro_builds_its_weight_once(capsys, monkeypatch):
    # one Gram matrix: one log-series grid, and p_n, q_m evaluated once
    # per node each (12 quad calls), plus the 14 of the B = q row
    calls = {"pastro_p": 0, "grid_log_series": 0}
    real_p = ebiortho.limits.pastro_p
    real_grid = ebiortho.qkernel.grid_log_series

    def counted_p(*args):
        calls["pastro_p"] += 1
        return real_p(*args)

    def counted_grid(*args):
        calls["grid_log_series"] += 1
        return real_grid(*args)

    for mod in (ebiortho.limits, ebiortho.cli):
        monkeypatch.setattr(mod, "pastro_p", counted_p)
    monkeypatch.setattr(ebiortho.qkernel, "grid_log_series", counted_grid)
    assert main(["verify", "pastro"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert calls == {"pastro_p": 12 * 512 + 14, "grid_log_series": 1}


def test_verify_limit_reads_its_table_from_the_ladder(capsys, monkeypatch):
    # the p = 1e-2, 1e-3, 1e-4 columns are ladder entries 0, 2 and 4:
    # seven evaluations per degree n = 1..4, none repeated for the table
    calls = []
    real = ebiortho.cli.limit_value

    def counted(face, n, p):
        calls.append((face, n, p))
        return real(face, n, p)

    monkeypatch.setattr(ebiortho.cli, "limit_value", counted)
    for face in ("1111pp", "40as"):
        calls.clear()
        assert main(["verify", "limit", "--face", face]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "  p=1e-02     p=1e-03     p=1e-04     extrapolated" in out
        assert len(calls) == 28
        assert len(set(calls)) == 28


def test_verify_continuous_passes(capsys):
    assert main(["verify", "elliptic-continuous"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_continuous_unity_row_is_tight(capsys):
    # the series prefactor leaves the rounding of (q;q)(p;p) in this row
    for quad in ("512", "1024"):
        assert main(["verify", "elliptic-continuous", "--quad", quad]) == 0
        row = capsys.readouterr().out.splitlines()[0]
        assert f"at {quad} nodes" in row
        assert float(row.split()[-1]) < 3e-15


def test_verify_continuous_rtilde_rows(capsys):
    # the rtilde block needs about 256 nodes; at 128 the suite fails
    # on those rows while its <1,1> rows still pass
    for quad, code in (("512", 0), ("256", 0), ("128", 1)):
        assert main(["verify", "elliptic-continuous", "--quad", quad]) == code
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[:4]] == [
            "<1,1>", "node-doubling", "biorthogonality", "diagonal"
        ]
        unity, doubling, off, diag = (float(line.split()[-1]) for line in lines[:4])
        assert max(unity, doubling) < 1e-13
        if quad == "512":
            assert max(off, diag) < 1e-13
        if quad == "128":
            assert min(off, diag) > 1e-6


def test_verify_discrete_small(capsys):
    assert main(["verify", "elliptic-discrete", "--N", "3", "--draws", "4", "--seed", "7"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_discrete_seed_58_bounds_every_degree(capsys):
    # its first biorthogonality draw bounded at degree 0 only failed the
    # 1e-9 gate on rounding alone (diagonal 1.4e-8)
    assert main(["verify", "elliptic-discrete", "--seed", "58"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_discrete_builds_the_masses_once_per_matrix(capsys, monkeypatch):
    # one discrete_measure build per <1,1> draw and one per biorthogonality
    # matrix; the draws' own condition checks (_mass_condition) build theirs too
    calls = {"masses": 0, "condition": 0}
    real_masses = ebiortho.biortho.discrete_measure
    real_condition = ebiortho.biortho._mass_condition

    def masses(*args):
        calls["masses"] += 1
        return real_masses(*args)

    def condition(*args):
        calls["condition"] += 1
        return real_condition(*args)

    monkeypatch.setattr(ebiortho.biortho, "discrete_measure", masses)
    monkeypatch.setattr(ebiortho.biortho, "_mass_condition", condition)
    assert main(["verify", "elliptic-discrete", "--N", "3", "--draws", "4"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert calls["condition"] >= 6
    assert calls["masses"] - calls["condition"] == 4 + 2


def test_verify_tol_can_force_failure(capsys):
    # an absurdly tight tolerance flips the exit code, not the report
    assert main(["verify", "elliptic-continuous", "--tol", "1e-18"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_scheme_check_appendix(capsys):
    assert main(["scheme", "--check-appendix"]) == 0
    assert "38/38" in capsys.readouterr().out


def test_scheme_json_stdout(capsys):
    assert main(["scheme", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["systems"]) == 38


def test_scheme_askey(capsys):
    assert main(["scheme", "--askey"]) == 0
    out = capsys.readouterr().out
    assert "21 rows" in out


def test_scheme_out_file(tmp_path, capsys):
    path = tmp_path / "scheme.tsv"
    assert main(["scheme", "--format", "tsv", "--out", str(path)]) == 0
    capsys.readouterr()
    assert len(path.read_text().strip().split("\n")) == 39


def test_scheme_dot_all_and_tsv_stdout(capsys):
    from ebiortho.scheme import emit_dot, emit_tsv

    assert main(["scheme", "--format", "dot", "--all"]) == 0
    assert capsys.readouterr().out == emit_dot(include_as=True)
    assert main(["scheme", "--format", "tsv"]) == 0
    assert capsys.readouterr().out == emit_tsv()


def test_quad_reaches_the_suite(capsys):
    assert main(["verify", "elliptic-continuous", "--quad", "256"]) == 0
    assert "256 nodes" in capsys.readouterr().out
