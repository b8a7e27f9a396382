import hashlib
import json
import math

import numpy as np
import pytest

from helios import bounds, cli
from helios.bounds import EnvelopeTable
from helios.cli import main
from helios.io import dump_spectrum, load_spectrum
from helios.lab import DecayProfile, make_real_perturbation

SWEEP_CONFIG = {
    "R": 1.0,
    "delta": 1e-3,
    "k_list": [2.0, 4.0],
    "seeds": 3,
    "seed": 0,
    "kind": "soft",
    "profile": {"kind": "exponential", "rate": 1.0, "max_degree": 6, "seed": 7},
}


def write_spectrum_file(path, k=4.0, R=1.0, max_degree=4):
    d = make_real_perturbation(DecayProfile("exponential", 0.8, max_degree, seed=3))
    dump_spectrum(str(path), k, R, d.spectrum)
    return d


def test_hankel_value(capsys):
    assert main(["hankel", "1", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "magnitude=" in out
    magnitude = float(out.strip().split("magnitude=")[1])
    assert magnitude == pytest.approx(0.446031029038193, rel=1e-12)


def test_hankel_derivative(capsys):
    assert main(["hankel", "0", "2.0", "--deriv"]) == 0
    magnitude = float(capsys.readouterr().out.strip().split("magnitude=")[1])
    expected = math.sqrt(2.0 / math.pi) * math.sqrt(5.0) / 4.0
    assert magnitude == pytest.approx(expected, rel=1e-12)


def test_hankel_derivative_at_a_huge_argument(capsys):
    # |H_0'(t)| = sqrt(2/pi)/t * sqrt(1 + 1/t^2), though 1/t^2 underflows out here
    assert main(["hankel", "0", "1e200", "--deriv"]) == 0
    magnitude = float(capsys.readouterr().out.strip().split("magnitude=")[1])
    expected = math.sqrt(2.0 / math.pi) / 1e200
    assert abs(magnitude - expected) <= 1e-14 * expected


def test_hankel_domain_error(capsys):
    assert main(["hankel", "1", "0.0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bounds_check_pass(capsys):
    assert main(["bounds-check", "--nmax", "10", "--points", "40"]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_bounds_check_bad_grid():
    assert main(["bounds-check", "--tmin", "0", "--points", "5"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["hankel", "2", "inf"], "t must be finite"),
    (["hankel", "2", "nan"], "t must be finite"),
    (["hankel", "0", "1e-200"], "not representable"),
    (["bounds-check", "--tmax", "inf"], "tmax must be finite"),
    (["bounds-check", "--tmin", "nan", "--points", "5"], "tmin must be finite"),
    (["bounds-check", "--nmax", "-1"], "order must be nonnegative"),
    (["bounds-check", "--nmax", "61", "--points", "5"], "exceeds supported maximum"),
    (["bounds-check", "--tmin", "1e15", "--tmax", "1e16", "--nmax", "3"], "certified for t <= 1e+11"),
])
def test_non_finite_or_out_of_range_input_exits_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


# bounds-check text, frozen from the five-scan implementation it replaced
BOUNDS_CHECK_GRID_TEXT = (
    "low: 29 points checked, 0 violations\n"
    "global: 117 points checked, 0 violations\n"
    "low_deriv: 29 points checked, 0 violations\n"
    "global_deriv: 117 points checked, 0 violations\n"
    "total: 292 applicable points, 0 violations\n"
)

BOUNDS_CHECK_SYNTHETIC_TEXT = """\
low: 12 points checked, 8 violations
global: 12 points checked, 12 violations
low_deriv: 12 points checked, 8 violations
global_deriv: 12 points checked, 8 violations
total: 48 applicable points, 36 violations
  VIOLATION global n=1 t=0.5 |H|=1.3333333333333333 bound=2.1428571428571428
  VIOLATION low_deriv n=2 t=0.75 |H|=1.6666666666666665 bound=2.2857142857142856
  VIOLATION low n=4 t=1.25 |H|=2.333333333333333 bound=2.5714285714285712
  VIOLATION global_deriv n=0 t=2 |H|=3.3333333333333335 bound=3
  VIOLATION low n=1 t=2.25 |H|=3.6666666666666665 bound=3.1428571428571428
  VIOLATION global n=2 t=2.5 |H|=4 bound=3.2857142857142856
  VIOLATION global_deriv n=4 t=3 |H|=4.6666666666666661 bound=3.5714285714285712
  VIOLATION global n=6 t=3.5 |H|=5.333333333333333 bound=3.8571428571428572
  VIOLATION low_deriv n=0 t=3.75 |H|=5.666666666666667 bound=4
  VIOLATION low n=2 t=4.25 |H|=6.333333333333333 bound=4.2857142857142856
  VIOLATION global n=3 t=4.5 |H|=6.666666666666667 bound=4.4285714285714288
  VIOLATION global_deriv n=5 t=5 |H|=7.333333333333333 bound=4.7142857142857144
  VIOLATION global n=0 t=5.5 |H|=8 bound=5
  VIOLATION low_deriv n=1 t=5.75 |H|=8.3333333333333321 bound=5.1428571428571423
  VIOLATION global_deriv n=2 t=6 |H|=8.6666666666666679 bound=5.2857142857142856
  VIOLATION low_deriv n=5 t=6.75 |H|=9.6666666666666661 bound=5.7142857142857144
  VIOLATION low n=0 t=7.25 |H|=10.333333333333334 bound=6
  VIOLATION global n=1 t=7.5 |H|=10.666666666666666 bound=6.1428571428571432
  VIOLATION global_deriv n=3 t=8 |H|=11.333333333333334 bound=6.4285714285714288
  VIOLATION low n=4 t=8.25 |H|=11.666666666666666 bound=6.5714285714285712
"""


def test_bounds_check_text_on_fixed_grid(capsys):
    argv = ["bounds-check", "--nmax", "12", "--tmin", "0.3", "--tmax", "50", "--points", "9"]
    assert main(argv) == 0
    assert capsys.readouterr().out == BOUNDS_CHECK_GRID_TEXT


def test_bounds_check_text_with_violations(monkeypatch, capsys):
    # 36 violations among 48 applicable reports; only the first 20 print
    i = np.arange(60)
    table = EnvelopeTable(
        kind=i % 4,
        n=i % 7,
        t=0.25 * (i + 1),
        value_magnitude=1.0 + i / 3,
        bound=2.0 + i / 7,
        applicable=i % 5 != 0,
        satisfied=(i % 3 == 0) & (i % 4 != 1),
    )
    monkeypatch.setattr(bounds, "sweep", lambda **kwargs: table)
    assert main(["bounds-check"]) == 1
    assert capsys.readouterr().out == BOUNDS_CHECK_SYNTHETIC_TEXT


def test_reconstruct(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    write_spectrum_file(spec_path)
    out_path = tmp_path / "trace.json"
    assert main(["reconstruct", str(spec_path), "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "u_0=" in out and "du_1=" in out
    doc = json.loads(out_path.read_text())
    assert doc["N"] == 2
    assert len(doc["degrees"]) == 5


def test_reconstruct_writes_strict_json_when_eps2_is_zero(tmp_path):
    # all energy at degrees <= N: eps2 = 0 and E = +inf, which JSON cannot hold
    path = write_json(tmp_path / "a.json",
                      '{"k": 4, "R": 1, "coefficients": [{"n": 0, "m": 0, "re": 1, "im": 0}]}')
    out_path = tmp_path / "trace.json"
    assert main(["reconstruct", path, "--out", str(out_path)]) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads(out_path.read_text(), parse_constant=reject)
    assert doc["eps2"] == 0.0 and doc["E"] is None


def test_reconstruct_missing_file():
    assert main(["reconstruct", "/nonexistent/spec.json"]) == 2


def test_stability_verify(capsys):
    assert main([
        "stability-verify", "--ensemble-size", "25", "--seed", "1", "--which", "T2",
    ]) == 0
    out = capsys.readouterr().out
    assert "failures=0" in out


def test_stability_verify_output_is_pinned(capsys):
    assert main([
        "stability-verify", "--ensemble-size", "200", "--seed", "0", "--which", "T2",
    ]) == 0
    assert capsys.readouterr().out == (
        "which=T2 ensemble=200 failures=0 min_slack=0.011648468197133433\n")


@pytest.mark.parametrize("which", ["T1", "T2"])
def test_stability_verify_at_a_wavenumber_whose_square_overflows(which, capsys):
    assert main(["stability-verify", "--ensemble-size", "5", "--which", which,
                 "--kR-range", "1e160", "1e160"]) == 0
    assert "failures=0" in capsys.readouterr().out


def test_stability_verify_bad_range():
    assert main([
        "stability-verify", "--ensemble-size", "5", "--kR-range", "1", "10",
    ]) == 2


@pytest.mark.parametrize("option, value, message", [
    ("--seed", "-1", "seed must be nonnegative, got -1"),
    ("--ensemble-size", "0", "ensemble size must be at least 1, got 0"),
])
def test_stability_verify_bad_seed_or_size_exits_2(option, value, message, capsys):
    # a usage error, not a failed check (exit 1), and no traceback
    assert main(["stability-verify", option, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_obstacle_round_trip(tmp_path, capsys):
    spec_path = tmp_path / "d.json"
    d = write_spectrum_file(spec_path, max_degree=5)
    fwd_path = tmp_path / "amplitude.json"
    assert main([
        "obstacle", "forward", str(spec_path), "--kind", "hard", "--out", str(fwd_path),
    ]) == 0
    inv_path = tmp_path / "recovered.json"
    assert main([
        "obstacle", "invert", str(fwd_path), "--kind", "hard",
        "--ncut", "5", "--out", str(inv_path),
    ]) == 0
    _, _, recovered = load_spectrum(str(inv_path))
    worst = max(abs(recovered[key] - v) for key, v in d.spectrum.items())
    assert worst <= 1e-12


def test_obstacle_invert_rejects_a_negative_cutoff_without_output(tmp_path, capsys):
    spec_path = tmp_path / "a.json"
    write_spectrum_file(spec_path, max_degree=4)
    out = tmp_path / "d.json"
    assert main(["obstacle", "invert", str(spec_path), "--kind", "soft",
                 "--ncut", "-5", "--out", str(out)]) == 2
    assert "cutoff n_cut must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_command(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SWEEP_CONFIG))
    csv_path = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("k,N,eps1")
    assert len(lines) == 1 + 2 * 3


def test_sweep_deterministic_bytes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SWEEP_CONFIG))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sweep_malformed_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"k_list": [4.0]}')
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def write_json(path, text):
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("argv_tail, text, message", [
    # an infinite radius reaches neither the stability cutoff nor the gains
    (["obstacle", "invert", "{}", "--kind", "soft", "--out", "{out}"],
     '{"k": 4, "R": Infinity, "coefficients": [{"n": 0, "m": 0, "re": 1.0, "im": 0.0}]}',
     "R must be finite"),
    (["obstacle", "invert", "{}", "--kind", "hard", "--out", "{out}"],
     '{"k": NaN, "R": 1, "coefficients": []}', "k must be finite"),
    (["reconstruct", "{}"],
     '{"k": 4, "R": 1, "coefficients": [{"n": 1, "m": 0, "re": NaN, "im": 0.0}]}',
     "must be finite"),
    (["obstacle", "forward", "{}", "--kind", "soft", "--out", "{out}"],
     '{"k": 4, "R": 1, "coefficients": [{"n": 1, "m": 1, "re": 0.5, "im": -Infinity}]}',
     "must be finite"),
    (["reconstruct", "{}"],
     '{"k": 4, "R": 1, "coefficients": [[0, 0, 1.0, 0.0]]}', "malformed spectrum file"),
    (["reconstruct", "{}"],
     '{"k": 4, "R": 1, "coefficients": [{"n": 0, "m": 0, "re": "x", "im": 0.0}]}',
     "malformed spectrum file"),
    (["reconstruct", "{}"], '[4, 1]', "malformed spectrum file"),
    # k and R are finite, kR is not
    (["obstacle", "invert", "{}", "--kind", "soft", "--out", "{out}"],
     '{"k": 1e308, "R": 2, "coefficients": []}', "kR exceeds the floating range"),
    # the radial derivative k^2 a_n H_n'(kR) is about 6e300; its squared norm overflows
    (["reconstruct", "{}"],
     '{"k": 1e300, "R": 0.9, "coefficients": [{"n": 1, "m": 0, "re": 1.0, "im": 7.0}]}',
     "Sobolev norm exceeds the floating range"),
])
def test_bad_spectrum_file_exits_2(argv_tail, text, message, tmp_path, capsys):
    path = write_json(tmp_path / "spec.json", text)
    argv = [a.format(path, out=tmp_path / "out.json") for a in argv_tail]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


@pytest.mark.parametrize("missing", ["n", "m", "re", "im"])
def test_spectrum_record_missing_field_exits_2(missing, tmp_path, capsys):
    record = {"n": 1, "m": -1, "re": 0.5, "im": 0.25}
    del record[missing]
    doc = {"k": 4.0, "R": 1.0, "coefficients": [record]}
    path = write_json(tmp_path / "spec.json", json.dumps(doc))
    assert main(["obstacle", "invert", path, "--kind", "soft",
                 "--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert "malformed spectrum file" in err and repr(missing) in err


def test_stability_verify_infinite_range_exits_2(capsys):
    assert main(["stability-verify", "--ensemble-size", "3", "--kR-range", "2", "inf"]) == 2
    assert "kr_hi must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"delta": 1e300},
    # every coefficient is finite, but the hard-kind Lipschitz term overflows
    {"delta": 1e154, "k_list": [700.0], "seeds": 1, "kind": "hard"},
    # e^(2/R) in the Hoelder terms overflows for R below about 0.003
    {"R": 0.002, "k_list": [2000.0], "seeds": 1, "kind": "hard"},
    # the draw rescaled to a magnitude near the float maximum overflows
    {"profile": {**SWEEP_CONFIG["profile"], "max_degree": 0, "amplitude": 1e308},
     "k_list": [2.0], "delta": 0.0},
    # the forward map overflows a finite perturbation
    {"profile": {**SWEEP_CONFIG["profile"], "max_degree": 0, "seed": 3, "amplitude": 1e308},
     "k_list": [2.0], "delta": 0.0},
    # the soft gain overflows at a finite kR near the float maximum
    {"R": 1.65478028276691, "k_list": [1e308], "seeds": 1},
])
def test_sweep_beyond_floating_range_exits_2(overrides, tmp_path, capsys):
    path = write_json(tmp_path / "cfg.json", json.dumps({**SWEEP_CONFIG, **overrides}))
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
    assert "exceeds the floating range" in capsys.readouterr().err


@pytest.mark.parametrize("delta", [math.nan, math.inf])
def test_sweep_non_finite_noise_exits_2(delta, tmp_path, capsys):
    path = write_json(tmp_path / "cfg.json", json.dumps({**SWEEP_CONFIG, "delta": delta}))
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
    assert "delta must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, message", [
    ({"profile": {**SWEEP_CONFIG["profile"], "seed": ""}}, "malformed sweep config"),
    ({"seeds": math.nan}, "malformed sweep config"),
    ({"kind": {}}, "unknown obstacle kind"),
    ({"profile": {**SWEEP_CONFIG["profile"], "seed": -1}}, "seed must be nonnegative"),
    ({"seed": -1}, "seed must be nonnegative"),
    ({"seeds": 2.9}, "seeds must be a JSON integer, got 2.9"),
    ({"seeds": 2.0}, "seeds must be a JSON integer, got 2.0"),
    ({"seeds": "2"}, "seeds must be a JSON integer, got '2'"),
    ({"seed": True}, "seed must be a JSON integer, got True"),
    ({"profile": {**SWEEP_CONFIG["profile"], "max_degree": 4.7}},
     "profile.max_degree must be a JSON integer, got 4.7"),
    ({"profile": {**SWEEP_CONFIG["profile"], "seed": 7.5}},
     "profile.seed must be a JSON integer, got 7.5"),
    ({"profile": {**SWEEP_CONFIG["profile"], "rate": "1"}},
     "profile.rate must be a JSON number, got '1'"),
    ({"profile": {**SWEEP_CONFIG["profile"], "amplitude": True}},
     "profile.amplitude must be a JSON number, got True"),
    ({"k_list": [2.0, "4"]}, "k_list must be a JSON number, got '4'"),
    ({"k_list": 4.0}, "k_list must be a JSON array, got 4.0"),
    ({"R": None}, "R must be a JSON number, got None"),
    ({"delta": False}, "delta must be a JSON number, got False"),
])
def test_sweep_bad_config_value_exits_2(overrides, message, tmp_path, capsys):
    path = write_json(tmp_path / "cfg.json", json.dumps({**SWEEP_CONFIG, **overrides}))
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
    assert message in capsys.readouterr().err


def test_sweep_config_with_non_integer_counts_writes_nothing(tmp_path, capsys):
    # each of these once truncated to an integer, and the sweep wrote 4 rows
    config = {**SWEEP_CONFIG, "seeds": 2.9, "seed": True,
              "profile": {**SWEEP_CONFIG["profile"], "max_degree": 4.7, "seed": 7.5}}
    path = write_json(tmp_path / "cfg.json", json.dumps(config))
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 2
    assert "malformed sweep config" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_config_takes_integers_where_numbers_go(tmp_path):
    # JSON integers are numbers: the same rows as the float spelling
    config = {**SWEEP_CONFIG, "k_list": [2, 4], "R": 1, "delta": 0,
              "profile": {**SWEEP_CONFIG["profile"], "rate": 1, "amplitude": 2}}
    outs = []
    for i, cfg in enumerate([config, {**config, "k_list": [2.0, 4.0], "R": 1.0, "delta": 0.0,
                                      "profile": {**config["profile"], "rate": 1.0,
                                                  "amplitude": 2.0}}]):
        path = write_json(tmp_path / f"cfg{i}.json", json.dumps(cfg))
        outs.append(tmp_path / f"out{i}.csv")
        assert main(["sweep", "--config", path, "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


# The canonical sweep (the README config). Its bytes change only with a
# change that says why in CHANGES.md; the digests depend on numpy's
# floating-point kernels, so a new numpy build may move them too.
CANONICAL_SWEEP = {
    "R": 1.0,
    "delta": 1e-3,
    "k_list": [2, 4, 8, 16, 32, 64],
    "seeds": 20,
    "seed": 0,
    "kind": "soft",
    "profile": {"kind": "exponential", "rate": 1.0, "max_degree": 10, "seed": 7},
}
CANONICAL_SWEEP_SHA256 = {
    "soft": "8cf1b9e819a6fa9fd198a788f1b8184b6a0009f37125ce9a4b9cf0f6f131c82b",
    "hard": "2d5d70e7fcf29a6f09c8202eb4666d1502b6a7232471512bddb9cfff72bf563b",
}


@pytest.mark.parametrize("kind", ["soft", "hard"])
def test_canonical_sweep_digest(kind, tmp_path):
    path = write_json(tmp_path / "cfg.json", json.dumps({**CANONICAL_SWEEP, "kind": kind}))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CANONICAL_SWEEP_SHA256[kind]


def test_obstacle_energy_overflow_exits_2_without_output(tmp_path, capsys):
    # each coefficient is finite, their energy is not
    path = write_json(tmp_path / "d.json",
                      '{"k": 4, "R": 1, "coefficients": [{"n": 2, "m": 0, "re": 1e200, "im": 0}]}')
    out = tmp_path / "a.json"
    assert main(["obstacle", "forward", path, "--kind", "soft", "--out", str(out)]) == 2
    assert "exceeds the floating range" in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_norm_overflow_exits_2(tmp_path, capsys):
    # the coefficient and its energy are finite, the squared trace is not
    path = write_json(tmp_path / "d.json",
                      '{"k": 4, "R": 1, "coefficients": [{"n": 0, "m": 0, "re": 1e154, "im": 0}]}')
    assert main(["reconstruct", path]) == 2
    captured = capsys.readouterr()
    assert "inf" not in captured.out
    assert "exceeds the floating range" in captured.err


def test_parser_is_built_once(monkeypatch, capsys):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    try:
        assert main(["hankel", "1", "2.0"]) == 0
        assert main(["bounds-check", "--nmax", "3", "--points", "4"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


def test_dispatch_reads_the_command_table_at_call_time(monkeypatch, capsys):
    main(["hankel", "1", "2.0"])  # the parser exists before the table changes
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "hankel", lambda args: seen.append(args.n) or 0)
    assert main(["hankel", "3", "2.0"]) == 0
    assert seen == [3]


def test_consecutive_calls_share_no_state(tmp_path, capsys):
    # a first call, on a fresh parser, without --ncut (the default cutoff
    # is 2 here); then with --ncut 5; then without again: the third writes
    # the bytes of the first
    spec_path = tmp_path / "d.json"
    write_spectrum_file(spec_path, max_degree=6)
    amplitude = tmp_path / "a.json"
    assert main(["obstacle", "forward", str(spec_path), "--kind", "soft",
                 "--out", str(amplitude)]) == 0
    outs = [tmp_path / f"r{i}.json" for i in range(3)]
    cli._parser.cache_clear()
    for out, ncut in zip(outs, ([], ["--ncut", "5"], [])):
        assert main(["obstacle", "invert", str(amplitude), "--kind", "soft", *ncut,
                     "--out", str(out)]) == 0
    first, cut, again = (out.read_bytes() for out in outs)
    assert again == first != cut
