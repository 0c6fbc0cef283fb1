import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from muspec import catalog
from muspec.cli import main
from muspec.params import SAMPLES_PER_UNIT, Params


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_abs2t_quadratic(capsys):
    code, out, err = _run(capsys, [
        "spectrum", "--system", "catalog:abs2t",
        "--rate", '{"kind":"power_exp","p":2,"lambda":1}',
    ])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["intervals"] == [{"lo": 1.0, "hi": 1.0}]
    assert payload["converged"] is True
    assert payload["mode"] == "exact"


def test_spectrum_continuous_quotient_below_linear_power(capsys):
    """log nu = sqrt|t| has no derivative at 0, and the quotient's logs
    need none: the spectrum under nu is the slope."""
    nu = {"kind": "power_exp", "p": 0.5, "time_domain": "continuous"}
    system = {"time_domain": "continuous", "dimension": 1, "structure": "scalar",
              "coefficients": {"rate_quotient": {"rate": nu, "slopes": [1.5]}}}
    code, out, err = _run(capsys, ["spectrum", "--system", json.dumps(system),
                                   "--rate", json.dumps(nu)])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["intervals"] == [{"lo": 1.5, "hi": 1.5}]
    assert payload["converged"] is True


def test_quotient_report_system_reads_back(capsys):
    """A rate-quotient report's system, passed back as --system, gives the
    same report byte for byte."""
    system = {"time_domain": "discrete", "dimension": 2, "structure": "diagonal",
              "coefficients": {"rate_quotient": {"rate": {"kind": "power_exp", "p": 2},
                                                 "slopes": [-1, 1]}}}
    argv = ["spectrum", "--rate", "q", "--schedule", "20,40", "--system"]
    code, out, err = _run(capsys, argv + [json.dumps(system)])
    assert code == 0, err
    echoed = json.loads(out)["system"]
    assert echoed["coefficients"]["rate_quotient"]["slopes"] == [-1.0, 1.0]
    assert _run(capsys, argv + [json.dumps(echoed)]) == (0, out, "")


def test_spectrum_identity(capsys):
    code, out, _ = _run(capsys, [
        "spectrum", "--system", "catalog:identity", "--rate", "catalog:exp"])
    assert code == 0
    payload = json.loads(out)
    assert payload["intervals"] == [{"lo": 0.0, "hi": 0.0}]


def test_spectrum_frak_a_divergence(capsys):
    code, out, _ = _run(capsys, [
        "spectrum", "--system", "catalog:frak_a", "--rate", "catalog:exp"])
    assert code == 0
    payload = json.loads(out)
    assert payload["intervals"] == [{"lo": "-inf", "hi": "-inf"}]


def test_spectrum_inconclusive_exit_code(capsys):
    # abs2t under c converges only past window 40, so this pinned schedule
    # leaves it unconverged; a pinned schedule is never extended
    code, out, _ = _run(capsys, [
        "spectrum", "--system", "catalog:abs2t", "--rate", "catalog:c",
        "--schedule", "5,10,20,40"])
    assert code == 2
    payload = json.loads(out)
    assert payload["converged"] is False
    assert payload["windows"] == [5, 10, 20, 40]


def test_spectrum_csv_traces(capsys):
    code, out, _ = _run(capsys, [
        "spectrum", "--system", "catalog:disc_q", "--rate", "catalog:q",
        "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "window,component,lambda_lower,lambda_upper"
    assert len(lines) == 1 + 4  # four windows, one component
    assert lines[1].startswith("50,0,")


def test_compare_faster(capsys):
    code, out, _ = _run(capsys, [
        "compare", "--relation", "faster", "--a", "catalog:q", "--b", "catalog:exp"])
    assert code == 0
    assert json.loads(out)["outcome"] == "holds"
    code, out, _ = _run(capsys, [
        "compare", "--relation", "faster", "--a", "catalog:exp", "--b", "catalog:q"])
    assert code == 3
    payload = json.loads(out)
    assert payload["outcome"] == "fails"
    assert payload["witness"]


def test_compare_equivalences(capsys):
    code, out, _ = _run(capsys, [
        "compare", "--relation", "weakly-equivalent", "--a", "catalog:q",
        "--b", "catalog:q"])
    assert code == 0
    assert json.loads(out)["outcome"] == "holds"
    code, out, _ = _run(capsys, [
        "compare", "--relation", "equivalent", "--a", "catalog:exp",
        "--b", '{"kind":"power_exp","p":1,"lambda":3}'])
    assert code == 0


def test_compare_chain(capsys):
    code, out, _ = _run(capsys, [
        "compare", "--relation", "chain", "--rates", "p,exp,q,c"])
    assert code == 0
    assert json.loads(out)["outcome"] == "holds"
    code, out, _ = _run(capsys, [
        "compare", "--relation", "chain", "--rates", "c,q"])
    assert code == 3
    assert json.loads(out)["first_failure"] == 0


def test_verify_811_cli(capsys):
    code, out, _ = _run(capsys, [
        "verify", "--theorem", "811", "--chain", "p,exp,q,c",
        "--system", "catalog:abs2t"])
    assert code == 0
    report = json.loads(out.strip())
    assert report["status"] == "pass"
    assert report["details"]["conclusion"]["detail"] == "strong rate: q"


def test_verify_805_skip_exits_zero(capsys):
    code, out, _ = _run(capsys, [
        "verify", "--theorem", "805", "--system", "catalog:identity",
        "--mu", "q", "--omega", "exp"])
    assert code == 0
    assert json.loads(out.strip())["status"] == "skipped"


def test_verify_806_cli(capsys):
    code, out, _ = _run(capsys, [
        "verify", "--theorem", "806", "--system", "catalog:abs2t",
        "--mu", "c", "--omega", "q"])
    assert code == 0
    assert json.loads(out.strip())["status"] == "pass"


def test_catalog_listing(capsys):
    code, out, _ = _run(capsys, ["catalog"])
    assert code == 0
    assert "exp(-3*k^2-3*k-1)" in out
    code, out, _ = _run(capsys, ["catalog", "--json"])
    payload = json.loads(out)
    assert len(payload["rates"]) >= 5
    assert set(payload["systems"]) == {"abs2t", "inv1pt", "sq3t2", "frak_a",
                                       "disc_q", "identity"}
    # descriptors round-trip through the resolvers
    for desc in payload["rates"].values():
        catalog.resolve_rate(desc)
    for desc in payload["systems"].values():
        catalog.resolve_system(desc)


def test_package_runs_as_a_module():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-m", "muspec", "catalog", "--json"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "abs2t" in json.loads(proc.stdout)["systems"]


def test_output_is_byte_identical(capsys, tmp_path):
    argv = ["spectrum", "--system", "catalog:disc_q", "--rate", "catalog:q"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(argv + ["--output", str(first)]) == 0
    assert main(argv + ["--output", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_config_file_merging(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"schedule": "25,50", "tol_stab": 0.05}),
                      encoding="utf-8")
    code, out, _ = _run(capsys, [
        "spectrum", "--system", "catalog:disc_q", "--rate", "catalog:q",
        "--config", str(config)])
    assert code == 0
    payload = json.loads(out)
    assert payload["windows"] == [25.0, 50.0]
    assert payload["params"]["tol_stab"] == 0.05
    # explicit flags win over the config file
    code, out, _ = _run(capsys, [
        "spectrum", "--system", "catalog:disc_q", "--rate", "catalog:q",
        "--config", str(config), "--schedule", "30,60"])
    payload = json.loads(out)
    assert payload["windows"] == [30.0, 60.0]
    assert payload["params"]["tol_stab"] == 0.05


@pytest.mark.parametrize("key", ["tol-stab", "tol_stab"])
def test_config_keys_are_long_options(capsys, tmp_path, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "csv", key: 0.05, "schedule": [25, 50]}),
                      encoding="utf-8")
    argv = ["spectrum", "--system", "catalog:disc_q", "--rate", "q", "--schedule", "25,50",
            "--tol-stab", "0.05", "--format", "csv"]
    code, want, _ = _run(capsys, argv)
    assert code == 0 and want.startswith("window,component,")
    assert _run(capsys, argv[:5] + ["--config", str(config)]) == (0, want, "")


@pytest.mark.parametrize("cfg, message", [
    ({"format": "csv", "tol-stabb": 5}, "config: unknown key 'tol-stabb'"),
    # a dest is not an option
    ({"fmt": "csv"}, "config: unknown key 'fmt'"),
    ({"cutoff_fraction": 0.4}, "config: unknown key 'cutoff_fraction'"),
    ({"help": True}, "config: unknown key 'help'"),
    ({"format": "xml"}, "config: format must be one of json, csv, table, got 'xml'"),
])
def test_config_rejects_unknown_keys_and_choices(capsys, tmp_path, cfg, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    code, out, err = _run(capsys, ["spectrum", "--system", "catalog:disc_q", "--rate", "q",
                                   "--config", str(config)])
    assert (code, out, err) == (1, "", f"error: {message}\n")


_SPECTRUM_DISC_Q = ["spectrum", "--system", "catalog:disc_q", "--rate", "q"]
_VERIFY_808 = ["verify", "--theorem", "808", "--system", "catalog:disc_q", "--mu", "q",
               "--omega", "exp"]
_COMPARE_Q = ["compare", "--relation", "faster", "--b", "q"]


@pytest.mark.parametrize("argv, cfg, message", [
    (_SPECTRUM_DISC_Q, {"schedule": 25},
     "config: schedule must be a list of windows or a comma-separated string, got 25"),
    (_VERIFY_808, {"a": "1"}, "config: a must be a number, got '1'"),
    (_VERIFY_808, {"a": True}, "config: a must be a number, got True"),
    (_VERIFY_808, {"a": 10 ** 400}, "config: a is out of range"),
    (_SPECTRUM_DISC_Q, {"tol-stab": [0.05]}, "config: tol-stab must be a number, got [0.05]"),
    (_SPECTRUM_DISC_Q, {"output": True}, "config: output must be a string, got True"),
    (_COMPARE_Q, {"a": 5}, "config: a must be a string or a descriptor object, got 5"),
])
def test_config_values_must_have_their_flags_type(capsys, tmp_path, argv, cfg, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    code, out, err = _run(capsys, argv + ["--config", str(config)])
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, cfg, flags", [
    (_VERIFY_808, {"a": 1}, ["--a", "1"]),
    (_SPECTRUM_DISC_Q, {"schedule": [25, 50]}, ["--schedule", "25,50"]),
    (_COMPARE_Q, {"a": {"kind": "power_exp", "p": 3}}, ["--a", "c"]),
])
def test_config_values_match_their_flags(capsys, tmp_path, argv, cfg, flags):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    code, want, _ = _run(capsys, argv + flags)
    assert _run(capsys, argv + ["--config", str(config)]) == (code, want, "")


@pytest.mark.parametrize("args, bad", [
    (["--schedule=-3,2"], "-3"),
    (["--schedule=0"], "0"),
    (["--schedule", "5,0"], "0"),
    (["--config", "{cfg}"], "0.5"),
])
def test_schedule_windows_must_be_positive_integers(capsys, tmp_path, args, bad):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"schedule": [0.5, 2]}), encoding="utf-8")
    args = [a.format(cfg=config) for a in args]
    code, out, err = _run(capsys, ["spectrum", "--system", "catalog:disc_q", "--rate", "q",
                                   *args])
    assert (code, out, err) == (
        1, "", f"error: schedule windows must be positive integers, got {bad}\n")


@pytest.mark.parametrize("args, cfg, bad", [
    (["--schedule", "25,x"], None, "'x'"),
    (["--schedule", "25,2.5"], None, "'2.5'"),
    (["--schedule", "25,0,x"], None, "0"),
    (["--config", "{cfg}"], {"schedule": "25,2.5"}, "'2.5'"),
    # an empty token is a window too, not a separator to skip
    (["--schedule", "50,,100"], None, "''"),
    (["--schedule", "50,100,"], None, "''"),
])
def test_schedule_tokens_must_be_integers(capsys, tmp_path, args, cfg, bad):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    args = [a.format(cfg=config) for a in args]
    code, out, err = _run(capsys, _SPECTRUM_DISC_Q + args)
    assert (code, out, err) == (
        1, "", f"error: schedule windows must be positive integers, got {bad}\n")


@pytest.mark.parametrize("argv", [
    ["compare", "--relation", "chain", "--rates", "p,,exp"],
    ["verify", "--theorem", "811", "--system", "catalog:disc_q", "--chain", "p,,exp"],
    ["verify", "--theorem", "811", "--system", "catalog:disc_q", "--chain", "p,exp,"],
])
def test_rate_lists_reject_empty_tokens(capsys, argv):
    assert _run(capsys, argv) == (1, "", "error: rate: not a catalog name or JSON descriptor: ''\n")


def test_rk4_overflow_is_one_named_error(capsys):
    """A coefficient whose Magnus exponential leaves double range gives one
    error line naming the first unit step of the walk, and no numpy
    warning."""
    system = {"time_domain": "continuous", "dimension": 2, "structure": "full",
              "coefficients": {"entries": [["1e200", "0"], ["0", "1"]]}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, ["spectrum", "--system", json.dumps(system),
                                       "--rate", "q"])
    assert (code, out, err) == (
        1, "", "error: propagator from time 0 to 1 is not finite during integration\n")


def _probe(d):
    """The d x d continuous probe system, whose spectrum under q is {0, 1}:
    a_11 = 2|t|, the rest of the diagonal -1/(1 + |t|), the superdiagonal 1
    and every other entry 0."""
    rows = [["0"] * d for _ in range(d)]
    for i in range(d):
        rows[i][i] = "-1/(1+abs(t))"
        if i + 1 < d:
            rows[i][i + 1] = "1"
    rows[0][0] = "2*abs(t)"
    return {"time_domain": "continuous", "dimension": d, "structure": "full",
            "coefficients": {"entries": rows}}


@pytest.mark.parametrize("d", [2, 8])
@pytest.mark.parametrize("schedule", ["5,10,20,40,80", "5,10,20,40,80,160"])
def test_full_continuous_enclosures_enclose_the_spectrum(capsys, d, schedule):
    """Where the coefficient reaches 320, the enclosure, converged and not
    widened, still holds both points of the spectrum."""
    code, out, err = _run(capsys, ["spectrum", "--system", json.dumps(_probe(d)),
                                   "--rate", "q", "--schedule", schedule])
    assert code == 0, err
    payload = json.loads(out)
    [interval] = payload["intervals"]
    assert payload["converged"] is True
    assert interval["lo"] <= 0.0 and interval["hi"] >= 1.0


def test_unpinned_enclosure_takes_doubled_windows(capsys):
    """The 8x8 probe has not converged at the default schedule's last
    window; unpinned, its enclosure doubles the window, as an exact
    estimate does, and converges at 80."""
    code, out, err = _run(capsys, ["spectrum", "--system", json.dumps(_probe(8)),
                                   "--rate", "q"])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["windows"] == [5.0, 10.0, 20.0, 40.0, 80.0]
    assert payload["converged"] is True
    [interval] = payload["intervals"]
    assert interval["lo"] <= 0.0 and interval["hi"] >= 1.0


def test_descriptor_validation_error(capsys):
    code, out, err = _run(capsys, [
        "spectrum", "--system", '{"time_domain":"discrete","dimension":"x","structure":"scalar","coefficients":{"diagonal":["1"]}}',
        "--rate", "catalog:q"])
    assert code == 1
    assert "system.dimension" in err


_POLY = {"kind": "polynomial"}


@pytest.mark.parametrize("domain, dim, structure, coefficients, message", [
    ("discrete", 1, "scalar", {"diagonal": [2]},
     "system.coefficients.diagonal: expected 1 expression strings"),
    ("discrete", 2, "full", {"entries": [["1", 0], ["0", "1"]]},
     "system.coefficients.entries: expected a 2x2 grid of expressions"),
    ("discrete", 1, "scalar", {"rate_quotient": [1]},
     "system.coefficients.rate_quotient: expected an object"),
    ("discrete", 1, "scalar", {"rate_quotient": {"rate": _POLY, "slopes": 5}},
     "system.coefficients.rate_quotient.slopes: expected 1 finite numbers"),
    ("discrete", 1, "scalar", {"rate_quotient": {"rate": _POLY, "slopes": ["a"]}},
     "system.coefficients.rate_quotient.slopes: expected 1 finite numbers"),
    ("discrete", 1, "scalar", {"rate_quotient": {"rate": _POLY, "slopes": [True]}},
     "system.coefficients.rate_quotient.slopes: expected 1 finite numbers"),
    ("discrete", 1, "scalar", {"table": 5},
     "system.coefficients.table: expected a file path string"),
    # a rate-quotient descriptor must agree with its declared fields
    ("discrete", 3, "scalar", {"rate_quotient": {"rate": _POLY, "slopes": [1, 2]}},
     "system.dimension: scalar systems have dimension 1"),
    ("discrete", 3, "diagonal", {"rate_quotient": {"rate": _POLY, "slopes": [1, 2]}},
     "system.coefficients.rate_quotient.slopes: expected 3 finite numbers"),
    ("discrete", 1, "full", {"rate_quotient": {"rate": _POLY, "slopes": [1]}},
     "system.coefficients.rate_quotient: needs scalar or diagonal structure"),
    ("continuous", 1, "scalar",
     {"rate_quotient": {"rate": {**_POLY, "time_domain": "discrete"}, "slopes": [1]}},
     "system.coefficients.rate_quotient.rate.time_domain: expected 'continuous', "
     "the system's time domain"),
    # JSON integers beyond double range do not convert to a float
    ("discrete", 1, "scalar", {"rate_quotient": {"rate": _POLY, "slopes": [10 ** 400]}},
     "system.coefficients.rate_quotient.slopes: expected 1 finite numbers"),
    ("discrete", 1, "scalar",
     {"rate_quotient": {"rate": {"kind": "power_exp", "p": 10 ** 400}, "slopes": [1]}},
     f"system.coefficients.rate_quotient.rate.p: expected a positive finite number, got {10 ** 400}"),
    ("discrete", 1, "scalar", {"diagonal": ["k+\u00b2"]},
     "system.coefficients: unexpected character '\u00b2' at offset 2"),
])
def test_spectrum_names_malformed_descriptor_fields(capsys, domain, dim, structure,
                                                    coefficients, message):
    system = {"time_domain": domain, "dimension": dim, "structure": structure,
              "coefficients": coefficients}
    code, out, err = _run(capsys, ["spectrum", "--system", json.dumps(system), "--rate", "q"])
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("flag, message", [
    ("--tol-stab", "tol_stab must be positive"),
    ("--cutoff", "cutoff_fraction must be in (0, 1)"),
    ("--gamma-max", "gamma_max must be positive"),
    ("--delta-merge", "delta_merge must be positive"),
    ("--tol-stab=inf", "tol_stab must be finite"),
    ("--delta-merge=inf", "delta_merge must be finite"),
])
def test_nan_parameters_fail_up_front(capsys, flag, message):
    """NaN, or the value written after '=', fails by name in the CLI and in
    Params alike."""
    flag, _, value = flag.partition("=")
    value = value or "nan"
    code, out, err = _run(capsys, ["spectrum", "--system", "identity", "--rate", "q",
                                   flag, value])
    assert (code, out, err) == (1, "", f"error: {message}\n")
    field = {"--cutoff": "cutoff_fraction"}.get(flag, flag[2:].replace("-", "_"))
    with pytest.raises(ValueError, match=message.replace("(", r"\(").replace(")", r"\)")):
        Params(**{field: float(value)})

def test_spectrum_rejects_non_finite_table_cell(capsys, tmp_path):
    table = tmp_path / "table.csv"
    rows = ["k,a_1_1,a_1_2,a_2_1,a_2_2"] + [f"{k},2.0,0.5,0.0,0.5" for k in range(-400, 401)]
    rows[3] = "-398,2.0,nan,0.0,0.5"
    table.write_text("\n".join(rows) + "\n", encoding="utf-8")
    system = {"time_domain": "discrete", "dimension": 2, "structure": "full",
              "coefficients": {"table": str(table)}}
    code, out, err = _run(capsys, ["spectrum", "--system", json.dumps(system), "--rate", "exp"])
    assert code == 1
    assert out == ""
    assert "row k=-398: a_1_2 is not finite" in err


_SLOW_DECLINE = ('{"kind":"expression","log_rate":"max(k,0) - 1e-13*min(k,0)",'
                 '"time_domain":"discrete"}')


@pytest.mark.parametrize("rate, message", [
    # overflows: log mu = -inf at the left end of the window
    ('{"kind":"power_exp","p":400}', "rate: log mu is not finite at t=-400 (-inf)"),
    # mu(0) = e
    ('{"kind":"expression","log_rate":"1+k"}', "rate: log mu(0) is 1, not 0"),
    # falls on the negative half-line
    ('{"kind":"expression","log_rate":"k^2"}', "rate: log mu decreases from t=-400 to t=-399"),
    # falls 1e-13 a step, within the slack of one step, but 1.1e-12 below
    # the running maximum, the sample at t=-400, eleven steps on
    (_SLOW_DECLINE, "rate: log mu decreases from t=-400 to t=-389"),
    # finite, but the differences of the samples overflow
    ('{"kind":"expression","log_rate":"1e308*sgn(k)"}',
     "rate: log mu is beyond DBL_MAX/2 in magnitude at t=-400 (-1e+308)"),
    # descriptor numbers that are not finite floats are named by field
    ('{"kind":"power_exp","p":Infinity}', "rate.p: expected a positive finite number, got inf"),
    ('{"kind":"power_exp","p":2,"lambda":Infinity}', "rate.lambda: expected a positive finite number, got inf"),
    ('{"kind":"power_exp","p":NaN}', "rate.p: expected a positive finite number, got nan"),
    ('{"kind":"power_exp","p":1' + "0" * 400 + "}",
     f"rate.p: expected a positive finite number, got {10 ** 400}"),
    ('{"kind":"power_exp","p":2,"lambda":0}', "rate.lambda: expected a positive finite number, got 0"),
    ('{"kind":"expression","log_rate":"k+\u00b2"}',
     "rate.log_rate: unexpected character '\u00b2' at offset 2"),
])
def test_spectrum_rejects_rates_that_are_not_growth_rates(capsys, rate, message):
    code, out, err = _run(capsys, ["spectrum", "--system", "catalog:disc_q", "--rate", rate])
    assert code == 1
    assert out == ""
    assert message in err


def test_compare_rejects_a_slowly_declining_rate(capsys):
    code, out, err = _run(capsys, ["compare", "--relation", "faster", "--a", _SLOW_DECLINE,
                                   "--b", "q"])
    assert (code, out) == (1, "")
    assert "rate: log mu decreases from t=-50 to t=-40" in err


def test_spectrum_names_an_overflowing_quotient_grid(capsys):
    # log mu = k^400 leaves double range at k = 6, so the unit step [5, 6]
    # of the rate-quotient system is inf: a named error, not a traceback
    system = {"time_domain": "discrete", "dimension": 1, "structure": "scalar",
              "coefficients": {"rate_quotient": {"rate": {"kind": "power_exp", "p": 400},
                                                 "slopes": [1]}}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, ["spectrum", "--system", json.dumps(system),
                                       "--rate", "exp"])
    assert code == 1
    assert out == ""
    assert err == "error: log-propagator of component 0 is not finite at time 6 (inf)\n"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--system", "catalog:abs2t", "--rate", "q"],
    ["compare", "--relation", "faster", "--a", "q", "--b", "exp"],
])
def test_oversized_schedule_windows_are_named(capsys, monkeypatch, argv):
    # the window is named before its sample times are built: the only
    # times built are those of window 5, on the walk to the window that fails
    arange, sizes = np.arange, []
    monkeypatch.setattr(np, "arange", lambda *a, **k: sizes.append(a) or arange(*a, **k))
    code, out, err = _run(capsys, argv + ["--schedule", "5,1000000000000000000"])
    assert (code, out) == (1, "")
    assert err == ("error: window 1000000000000000000 needs 2000000000000000001 samples, "
                   "more than MAX_VALIDATION_SAMPLES (1000000)\n")
    assert all(abs(a[0]) <= 5 * SAMPLES_PER_UNIT for a in sizes)


DATA = Path(__file__).parent / "data"
_VERIFY = ["verify", "--theorem"]
_DISC_Q_809 = _VERIFY + ["809", "--system", "catalog:disc_q", "--mu", "q", "--omega", "exp"]


# the replay tables: every file in tests/data is one row's golden, the
# catalog spectra's, or a row's input; CI replays them against the installed
# package, so a new golden is one new row
RECORDED_REPORTS = [
    (["verify", "--theorem", "all"], "verify_all.jsonl"),
    (["compare", "--relation", "chain", "--rates", "p,exp,q,c",
      "--time-domain", "discrete"], "chain_discrete.json"),
    (["compare", "--relation", "chain", "--rates", "p,exp,q,c",
      "--time-domain", "continuous"], "chain_continuous.json"),
    (_VERIFY + ["808", "--variant", "i", "--system", "catalog:frak_a", "--mu", "c",
                "--omega", "exp", "--a", "1"], "verify_808i.jsonl"),
    (_VERIFY + ["808", "--variant", "ii", "--system", "catalog:disc_q", "--mu", "q",
                "--omega", "exp", "--a", "1"], "verify_808ii.jsonl"),
    # an infinite bound leaves nothing to prove
    (_DISC_Q_809 + ["--variant", "i", "--b", "inf"], "verify_809i_infinite_b.jsonl"),
    (_DISC_Q_809 + ["--variant", "ii", "--a=-inf"], "verify_809ii_infinite_a.jsonl"),
    (_DISC_Q_809 + ["--variant", "iii", "--a=-inf", "--b", "1"],
     "verify_809iii_infinite_a.jsonl"),
    (_DISC_Q_809 + ["--variant", "iii", "--a=-1", "--b", "inf"],
     "verify_809iii_infinite_b.jsonl"),
    (_VERIFY + ["805", "--system", "catalog:identity", "--mu", "q", "--omega", "exp"],
     "verify_805_hypothesis_not_met.jsonl"),
    # 908 in each branch: neither equivalence, weak equivalence, equivalence
    (_VERIFY + ["908", "--system", "catalog:disc_q", "--mu", "q", "--omega", "exp"],
     "verify_908_not_equivalent.jsonl"),
    (_VERIFY + ["908", "--system", "catalog:disc_q", "--mu", "q", "--omega", "q"],
     "verify_908i.jsonl"),
    (_VERIFY + ["908", "--system", "catalog:disc_q", "--mu", "exp",
                "--omega", '{"kind":"power_exp","p":1,"lambda":3}'], "verify_908ii.jsonl"),
    (["spectrum", "--system", json.dumps(
        {"time_domain": "continuous", "dimension": 2, "structure": "full",
         "coefficients": {"entries": [["2*abs(t)", "1"], ["0", "-1/(1+abs(t))"]]}}),
      "--rate", "q"], "spectrum_full_continuous_q.json"),
    # a seeded upper-triangular table, read relative to tests/data
    (["spectrum", "--system", json.dumps(
        {"time_domain": "discrete", "dimension": 2, "structure": "full",
         "coefficients": {"table": "table_full_exp.csv"}}),
      "--rate", "exp", "--schedule", "25,50,100"], "spectrum_full_table_exp.json"),
    # relation scans past the default schedule: most pair tiles of the
    # chain's peaked ratios are pruned, and the constant ratio of exp and
    # power_exp(1, 3) takes the row scan
    (["compare", "--relation", "chain", "--rates", "p,exp,q,c",
      "--time-domain", "discrete", "--schedule", "200,400,800,1600"],
     "chain_discrete_wide.json"),
    (["compare", "--relation", "equivalent", "--a", "exp",
      "--b", '{"kind":"power_exp","p":1,"lambda":3}', "--time-domain", "discrete",
      "--schedule", "200,400,800,1600"], "equivalent_constant_ratio_wide.json"),
    # the 8x8 probe, whose coefficient reaches 320 at the last window
    (["spectrum", "--system", json.dumps(_probe(8)), "--rate", "q",
      "--schedule", "5,10,20,40,80,160"], "spectrum_full_continuous_8x8_q.json"),
    # the one non-polynomial continuous catalog coefficient, whose exact
    # spectrum {1} the Gauss-Lobatto grid reads to the last digit
    (["spectrum", "--system", "catalog:inv1pt", "--rate", "p"], "spectrum_inv1pt_p.json"),
    # a K = 3 diagonal scan at wide windows: the three series share every
    # pair block, and no window takes the closed form
    (["spectrum", "--system", json.dumps(
        {"time_domain": "discrete", "dimension": 3, "structure": "diagonal",
         "coefficients": {"diagonal": [f"exp(({s})*abs(2*k+1))" for s in (-1.2, 0.3, 1.5)]}}),
      "--rate", "q", "--schedule", "200,400,800,1600"], "spectrum_diag_disc_wide_q.json"),
    # the 2x2 probe out to window 160, whose Magnus chunks hold several
    # steps and stack several steps' exponentials at once
    (["spectrum", "--system", json.dumps(_probe(2)), "--rate", "q",
      "--schedule", "5,10,20,40,80,160"], "spectrum_full_continuous_wide_q.json"),
    # continuous relations read slices of one grid per rate, 10 samples a unit
    (["compare", "--relation", "chain", "--rates", "p,exp,q,c",
      "--time-domain", "continuous", "--schedule", "80,160,320,640"],
     "chain_continuous_wide.json"),
    # the faster check's per-eps suprema, and its witness pairs where it fails
    (["compare", "--relation", "faster", "--a", "q", "--b", "exp", "--time-domain", "discrete",
      "--schedule", "200,400,800,1600"], "faster_discrete_wide.json"),
    (["compare", "--relation", "faster", "--a", "exp", "--b", "q",
      "--time-domain", "continuous"], "faster_continuous_fails.json"),
    (["compare", "--relation", "weakly-faster", "--a", "p", "--b", "exp",
      "--time-domain", "discrete"], "weakly_faster_discrete_fails.json"),
    # a rate odd under time reversal with one component that is not: the
    # half-triangle scan is all or nothing, so the stack scans every pair
    (["spectrum", "--system", json.dumps(
        {"time_domain": "discrete", "dimension": 2, "structure": "diagonal",
         "coefficients": {"diagonal": ["exp(0.25*abs(2*k+1)+0.1*k)", "exp((-0.7)*abs(2*k+1))"]}}),
      "--rate", "q", "--schedule", "200,400,800,1600"], "spectrum_diag_disc_mixed_q.json"),
    # an even continuous coefficient: segments left of 0 are integrated as
    # mirror images, so the grid is odd and the scans take the half triangle
    (["spectrum", "--system", "catalog:abs2t", "--rate", "q", "--schedule", "50,100,200,400"],
     "spectrum_abs2t_q_wide.json"),
    # a continuous diagonal with an odd coefficient among even ones: each
    # step behind is a step ahead up to its sign, and every pair is scanned
    (["spectrum", "--system", json.dumps(
        {"time_domain": "continuous", "dimension": 3, "structure": "diagonal",
         "coefficients": {"diagonal": ["2*abs(t)", "t", "-1/(1+abs(t))"]}}),
      "--rate", "exp"], "spectrum_diag_cont_exp.json"),
]


@pytest.mark.parametrize("argv, golden", RECORDED_REPORTS)
def test_output_matches_the_recorded_reports(capsys, monkeypatch, tmp_path, argv, golden):
    """The reports are byte-identical to the recorded ones.  A change that
    moves a digit regenerates the file (same command with --output, run in
    tests/data) and says which digit moved and why."""
    monkeypatch.chdir(DATA)
    out = tmp_path / golden
    assert main(argv + ["--output", str(out)]) == (3 if "fails" in golden else 0)
    capsys.readouterr()
    assert out.read_bytes() == (DATA / golden).read_bytes()


_WIDE_SCHEDULES = {"discrete": "200,400,800,1600", "continuous": "50,100,200,400"}


def catalog_spectra(work_dir: Path) -> str:
    """One JSON line per catalog system, catalog rate and schedule (the
    default one and the wide one): the ``spectrum`` report the CLI writes,
    and its exit code."""
    lines = []
    out = work_dir / "spectrum.json"
    for system, (domain, _) in catalog.SYSTEM_DEFS.items():
        for rate in catalog.RATE_NAMES:
            for schedule in (None, _WIDE_SCHEDULES[domain]):
                argv = ["spectrum", "--system", f"catalog:{system}", "--rate", rate]
                argv += ["--schedule", schedule] if schedule else []
                code = main(argv + ["--output", str(out)])
                entry = {"system": system, "rate": rate, "schedule": schedule, "exit": code,
                         "report": json.loads(out.read_text(encoding="utf-8"))}
                lines.append(json.dumps(entry, separators=(",", ":")) + "\n")
    return "".join(lines)


def test_catalog_spectra_match_the_recorded_reports(tmp_path):
    """Every catalog system under every catalog rate, at both schedules, is
    byte-identical to the recorded reports.  A change that moves a digit
    regenerates the file (run this module as a script) and says which digit
    moved and why."""
    got = catalog_spectra(tmp_path)
    assert got == (DATA / "catalog_spectra.jsonl").read_text(encoding="utf-8")


def test_verify_labels_expression_rates_by_their_log_rate(capsys):
    """Two expression rates get two labels: each carries its log_rate."""
    code, out, _ = _run(capsys, _VERIFY + [
        "908", "--system", "catalog:identity", "--mu", '{"kind":"expression","log_rate":"k"}',
        "--omega", '{"kind":"expression","log_rate":"2*k"}'])
    assert code == 0
    assert json.loads(out)["rates"] == {"mu": "expression(k)", "omega": "expression(2*k)"}


def test_bad_rate_name(capsys):
    code, _, err = _run(capsys, [
        "compare", "--relation", "faster", "--a", "catalog:nope", "--b", "q"])
    assert code == 1
    assert "rate" in err


@pytest.mark.parametrize("args, message", [
    (["808"], "808 needs a positive bound a"),
    (["808", "--a", "0"], "808 needs a positive bound a"),
    (["809", "--variant", "i", "--b=-1"], "809i/809iii need a bound b >= 0"),
    (["809", "--variant", "ii", "--a", "1"], "809ii/809iii need a bound a <= 0"),
    # a NaN bound compares False every way, so it must not pass the checks
    (["808", "--a", "nan"], "808 needs a positive bound a"),
    (["809", "--variant", "ii", "--a", "nan"], "809ii/809iii need a bound a <= 0"),
    (["809", "--variant", "i", "--b", "nan"], "809i/809iii need a bound b >= 0"),
])
def test_verify_808_809_rejects_bad_bounds(capsys, args, message):
    code, out, err = _run(capsys, _VERIFY + args + ["--system", "catalog:disc_q",
                                                     "--mu", "q", "--omega", "exp"])
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--system", "catalog:frak_a"],
     "muspec spectrum: error: the following arguments are required: --rate"),
    # -inf reads as an option, so a negative infinite bound is written --a=-inf
    (_DISC_Q_809 + ["--a", "-inf"], "muspec verify: error: argument --a: expected one argument"),
    (["compare", "--relation", "faster", "--a", "q", "--b", "exp", "--format", "csv"],
     "muspec: error: unrecognized arguments: --format csv"),
])
def test_usage_errors_exit_1(capsys, argv, message):
    """A usage error exits 1 like every other error: 2 means inconclusive."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert captured.err.endswith(f"\n{message}\n")


def test_format_belongs_to_spectrum(capsys):
    for command, listed in (("spectrum", True), ("compare", False), ("verify", False)):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert ("--format" in capsys.readouterr().out) is listed



# one failing input in each evaluation path; every path names its input as
# Python floats: a dict of them, or one for an expression rate of one variable
RECORDED_STDERR = [
    (["spectrum", "--system", json.dumps(
        {"time_domain": "discrete", "dimension": 1, "structure": "scalar",
         "coefficients": {"diagonal": ["1/(k-7)"]}}), "--rate", "exp"],
     "error_discrete_scalar_pole.txt"),
    (["spectrum", "--system", json.dumps(
        {"time_domain": "discrete", "dimension": 2, "structure": "full",
         "coefficients": {"entries": [["2", "1/(k-7)"], ["0", "1"]]}}), "--rate", "exp"],
     "error_discrete_full_pole.txt"),
    (["compare", "--relation", "faster",
      "--a", '{"kind":"expression","log_rate":"sgn(k)*log(1+abs(k))/(k-7)"}',
      "--b", "exp", "--time-domain", "discrete"], "error_expression_rate_pole.txt"),
    (["spectrum", "--system", json.dumps(
        {"time_domain": "continuous", "dimension": 1, "structure": "scalar",
         "coefficients": {"diagonal": ["1/(t-3.5)"]}}), "--rate", "exp"],
     "error_continuous_scalar_pole.txt"),
    # a pole on both sides of 0 of an even coefficient: the one ahead is met first
    (["spectrum", "--system", json.dumps(
        {"time_domain": "continuous", "dimension": 1, "structure": "scalar",
         "coefficients": {"diagonal": ["1/(abs(t)-3.5)"]}}), "--rate", "exp"],
     "error_continuous_two_sided_pole.txt"),
]


@pytest.mark.parametrize("argv, golden", RECORDED_STDERR)
def test_errors_match_the_recorded_stderr(capsys, argv, golden):
    """An evaluation error exits 1 with the recorded line on stderr and
    nothing on stdout."""
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == (DATA / golden).read_text(encoding="utf-8")


def test_every_file_in_tests_data_is_replayed():
    """Each file in tests/data is the golden of exactly one replay row (or
    the catalog spectra's), or the input a row names, so a replay of the
    tables misses no golden."""
    rows = RECORDED_REPORTS + RECORDED_STDERR
    names = sorted(p.name for p in DATA.iterdir())
    inputs = [name for name in names if any(name in arg for argv, _ in rows for arg in argv)]
    goldens = [golden for _, golden in rows] + ["catalog_spectra.jsonl"]
    assert sorted(goldens + inputs) == names


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        text = catalog_spectra(Path(work))
    (DATA / "catalog_spectra.jsonl").write_text(text, encoding="utf-8")
