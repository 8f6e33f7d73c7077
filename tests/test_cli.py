"""Command line surface: files, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hardyshift
from hardyshift import cli
from hardyshift.construction import InfeasibleConstructionError
from hardyshift.series import TruncationError


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


@pytest.fixture(scope="module")
def constructed(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("construct")
    assert cli.main(["construct", "--alpha", "1", "--delta", "0.5", "--K", "3",
                     "--out", str(out)]) == 0
    return out


def test_construct_writes_config_and_certificate(constructed):
    config = json.loads((constructed / "config.json").read_text())
    assert config["spike_starts"] == [3, 32, 117]
    assert config["K"] == 3
    header, rows = read_csv(constructed / "certificate.csv")
    assert header[:2] == ["k", "start"]
    assert len(rows) == 3
    assert [r[0] for r in rows] == ["1", "2", "3"]
    # every certified bound sits below its threshold
    for row in rows:
        for thr, bound in zip(row[2::2], row[3::2]):
            assert float(bound) <= float(thr)


def test_construct_manifest_contents(constructed):
    manifest = json.loads((constructed / "construct_manifest.json").read_text())
    assert manifest["command"] == "construct"
    assert manifest["version"] == hardyshift.__version__
    names = {entry["name"] for entry in manifest["outputs"]}
    assert names == {"config.json", "certificate.csv"}
    import hashlib
    for entry in manifest["outputs"]:
        data = (constructed / entry["name"]).read_bytes()
        assert entry["bytes"] == len(data)
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()


def test_construct_epsilon_maps_to_delta(tmp_path):
    assert cli.main(["construct", "--alpha", "1", "--epsilon", "0.5", "--K", "1",
                     "--out", str(tmp_path)]) == 0
    config = json.loads((tmp_path / "config.json").read_text())
    assert config["delta"] == 0.125


def test_construct_rejects_zero_delta(tmp_path):
    assert cli.main(["construct", "--alpha", "1", "--delta", "0", "--K", "1",
                     "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_construct_rejects_non_finite_tol(tmp_path, tol):
    assert cli.main(["construct", "--alpha", "1", "--delta", "0.5", "--K", "1",
                     "--tol", tol, "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "config.json").exists()


@pytest.mark.parametrize("option", [["--tol", "nan"], ["--rmax", "1.5"]])
def test_construct_rejects_bad_sampling_before_the_search(tmp_path, monkeypatch, option):
    # the spike search does not read r_max or tol; a bad value used to be
    # rejected only after a whole search (1.6 s at K = 6)
    from hardyshift import construction

    def searched(*args, **kwargs):
        raise AssertionError("the spike search ran")

    monkeypatch.setattr(construction, "select_spike_positions", searched)
    assert cli.main(["construct", "--alpha", "1", "--delta", "0.5", "--K", "6", *option,
                     "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "config.json").exists()


@pytest.mark.parametrize("epsilon", ["nan", "inf", "0", "-1"])
def test_verify_rejects_non_finite_epsilon(constructed, tmp_path, monkeypatch, epsilon):
    # non-positive values too; all are rejected before the ratio
    # verification, which takes 0.6 s at K = 8
    def measured(*args, **kwargs):
        raise AssertionError("the ratio verification ran")

    monkeypatch.setattr(cli, "verify_f_conditions", measured)
    assert cli.main(["verify", str(constructed / "config.json"), "--epsilon", epsilon,
                     "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "conditions.csv").exists()


def test_construct_requires_exactly_one_budget_flag(tmp_path):
    with pytest.raises(SystemExit) as info:
        cli.main(["construct", "--alpha", "1", "--K", "1", "--out", str(tmp_path)])
    assert info.value.code == 3
    with pytest.raises(SystemExit) as info:
        cli.main(["construct", "--alpha", "1", "--delta", "0.5", "--epsilon", "1",
                  "--K", "1", "--out", str(tmp_path)])
    assert info.value.code == 3


def test_verify_passes_on_constructed_config(constructed, tmp_path):
    rc = cli.main(["verify", str(constructed / "config.json"),
                   "--epsilon", "2", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "conditions.csv")
    assert header == ["condition", "threshold", "measured", "argmax_r", "pass"]
    assert all(row[-1] == "true" for row in rows)
    names = [row[0] for row in rows]
    assert "ratio_deviation" in names
    assert "ratio_band" in names
    # at alpha = 1 the exact band is [1/2, 2], attained on the spike slopes
    assert rows[names.index("coisometry_band")][2] == "1"
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert report["seed"] == 0
    manifest = json.loads((tmp_path / "verify_manifest.json").read_text())
    assert manifest["config_path"] == str(constructed / "config.json")


def test_verify_fails_on_halved_positions(constructed, tmp_path):
    config = json.loads((constructed / "config.json").read_text())
    config["spike_starts"] = [max(1, s // 2) for s in config["spike_starts"]]
    bad = tmp_path / "halved.json"
    bad.write_text(json.dumps(config))
    rc = cli.main(["verify", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    _, rows = read_csv(tmp_path / "conditions.csv")
    assert any(row[-1] == "false" for row in rows)


def test_verify_rejects_malformed_config(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text('{"alpha": 1.0')
    assert cli.main(["verify", str(broken), "--out", str(tmp_path)]) == 3
    missing_key = tmp_path / "missing.json"
    missing_key.write_text('{"alpha": 1.0}')
    assert cli.main(["verify", str(missing_key), "--out", str(tmp_path)]) == 3
    assert cli.main(["verify", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path)]) == 3


def test_lemma_rows_decrease(tmp_path):
    assert cli.main(["lemma", "10", "100", "1000", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "lemma.csv")
    assert header[0] == "n"
    assert len(rows) == 3
    for col in range(1, 6):
        values = [float(row[col]) for row in rows]
        assert values[0] > values[1] > values[2], header[col]
    # measured masses never exceed their closed-form bounds
    for row in rows:
        assert float(row[4]) <= float(row[6])
        assert float(row[5]) <= float(row[7])


def test_lemma_rejects_nonpositive_power(tmp_path):
    assert cli.main(["lemma", "0", "--out", str(tmp_path)]) == 3


def test_curvature_table_on_flat_weights(tmp_path):
    config = {"alpha": 1.0, "delta": 0.5, "K": 0, "spike_starts": [],
              "r_max": 0.999, "tol": 1e-9}
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(config))
    assert cli.main(["curvature", str(path), "--points", "50", "--rmax", "0.95",
                     "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "curvature.csv")
    assert header == ["r", "kappa_reference", "kappa_weighted", "difference",
                      "difference_gap_sq"]
    # flat weights: weighted curvature equals the closed-form reference
    for row in rows:
        r_val, ref, weighted, diff = (float(x) for x in row[:4])
        assert ref == pytest.approx((1.0 - r_val * r_val) ** -2, rel=1e-13)
        assert weighted == pytest.approx(ref, rel=1e-9)
        assert abs(diff) <= 1e-9 * ref
    assert float(rows[0][0]) == 0.0 and float(rows[0][2]) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rmax", ["0", "1", "1.5", "nan"])
def test_curvature_rejects_rmax_outside_unit_interval(constructed, tmp_path, capsys, rmax):
    assert cli.main(["curvature", str(constructed / "config.json"), "--rmax", rmax,
                     "--out", str(tmp_path)]) == 3
    assert "rmax must lie in (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "curvature.csv").exists()


@pytest.mark.parametrize("n_max", ["-1", "-2"])
def test_weights_rejects_negative_n_max(constructed, tmp_path, n_max):
    assert cli.main(["weights", str(constructed / "config.json"), "--n-max", n_max,
                     "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "weights.csv").exists()


def test_orbit_and_weights_tables(constructed, tmp_path):
    config_path = str(constructed / "config.json")
    assert cli.main(["orbit", config_path, "125", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "orbit.csv")
    norms = {int(r[0]): float(r[1]) for r in rows}
    assert norms[4] == 2.0 and norms[34] == 4.0 and norms[120] == 8.0

    assert cli.main(["weights", config_path, "--out", str(tmp_path)]) == 0
    _, wrows = read_csv(tmp_path / "weights.csv")
    weights = {int(r[0]): float(r[1]) for r in wrows}
    assert weights[4] == 4.0 and weights[34] == 16.0 and weights[120] == 64.0
    assert weights[0] == 1.0


def test_outputs_are_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert cli.main(["construct", "--alpha", "1", "--delta", "0.5", "--K", "2",
                         "--out", str(out)]) == 0
        assert cli.main(["verify", str(out / "config.json"), "--epsilon", "2",
                         "--out", str(out)]) == 0
        assert cli.main(["lemma", "10", "100", "--out", str(out)]) == 0
        assert cli.main(["curvature", str(out / "config.json"), "--points", "60",
                         "--out", str(out)]) == 0
    for name in ("config.json", "certificate.csv", "conditions.csv", "report.json",
                 "lemma.csv", "curvature.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_exit_code_for_numerical_infeasibility(tmp_path, monkeypatch):
    def blown(*args, **kwargs):
        raise InfeasibleConstructionError("no admissible start below the cap")

    monkeypatch.setattr(cli.ConstructionConfig, "plan", blown)
    assert cli.main(["construct", "--alpha", "1", "--delta", "0.5", "--K", "1",
                     "--out", str(tmp_path)]) == 4


def test_exit_code_for_truncation_failure(constructed, tmp_path, monkeypatch):
    def blown(*args, **kwargs):
        raise TruncationError("needs too many terms", required_order=10**9)

    monkeypatch.setattr(cli, "verify_f_conditions", blown)
    assert cli.main(["verify", str(constructed / "config.json"),
                     "--out", str(tmp_path)]) == 4


def test_exit_code_for_unconverged_quadrature(constructed, tmp_path, monkeypatch):
    # one subinterval cannot resolve the curvature density: the curvature
    # Carleson row must not pass on an integral the rule did not converge on
    from hardyshift import carleson

    real_rule = carleson.gauss_kronrod
    monkeypatch.setattr(carleson, "gauss_kronrod",
                        lambda *a, **kw: real_rule(*a, **{**kw, "limit": 1}))
    assert cli.main(["verify", str(constructed / "config.json"), "--epsilon", "2",
                     "--out", str(tmp_path)]) == 4


def test_unknown_subcommand_exits_with_input_error():
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 3


def test_exit_code_for_unconverged_root_search(tmp_path, monkeypatch):
    # sign roots that do not converge are a numerical failure, not a crash
    from hardyshift import carleson
    from hardyshift.grids import RootNotConvergedError

    def unconverged(*args, **kwargs):
        raise RootNotConvergedError("brentq did not converge")

    cli.lemma_bounds.cache_clear()  # earlier tests may have found these roots
    monkeypatch.setattr(carleson, "brentq", unconverged)
    assert cli.main(["construct", "--alpha", "1", "--delta", "0.5", "--K", "1",
                     "--out", str(tmp_path)]) == 4


FOOTPRINT = """
import json, sys
from hardyshift import cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[:2] in (
    ["scipy", "integrate"], ["scipy", "optimize"], ["scipy", "special"]))))
"""


def scipy_modules_after(commands: list[list[str]]) -> set[str]:
    """scipy.integrate/optimize/special modules a fresh interpreter holds
    after running the given CLI commands."""
    src = str(Path(hardyshift.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {m.split(".")[1] for m in json.loads(proc.stdout.splitlines()[-1])}


def test_table_commands_load_no_scipy(constructed, tmp_path):
    config = str(constructed / "config.json")
    out = ["--out", str(tmp_path)]
    assert scipy_modules_after([]) == set()
    assert scipy_modules_after([["weights", config, *out], ["orbit", config, "130", *out],
                                ["curvature", config, *out]]) == set()


def test_commands_load_no_scipy(constructed, tmp_path):
    # incomplete beta ratios, sign roots and the curvature quadrature are
    # all in-package, so no command pays for a scipy import
    config = str(constructed / "config.json")
    out = ["--out", str(tmp_path)]
    assert scipy_modules_after([["construct", "--alpha", "1", "--delta", "0.5", "--K", "2", *out],
                                ["lemma", "10", "2248", *out], ["verify", config, *out],
                                ["verify", config, "--epsilon", "2", *out]]) == set()


def test_benchmark_tracer_wraps_the_package(tmp_path):
    # hardybench/tracer.py patches package functions by name; a rename or a
    # new signature must fail here rather than in the benchmark's traced run
    repo = Path(__file__).resolve().parents[1]
    src = str(Path(hardyshift.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    spans_path, out = tmp_path / "spans.json", tmp_path / "out"
    proc = subprocess.run([sys.executable, str(repo / "hardybench" / "tracer.py"), str(spans_path),
                           "construct", "--alpha", "1", "--delta", "0.5", "--K", "2",
                           "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "config.json").read_text())["spike_starts"] == [3, 32]
    trace = json.loads(spans_path.read_text())
    assert {"construction.lemma_bounds", "construction.measure_spike_conditions",
            "weights.weight_range"} <= set(trace["spans"])
    assert trace["spans"]["construction.lemma_bounds"]["calls"] > 0
    assert trace["counters"]["construction.lemma_bounds.misses"] > 0
