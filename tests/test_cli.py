"""Command line surface: files, determinism, exit codes."""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import csv_oracles
import numpy as np
import pytest
from conftest import K16_STARTS
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hardyshift
from hardyshift import cli, construction
from hardyshift.construction import ConstructionConfig
from hardyshift.search import (
    MAX_POWER,
    InfeasibleConstructionError,
    NumericalInfeasibility,
    TruncationError,
    delta_for_epsilon,
)
from hardyshift.weights import WeightSequence


def first_difference(new: str, old: str) -> tuple | None:
    """(line number, new line, old line) of the first line at which two
    texts differ, None for equal texts: a short failure message where
    pytest's diff of two long texts takes minutes."""
    pairs = enumerate(itertools.zip_longest(new.split("\n"), old.split("\n")))
    return next(((i, a, b) for i, (a, b) in pairs if a != b), None)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def config_with(constructed: Path, path: Path, **change) -> Path:
    """The constructed K = 3 config with these fields changed, written to path."""
    data = json.loads((constructed / "config.json").read_text())
    path.write_text(json.dumps({**data, **change}))
    return path


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
    # the column names come from the Decay record's field names
    assert header == ["k", "start",
                      "threshold_laplacian_sup", "bound_laplacian_sup",
                      "threshold_gradient_sup", "bound_gradient_sup",
                      "threshold_laplacian_carleson", "bound_laplacian_carleson",
                      "threshold_gradient_sq_carleson", "bound_gradient_sq_carleson"]
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
    for entry in manifest["outputs"]:
        data = (constructed / entry["name"]).read_bytes()
        assert entry["bytes"] == len(data)
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv, names", [
    (["construct", "--alpha", "1", "--delta", "0.5", "--K", "2"], ["config.json", "certificate.csv"]),
    (["verify", "{config}", "--epsilon", "2"], ["conditions.csv", "report.json"]),
    (["lemma", "10", "100"], ["lemma.csv"]),
    (["curvature", "{config}", "--points", "50"], ["curvature.csv"]),
    (["orbit", "{config}", "40"], ["orbit.csv"]),
    (["weights", "{config}", "--n-max", "30"], ["weights.csv"])])
def test_every_manifest_lists_the_bytes_on_disk(constructed, tmp_path, argv, names):
    # main writes each file and hashes the bytes it wrote; the manifest must
    # name exactly the files in --out, in order, with their size and digest
    config = str(constructed / "config.json")
    argv = [config if a == "{config}" else a for a in argv]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    manifest_name = f"{argv[0]}_manifest.json"
    manifest = json.loads((out / manifest_name).read_text())
    assert manifest["command"] == argv[0]
    assert manifest["config_path"] == (None if argv[0] in ("construct", "lemma") else config)
    assert sorted(p.name for p in out.iterdir()) == sorted([*names, manifest_name])
    assert [entry["name"] for entry in manifest["outputs"]] == names
    for entry in manifest["outputs"]:
        data = (out / entry["name"]).read_bytes()
        assert entry == {"name": entry["name"], "bytes": len(data),
                         "sha256": hashlib.sha256(data).hexdigest()}
    # main puts the config it read first, then the subcommand's own keys
    own = {"construct": ["alpha", "delta", "epsilon", "K"],
           "verify": ["epsilon", "seed"], "lemma": ["powers"], "curvature": ["points"],
           "orbit": ["n_max"], "weights": ["n_max"]}[argv[0]]
    params = manifest["parameters"]
    if manifest["config_path"] is None:
        assert list(params) == own
    else:
        assert list(params) == ["config", *own]
        assert params["config"] == ConstructionConfig.from_json(Path(config).read_text()).to_dict()


@pytest.mark.parametrize("argv", [
    ["construct", "--alpha", "1", "--delta", "0", "--K", "1"],
    ["verify", "{absent}"],
    ["lemma", "0"],
    ["curvature", "{tiny_rmax}"],
    ["orbit", "{absent}", "40"],
    ["weights", "{config}", "--n-max", "-1"]])
def test_a_command_that_fails_before_it_returns_makes_no_out_dir(constructed, tmp_path, argv):
    # main makes --out only to write what a subcommand returned
    tiny = config_with(constructed, tmp_path / "tiny.json", r_max=1e-300)
    paths = {"{config}": str(constructed / "config.json"),
             "{absent}": str(tmp_path / "absent.json"), "{tiny_rmax}": str(tiny)}
    out = tmp_path / "out"
    assert cli.main([*(paths.get(a, a) for a in argv), "--out", str(out)]) == 3
    assert not out.exists()


def test_construct_epsilon_maps_to_delta(tmp_path):
    assert cli.main(["construct", "--alpha", "1", "--epsilon", "0.5", "--K", "1",
                     "--out", str(tmp_path)]) == 0
    config = json.loads((tmp_path / "config.json").read_text())
    assert config["delta"] == 0.125


def test_construct_rejects_zero_delta(tmp_path):
    assert cli.main(["construct", "--alpha", "1", "--delta", "0", "--K", "1",
                     "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("epsilon", ["nan", "inf", "0", "-1"])
def test_verify_rejects_non_finite_epsilon(constructed, tmp_path, monkeypatch, epsilon):
    # non-positive values too; all are rejected before the ratio
    # verification, which takes 0.6 s at K = 8
    def measured(*args, **kwargs):
        raise AssertionError("the ratio verification ran")

    monkeypatch.setattr(construction, "verify_f_conditions", measured)
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
    # the spike row names come from the Decay record's field names
    spike_rows = [f"spike{k}_{name}" for k in (1, 2, 3)
                  for name in ("value_sup", "laplacian_sup", "gradient_sup",
                               "laplacian_carleson", "gradient_sq_carleson")]
    assert names == ["ratio_deviation", "laplacian_sup", "gradient_sup",
                     "laplacian_carleson", "gradient_carleson", *spike_rows,
                     "ratio_band", "curvature_sup", "curvature_carleson", "coisometry_band"]
    # at alpha = 1 the exact band is [1/2, 2], attained on the spike slopes
    assert rows[names.index("coisometry_band")][2] == "1"
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert report["seed"] == 0
    # Carleson rows are total masses, and no depth scan is reported
    curvature = report["reports"]["curvature_match"]
    assert set(curvature) == {"passed", "meta", "conditions"}
    manifest = json.loads((tmp_path / "verify_manifest.json").read_text())
    assert manifest["config_path"] == str(constructed / "config.json")


def test_small_delta_construction_certifies_and_verifies(tmp_path):
    # starts up to 5e8, where the gradient sup must come from G' because the
    # expanded s G'^2 cancels; the starts are not frozen, since the gate is
    # not yet proven monotone in the start
    assert cli.main(["construct", "--alpha", "1", "--delta", "1e-6", "--K", "5",
                     "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "certificate.csv")
    assert len(rows) == 5
    for row in rows:
        for thr, bound in zip(row[2::2], row[3::2]):
            assert float(bound) <= float(thr)
    assert cli.main(["verify", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "verify")]) == 0


def test_construct_and_verify_16_spikes(tmp_path):
    # the spike count has no cap of its own; every row of the 16-spike layout passes
    assert cli.main(["construct", "--alpha", "1", "--delta", "0.5", "--K", "16",
                     "--out", str(tmp_path)]) == 0
    config = json.loads((tmp_path / "config.json").read_text())
    assert tuple(config["spike_starts"]) == K16_STARTS
    assert cli.main(["verify", str(tmp_path / "config.json"), "--epsilon", "2",
                     "--out", str(tmp_path / "verify")]) == 0
    _, rows = read_csv(tmp_path / "verify" / "conditions.csv")
    assert len(rows) == 89
    assert all(row[-1] == "true" for row in rows)


def test_construct_past_the_search_reach_is_numerical_infeasibility(tmp_path, capsys):
    # at delta 0.5 spike 33 finds no start at or below MAX_START
    assert cli.main(["construct", "--alpha", "1", "--delta", "0.5", "--K", "33",
                     "--out", str(tmp_path)]) == 4
    assert "spike 33 " in capsys.readouterr().err
    assert not (tmp_path / "config.json").exists()


def test_verify_fails_on_halved_positions(constructed, tmp_path):
    config = json.loads((constructed / "config.json").read_text())
    config["spike_starts"] = [max(1, s // 2) for s in config["spike_starts"]]
    bad = tmp_path / "halved.json"
    bad.write_text(json.dumps(config))
    rc = cli.main(["verify", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    _, rows = read_csv(tmp_path / "conditions.csv")
    assert any(row[-1] == "false" for row in rows)
    # a failed condition is a measurement: its files and manifest are written
    assert json.loads((tmp_path / "report.json").read_text())["passed"] is False
    manifest = json.loads((tmp_path / "verify_manifest.json").read_text())
    assert [entry["name"] for entry in manifest["outputs"]] == ["conditions.csv", "report.json"]


def test_curvature_checks_the_kernel_ratio_at_the_config_tolerance(tmp_path, capsys):
    # the kernel ratio misses (1-s) K by 4.49e-17 here; curvature checked it
    # at the default tol 1e-9 and exited 0 where verify exits 4
    config = tmp_path / "tight.json"
    config.write_text(json.dumps({"alpha": 0.6, "delta": 0.5, "K": 3, "spike_starts": [2, 26, 103],
                                  "r_max": 0.999, "tol": 1e-17}))
    for argv in (["verify", str(config)], ["curvature", str(config), "--points", "50"]):
        out = tmp_path / argv[0]
        assert cli.main([*argv, "--out", str(out)]) == 4, argv
        assert "kernel ratio misses (1-s) K by up to 4.48" in capsys.readouterr().err, argv
        assert not out.exists()


def test_verify_rejects_malformed_config(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text('{"alpha": 1.0')
    assert cli.main(["verify", str(broken), "--out", str(tmp_path)]) == 3
    missing_key = tmp_path / "missing.json"
    missing_key.write_text('{"alpha": 1.0}')
    assert cli.main(["verify", str(missing_key), "--out", str(tmp_path)]) == 3
    assert cli.main(["verify", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path)]) == 3
    # K and the starts must be JSON integers, the rest JSON numbers; none a
    # boolean or a string, and nothing is truncated to fit
    valid = {"alpha": 1, "delta": 0.5, "K": 2, "spike_starts": [3, 32],
             "r_max": 0.999, "tol": 1e-9}
    assert ConstructionConfig.from_dict(valid).alpha == 1.0
    coerced = tmp_path / "coerced.json"
    for change in ({"K": 2.9, "spike_starts": [3.9, 32.2]},
                   {"alpha": True, "K": True, "spike_starts": [3]},
                   {"K": 2.0}, {"spike_starts": [3, 32.0]}, {"spike_starts": [3, True]},
                   {"spike_starts": 3}, {"alpha": "1"}, {"delta": False}, {"r_max": None},
                   {"tol": [1e-9]}):
        coerced.write_text(json.dumps({**valid, **change}))
        assert cli.main(["verify", str(coerced), "--out", str(tmp_path)]) == 3, change


@pytest.mark.parametrize("text", ["5", "null", "true", "1.5"])
def test_config_that_is_not_an_object_is_input_error(tmp_path, capsys, text):
    # from_dict called set(data), a TypeError traceback and exit 1
    config = tmp_path / "config.json"
    config.write_text(text)
    for argv in (["verify", str(config)], ["curvature", str(config)],
                 ["orbit", str(config), "130"], ["weights", str(config)]):
        assert cli.main([*argv, "--out", str(tmp_path)]) == 3, argv
        assert capsys.readouterr().err.startswith("input error: config must be a JSON object")


def test_config_error_names_a_long_value_by_its_type(tmp_path, capsys):
    # from_dict echoed the value whole: an array of 300,000 zeros gave a
    # 900,048-byte stderr line; the value checks print a bounded repr, where
    # K as that array gave 900,047 bytes and 100,000 extra keys 988,928
    valid = {"alpha": 1, "delta": 0.5, "K": 2, "spike_starts": [3, 32], "r_max": 0.999,
             "tol": 1e-9}
    long, cut = "1" * 300_000, "'" + "1" * 12 + "..." + "1" * 13 + "'"
    config = tmp_path / "config.json"
    for data, message in (
            ([0] * 300_000, "config must be a JSON object, got an array of length 300000"),
            ({**valid, "spike_starts": "3, 32" * 50_000},
             "config spike_starts must be an array, got a string of length 250000"),
            ({**valid, "K": [0] * 300_000},
             "n_spikes must be an integer, got [0, 0, 0, 0, 0, 0, ...]"),
            ({**valid, "alpha": long}, f"alpha must be a real number, got {cut}"),
            ({**valid, "spike_starts": [3, long]}, f"spike starts must be integers, got {cut}"),
            ({**valid, **{f"x{i}": 0 for i in range(100_000)}},
             "unexpected config keys: ['x0', 'x1', 'x10', 'x100', 'x1000', 'x10000', ...]")):
        config.write_text(json.dumps(data))
        assert cli.main(["weights", str(config), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err == f"input error: {message}\n" and len(err.encode()) < 200
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["weights", "verify"])
def test_config_nested_too_deep_is_input_error(tmp_path, capsys, command):
    # json's decoder raised RecursionError, which main reported as exit 4
    config = tmp_path / "config.json"
    config.write_text("[" * 200_000 + "]" * 200_000)
    assert cli.main([command, str(config), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("input error: config JSON nests too deeply")
    assert not (tmp_path / "out").exists()


def test_verify_rejects_starts_past_the_search_cap(tmp_path, capsys):
    # at start 2^60 the verifier's grid misses the bump and read every
    # spike2 sup as 0, a PASS; such a start is bad input
    config = tmp_path / "far.json"
    config.write_text(json.dumps({"alpha": 1.0, "delta": 0.5, "K": 2,
                                  "spike_starts": [3, 2**60], "r_max": 0.999, "tol": 1e-9}))
    assert cli.main(["verify", str(config), "--epsilon", "2", "--out", str(tmp_path)]) == 3
    assert "must not exceed" in capsys.readouterr().err


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


def test_lemma_accepts_powers_up_to_the_search_range_only(tmp_path, capsys):
    # no spike gate reads a power past MAX_POWER (a grid lemma once read the
    # sups as 0 at 2^56), and 10^20 overflowed int64
    assert cli.main(["lemma", str(MAX_POWER), "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "lemma.csv")
    n = int(rows[0][0])
    assert n == MAX_POWER
    # each column sits at its limit (n^2 for the squared gradient): 1/e,
    # 0.146525, 0.023871, 4 pi / e^2 and pi / 16, two of them given to six
    # digits only
    scales = (n, n, n * n, n, n * n)
    limits = (math.exp(-1), 0.146525, 0.023871, 4 * math.pi * math.exp(-2), math.pi / 16)
    for value, scale, limit in zip(rows[0][1:6], scales, limits):
        assert float(value) * scale == pytest.approx(limit, rel=1e-3)
    capsys.readouterr()
    for n in (MAX_POWER + 1, 10**20):
        assert cli.main(["lemma", str(n), "--out", str(tmp_path / "past")]) == 3
        assert "n must lie in" in capsys.readouterr().err
    assert not (tmp_path / "past" / "lemma.csv").exists()


def test_curvature_table_on_flat_weights(tmp_path):
    from hardyshift.grids import boundary_refined_grid

    # the grid ends at the config's r_max
    config = {"alpha": 1.0, "delta": 0.5, "K": 0, "spike_starts": [],
              "r_max": 0.95, "tol": 1e-9}
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(config))
    assert cli.main(["curvature", str(path), "--points", "50", "--out", str(tmp_path)]) == 0
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
    assert float(rows[-1][0]) == boundary_refined_grid(50, -np.log2(1.0 - 0.95))[-1]
    assert len(rows) == 50


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rmax", ["0", "1", "1.5", "nan", "1e-300", "5e-324"])
def test_curvature_rejects_rmax_outside_unit_interval(constructed, tmp_path, capsys, rmax):
    # the config rejects an r_max outside (0, 1); 1e-300 and 5e-324 lie in
    # it, but 1 - r_max rounds to 1 and the grid would be empty
    config = config_with(constructed, tmp_path / "config.json", r_max=float(rmax))
    out = tmp_path / "out"
    assert cli.main(["curvature", str(config), "--out", str(out)]) == 3
    message = ("r_max must exceed 2**-54 for a curvature grid" if rmax in ("1e-300", "5e-324")
               else "r_max must lie in (0, 1)")
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("points", ["0", "1", "-3"])
def test_curvature_rejects_fewer_than_two_points(constructed, tmp_path, capsys, points):
    out = tmp_path / "out"
    assert cli.main(["curvature", str(constructed / "config.json"), "--points", points,
                     "--out", str(out)]) == 3
    assert "--points must be at least 2" in capsys.readouterr().err
    assert not out.exists()


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
    # both tables are exact (powers of 4 and their roots): frozen bytes
    for name, digest in (
            ("orbit.csv", "09717d7d915c96e9caf9dadc9e4744c9b2da27632b03ad5b1891b85ca1a8413e"),
            ("weights.csv", "5020049998422fe25630fbef16e3e390a13f46cc09f813192d3622b50471055a")):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_csv_writer_follows_the_per_cell_rules(tmp_path):
    # every column is formatted at once; the result must be what formatting
    # each cell by itself gives: str(int) for integers, %.17g for floats
    ints = [7, np.int64(-3), 2**40, 0]
    floats = [0.1, -0.0, 5e-324, 1e300, math.nan, math.inf, float(2**40), -math.inf]
    path = tmp_path / "edge.csv"
    path.write_text("".join(cli._csv({"i": ints, "i64": np.array(ints, dtype=np.int64),
                                      "x": floats[:4], "y": np.array(floats[4:]),
                                      "text": ["a", "", "b c", "d"]})))
    expected = ["i,i64,x,y,text"] + [
        ",".join([str(int(i)), str(int(i)), "%.17g" % float(x), "%.17g" % float(y), t])
        for i, x, y, t in zip(ints, floats[:4], floats[4:], ["a", "", "b c", "d"])]
    assert path.read_text() == "\n".join(expected) + "\n"
    path.write_text("".join(cli._csv({"n": [], "weight": np.zeros(0)})))
    assert path.read_text() == "n,weight\n"


def test_csv_writer_formats_lists_and_arrays_alike(tmp_path):
    # a column's format follows the Python type of its values after
    # tolist(), so a list and an array of the same values write the same bytes
    columns = {"n": [0, -7, 2**40], "x": [0.1, -0.0, 5e-324], "text": ["a", "", "true"]}
    as_lists, as_arrays = tmp_path / "lists.csv", tmp_path / "arrays.csv"
    as_lists.write_text("".join(cli._csv(columns)))
    as_arrays.write_text("".join(cli._csv({name: np.array(values)
                                           for name, values in columns.items()})))
    assert as_lists.read_bytes() == as_arrays.read_bytes()
    assert as_lists.read_text().splitlines() == [
        "n,x,text", "0,0.10000000000000001,a", "-7,-0,", "1099511627776,4.9406564584124654e-324,true"]


def test_csv_writer_matches_the_per_cell_writer(tmp_path):
    # the one-pass writer against the earlier per-cell one, on the cells
    # a value memo or a row template could get wrong
    floats = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308, 0.1]
    columns = {"n": list(range(len(floats))), "x": floats, "y": np.array(floats[::-1]),
               "big": np.array([2**40, -1, 0, 7, 2**62, -(2**62), 3, 4], dtype=np.int64),
               "text": ["a", "", "%s", "%d", "b c", "-0", "nan", "100%"]}
    for name, cols in (("edge", columns), ("empty", {"n": [], "x": np.zeros(0), "t": []}),
                       ("one_column", {"x": floats})):
        new, old = tmp_path / f"{name}_new.csv", tmp_path / f"{name}_old.csv"
        new.write_text("".join(cli._csv(cols)))
        csv_oracles.write_csv(old, cols)
        assert new.read_bytes() == old.read_bytes(), name
    assert (tmp_path / "edge_new.csv").read_text().splitlines()[1:3] == [
        "0,-0,0.10000000000000001,1099511627776,a", "1,0,2.2250738585072014e-308,-1,"]


@st.composite
def csv_tables(draw):
    """Equal-length int, float and text columns of up to 20 rows; a column
    draws from a pool of one or two values half the time, so that whole
    columns repeat a value, or two equal ones that print apart (0.0 and
    -0.0 are frequent), and some tables vary in no column."""
    rows = draw(st.integers(0, 20))

    def column(values, frequent):
        if draw(st.booleans()):
            pool = st.one_of(st.sampled_from(frequent), values)
            values = st.sampled_from(draw(st.lists(pool, min_size=1, max_size=2)))
        return draw(st.lists(values, min_size=rows, max_size=rows))

    return (column(st.integers(), [0, 1]), column(st.floats(), [0.0, -0.0]),
            column(st.text(alphabet="ab%s-0 ."), ["%", "100%"]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(table=csv_tables())
@example(table=([1, 1], [0.5, 0.5], ["100%", "100%"]))  # no column varies
def test_csv_writer_matches_the_per_cell_writer_on_random_tables(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("csv")
    ints, floats, texts = table
    columns = {"i": ints, "x": floats, "x_array": np.array(floats, dtype=float), "t": texts}
    (path / "new.csv").write_text("".join(cli._csv(columns)))
    csv_oracles.write_csv(path / "old.csv", columns)
    assert (path / "new.csv").read_bytes() == (path / "old.csv").read_bytes()


@pytest.mark.parametrize("rows", [0, 1, cli._CSV_ROWS - 1, cli._CSV_ROWS, cli._CSV_ROWS + 1,
                                  2 * cli._CSV_ROWS + 1])
def test_csv_chunks_join_to_the_per_cell_writer(tmp_path, rows):
    # the header, then one chunk per block of at most _CSV_ROWS rows, on
    # lists, ranges and arrays; the block edges must not move a byte
    floats = [math.ldexp(1.0 + i / 7, i % 50 - 25) for i in range(rows)]
    columns = {"n": range(rows), "i": list(range(-rows, 0)), "x": floats,
               "x_array": np.array(floats), "k": np.arange(rows, dtype=np.int64),
               "t": ["-0" if i % 3 else "" for i in range(rows)]}
    chunks = list(cli._csv(columns))
    assert chunks[0] == "n,i,x,x_array,k,t\n"
    assert len(chunks) == 1 + -(-rows // cli._CSV_ROWS)
    assert all(0 < c.count("\n") <= cli._CSV_ROWS for c in chunks[1:])
    csv_oracles.write_csv(tmp_path / "old.csv", columns)
    assert "".join(chunks) == (tmp_path / "old.csv").read_text()


@pytest.mark.parametrize("rows", [cli._CSV_ROWS - 1, cli._CSV_ROWS + 1, 2 * cli._CSV_ROWS + 1])
def test_csv_constant_chunks_match_the_per_cell_writer(tmp_path, rows):
    # a column whose cells all equal over a chunk is formatted once per
    # chunk; equal values that print apart, NaN and a literal % must not
    # move a byte, whether the column stands alone or beside varying ones
    spiky = [1.0] * rows
    spiky[3:8] = [2.0, 4.0, 8.0, 4.0, 2.0]  # a weights-like column, spikes in chunk 0 only
    zero = [0.0] * rows
    zero[rows // 2] = -0.0
    columns = {"n": range(rows), "weight": spiky, "weight_array": np.array(spiky),
               "minus_zero": [-0.0] * rows, "zero": zero, "nan_shared": [math.nan] * rows,
               "nan_distinct": [float("nan") for _ in range(rows)],
               "inf": [math.inf] * rows, "percent": ["100%"] * rows}
    for name, table in {"all": columns,
                        **{name: {name: col} for name, col in columns.items()}}.items():
        csv_oracles.write_csv(tmp_path / f"{name}.csv", table)
        text = "".join(cli._csv(table))
        assert first_difference(text, (tmp_path / f"{name}.csv").read_text()) is None, name


def test_weights_manifest_digests_a_table_of_many_chunks(constructed, tmp_path):
    # 3 * _CSV_ROWS + 2 rows: main hashes the chunks as it writes them
    n_max = 3 * cli._CSV_ROWS
    assert cli.main(["weights", str(constructed / "config.json"), "--n-max", str(n_max),
                     "--out", str(tmp_path)]) == 0
    data = (tmp_path / "weights.csv").read_bytes()
    assert data.count(b"\n") == n_max + 2
    manifest = json.loads((tmp_path / "weights_manifest.json").read_text())
    assert manifest["outputs"] == [{"name": "weights.csv", "bytes": len(data),
                                    "sha256": hashlib.sha256(data).hexdigest()}]


def test_weights_table_is_never_held_whole(constructed, tmp_path, capsys):
    # 200,001 rows, 1.7 MB of text: the weight list and one chunk at a time
    # stay under 5 MB (a 20 MB peak when the table was formatted whole)
    import tracemalloc

    tracemalloc.start()
    try:
        assert cli.main(["weights", str(constructed / "config.json"), "--n-max", "200000",
                         "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "weights.csv").stat().st_size > 1_600_000
    assert peak < 5_000_000, peak
    assert capsys.readouterr().out == f"wrote weights 0..200000 to {tmp_path / 'weights.csv'}\n"


@pytest.mark.parametrize("argv", [["weights", "{config}", "--n-max", "10"],
                                  ["orbit", "{config}", "10"],
                                  ["curvature", "{config}", "--points", "20"],
                                  ["construct", "--alpha", "1", "--delta", "0.5", "--K", "2"],
                                  ["lemma", "1", "10"],
                                  ["verify", "{config}"]])
def test_a_table_command_that_cannot_write_prints_nothing(constructed, tmp_path, capsys, argv):
    # the "wrote ..." line, construct's config, lemma's and verify's report
    # lines come only after main has written the files
    (tmp_path / "notadir").write_text("")
    config = str(constructed / "config.json")
    argv = [config if a == "{config}" else a for a in argv]
    assert cli.main([*argv, "--out", str(tmp_path / "notadir" / "sub")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and "Not a directory" in captured.err


def test_construct_without_spikes_writes_a_header_only_certificate(tmp_path):
    assert cli.main(["construct", "--alpha", "1", "--delta", "0.5", "--K", "0",
                     "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "config.json").read_text())["spike_starts"] == []
    assert (tmp_path / "certificate.csv").read_text() == (
        "k,start,threshold_laplacian_sup,bound_laplacian_sup,threshold_gradient_sup,"
        "bound_gradient_sup,threshold_laplacian_carleson,bound_laplacian_carleson,"
        "threshold_gradient_sq_carleson,bound_gradient_sq_carleson\n")


def test_conditions_table_leaves_a_missing_argmax_empty(constructed, tmp_path):
    # the coisometry band and the Carleson rows have no argmax_r (None)
    assert cli.main(["verify", str(constructed / "config.json"), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    conditions = report["reports"]["ratio_flatness"]["conditions"] + report["coisometry"]
    _, rows = read_csv(tmp_path / "conditions.csv")
    assert [r[0] for r in rows] == [c["condition"] for c in conditions]
    assert any(c["argmax_r"] is None for c in conditions)
    for row, cond in zip(rows, conditions):
        if cond["argmax_r"] is None:
            assert row[3] == ""
        else:
            assert row[3] == "%.17g" % cond["argmax_r"]
        assert row[4] == ("true" if cond["pass"] else "false")


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
        assert cli.main(["orbit", str(out / "config.json"), "60", "--out", str(out)]) == 0
        assert cli.main(["weights", str(out / "config.json"), "--out", str(out)]) == 0
    for name in ("config.json", "certificate.csv", "conditions.csv", "report.json",
                 "lemma.csv", "curvature.csv", "orbit.csv", "weights.csv"):
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

    monkeypatch.setattr(construction, "verify_f_conditions", blown)
    assert cli.main(["verify", str(constructed / "config.json"),
                     "--out", str(tmp_path)]) == 4


def test_numerical_errors_are_the_core_exceptions(constructed, tmp_path, monkeypatch, capsys):
    # cli.main catches them from hardyshift.search, which imports no numpy;
    # the numpy layer raises the classes it imports from there
    from hardyshift import search

    def mismatched(*args, **kwargs):
        raise search.DecompositionMismatchError("slope parameter and weights are inconsistent")

    monkeypatch.setattr(construction, "verify_f_conditions", mismatched)
    assert cli.main(["verify", str(constructed / "config.json"),
                     "--out", str(tmp_path)]) == 4
    assert "numerical infeasibility" in capsys.readouterr().err
    # main catches their base alone, which library callers may still catch as RuntimeError
    from hardyshift.grids import QuadratureError
    assert all(issubclass(error, search.NumericalInfeasibility) for error in (
        search.InfeasibleConstructionError, search.TruncationError,
        search.DecompositionMismatchError, search.RootNotConvergedError, QuadratureError))
    assert issubclass(search.NumericalInfeasibility, RuntimeError)


def test_exit_code_for_a_measurement_that_is_not_finite(constructed, tmp_path, monkeypatch,
                                                      capsys):
    # a NaN row never passes (NaN <= threshold is false), but it is no
    # measured failure either: it is numerical infeasibility
    measured = construction.verify_f_conditions

    def nan_row(config):
        report = measured(config)
        rows = [c._replace(measured=math.nan, passed=False)
                if c.condition == "laplacian_carleson" else c for c in report.conditions]
        return report._replace(conditions=tuple(rows))

    monkeypatch.setattr(construction, "verify_f_conditions", nan_row)
    assert cli.main(["verify", str(constructed / "config.json"),
                     "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "numerical infeasibility" in err and "laplacian_carleson" in err
    # the rows were measured, so they are written
    _, rows = read_csv(tmp_path / "conditions.csv")
    assert [rows[3][i] for i in (0, 2, 4)] == ["laplacian_carleson", "nan", "false"]
    assert (tmp_path / "verify_manifest.json").exists()
    # with an --out that cannot be made, no row is written and the input
    # error is the one message: verify printed its own exit-4 line before it
    (tmp_path / "notadir").write_text("")
    assert cli.main(["verify", str(constructed / "config.json"),
                     "--out", str(tmp_path / "notadir" / "sub")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err


def test_exit_code_for_a_theorem_row_that_is_not_finite(constructed, tmp_path, monkeypatch,
                                                        capsys):
    # the theorem rows are formed in Fraction from the ratio rows; a NaN
    # ratio mass must give a NaN curvature row (exit 4), not a Fraction
    # ValueError (exit 3)
    from hardyshift import carleson

    measured = carleson.term_decay

    def nan_mass(g):
        rows = measured(g)
        rows[3] = (None, math.nan)
        return rows

    monkeypatch.setattr(carleson, "term_decay", nan_mass)
    assert cli.main(["verify", str(constructed / "config.json"), "--epsilon", "2",
                     "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "numerical infeasibility" in err and "curvature_carleson" in err


def test_exit_code_for_a_share_that_overflows(constructed, tmp_path, monkeypatch, capsys):
    # numpy turned an overflow into inf, and math raises OverflowError, which
    # cli.main does not catch: an infinite incomplete beta share must still
    # reach the rows as a number that is not finite (exit 4), not a traceback
    from hardyshift import carleson

    monkeypatch.setattr(carleson, "tail_ratio", lambda m, p, t: math.inf)
    assert cli.main(["verify", str(constructed / "config.json"), "--epsilon", "2",
                     "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "numerical infeasibility" in err and "laplacian_carleson" in err
    assert "Traceback" not in err


def test_exit_code_for_a_table_too_large_for_memory(constructed, tmp_path, monkeypatch, capsys):
    # numpy raises MemoryError, naming the size, when it cannot allocate a
    # table; nothing is allocated here, the weight walk raises as numpy would
    message = "Unable to allocate 74.5 GiB for an array with shape (10000000001,)"

    def oversized(self, n0, n1):
        raise MemoryError(message)

    monkeypatch.setattr(WeightSequence, "weight_range", oversized)
    assert cli.main(["weights", str(constructed / "config.json"),
                     "--n-max", "30", "--out", str(tmp_path)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", [["weights", "{config}", "--n-max", str(2 ** 62)],
                                     ["orbit", "{config}", str(2 ** 62)],
                                     ["weights", "{config}", "--n-max", str(2 ** 63)],
                                     ["orbit", "{config}", str(2 ** 63)]])
def test_exit_code_for_a_list_too_large_for_memory(constructed, tmp_path, command, capsys):
    # a list of 2^62 weights fails its size check before it touches memory;
    # past sys.maxsize, [1.0] * n raised OverflowError, a traceback and exit 1
    config = str(constructed / "config.json")
    argv = [config if a == "{config}" else a for a in command]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "input error: table too large for memory\n"


@pytest.mark.parametrize("alpha", [1e100, 1e200])
def test_exit_code_for_an_alpha_whose_peak_weight_overflows(tmp_path, alpha, capsys):
    # (1.0 + 1e200) ** 2 raised OverflowError and 1e100 gave inf weights;
    # the config is rejected before any weight is computed
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"alpha": alpha, "delta": 0.5, "K": 3,
                                  "spike_starts": [3, 32, 117], "r_max": 0.999, "tol": 1e-9}))
    out = ["--out", str(tmp_path)]
    for argv in (["weights", str(config)], ["orbit", str(config), "130"],
                 ["verify", str(config)],
                 ["construct", "--alpha", str(alpha), "--delta", "0.5", "--K", "3"]):
        assert cli.main([*argv, *out]) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("input error: alpha") and "not a finite float" in err, argv
    assert not (tmp_path / "weights.csv").exists()


def test_unknown_subcommand_exits_with_input_error():
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 3


def test_exit_code_for_unconverged_root_search(tmp_path, monkeypatch, capsys):
    # root searches that do not converge are numerical infeasibility, not a
    # crash: the spike search reaches brentq through the lemma's sups
    from hardyshift import search
    from hardyshift.search import RootNotConvergedError

    def unconverged(*args, **kwargs):
        raise RootNotConvergedError("brentq did not converge")

    cli.lemma_bounds.cache_clear()  # earlier tests may have found these roots
    monkeypatch.setattr(search, "brentq", unconverged)
    assert cli.main(["construct", "--alpha", "1", "--delta", "0.5", "--K", "1",
                     "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err.startswith("numerical infeasibility: brentq")


def test_exit_code_for_curvature_routes_that_disagree(constructed, tmp_path, monkeypatch,
                                                      capsys):
    # the route check raises the base class itself, which main reports as
    # every other numerical error of the package
    from hardyshift import spectral

    def disagree(*args, **kwargs):
        raise NumericalInfeasibility("curvature routes disagree at r=0.5")

    monkeypatch.setattr(spectral, "curvature_difference", disagree)
    out = tmp_path / "out"
    assert cli.main(["curvature", str(constructed / "config.json"), "--points", "50",
                     "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("numerical infeasibility: curvature routes")
    assert not out.exists()


FAULT = """
import sys
from hardyshift import cli, search


def fault(*args):
    {body}


search.select_spike_positions = fault
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("body, error", [("raise NotImplementedError('a program bug')",
                                          "NotImplementedError: a program bug"),
                                         ("return fault(*args)", "RecursionError")],
                         ids=["NotImplementedError", "RecursionError"])
def test_a_program_fault_is_a_traceback_and_exit_1(tmp_path, body, error):
    # Python's own RuntimeErrors are no numerical infeasibility: main caught
    # them as exit 4, a fault reported as a property of the input
    src = str(Path(hardyshift.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", FAULT.format(body=body), "construct", "--alpha",
                           "1", "--delta", "0.5", "--K", "1", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("Traceback") and error in proc.stderr
    assert "numerical infeasibility" not in proc.stderr and proc.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("epsilon", [2.0 ** 53, 1e16, 1e300])
def test_construct_accepts_an_epsilon_whose_quotient_rounds_to_one(tmp_path, epsilon):
    # eps/(1+eps) rounds to 1 from eps = 2^53 on; the budget stays below 1
    assert 0.0 < delta_for_epsilon(epsilon) < 1.0
    assert cli.main(["construct", "--alpha", "1", "--epsilon", repr(epsilon), "--K", "2",
                     "--out", str(tmp_path)]) == 0


FOOTPRINT = """
import json, sys
from hardyshift import cli, construction
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


NUMPY_GUARD = """
import json, sys
startup = set(sys.modules)  # a site hook may preload modules


def added():
    watched = ("numpy", "scipy", "dataclasses", "inspect")
    return [name for name in watched if name in sys.modules and name not in startup]


import hardyshift
loaded = [added()]
from hardyshift import cli
loaded.append(added())
for code, argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == code, argv
    loaded.append(added())
listed = [name in dir(hardyshift) for name in hardyshift.__all__]
resolved = [getattr(hardyshift, name) is not None for name in hardyshift.__all__]
print(json.dumps({"loaded": loaded, "listed": all(listed), "resolved": all(resolved)}))
"""


def modules_added(commands: list[tuple[int, list[str]]]) -> dict:
    """NUMPY_GUARD's report on a fresh interpreter that imports the package
    and its cli, then runs each command, which must exit with its code."""
    src = str(Path(hardyshift.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", NUMPY_GUARD, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_but_curvature_load_no_numpy(tmp_path):
    # the spike search, the lemma, the weight and orbit tables and the
    # verifier run on the standard library: neither importing the package or
    # its cli nor these commands loads numpy or scipy, nor dataclasses or
    # inspect (about 10 ms of a cold start); the others read the K = 3
    # config construct writes
    out = ["--out", str(tmp_path)]
    config = str(tmp_path / "config.json")
    commands = [["construct", "--alpha", "1", "--delta", "0.5", "--K", "3", *out],
                ["lemma", "1", "2248", *out],
                ["weights", config, "--n-max", "300", *out],
                ["orbit", config, "130", *out],
                ["verify", config, *out],
                ["verify", config, "--epsilon", "2", *out]]
    result = modules_added([(0, argv) for argv in commands])
    assert result == {"loaded": [[]] * 8, "listed": True, "resolved": True}
    assert len((tmp_path / "weights.csv").read_text().splitlines()) == 302
    assert len((tmp_path / "orbit.csv").read_text().splitlines()) == 132
    assert len((tmp_path / "conditions.csv").read_text().splitlines()) == 1 + 5 + 15 + 3 + 1


def test_curvature_rejects_bad_options_before_loading_numpy(constructed, tmp_path):
    # a config r_max outside (0, 1) or too small for a grid, or a bad
    # --points, exits 3 without paying numpy's import
    config = str(constructed / "config.json")
    bad = [str(config_with(constructed, tmp_path / f"r_max{i}.json", r_max=r_max))
           for i, r_max in enumerate((2.0, 1e-300, 5e-324))]
    out = ["--out", str(tmp_path / "out")]
    result = modules_added([*((3, ["curvature", path, *out]) for path in bad),
                            (3, ["curvature", config, "--points", "1", *out])])
    assert result["loaded"] == [[]] * 6
    assert not (tmp_path / "out").exists()


POOL_PROBE = """
import sys
from hardyshift import cli
assert cli.main(["curvature", *sys.argv[1:]]) == 0
print([line.split()[1] for line in open("/proc/self/status") if line.startswith("Threads:")])
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists() or len(os.sched_getaffinity(0)) < 2,
                    reason="needs /proc/self/status and two usable cores")
def test_curvature_starts_no_blas_pool_unless_asked(constructed, tmp_path):
    # numpy's OpenBLAS starts a worker on each further core, which only
    # spins: no command calls BLAS.  curvature asks for one thread unless
    # OPENBLAS_NUM_THREADS is set, and the pool changes no cell
    src = str(Path(hardyshift.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("OPENBLAS_NUM_THREADS", None)
    tables = []
    for setting, threads in (({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")):
        out = tmp_path / f"threads-{threads}"
        proc = subprocess.run([sys.executable, "-c", POOL_PROBE, str(constructed / "config.json"),
                               "--points", "2000", "--out", str(out)], env={**env, **setting},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"['{threads}']"
        tables.append((out / "curvature.csv").read_bytes())
    assert tables[0] == tables[1]


def test_top_level_names_are_the_submodule_objects():
    # the lazy top level hands out the objects the submodules hold, the
    # numpy layer's re-exports included
    from hardyshift import carleson, grids, search, series, spectral

    assert sorted(hardyshift._ORIGIN) == sorted(hardyshift.__all__)
    for name in hardyshift.__all__:
        value = getattr(hardyshift, name)
        for module in (search, construction, carleson, series, spectral):
            assert getattr(module, name, value) is value, (name, module.__name__)
    assert grids.brentq is search.brentq
    assert carleson.gradient_sq_mass is search.gradient_sq_mass
    assert construction.lemma_bounds is search.lemma_bounds
    with pytest.raises(AttributeError):
        hardyshift.refined_supremum


def traced(tmp_path: Path, name: str, *args: str) -> dict:
    """Spans of `hardybench/tracer.py` running one CLI command in a fresh
    interpreter, which must exit 0; its outputs go to tmp_path / name."""
    repo = Path(__file__).resolve().parents[1]
    src = str(Path(hardyshift.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    spans_path, out = tmp_path / f"{name}.json", tmp_path / name
    proc = subprocess.run([sys.executable, str(repo / "hardybench" / "tracer.py"),
                           str(spans_path), name, *args, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans_path.read_text())


def test_benchmark_tracer_wraps_the_package(constructed, tmp_path):
    # hardybench/tracer.py patches package functions by name; a rename or a
    # new signature or return type must fail here rather than in the
    # benchmark's traced run
    trace = traced(tmp_path, "construct", "--alpha", "1", "--delta", "0.5", "--K", "2")
    assert json.loads((tmp_path / "construct" / "config.json").read_text())["spike_starts"] == [3, 32]
    assert {"construction.lemma_bounds", "construction.measure_spike_conditions",
            "weights.weight_range"} <= set(trace["spans"])
    assert trace["spans"]["construction.lemma_bounds"]["calls"] > 0
    assert trace["counters"]["construction.lemma_bounds.misses"] > 0

    # the table commands on a K = 3 config
    config = str(constructed / "config.json")
    for name, args, span, rows in (("curvature", ("--points", "50"), "spectral.curvature_samples", 50),
                                   ("orbit", ("40",), "operators.orbit_norms", 41),
                                   ("weights", ("--n-max", "30"), "weights.weight_range", 31)):
        trace = traced(tmp_path, name, config, *args)
        assert trace["spans"][span]["calls"] == 1, name
        _, table = read_csv(tmp_path / name / f"{name}.csv")
        assert len(table) == rows, name


def test_benchmark_tracer_wraps_verify(constructed, tmp_path):
    # install() looks up every name it wraps (SeriesGapDensity with its
    # window_integral and sign_roots, radial_carleson_norm, carleson_norm,
    # ...) and fails when one is gone
    trace = traced(tmp_path, "verify", str(constructed / "config.json"), "--epsilon", "2")
    assert trace["spans"]["cli.main"]["calls"] == 1
    assert trace["spans"]["construction.verify_f_conditions"]["calls"] == 1
    assert trace["spans"]["construction.measure_spike_conditions"]["calls"] == 1
    assert trace["spans"]["construction.verify_theorem_conditions"]["calls"] == 1
    # the flatness sups come from the boundary blocks, and the theorem rows
    # from the flatness rows: nothing is sampled in r or integrated by quadrature
    for span in ("grids.refined_supremum", "carleson.quad_window", "series.eval"):
        assert trace["spans"].get(span, {"calls": 0})["calls"] == 0, span
