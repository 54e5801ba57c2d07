"""Command-line interface: exit codes, output formats, config handling,
reproducibility."""

import csv
import dataclasses
import io
import json
import contextlib
import math

import pytest

from fermiflow import overlap_matrix, random_orthonormal, trace_distance_slater
import fermiflow.cli as cli_module
from fermiflow.cli import RunConfig, main
from fermiflow.selftest import interval_passed, slack_passed


def run_cli(args):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL_LEMMA = "verify_lemma.dim=4\nverify_lemma.n=2\nverify_lemma.seeds=2\nverify_lemma.draws=2000\n"


def parse_json(out):
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert set(doc) == {"schema_version", "command", "seed", "timestamp", "report"}
    return doc


def strict_json(out):
    """parse_json, refusing the NaN and Infinity that json.dumps writes by default."""
    def refuse(name):
        raise ValueError(f"non-finite number {name} in the output")

    json.loads(out, parse_constant=refuse)
    return parse_json(out)


def strip_timestamp(out):
    return "\n".join(line for line in out.splitlines() if '"timestamp"' not in line)


def test_verify_lemma_small_run_passes(tmp_path):
    cfg = write_config(tmp_path, SMALL_LEMMA)
    code, out, _ = run_cli(["verify-lemma", "--config", cfg])
    assert code == 0
    doc = parse_json(out)
    assert doc["command"] == "verify-lemma"
    assert doc["report"]["passed"] is True
    assert doc["report"]["worst_inclusion_dev"] <= 1e-9
    assert doc["report"]["worst_mass_dev"] <= 1e-10


def test_verify_lemma_corrupt_kernel_fails(tmp_path):
    cfg = write_config(tmp_path, SMALL_LEMMA)
    code, out, _ = run_cli(["verify-lemma", "--config", cfg, "--corrupt"])
    assert code == 1
    assert json.loads(out)["report"]["passed"] is False


def test_verify_lemma_csv_per_seed_rows_and_summary(tmp_path):
    cfg = write_config(tmp_path, SMALL_LEMMA)
    code, out, _ = run_cli(["verify-lemma", "--config", cfg, "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["dim", "n", "seed", "inclusion_dev", "mass_dev",
                       "repeated_mass", "chi2", "chi2_cutoff"]
    # per-seed rows leave the chi-square cells empty; the `all` row fills them
    assert [row[:3] for row in rows[1:]] == [["4", "2", "0"], ["4", "2", "1"], ["4", "2", "all"]]
    assert all(row[6:] == ["", ""] for row in rows[1:-1])
    assert float(rows[-1][6]) <= float(rows[-1][7])


@pytest.mark.parametrize("dim", [3, 4])
def test_verify_lemma_on_a_full_family_passes(tmp_path, dim):
    # n = dim: the law has one configuration, every draw is it, and the
    # chi-square cutoff at zero degrees of freedom is 0, not NaN
    cfg = write_config(tmp_path, f"verify_lemma.dim={dim}\nverify_lemma.n={dim}\n"
                                 "verify_lemma.seeds=1\nverify_lemma.draws=10\n")
    code, out, _ = run_cli(["verify-lemma", "--config", cfg])
    assert code == 0
    report = strict_json(out)["report"]
    assert report["passed"] is True
    assert report["chi2"] == report["chi2_cutoff"] == 0.0


def test_verify_lemma_cap_exceeded(tmp_path):
    cfg = write_config(tmp_path, SMALL_LEMMA + "enumeration_cap=10\n")
    code, out, err = run_cli(["verify-lemma", "--config", cfg])
    assert code == 2
    assert "cap" in err


def test_bounds_cap_exceeded(tmp_path):
    # dim 6, n 2: each projection law needs C(6, 2) = 15 minors
    cfg = write_config(tmp_path, "bounds.count=2\nbounds.dim=6\nbounds.n=2\n"
                                 "enumeration_cap=10\n")
    code, out, err = run_cli(["bounds", "--config", cfg])
    assert code == 2
    assert "cap" in err
    assert out == ""


def test_config_parse_error_reports_line(tmp_path):
    cfg = write_config(tmp_path, "verify_lemma.dim=4\nnot a pair\n")
    code, _, err = run_cli(["verify-lemma", "--config", cfg])
    assert code == 2
    assert ":2:" in err


def test_config_rejects_bad_format(tmp_path):
    cfg = write_config(tmp_path, "format=yaml\n")
    code, _, err = run_cli(["walsh", "--config", cfg])
    assert code == 2


def test_config_rejects_nonpositive_cap(tmp_path):
    for command, key in [("verify-lemma", "enumeration_cap"), ("bounds", "enumeration_cap"),
                         ("rdm-monotonicity", "dim_cap")]:
        cfg = write_config(tmp_path, f"{key}=0\n")
        code, out, err = run_cli([command, "--config", cfg])
        assert code == 2
        assert f"{key} must be positive, got 0" in err
        assert out == ""


@pytest.mark.parametrize("command, key, value, text", [
    ("verify-lemma", "verify_lemma.seeds", 0, ""),
    ("verify-lemma", "verify_lemma.draws", 0, ""),
    ("bounds", "bounds.count", 0, ""),
    ("bounds", "bounds.budget", 0, "bounds.mode=empirical\n"),
    ("bounds", "bounds.bootstrap_resamples", 0, "bounds.mode=empirical\n"),
    ("bounds", "bounds.bootstrap_resamples", -3, "bounds.mode=empirical\n"),
    ("rdm-monotonicity", "rdm.seeds", 0, ""),
    ("verify-lemma", "verify_lemma.dim", 0, ""),
    ("verify-lemma", "verify_lemma.n", 0, ""),
    ("bounds", "bounds.dim", 0, ""),
    ("bounds", "bounds.n", 0, ""),
    ("bounds", "bounds.n", -2, "bounds.mixed_eigenvalues=3\n"),
    ("rdm-monotonicity", "rdm.dim", 0, ""),
    ("rdm-monotonicity", "rdm.n", 0, ""),
    ("rdm-monotonicity", "w1.tol", -1.0, "rdm.seeds=1\n"),
    ("rdm-monotonicity", "w1.max_iter", 0, "rdm.seeds=1\n"),
    ("example-gap", "gap.n_max", 0, ""),
])
def test_config_rejects_nonpositive_count(tmp_path, monkeypatch, command, key, value, text):
    import fermiflow.cli as cli_module

    def refuse(*args, **kwargs):
        raise AssertionError("an instance was built despite a non-positive count")

    monkeypatch.setattr(cli_module, "random_orthonormal", refuse)
    cfg = write_config(tmp_path, f"{text}{key}={value}\n")
    code, out, err = run_cli([command, "--config", cfg])
    assert code == 2
    assert f"{key} must be positive, got {value}" in err
    assert out == ""


def test_bounds_rejects_negative_mixed_eigenvalues(tmp_path, monkeypatch):
    import fermiflow.cli as cli_module

    def refuse(*args, **kwargs):
        raise AssertionError("an instance was built despite a negative count")

    monkeypatch.setattr(cli_module, "random_orthonormal", refuse)
    cfg = write_config(tmp_path, "bounds.mixed_eigenvalues=-1\n")
    code, out, err = run_cli(["bounds", "--config", cfg])
    assert code == 2
    assert "bounds.mixed_eigenvalues must not be negative, got -1" in err
    assert out == ""


def test_bounds_rejects_n_with_mixed_eigenvalues(tmp_path, monkeypatch):
    import fermiflow.cli as cli_module

    def refuse(*args, **kwargs):
        raise AssertionError("an instance was built despite an unused bounds.n")

    monkeypatch.setattr(cli_module, "random_orthonormal", refuse)
    cfg = write_config(tmp_path, "bounds.n=5\nbounds.mixed_eigenvalues=3\n")
    code, out, err = run_cli(["bounds", "--config", cfg])
    assert code == 2
    assert "bounds.n" in err and "bounds.mixed_eigenvalues" in err
    assert out == ""


def test_mixed_bounds_report_the_family_size_used(tmp_path):
    cfg = write_config(tmp_path, "bounds.mixed_eigenvalues=3\nbounds.count=1\nbounds.dim=4\n")
    code, out, _ = run_cli(["bounds", "--config", cfg])
    assert code == 0
    report = parse_json(out)["report"]
    assert report["n"] == 3 == report["instances"][0]["n_indices"]


def test_rdm_monotonicity_past_the_dim_cap_exits_2(tmp_path):
    cfg = write_config(tmp_path, "rdm.dim=8\nrdm.n=4\nrdm.seeds=1\n")
    code, out, err = run_cli(["rdm-monotonicity", "--config", cfg])
    assert code == 2
    assert "total dimension 4096 exceeds cap 64" in err
    assert out == ""


def test_rdm_monotonicity_meets_no_cap_but_dim_cap(tmp_path):
    # two functions on 20 points: 400 dimensions at k = 2, and states of
    # 160,000 entries, which only dim_cap (squared) holds
    cfg = write_config(tmp_path, "rdm.dim=20\nrdm.n=2\nrdm.seeds=1\ndim_cap=400\n")
    code, out, err = run_cli(["rdm-monotonicity", "--config", cfg])
    assert code == 0, err
    report = parse_json(out)["report"]
    assert report["passed"] is True
    assert report["rows"][0]["iterations"][1] >= 1


def test_unknown_flag_is_a_usage_error():
    code, _, _ = run_cli(["walsh", "--frobnicate"])
    assert code == 2


def test_walsh_json_values():
    code, out, _ = run_cli(["walsh"])
    assert code == 0
    rep = parse_json(out)["report"]
    assert rep["covariance_adjacent_cells"] == -0.25
    assert rep["covariance_adjacent_cells_alt"] == 0.0
    assert rep["density_transport_rhs"] == 0.0
    assert rep["tv_exact"] == 0.5
    assert rep["wsharp_exact"] == 0.5
    assert rep["tv_bound"] == 1.0
    assert rep["wsharp_bound"] == pytest.approx(1.7320508075688772)
    assert rep["passed"] is True


def test_walsh_csv_golden_header():
    code, out, _ = run_cli(["walsh", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["covariance_adjacent_cells", "covariance_adjacent_cells_alt",
                       "density_transport_rhs", "tv_exact", "wsharp_exact",
                       "tv_bound", "wsharp_bound"]
    assert rows[1][0] == "-0.25"
    assert len(rows) == 2


SMALL_CONFIGS = {
    "verify-lemma": SMALL_LEMMA,
    "walsh": "",
    "bounds": "bounds.count=2\nbounds.dim=5\n",
    "rdm-monotonicity": "rdm.seeds=1\n",
    "example-gap": "gap.n_max=3\n",
    "selftest": "selftest.only=walsh_exhibit,gap_table\n",
}


STRICT_CONFIGS = {
    **{command: (command, text) for command, text in SMALL_CONFIGS.items()},
    "bounds-empirical": ("bounds", "bounds.count=1\nbounds.dim=5\nbounds.mode=empirical\n"
                                   "bounds.budget=2000\nbounds.bootstrap_resamples=50\n"),
    "bounds-mixed": ("bounds", "bounds.count=1\nbounds.dim=5\nbounds.mixed_eigenvalues=3\n"),
    # its verdict is computed from numpy values
    "selftest-ascent": ("selftest", "selftest.only=stabilizer_ascent_agreement\n"),
}


@pytest.mark.parametrize("case", list(STRICT_CONFIGS))
def test_every_subcommand_writes_strict_json(tmp_path, case):
    command, text = STRICT_CONFIGS[case]
    cfg = write_config(tmp_path, text)
    code, out, err = run_cli([command, "--config", cfg, "--format", "json"])
    assert code == 0, err
    assert strict_json(out)["command"] == command


@pytest.mark.parametrize("command", list(SMALL_CONFIGS))
def test_deterministic_output(tmp_path, command):
    cfg = write_config(tmp_path, SMALL_CONFIGS[command])
    docs = []
    for _ in range(2):
        code, out, _ = run_cli([command, "--config", cfg, "--format", "json"])
        assert code == 0
        doc = parse_json(out)
        del doc["timestamp"]
        for result in doc["report"].get("results", ()):
            del result["elapsed_seconds"]  # selftest wall clock
        docs.append(doc)
    assert docs[0] == docs[1]


def test_common_flags_accepted_before_and_after_subcommand():
    code_a, out_a, _ = run_cli(["--seed", "5", "walsh"])
    code_b, out_b, _ = run_cli(["walsh", "--seed", "5"])
    assert code_a == code_b == 0
    assert strip_timestamp(out_a) == strip_timestamp(out_b)


def test_cli_flag_overrides_config_seed(tmp_path):
    cfg = write_config(tmp_path, "seed=3\n")
    _, out, _ = run_cli(["walsh", "--config", cfg])
    assert parse_json(out)["seed"] == 3
    _, out, _ = run_cli(["walsh", "--config", cfg, "--seed", "9"])
    assert parse_json(out)["seed"] == 9


def test_out_writes_file_and_silences_stdout(tmp_path):
    target = tmp_path / "walsh.json"
    code, out, _ = run_cli(["walsh", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert parse_json(target.read_text())["command"] == "walsh"


def test_bounds_sweep_small(tmp_path):
    cfg = write_config(tmp_path, "bounds.count=3\nbounds.dim=5\nbounds.n=2\n")
    code, out, _ = run_cli(["bounds", "--config", cfg])
    assert code == 0
    rep = parse_json(out)["report"]
    assert rep["passed"] is True
    assert len(rep["instances"]) == 3
    assert rep["min_tv_slack"] >= -1e-9
    assert rep["min_wsharp_slack"] >= -1e-9


def test_bounds_verdict_is_the_selftest_slack_verdict(tmp_path, monkeypatch):
    # selftest check 4 and `bounds` judge a slack by the one function
    assert slack_passed(-1e-9) and not slack_passed(-2e-9) and not slack_passed(math.nan)
    cfg = write_config(tmp_path, "bounds.count=1\nbounds.dim=5\n")
    assert run_cli(["bounds", "--config", cfg])[0] == 0
    monkeypatch.setattr("fermiflow.cli.slack_passed", lambda slack: False)
    code, out, _ = run_cli(["bounds", "--config", cfg])
    assert code == 1 and parse_json(out)["report"]["passed"] is False


@pytest.mark.parametrize("distance", ["tv", "wsharp"])
def test_empirical_bounds_fail_when_a_bound_lies_below_its_interval(tmp_path, monkeypatch,
                                                                     distance):
    # a sampled value is judged by its interval: past rounding, a bound below
    # the interval's lower end is refuted
    assert interval_passed(0.0, (1e-9, 1.0)) and not interval_passed(0.0, (2e-9, 1.0))
    cfg = write_config(tmp_path, STRICT_CONFIGS["bounds-empirical"][1])
    code, out, _ = run_cli(["bounds", "--config", cfg])
    assert code == 0 and parse_json(out)["report"]["passed"] is True
    measure = cli_module.verify_instance

    def above_the_bound(*args, **kwargs):
        rep = measure(*args, **kwargs)
        bound = getattr(rep, f"{distance}_bound")
        return dataclasses.replace(rep, **{f"{distance}_ci": (bound + 1e-6, bound + 1.0)})

    monkeypatch.setattr(cli_module, "verify_instance", above_the_bound)
    code, out, _ = run_cli(["bounds", "--config", cfg])
    assert code == 1 and parse_json(out)["report"]["passed"] is False


def test_bounds_csv_summary_row(tmp_path):
    cfg = write_config(tmp_path, "bounds.count=2\nbounds.dim=5\nbounds.n=2\n")
    code, out, _ = run_cli(["bounds", "--config", cfg, "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n_indices", "n_points", "mode", "tv_value", "wsharp_value",
                       "tv_bound", "wsharp_bound", "tv_slack", "wsharp_slack"]
    assert rows[-1][2] == "summary"
    assert len(rows) == 4


def test_bounds_csv_rows_match_the_json_instances(tmp_path):
    cfg = write_config(tmp_path, "bounds.count=2\nbounds.dim=5\nbounds.n=2\n")
    _, out, _ = run_cli(["bounds", "--config", cfg])
    instances = parse_json(out)["report"]["instances"]
    _, out, _ = run_cli(["bounds", "--config", cfg, "--format", "csv"])
    header, *rows, _ = list(csv.reader(io.StringIO(out)))
    assert header[:3] == ["n_indices", "n_points", "mode"]
    assert [row[:3] for row in rows] == [["2", "5", "exact"]] * 2
    assert rows == [[str(inst[column]) for column in header] for inst in instances]


def test_bounds_past_20_indices_match_the_projection_bound(tmp_path):
    # 21 indices of eigenvalue 1: no free index, one index set, one minor
    cfg = write_config(tmp_path, "bounds.count=2\nbounds.n=21\nbounds.dim=22\n")
    code, out, _ = run_cli(["bounds", "--config", cfg])
    assert code == 0
    instances = parse_json(out)["report"]["instances"]
    config = RunConfig()
    for i, inst in enumerate(instances):
        fam_a, fam_b = (random_orthonormal(22, 21, config.instance_seed("bounds", 2 * i + j))
                        for j in (0, 1))
        assert inst["n_indices"] == 21
        assert inst["tv_bound"] == trace_distance_slater(overlap_matrix(fam_a, fam_b))


def test_bounds_empirical_mode_reports_cis(tmp_path):
    cfg = write_config(tmp_path, "bounds.count=2\nbounds.dim=5\nbounds.n=2\n"
                       "bounds.mode=empirical\nbounds.budget=500\n"
                       "bounds.bootstrap_resamples=100\n")
    code, out, _ = run_cli(["bounds", "--config", cfg])
    assert code == 0
    for inst in parse_json(out)["report"]["instances"]:
        assert inst["mode"] == "empirical"
        assert inst["tv_ci"] is not None
        assert inst["wsharp_ci"] is not None
        assert "coupling_exact" not in inst


def test_bounds_empirical_intervals_hold_their_values(tmp_path):
    # a plain percentile bootstrap here gave tv 0.402 outside [0.4045, 0.4471]:
    # the resampled distances sit above the upward-biased plug-in value
    cfg = write_config(tmp_path, "bounds.count=1\nbounds.dim=8\n"
                       "bounds.mixed_eigenvalues=5\nbounds.mode=empirical\n"
                       "bounds.budget=2000\nbounds.bootstrap_resamples=200\n")
    code, out, _ = run_cli(["bounds", "--config", cfg])
    assert code == 0
    inst = parse_json(out)["report"]["instances"][0]
    for name in ("tv", "wsharp"):
        lo, hi = inst[f"{name}_ci"]
        assert lo <= inst[f"{name}_value"] <= hi


def test_bounds_past_the_variable_cap_exits_2(tmp_path, monkeypatch):
    # 6 of 30 points: the subset graph has 2 * 6 * C(30, 6) arcs, refused before
    # either law (593,775 minors each) is enumerated or sampled
    import fermiflow.bounds as bounds_module
    import fermiflow.dpp as dpp_module

    def refuse(*args, **kwargs):
        raise AssertionError("a law was enumerated or sampled past the variable cap")

    monkeypatch.setattr(bounds_module, "exact_mixed_distribution", refuse)
    monkeypatch.setattr(dpp_module, "exact_mixed_distribution", refuse)
    monkeypatch.setattr(dpp_module, "sample_projection_dpp", refuse)
    # exact mode reads no draw budget and no resample count
    for mode, keys in (("exact", ""),
                       ("empirical", "bounds.budget=200\nbounds.bootstrap_resamples=10\n")):
        cfg = write_config(tmp_path, "bounds.count=1\nbounds.dim=30\nbounds.n=6\n"
                           f"bounds.mode={mode}\n{keys}")
        code, out, err = run_cli(["bounds", "--config", cfg])
        assert code == 2
        assert "needs 7125300 variables, past the variable cap" in err
        assert out == ""


@pytest.mark.parametrize("command, text", [
    ("rdm-monotonicity", "rdm.seeds=1\nw1.tolerance=1e-12\n"),
    ("bounds", "bounds.count=1\nbounds.tolerance=5\nw1.rho_penalty=2\n"),
    # each cap is a key only of the commands that honor it
    ("rdm-monotonicity", "rdm.seeds=1\nenumeration_cap=5\n"),
    ("bounds", "bounds.count=1\ndim_cap=5\n"),
    # the coupling of empirical mode picks its own path and reads no cap
    ("bounds", "bounds.count=1\nbounds.mode=empirical\nenumeration_cap=5\n"),
    # exact mode draws nothing and resamples nothing
    ("bounds", "bounds.count=1\nbounds.bootstrap_resamples=3\nbounds.budget=5\n"),
    ("walsh", "enumeration_cap=3\n"),
    ("example-gap", "dim_cap=1\n"),
    ("selftest", "dim_cap=1\n"),
])
def test_unread_config_keys_exit_2(tmp_path, command, text, monkeypatch):
    import fermiflow.cli as cli_module

    def refuse(*args, **kwargs):
        raise AssertionError("an instance ran despite an unread key")

    monkeypatch.setattr(cli_module, "rdm_certificates", refuse)
    monkeypatch.setattr(cli_module, "verify_instance", refuse)
    code, out, err = run_cli([command, "--config", write_config(tmp_path, text)])
    assert code == 2
    unread = [line.partition("=")[0] for line in text.splitlines()
              if not line.startswith(("rdm.seeds", "bounds.count", "bounds.mode"))]
    assert f"config keys not used by this command: {', '.join(unread)}" in err
    assert out == ""


def test_rdm_monotonicity_run(tmp_path):
    cfg = write_config(tmp_path, "rdm.seeds=2\nrdm.dim=4\nrdm.n=2\n")
    code, out, _ = run_cli(["rdm-monotonicity", "--config", cfg])
    assert code == 0
    rep = parse_json(out)["report"]
    assert rep["passed"] is True
    for row in rep["rows"]:
        assert row["monotone"] is True
        values = row["values"]
        # the certified interval of size 1 reaches down to value - gap
        assert values[1] >= values[0] - row["gap"][0]
        assert len(row["iterations"]) == len(row["gap"]) == 2
        assert all(isinstance(it, int) for it in row["iterations"])
        # size 1 is one site, solved in closed form: no iteration, gap 0
        assert (row["iterations"][0], row["gap"][0]) == (0, 0.0)
        assert row["iterations"][1] >= 1
        assert all(gap <= 1e-5 for gap in row["gap"])
        # two kept sines on four points: every size was solved
        assert row["scale"] == [None, None]


def test_rdm_monotonicity_rows_show_scaled_sizes(tmp_path):
    # three functions on four points keep one sine: every size is the cached
    # universal solve scaled by the pair's sin theta
    cfg = write_config(tmp_path, "rdm.seeds=2\nrdm.n=3\n")
    code, out, _ = run_cli(["rdm-monotonicity", "--config", cfg])
    assert code == 0
    rows = parse_json(out)["report"]["rows"]
    for row in rows:
        scale = row["scale"][0]
        assert 0.0 < scale < 1.0 and row["scale"] == [scale] * 3
        assert row["monotone"] is True and all(gap <= 1e-5 for gap in row["gap"])
    assert rows[0]["scale"] != rows[1]["scale"]
    assert rows[0]["iterations"] == rows[1]["iterations"]


def test_rdm_monotonicity_default_config_certifies_every_pair():
    # 20 pairs at the default solver settings; every solve must reach its
    # certified gap within the default iteration ceiling
    code, out, err = run_cli(["rdm-monotonicity"])
    assert code == 0, err
    rep = parse_json(out)["report"]
    assert rep["passed"] is True
    assert len(rep["rows"]) == 20
    assert all(row["monotone"] is True and row["error"] is None for row in rep["rows"])


def test_rdm_monotonicity_convergence_failure_exits_2(tmp_path):
    # one iteration certifies no gap: every row says why, and the run exits 2
    cfg = write_config(tmp_path, "rdm.seeds=2\nw1.max_iter=1\n")
    code, out, _ = run_cli(["rdm-monotonicity", "--config", cfg])
    assert code == 2
    rep = parse_json(out)["report"]
    assert rep["passed"] is False
    assert [r["seed"] for r in rep["rows"]] == [0, 1]
    for row in rep["rows"]:
        assert (row["values"], row["iterations"], row["gap"], row["monotone"]) == (None,) * 4
        assert row["error"].startswith("no certified gap of 1.0e-05 in 1 iterations (gap ")
    code, out, _ = run_cli(["rdm-monotonicity", "--config", cfg, "--format", "csv"])
    assert code == 2
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["seed"] for row in rows] == ["0", "1"]
    assert [row["error"] for row in rows] == [r["error"] for r in rep["rows"]]
    assert all(row["value_1"] == row["value_2"] == row["monotone"] == "" for row in rows)


def test_rdm_monotonicity_csv_columns(tmp_path):
    cfg = write_config(tmp_path, "rdm.seeds=1\nrdm.dim=4\nrdm.n=2\n")
    code, out, _ = run_cli(["rdm-monotonicity", "--config", cfg, "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["seed", "value_1", "value_2", "monotone", "error"]


def test_example_gap_csv_columns(tmp_path):
    cfg = write_config(tmp_path, "gap.n_max=3\n")
    code, out, _ = run_cli(["example-gap", "--config", cfg, "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "determinant", "mean_overlap", "trace_distance",
                       "w1_lower_over_n", "w1_upper_over_n"]
    assert [row[0] for row in rows[1:]] == ["1", "2", "3"]


def test_example_gap_table(tmp_path):
    cfg = write_config(tmp_path, "gap.n_max=5\n")
    code, out, _ = run_cli(["example-gap", "--config", cfg])
    assert code == 0
    rows = parse_json(out)["report"]["rows"]
    assert [r["n"] for r in rows] == [1, 2, 3, 4, 5]
    first = rows[0]
    assert first["w1_upper_over_n"] == pytest.approx(first["trace_distance"], abs=1e-12)


def test_selftest_single_check(tmp_path):
    cfg = write_config(tmp_path, "selftest.only=walsh_exhibit\n")
    code, out, _ = run_cli(["selftest", "--config", cfg])
    assert code == 0
    assert out.startswith("PASS walsh_exhibit")
    assert "budget 1s" in out


def test_selftest_format_without_out_prints_the_report(tmp_path):
    # the report alone goes to stdout; the PASS lines move to stderr
    cfg = write_config(tmp_path, "format=csv\nselftest.only=walsh_exhibit\n")
    code, out, err = run_cli(["selftest", "--config", cfg])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "passed", "elapsed_seconds", "budget_seconds", "detail"]
    assert [row[:2] for row in rows[1:]] == [["walsh_exhibit", "True"]]
    assert err.startswith("PASS walsh_exhibit")

    code, out, err = run_cli(["selftest", "--format", "json", "--config", cfg])
    assert code == 0
    results = parse_json(out)["report"]["results"]
    assert [(r["name"], r["passed"]) for r in results] == [("walsh_exhibit", True)]
    assert err.startswith("PASS walsh_exhibit")


def test_selftest_csv_leaves_an_unbudgeted_budget_empty(tmp_path):
    cfg = write_config(tmp_path, "selftest.only=walsh_exhibit,gap_table\n")
    code, out, _ = run_cli(["selftest", "--config", cfg, "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [(row[0], row[3]) for row in rows[1:]] == [("walsh_exhibit", "1.0"),
                                                      ("gap_table", "")]


def test_selftest_unknown_name(tmp_path):
    cfg = write_config(tmp_path, "selftest.only=nonsense\n")
    code, _, err = run_cli(["selftest", "--config", cfg])
    assert code == 2
    assert "unknown check" in err


def test_instance_seed_split_is_stable():
    cfg = RunConfig(seed=4)
    assert cfg.instance_seed("walsh", 0) == cfg.instance_seed("walsh", 0)
    assert cfg.instance_seed("walsh", 0) != cfg.instance_seed("walsh", 1)
    assert cfg.instance_seed("walsh", 0) != cfg.instance_seed("bounds", 0)
    other = RunConfig(seed=5)
    assert cfg.instance_seed("walsh", 0) != other.instance_seed("walsh", 0)
