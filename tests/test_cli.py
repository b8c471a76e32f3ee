import numpy as np
import pytest

from silosynth.cli import main
from silosynth.datafile import DatasetError, read_dataset, read_thresholds, write_dataset, write_thresholds

CONFIG = """
k_folds = 2
max_loops = 2
hyperparams = 10,15
eps_s = 5.0
delta_s = 1e-5
eps_p = 1.0
delta_p = 1e-6
seed = 11
frac_bits = 16
n_custodians = 2
lr_epochs = 10
"""


@pytest.fixture
def workdir(tmp_path, rng):
    cfg = tmp_path / "run.conf"
    cfg.write_text(CONFIG)
    paths = {"config": cfg}
    for c in range(2):
        genes = rng.normal(0, 2, size=(12, 3))
        labels = rng.integers(0, 5, size=12)
        p = tmp_path / f"data{c}.csv"
        write_dataset(str(p), genes, labels)
        paths[f"data{c}"] = p
    thr = tmp_path / "thresholds.csv"
    write_thresholds(str(thr), np.array([[1000.0, 0.0], [1000.0, 0.0]]))
    paths["thresholds"] = thr
    paths["out"] = tmp_path / "synthetic.csv"
    paths["report"] = tmp_path / "report.txt"
    paths["tmp"] = tmp_path
    return paths


def run_local_args(paths, extra=()):
    return ["run-local",
            "--config", str(paths["config"]),
            "--data", str(paths["data0"]), "--data", str(paths["data1"]),
            "--thresholds", str(paths["thresholds"]),
            "--out", str(paths["out"]), "--report", str(paths["report"]), *extra]


def test_dataset_roundtrip(tmp_path, rng):
    genes = rng.normal(0, 3, size=(8, 4))
    labels = rng.integers(0, 5, size=8)
    p = tmp_path / "d.csv"
    write_dataset(str(p), genes, labels)
    g2, l2 = read_dataset(str(p))
    assert np.array_equal(g2, genes)  # shortest round-trip floats
    assert np.array_equal(l2, labels)
    write_dataset(str(tmp_path / "d2.csv"), g2, l2)
    assert (tmp_path / "d.csv").read_text() == (tmp_path / "d2.csv").read_text()


def test_dataset_validation_names_row(tmp_path):
    p = tmp_path / "bad.csv"
    rows = ["g1,g2,label"] + [f"{i}.5,1.0,0" for i in range(11)] + ["1.0,2.0,7"]
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(DatasetError) as err:
        read_dataset(str(p))
    assert "row 12" in str(err.value)


def test_dataset_rejects_ragged_rows(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("g1,g2,label\n1.0,2.0,0\n1.0,0\n")
    with pytest.raises(DatasetError) as err:
        read_dataset(str(p))
    assert "row 2" in str(err.value)


def test_thresholds_missing_metric(tmp_path):
    p = tmp_path / "thr.csv"
    p.write_text("max_wle\n0.5\n")
    with pytest.raises(DatasetError) as err:
        read_thresholds(str(p))
    assert "min_accuracy" in str(err.value)


def test_run_local_publishes(workdir, capsys):
    code = main(run_local_args(workdir))
    assert code == 0
    assert "publish" in capsys.readouterr().out
    genes, labels = read_dataset(str(workdir["out"]))
    assert genes.shape == (24, 3)
    assert set(labels) <= set(range(5))
    report = workdir["report"].read_text()
    assert "decision: publish" in report
    assert "budget" in report
    # claimed total is the sum of the synthesis and preprocessing budgets
    assert "claimed total: (eps=6.0" in report
    assert "budget reset" in report
    for label in ("bin", "sort", "noisy_marg", "sdg", "acc", "wle", "vote", "inv_bin"):
        assert label in report


def test_run_local_no_publish_exit_zero(workdir, capsys):
    write_thresholds(str(workdir["thresholds"]), np.array([[1000.0, 2.0], [1000.0, 2.0]]))
    code = main(run_local_args(workdir))
    assert code == 0
    assert "no-publish" in capsys.readouterr().out
    assert not workdir["out"].exists()
    assert "decision: no-publish" in workdir["report"].read_text()


def test_run_local_input_error_exit_2(workdir, capsys):
    bad = workdir["tmp"] / "bad.csv"
    bad.write_text("g1,g2,g3,label\n1.0,2.0,3.0,9\n")
    code = main(["run-local", "--config", str(workdir["config"]),
                 "--data", str(bad), "--data", str(workdir["data1"]),
                 "--thresholds", str(workdir["thresholds"])])
    assert code == 2
    assert "row 1" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [("--seed", "3"), ("--mode", "exhaustive")])
def test_run_local_refuses_overrides(workdir, extra, capsys):
    """Seed and mode come from the config file alone: no flag overrides them."""
    with pytest.raises(SystemExit) as info:
        main(run_local_args(workdir, extra))
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err


def test_run_local_refuses_folds_without_test_rows(workdir, rng, capsys):
    # two 2-row custodians and 5 folds: a fold would get no test row
    for c in range(2):
        write_dataset(str(workdir[f"data{c}"]), rng.normal(0, 2, size=(2, 3)), rng.integers(0, 5, size=2))
    workdir["config"].write_text(CONFIG.replace("k_folds = 2", "k_folds = 5"))
    code = main(run_local_args(workdir))
    assert code == 2
    err = capsys.readouterr().err
    assert "5 folds of 4 rows" in err and "at least 1 test row and 2 training rows" in err
    assert not workdir["out"].exists()


def test_run_local_refuses_rows_beyond_division_range(workdir, rng, capsys):
    """2 x 128 rows at frac_bits = 8: a count of 256 times 2^8 would leave the
    division range, so the run is refused before it starts."""
    for c in range(2):
        write_dataset(str(workdir[f"data{c}"]), rng.normal(0, 2, size=(128, 3)), rng.integers(0, 5, size=128))
    workdir["config"].write_text(CONFIG.replace("frac_bits = 16", "frac_bits = 8"))
    code = main(run_local_args(workdir))
    assert code == 2
    err = capsys.readouterr().err
    assert "256 combined rows reach 2^frac_bits = 256" in err and "at most 255 rows" in err
    assert not workdir["out"].exists()


def test_run_local_refuses_gene_value_beyond_encodable_range(workdir, rng, capsys):
    """One gene value of 2e9 reaches the bound 2^30 of frac_bits 16: exit 2
    naming the file and the bound, not a traceback."""
    genes = rng.normal(0, 2, size=(10, 3))
    genes[4, 1] = 2e9
    write_dataset(str(workdir["data1"]), genes, rng.integers(0, 5, size=10))
    code = main(run_local_args(workdir))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {workdir['data1']}: ")
    assert "1073741824" in err and "frac_bits 16" in err and "Traceback" not in err
    assert not workdir["out"].exists()


@pytest.mark.parametrize("line", ["eps_s = nan", "eps_s = inf", "lr_rate = nan"])
def test_run_local_refuses_non_finite_config_value(workdir, line, capsys):
    """nan passes every `<=` bound, and a run would publish with eps=nan and
    noise of 0 or 2^63 per cell; inf would publish exact marginals."""
    workdir["config"].write_text(CONFIG.replace("eps_s = 5.0\n", "") + line + "\n")
    code = main(run_local_args(workdir))
    assert code == 2
    assert f"{line.split()[0]} must be a finite number" in capsys.readouterr().err
    assert not workdir["out"].exists()


def test_run_local_refuses_nan_threshold(workdir, capsys):
    write_thresholds(str(workdir["thresholds"]), np.array([[np.nan, 0.0], [1000.0, 0.0]]))
    code = main(run_local_args(workdir))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {workdir['thresholds']}: non-finite value")
    assert not workdir["out"].exists()


def test_run_local_refuses_datasets_without_gene_column(workdir, capsys):
    """A header of only `label` passes the file checks; the preflight refuses it."""
    for c in range(2):
        workdir[f"data{c}"].write_text("label\n" + "".join(f"{i % 5}\n" for i in range(12)))
    code = main(run_local_args(workdir))
    assert code == 2
    assert "no gene column" in capsys.readouterr().err
    assert not workdir["out"].exists()


def test_run_local_refuses_gene_count_mismatch(workdir, rng, capsys):
    write_dataset(str(workdir["data1"]), rng.normal(0, 2, size=(12, 2)), rng.integers(0, 5, size=12))
    code = main(run_local_args(workdir))
    assert code == 2
    assert "custodian datasets disagree on gene count: [2, 3]" in capsys.readouterr().err


def test_run_local_threshold_count_mismatch(workdir, capsys):
    write_thresholds(str(workdir["thresholds"]), np.array([[1000.0, 0.0]]))
    code = main(run_local_args(workdir))
    assert code == 2


def test_run_local_refuses_frac_bits_above_lr_bound(workdir, capsys):
    workdir["config"].write_text(CONFIG.replace("frac_bits = 16", "frac_bits = 24"))
    code = main(run_local_args(workdir))
    assert code == 2
    assert "frac_bits must be in [8, 20]" in capsys.readouterr().err


def test_run_local_refuses_negative_synthetic_rows(workdir, capsys):
    """Refused before the tuning loop, where it once aborted in sdg with exit 3."""
    workdir["config"].write_text(CONFIG + "synthetic_rows = -5\n")
    code = main(run_local_args(workdir))
    assert code == 2
    assert "synthetic_rows must be >= 0" in capsys.readouterr().err
    assert not workdir["out"].exists()


def test_run_local_deterministic_output_bytes(workdir):
    code = main(run_local_args(workdir))
    assert code == 0
    first = workdir["out"].read_bytes()
    code = main(run_local_args(workdir))
    assert code == 0
    assert workdir["out"].read_bytes() == first


def test_config_parse_errors(tmp_path):
    from silosynth.config import ConfigError, parse_config
    with pytest.raises(ConfigError):
        parse_config("nonsense line")
    with pytest.raises(ConfigError):
        parse_config("unknown_key = 5")
    with pytest.raises(ValueError):
        parse_config("k_folds = 1")
    for line, key in (("synthetic_rows = -5", "synthetic_rows"), ("lr_epochs = -1", "lr_epochs"),
                      ("hyperparams = 0, -4", "hyperparams")):
        with pytest.raises(ConfigError, match=f"{key} must be >= 0"):
            parse_config(line)
    assert parse_config("hyperparams = 0\nlr_epochs = 0\nsynthetic_rows = 0").hyperparams == (0,)
    cfg = parse_config(CONFIG)
    assert cfg.k_folds == 2 and cfg.hyperparams == (10, 15)
