"""End-to-end tests for the command-line interface.

All commands run in-process through cli.main so exit codes and output are
asserted directly. Heavy simulation is avoided: dataset-dependent commands
use the small synthetic dataset from toyset.
"""

import logging
import math
import re
import struct
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from toyset import make_toy_samples
from tsakit import cli, packaged_network_path
from tsakit.autodiff_nn import ModelConfig, StabilityModel, save_checkpoint
from tsakit.dataset import GridConfig, load_dataset, save_dataset
from tsakit.grid_model import load_network
from tsakit.training_eval import TrainConfig

TOY_WINDOW = 3  # steps per toy feature window -> model in_dim 6
N_BUS_TOY = 4


@pytest.fixture(scope="module")
def toy_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.tsd"
    samples = make_toy_samples(n=40, n_bus=N_BUS_TOY, window=TOY_WINDOW, seed=0)
    save_dataset(samples, path)
    return path


@pytest.fixture(scope="module")
def trained(toy_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = cli.main([
        "train", "--data", str(toy_dataset), "--out", str(out),
        "--seed", "0", "--epochs", "40",
    ])
    assert rc == 0
    return out


class TestGenerate:
    def test_enumerate_desk(self, capsys):
        assert cli.main(["generate", "--grid", "desk", "--enumerate-only"]) == 0
        assert "scenarios: 90" in capsys.readouterr().out

    def test_enumerate_paper(self, capsys):
        assert cli.main(["generate", "--grid", "paper", "--enumerate-only"]) == 0
        assert "scenarios: 4590" in capsys.readouterr().out

    def test_missing_network_exits_2_and_names_path(self, capsys):
        rc = cli.main([
            "generate", "--network", "/no/such/net.file", "--enumerate-only",
        ])
        assert rc == 2
        assert "/no/such/net.file" in capsys.readouterr().err

    def test_config_overrides_shrink_grid(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "# tiny sweep\nlines = 13\nlocation_fractions = 0.5\n"
            "clearing_cycles = 3, 11\n"
        )
        rc = cli.main([
            "generate", "--config", str(cfg), "--enumerate-only",
        ])
        assert rc == 0
        assert "scenarios: 2" in capsys.readouterr().out

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("lins = 13\n")
        rc = cli.main(["generate", "--config", str(cfg), "--enumerate-only"])
        assert rc == 2
        assert "lins" in capsys.readouterr().err

    def test_invalid_grid_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("lines = 999\n")
        rc = cli.main(["generate", "--config", str(cfg), "--enumerate-only"])
        assert rc == 2
        assert "invalid grid config" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("location_fractions =", "location_fractions is empty"),
        # two ids for one scenario could fall on both sides of a split
        ("lines = 1,1", "lines repeats a value"),
    ])
    def test_empty_or_repeated_grid_axis_rejected(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(line + "\n")
        rc = cli.main(["generate", "--config", str(cfg), "--enumerate-only"])
        assert rc == 2
        assert f"invalid grid config: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("step_s = 0", "must be positive"),
        ("duration_s = 0", "must be positive"),
        ("duration_s = -1", "must be positive"),
        ("fault_start_s = -0.5", "outside [0, duration_s)"),
        ("fault_start_s = 10", "outside [0, duration_s)"),
        # off the 0.01 s sample grid, the window would start before the fault
        ("fault_start_s = 1.004", "fault start 1.004 s is not a multiple of step_s"),
        ("step_s = nan", "must be positive"),
        ("clearing_cycles = 3, nan", "must be positive"),
        ("duration_s = 12", "recovery window"),
        ("lines = 1,x", "lines: invalid literal for int()"),
        # an infinity passes the range checks; it overflowed int() in the
        # step count, or in the clearing-instant rounding while labelling
        ("duration_s = inf", "duration_s must be finite"),
        ("step_s = inf", "step_s must be finite"),
        ("clearing_cycles = 3,inf", "clearing_cycles must be finite"),
    ])
    def test_invalid_timing_rejected_before_use(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(line + "\n")
        rc = cli.main(["generate", "--config", str(cfg), "--enumerate-only"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "invalid grid config" in err and message in err

    @pytest.mark.slow
    def test_tiny_generate_writes_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "lines = 13\nlocation_fractions = 0.5\nmotor_fractions = 0.6\n"
            "clearing_cycles = 3, 11\n"
        )
        out = tmp_path / "out"
        rc = cli.main([
            "generate", "--config", str(cfg), "--out", str(out), "--seed", "0",
        ])
        assert rc == 0
        assert "wrote 2 samples" in capsys.readouterr().out
        samples, meta = load_dataset(out / "dataset.tsd")
        assert meta["n_samples"] == 2
        assert (out / "labels.csv").read_text().count("\n") == 3
        assert "n_scenarios = 2" in (out / "manifest.txt").read_text()
        # the samples in memory hold the float32 labels the file stores
        relabeled = tmp_path / "relabeled.csv"
        assert cli.main(["label", "--data", str(out / "dataset.tsd"), "--out", str(relabeled)]) == 0
        assert relabeled.read_bytes() == (out / "labels.csv").read_bytes()

    @pytest.mark.slow
    def test_jobs_do_not_change_the_dataset(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "lines = 13\nlocation_fractions = 0.1, 0.9\nmotor_fractions = 0.6\n"
            "clearing_cycles = 3, 4\nduration_s = 1.6\n"
        )
        for jobs in ("1", "2"):
            rc = cli.main([
                "generate", "--config", str(cfg), "--out", str(tmp_path / jobs), "--jobs", jobs,
            ])
            assert rc == 0
        assert (tmp_path / "1" / "dataset.tsd").read_bytes() == (
            tmp_path / "2" / "dataset.tsd"
        ).read_bytes()

    def test_jobs_below_one_rejected(self, capsys):
        assert cli.main(["generate", "--jobs", "0"]) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err


class TestLabel:
    def test_rewrites_labels(self, toy_dataset, tmp_path, capsys):
        out = tmp_path / "labels.csv"
        rc = cli.main(["label", "--data", str(toy_dataset), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 41  # header + one row per sample
        assert lines[0].startswith("scenario_id,")

    def test_missing_dataset(self, tmp_path, capsys):
        rc = cli.main(["label", "--data", str(tmp_path / "none.tsd")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_truncated_header_exits_2(self, tmp_path, capsys):
        path = tmp_path / "short.tsd"
        path.write_bytes(b"TSD1\x01\x00")
        rc = cli.main(["label", "--data", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "truncated" in err

    @pytest.mark.parametrize("command", ["label", "train", "eval"])
    def test_empty_dataset_exits_2(self, trained, tmp_path, capsys, command):
        """A bare TSD1 header that holds no samples is an error, not an
        empty labels file or a traceback."""
        path = tmp_path / "empty.tsd"
        path.write_bytes(struct.pack("<4sIIIII", b"TSD1", 1, 0, N_BUS_TOY, TOY_WINDOW, 1))
        if command == "eval":
            args = ["--checkpoint", str(trained / "checkpoint.tsm")]
        else:
            args = ["--out", str(tmp_path / "out")]
        rc = cli.main([command, "--data", str(path), *args])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{path}: empty dataset" in err
        assert not (tmp_path / "out").exists()


class TestTrain:
    def test_writes_checkpoint_and_log(self, trained):
        assert (trained / "checkpoint.tsm").exists()
        log = (trained / "training_log.csv").read_text()
        assert log.startswith("epoch,train_loss,")

    def test_epochs_zero_is_config_error(self, toy_dataset, tmp_path, capsys):
        rc = cli.main([
            "train", "--data", str(toy_dataset), "--out", str(tmp_path),
            "--epochs", "0",
        ])
        assert rc == 2
        assert "invalid training config" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("learning_rate = 0", "learning rate must be positive"),
        ("epochs = 2.5", "epochs: invalid literal for int()"),
        # nan compares false with everything: the MSE target could never be met
        ("mse_threshold = nan", "mse_threshold must be finite"),
        ("learning_rate = inf", "learning_rate must be finite"),
        ("lambda_cls = nan", "lambda_cls must be finite"),
        ("lambda_reg = -1", "invalid training config: loss weights must be nonnegative"),
        ("n_experts = 1", "a mixture needs at least two experts"),
        ("hidden_dim = 0", "model dimensions must be positive"),
    ])
    def test_invalid_training_value_rejected_before_use(
        self, toy_dataset, tmp_path, capsys, line, message
    ):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        rc = cli.main([
            "train", "--data", str(toy_dataset), "--config", str(cfg), "--out", str(out),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "invalid training config" in err and message in err
        assert not out.exists()

    def test_repeats_writes_per_seed_and_aggregate(self, toy_dataset, tmp_path, capsys):
        rc = cli.main([
            "train", "--data", str(toy_dataset), "--out", str(tmp_path),
            "--seed", "3", "--epochs", "5", "--repeats", "2",
        ])
        assert rc == 0
        assert (tmp_path / "checkpoint_seed3.tsm").exists()
        assert (tmp_path / "checkpoint_seed4.tsm").exists()
        out = capsys.readouterr().out
        assert "aggregate val_joint:" in out
        assert "+/-" in out

    def test_repeats_below_one_rejected(self, toy_dataset, tmp_path, capsys):
        rc = cli.main([
            "train", "--data", str(toy_dataset), "--out", str(tmp_path),
            "--repeats", "0",
        ])
        assert rc == 2

    def test_printed_test_metrics_describe_the_written_checkpoint(
        self, toy_dataset, tmp_path, capsys
    ):
        rc = cli.main([
            "train", "--data", str(toy_dataset), "--out", str(tmp_path),
            "--seed", "0", "--epochs", "10",
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        report = tmp_path / "report.csv"
        rc = cli.main([
            "eval", "--data", str(toy_dataset),
            "--checkpoint", str(tmp_path / "checkpoint.tsm"),
            "--split", "test", "--report-csv", str(report),
        ])
        assert rc == 0
        header, values = report.read_text().splitlines()
        ev = dict(zip(header.split(","), values.split(",")))
        assert (
            f"test acc tas {float(ev['tas_accuracy']):.4f} "
            f"tvs {float(ev['tvs_accuracy']):.4f}, "
            f"test mse tas {float(ev['tas_mse']):.5f} tvs {float(ev['tvs_mse']):.5f}"
        ) in printed

    def test_summary_names_the_epoch_the_checkpoint_holds(self, toy_dataset, tmp_path, capsys):
        """The kept epoch, not the epochs run: it is the one epoch whose
        logged validation gate utilization the written checkpoint reproduces."""
        from tsakit.autodiff_nn import load_checkpoint
        from tsakit.dataset import split_dataset
        from tsakit.training_eval import _arrays_from_samples, predict

        cfg = tmp_path / "train.cfg"
        cfg.write_text("learning_rate = 0.01\naccuracy_threshold = 1.0\nmse_threshold = 1e-9\n")
        rc = cli.main([
            "train", "--data", str(toy_dataset), "--out", str(tmp_path),
            "--seed", "0", "--epochs", "8", "--config", str(cfg),
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        kept = int(re.search(r"after 8 epochs, val joint \S+, kept epoch (\d+), ", printed)[1])
        assert kept < 8
        samples, _ = load_dataset(toy_dataset)
        split = split_dataset([s.joint_label for s in samples], seed=0)
        features, adjacency, _ = _arrays_from_samples([samples[i] for i in split.val_ids])
        model = load_checkpoint(tmp_path / "checkpoint.tsm")
        util = predict(model, features, model.prepare_graph(adjacency)).gates.mean(axis=(0, 1))
        log = [line.split(",") for line in (tmp_path / "training_log.csv").read_text().splitlines()]
        cells = ["%.10g" % u for u in util]
        assert [int(row[0]) for row in log[1:] if row[-len(cells):] == cells] == [kept]

    def test_identical_runs_identical_checkpoints(self, toy_dataset, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli.main([
                "train", "--data", str(toy_dataset), "--out", str(out),
                "--seed", "7", "--epochs", "6",
            ])
            assert rc == 0
            outs.append(out)
        assert (outs[0] / "checkpoint.tsm").read_bytes() == \
               (outs[1] / "checkpoint.tsm").read_bytes()
        assert (outs[0] / "training_log.csv").read_text() == \
               (outs[1] / "training_log.csv").read_text()

    def test_config_file_overrides(self, toy_dataset, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            # a comment may follow a value, as in the network file
            "epochs = 2\nhidden_dim = 8  # narrow\nn_experts = 2\nexpert_hidden = 4\n"
            "accuracy_threshold = 1.0\nmse_threshold = none\n"
        )
        rc = cli.main([
            "train", "--data", str(toy_dataset), "--out", str(tmp_path),
            "--config", str(cfg),
        ])
        assert rc == 0
        # a 2-expert model was actually built and saved
        from tsakit.autodiff_nn import load_checkpoint
        model = load_checkpoint(tmp_path / "checkpoint.tsm")
        assert model.config.n_experts == 2
        assert model.config.hidden_dim == 8

    def test_abort_in_first_epoch_exits_1_without_a_log(self, toy_dataset, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("learning_rate = 1e200\n")
        with np.errstate(all="ignore"):
            rc = cli.main([
                "train", "--data", str(toy_dataset), "--out", str(tmp_path),
                "--config", str(cfg), "--repeats", "2",
            ])
        assert rc == 1
        captured = capsys.readouterr()
        # no epoch was validated, so there is no validation accuracy to print or average
        for seed in (0, 1):
            assert f"seed {seed}: aborted after 0 epochs, val joint n/a," in captured.out
        assert "aggregate val_joint: n/a" in captured.out
        assert "aggregate tas_acc: " in captured.out and "-1.0" not in captured.out
        assert "error:" not in captured.err
        assert not list(tmp_path.glob("training_log*.csv"))

    def test_missing_dataset(self, tmp_path, capsys):
        rc = cli.main(["train", "--data", str(tmp_path / "none.tsd")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err


class TestEval:
    def test_prints_report(self, toy_dataset, trained, capsys):
        rc = cli.main([
            "eval", "--data", str(toy_dataset),
            "--checkpoint", str(trained / "checkpoint.tsm"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "samples:" in out
        assert "TAS:" in out and "TVS:" in out

    def test_reports_each_joint_class(self, toy_dataset, trained, capsys):
        rc = cli.main([
            "eval", "--data", str(toy_dataset),
            "--checkpoint", str(trained / "checkpoint.tsm"), "--split", "train",
        ])
        assert rc == 0
        line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("joint class"))
        # the toy set holds only stable/stable and unstable/unstable samples
        cells = dict(c.split("=") for c in line.split(": ")[1].split())
        assert list(cells) == ["SS", "SU", "US", "UU"]
        assert cells["SU"] == cells["US"] == "0/0"
        assert sum(int(cells[k].split("/")[1]) for k in cells) == 28

    def test_train_split_report(self, toy_dataset, trained, capsys):
        rc = cli.main([
            "eval", "--data", str(toy_dataset),
            "--checkpoint", str(trained / "checkpoint.tsm"),
            "--split", "train",
        ])
        assert rc == 0
        assert "samples: 28" in capsys.readouterr().out

    def test_report_csv(self, toy_dataset, trained, tmp_path):
        out = tmp_path / "report.csv"
        rc = cli.main([
            "eval", "--data", str(toy_dataset),
            "--checkpoint", str(trained / "checkpoint.tsm"),
            "--report-csv", str(out),
        ])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("n_samples,tas_accuracy,")
        assert len(text.strip().splitlines()) == 2

    def test_dim_mismatch_exits_2(self, toy_dataset, tmp_path, capsys):
        other = StabilityModel(ModelConfig(in_dim=8, hidden_dim=8, seed=0))
        ckpt = tmp_path / "other.tsm"
        save_checkpoint(other, ckpt)
        rc = cli.main([
            "eval", "--data", str(toy_dataset), "--checkpoint", str(ckpt),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "8" in err and "6" in err

    def test_missing_checkpoint(self, toy_dataset, tmp_path, capsys):
        rc = cli.main([
            "eval", "--data", str(toy_dataset),
            "--checkpoint", str(tmp_path / "none.tsm"),
        ])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_checkpoint_cut_inside_parameter_table_exits_2(self, toy_dataset, tmp_path,
                                                           capsys):
        ckpt = tmp_path / "cut.tsm"
        save_checkpoint(StabilityModel(ModelConfig(in_dim=6, hidden_dim=8, seed=0)), ckpt)
        payload = ckpt.read_bytes()[4:-4][:44]
        ckpt.write_bytes(b"TSM1" + payload + struct.pack("<I", zlib.crc32(payload)))
        rc = cli.main(["eval", "--data", str(toy_dataset), "--checkpoint", str(ckpt)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "truncated" in err


def write_stream(path, rows, n_bus=39, start=0.0, step=0.01, seed=0):
    """Write a plausible flat-voltage stream file; returns the row times."""
    rng = np.random.default_rng(seed)
    times = []
    lines = []
    for i in range(rows):
        t = start + i * step
        times.append(t)
        v = 1.0 + 0.01 * rng.standard_normal(n_bus)
        a = 0.1 * rng.standard_normal(n_bus)
        lines.append(",".join(
            ["%.17g" % t] + ["%.17g" % x for x in v] + ["%.17g" % x for x in a]
        ))
    path.write_text("\n".join(lines) + "\n")
    return times


@pytest.mark.parametrize("command, flag, kind", [
    ("train", "--data", "dataset"), ("eval", "--data", "dataset"),
    ("monitor", "--checkpoint", "checkpoint"), ("monitor", "--stream", "stream"),
    ("monitor", "--network", "network"),
])
def test_unreadable_input_path_exits_2_naming_it(toy_dataset, trained, tmp_path, capsys,
                                                 command, flag, kind):
    """An input path that exists but cannot be read, here a directory."""
    args = {
        "train": {"--data": str(toy_dataset), "--out": str(tmp_path / "out")},
        "eval": {"--data": str(toy_dataset), "--checkpoint": str(trained / "checkpoint.tsm")},
        "monitor": {"--checkpoint": str(trained / "checkpoint.tsm")},
    }[command]
    args[flag] = str(tmp_path)
    rc = cli.main([command, *(x for pair in args.items() for x in pair)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: cannot read {kind} file: {tmp_path}\n"


@pytest.mark.parametrize("command", ["label", "eval", "generate", "train"])
def test_unwritable_output_path_exits_2_naming_it(toy_dataset, trained, tmp_path, capsys,
                                                  command):
    """A file under a missing directory, or an output directory that is a file."""
    taken = tmp_path / "taken"
    taken.write_text("")
    missing = tmp_path / "missing" / "dir"
    ckpt = str(trained / "checkpoint.tsm")
    argv, path = {
        "label": (["--data", str(toy_dataset), "--out", str(missing / "labels.csv")],
                  missing / "labels.csv"),
        "eval": (["--data", str(toy_dataset), "--checkpoint", ckpt,
                  "--report-csv", str(missing / "r.csv")], missing / "r.csv"),
        "generate": (["--out", str(taken)], taken),
        "train": (["--data", str(toy_dataset), "--out", str(taken), "--epochs", "1"], taken),
    }[command]
    rc = cli.main([command, *argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and str(path) in err


class TestMonitor:
    def test_event_per_complete_window(self, trained, tmp_path, capsys):
        stream = tmp_path / "s.csv"
        write_stream(stream, rows=7)
        rc = cli.main([
            "monitor", "--checkpoint", str(trained / "checkpoint.tsm"),
            "--stream", str(stream),
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 7 - TOY_WINDOW + 1
        for line in lines:
            event = cli.parse_event(line)
            assert event.tas_decision in ("stable", "unstable")
            assert 0.0 <= event.tas_value <= 1.0
            assert 0.0 <= event.tvs_value <= 1.0
            for task, gates in event.gate_weights.items():
                assert abs(sum(gates) - 1.0) < 1e-12

    def test_short_stream_zero_events(self, trained, tmp_path, capsys):
        stream = tmp_path / "s.csv"
        write_stream(stream, rows=TOY_WINDOW - 1)
        rc = cli.main([
            "monitor", "--checkpoint", str(trained / "checkpoint.tsm"),
            "--stream", str(stream),
        ])
        assert rc == 0
        assert capsys.readouterr().out.strip() == ""

    def test_malformed_lines_skipped(self, trained, tmp_path, capsys, caplog):
        stream = tmp_path / "s.csv"
        write_stream(stream, rows=4)
        text = stream.read_text().splitlines()
        text.insert(2, "0.015,1.0,0.5")          # wrong field count
        text.insert(3, "zero," + ",".join(["1.0"] * 78))  # non-numeric time
        text.insert(4, "nan," + ",".join(["1.0"] * 78))  # non-finite time
        text.insert(5, "0.015,1_0," + ",".join(["1.0"] * 77))  # float() reads 1_0 as 10
        text.insert(6, "0.015," + ",".join(["1.0"] * 77) + ",\u0661")  # and an Arabic-Indic 1
        stream.write_text("\n".join(text) + "\n")
        rc = cli.main([
            "monitor", "--checkpoint", str(trained / "checkpoint.tsm"),
            "--stream", str(stream),
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4 - TOY_WINDOW + 1  # only valid rows advance
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 5
        assert sum("non-numeric" in r.getMessage() for r in warnings) == 4

    def test_rows_whose_time_does_not_advance_are_skipped(self, trained, tmp_path, capsys, caplog):
        """A repeated row and a row moved earlier are skipped with a warning
        and counted; the events are those of the stream without them."""
        stream = tmp_path / "s.csv"
        write_stream(stream, rows=6)
        rows = stream.read_text().splitlines()
        args = ["monitor", "--checkpoint", str(trained / "checkpoint.tsm"), "--stream", str(stream)]
        assert cli.main(args) == 0
        plain = capsys.readouterr().out
        stream.write_text("\n".join(rows[:3] + rows[2:5] + rows[1:2] + rows[5:]) + "\n")
        caplog.set_level(logging.INFO, logger="tsakit.cli")
        caplog.clear()
        assert cli.main(args) == 0
        assert capsys.readouterr().out == plain
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [
            "line 4: time 0.02 is not after the previous row's time; skipped",
            "line 7: time 0.01 is not after the previous row's time; skipped",
        ]
        assert "stream ended: 6 valid rows (0 repaired), 4 events" in caplog.text
        assert "0 topology, 2 out of order" in caplog.text

    def test_comments_and_blanks_ignored(self, trained, tmp_path, capsys):
        stream = tmp_path / "s.csv"
        write_stream(stream, rows=3)
        text = "# header comment\n\n" + stream.read_text()
        stream.write_text(text)
        rc = cli.main([
            "monitor", "--checkpoint", str(trained / "checkpoint.tsm"),
            "--stream", str(stream),
        ])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    def test_topology_record_changes_assessment(self, trained, tmp_path, capsys):
        base = tmp_path / "base.csv"
        write_stream(base, rows=3, seed=5)
        rc = cli.main([
            "monitor", "--checkpoint", str(trained / "checkpoint.tsm"),
            "--stream", str(base),
        ])
        assert rc == 0
        plain = cli.parse_event(capsys.readouterr().out.strip())

        topo = tmp_path / "topo.csv"
        topo.write_text("topology,remove_line,13\n" + base.read_text())
        rc = cli.main([
            "monitor", "--checkpoint", str(trained / "checkpoint.tsm"),
            "--stream", str(topo),
        ])
        assert rc == 0
        removed = cli.parse_event(capsys.readouterr().out.strip())
        assert removed.gate_weights != plain.gate_weights

    def test_bad_topology_record_warned_not_fatal(self, trained, tmp_path, capsys, caplog):
        stream = tmp_path / "s.csv"
        write_stream(stream, rows=3)
        data = stream.read_text()
        stream.write_text("topology,remove_line,13\n" + data)
        assert cli.main([
            "monitor", "--checkpoint", str(trained / "checkpoint.tsm"),
            "--stream", str(stream),
        ]) == 0
        without_13 = capsys.readouterr().out
        bad = ("topology,remove_line,notanint\ntopology,add_line,3\n"
               "topology,remove_line,999\ntopology,remove_line,-1\n")
        stream.write_text("topology,remove_line,13\n" + bad + data)
        caplog.clear()
        rc = cli.main([
            "monitor", "--checkpoint", str(trained / "checkpoint.tsm"),
            "--stream", str(stream),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 1
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 4
        # the last good topology stays in use
        assert out == without_13

    @pytest.mark.parametrize("index", ["1_3", "\u0661\u0663"])
    def test_topology_index_must_be_ascii_digits(self, trained, tmp_path, capsys, caplog, index):
        """int() reads 1_3 and Arabic-Indic 13 as 13; the monitor skips both records."""
        caplog.set_level(logging.INFO, logger="tsakit.cli")
        stream = tmp_path / "s.csv"
        write_stream(stream, rows=3)
        data = stream.read_text()
        args = ["monitor", "--checkpoint", str(trained / "checkpoint.tsm"), "--stream", str(stream)]
        assert cli.main(args) == 0
        plain = capsys.readouterr().out
        stream.write_text(f"topology,remove_line,{index}\n" + data)
        caplog.clear()
        assert cli.main(args) == 0
        assert capsys.readouterr().out == plain
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [
            f"line 1: bad topology record: line index {index!r} is not a decimal number"
        ]
        summary = "0 topology records applied; lines skipped: 0 fields, 0 non-numeric, 1 topology"
        assert summary in caplog.text

    def test_graph_prepared_once_per_topology(self, trained, tmp_path, capsys, monkeypatch):
        """The inverse degree is computed at start-up and at each applied
        topology record, not once per window."""
        from tsakit.autodiff_nn import model as model_module

        stream = tmp_path / "s.csv"
        write_stream(stream, rows=7)
        rows = stream.read_text().splitlines()
        rows[2:2] = ["topology,remove_line,13", "topology,remove_line,999"]
        rows[6:6] = ["topology,remove_line,5"]
        stream.write_text("\n".join(rows) + "\n")
        prepared = []
        inverse_degree = model_module._inverse_degree

        def counting(adj):
            prepared.append(adj.shape)
            return inverse_degree(adj)

        monkeypatch.setattr(model_module, "_inverse_degree", counting)
        rc = cli.main([
            "monitor", "--checkpoint", str(trained / "checkpoint.tsm"),
            "--stream", str(stream),
        ])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 7 - TOY_WINDOW + 1
        assert prepared == [(1, 39, 39)] * (1 + 2)

    def test_stdin_stream(self, trained, tmp_path, capsys, monkeypatch):
        import io
        stream = tmp_path / "s.csv"
        write_stream(stream, rows=3)
        monkeypatch.setattr("sys.stdin", io.StringIO(stream.read_text()))
        rc = cli.main([
            "monitor", "--checkpoint", str(trained / "checkpoint.tsm"),
            "--stream", "-",
        ])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    def test_missing_stream_file(self, trained, tmp_path, capsys):
        rc = cli.main([
            "monitor", "--checkpoint", str(trained / "checkpoint.tsm"),
            "--stream", str(tmp_path / "none.csv"),
        ])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_event_roundtrip_exact(self):
        event = cli.MonitorEvent(
            timestamp=1.2300000000000001,
            tas_decision="stable", tas_value=0.12345678901234567,
            tvs_decision="unstable", tvs_value=0.0,
            gate_weights={
                "tas_cls": (0.25, 0.25, 0.25, 0.25),
                "tvs_cls": (0.1, 0.2, 0.3, 0.4),
                "tas_reg": (1.0, 0.0, 0.0, 0.0),
                "tvs_reg": (0.125, 0.125, 0.25, 0.5),
            },
        )
        assert cli.parse_event(cli.format_event(event)) == event

    def test_format_event_exact_text(self):
        """The text the f-string formatter wrote before the % template, byte for byte."""
        event = cli.MonitorEvent(
            timestamp=12.345678901234567,
            tas_decision="unstable", tas_value=-0.0,
            tvs_decision="stable", tvs_value=0.12345678901234568,
            gate_weights={
                "tas_cls": (0.1, 0.2, 0.3, 0.4),
                "tvs_cls": (0.5, 0.25, 0.125, 0.125),
                "tas_reg": (1.0, 0.0, -0.0, 1e-300),
                "tvs_reg": (0.30000000000000004, 0.19999999999999998, 0.25, 0.25),
            },
        )
        assert cli.format_event(event) == (
            "t=12.345678901234567 tas=unstable tas_value=-0 tvs=stable "
            "tvs_value=0.12345678901234568 gates_tas_cls=0.10000000000000001,"
            "0.20000000000000001,0.29999999999999999,0.40000000000000002 "
            "gates_tvs_cls=0.5,0.25,0.125,0.125 gates_tas_reg=1,0,-0,1e-300 "
            "gates_tvs_reg=0.30000000000000004,0.19999999999999998,0.25,0.25"
        )

    @pytest.mark.parametrize("line, message", [
        ("t=1 tas=stable", "event has no 'gates_tas_cls' field"),
        ("t=1 tas", "malformed event token: 'tas'"),
    ])
    def test_parse_event_rejects_an_incomplete_line(self, line, message):
        with pytest.raises(ValueError, match=message):
            cli.parse_event(line)

    @pytest.mark.parametrize("margin_hat", [-1.5, -0.25, 0.0, -0.0, 0.5, 1.0, 2.0, math.nan])
    @pytest.mark.parametrize("stable", [True, False])
    def test_fold_margin_equals_numpy_clip(self, stable, margin_hat):
        value = margin_hat if stable else -margin_hat
        folded = cli._fold_margin(stable, margin_hat)
        assert type(folded) is float
        assert f"{folded:.17g}" == f"{float(np.clip(value, 0.0, 1.0)):.17g}"

    def test_fold_margin_keeps_negative_zero(self):
        assert f"{cli._fold_margin(False, 0.0):.17g}" == "-0"
        assert f"{cli._fold_margin(True, -0.0):.17g}" == "-0"

    def test_assessing_a_window_builds_no_tensor(self, trained, monkeypatch):
        """The monitor's forward records no tape: not one Tensor per event."""
        from tsakit.autodiff_nn import Tensor, load_checkpoint
        from tsakit.grid_model import adjacency_from_network

        model = load_checkpoint(trained / "checkpoint.tsm")
        network = load_network(packaged_network_path())
        rng = np.random.default_rng(4)
        mags = 1.0 + 0.01 * rng.standard_normal((TOY_WINDOW, network.n_bus))
        angs = 0.1 * rng.standard_normal((TOY_WINDOW, network.n_bus))
        adjacency = adjacency_from_network(network)

        built = []
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        event = cli.assess_window(model, mags, angs, network.slack_bus, adjacency, 0.02)
        assert len(built) == 0
        assert event.tas_decision in ("stable", "unstable")
        # the same counter does see the Tensors a taped forward builds
        model.forward(np.zeros((1, network.n_bus, 2 * TOY_WINDOW)), adjacency[None])
        assert len(built) > 0


class TestMonitorReplayMatchesOffline:
    """The streamed assessment must equal a direct forward on the same window."""

    def test_values_match_direct_forward(self, trained, tmp_path, capsys, caplog):
        from tsakit.autodiff_nn import load_checkpoint
        from tsakit.grid_model import adjacency_from_network

        model = load_checkpoint(trained / "checkpoint.tsm")
        network = load_network(packaged_network_path())
        stream = tmp_path / "s.csv"
        write_stream(stream, rows=5, seed=11)
        plain = stream.read_text().splitlines()
        write_stream(stream, rows=9, seed=12)
        mixed = stream.read_text().splitlines()
        # skipped lines and records between samples must not advance the window
        for at, line in ((8, "topology,remove_line,13"), (6, "# comment"),
                         (5, mixed[4][: mixed[4].rindex(",")]), (3, ""),
                         (2, "topology,remove_line,L2"), (1, "0.5x" + mixed[1][mixed[1].index(","):])):
            mixed.insert(at, line)
        # one bus's slack-relative angle rises through +pi between valid rows 3
        # and 4, which a skipped line and a topology record separate; row 5
        # carries a nan magnitude
        write_stream(stream, rows=8, seed=13)
        wrapping = stream.read_text().splitlines()
        slack = network.slack_bus
        bus = (slack + 1) % network.n_bus
        for k, line in enumerate(wrapping):
            values = [float(x) for x in line.split(",")]
            values[1 + network.n_bus + bus] = values[1 + network.n_bus + slack] + 2.5 + 0.2 * k
            if k == 5:
                values[1 + bus] = float("nan")
            wrapping[k] = ",".join("%.17g" % x for x in values)
        wrapping[4:4] = [wrapping[3][: wrapping[3].rindex(",")], "topology,remove_line,13"]

        caplog.set_level(logging.INFO, logger="tsakit.cli")
        for lines, n_rows, repaired, topology, skipped in ((plain, 5, 0, None, (0, 0, 0)),
                                                           (mixed, 9, 0, 13, (1, 1, 1)),
                                                           (wrapping, 8, 1, 13, (1, 0, 0))):
            stream.write_text("\n".join(lines) + "\n")
            caplog.clear()
            rc = cli.main([
                "monitor", "--checkpoint", str(trained / "checkpoint.tsm"),
                "--stream", str(stream),
            ])
            assert rc == 0
            events = [cli.parse_event(l) for l in capsys.readouterr().out.strip().splitlines()]
            n_events = n_rows - TOY_WINDOW + 1
            assert len(events) == n_events
            assert len([r for r in caplog.records if r.levelname == "WARNING"]) == sum(skipped)
            summary = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
            assert summary == [
                f"stream ended: {n_rows} valid rows ({repaired} repaired), {n_events} events, "
                f"{int(topology is not None)} topology records applied; lines skipped: "
                "%d fields, %d non-numeric, %d topology, 0 out of order" % skipped
            ]

            # the valid rows, each with the topology in force when it arrived
            rows, removed, in_force = [], [], None
            for line in lines:
                if line.startswith("topology,remove_line,") and line[21:].isdigit():
                    in_force = int(line[21:])
                elif len(line.split(",")) == 79 and "x" not in line:
                    rows.append([float(x) for x in line.split(",")])
                    removed.append(in_force)
            assert in_force == topology
            mags = np.array([r[1:40] for r in rows])
            angs = np.array([r[40:] for r in rows])
            for k, event in enumerate(events):
                last = k + TOY_WINDOW - 1
                window = slice(k, k + TOY_WINDOW)
                direct = cli.assess_window(
                    model, mags[window], angs[window], network.slack_bus,
                    adjacency_from_network(network, without_line=removed[last]),
                    rows[last][0],
                )
                assert event == direct  # bit-exact through the %.17g roundtrip


class TestConfigParsing:
    def test_read_config_skips_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# note\n\na = 1\n b = two words \n")
        assert cli.read_config(cfg) == {"a": "1", "b": "two words"}

    def test_read_config_rejects_bare_line(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("justakey\n")
        with pytest.raises(cli.CliError, match="key = value"):
            cli.read_config(cfg)

    def test_read_config_rejects_repeated_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("lines = 1,5\n# narrowed\nlines = 13\n")
        with pytest.raises(cli.CliError, match=f"{cfg}:3: key 'lines' repeats"):
            cli.read_config(cfg)
        rc = cli.main(["generate", "--config", str(cfg), "--enumerate-only"])
        assert rc == 2
        assert "key 'lines' repeats" in capsys.readouterr().err

    def test_readme_lists_the_config_keys(self):
        """The README's key lists are the settable dataclass fields, and the
        parsers accept each key."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()

        def listed(kind):
            bullet = re.search(rf"^- {kind} keys, (.*?)[;.]$", readme, re.M | re.S).group(1)
            return set(re.findall(r"`(\w+)`", bullet.split(": ", 1)[1]))

        def names(*classes):
            return {f.name for cls in classes for f in fields(cls)} - {"seed", "in_dim"}

        assert listed("grid") == names(GridConfig)
        assert listed("training") == names(TrainConfig, ModelConfig)
        for key in names(GridConfig):
            with pytest.raises(cli.CliError, match=f"invalid grid config: {key}: "):
                cli.grid_from_config(None, {key: "x"})
        for key in names(TrainConfig, ModelConfig):
            with pytest.raises(cli.CliError, match=f"invalid training config: {key}: "):
                cli.train_settings_from_config({key: "x"})

    def test_train_settings_split_model_keys(self):
        train_fields, model_fields = cli.train_settings_from_config(
            {"epochs": "3", "hidden_dim": "16", "mse_threshold": "none",
             "learning_rate": "0.01"}
        )
        assert train_fields == {
            "epochs": 3, "mse_threshold": None, "learning_rate": 0.01,
        }
        assert model_fields == {"hidden_dim": 16}

    def test_unknown_train_key(self):
        with pytest.raises(cli.CliError, match="momentum"):
            cli.train_settings_from_config({"momentum": "0.9"})
