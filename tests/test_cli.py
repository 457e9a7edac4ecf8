"""Tests for the command-line surface: config loading, the five commands,
rerun determinism, and the gradcache-equality guarantee."""

import json
import statistics
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from nanoembed import infonce as nce
from nanoembed import negatives as ng
from nanoembed.cli import ConfigError, load_config, main
from nanoembed.encoder import Encoder, load_checkpoint
from nanoembed.metrics import StepMetrics, read_trace


CORPUS = {"seed": 3, "n_groups": 4, "items_per_group": 4, "input_dim": 8}


def base_config(**overrides):
    cfg = {
        "corpus": dict(CORPUS),
        "encoder": {"hidden_dim": 16, "embed_dim": 8},
        "teacher": {"offset_scale": 2.0},
        "distill": {"batch_size": 8, "tau": 0.1},
        "miner": {"beta": 0.1, "k": 4},
        "optimizer": {"kind": "adam", "learning_rate": 0.01, "steps": 12},
        "seed": 7,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(base_config(**overrides)))
    return path


def run(*args):
    return main([str(a) for a in args])


def make_stage1_checkpoint(tmp_path):
    """Shared starting checkpoint so stage-2 runs never begin at a random
    init that filters away every candidate."""
    config = write_config(tmp_path, name="s1.json")
    out = tmp_path / "s1"
    assert run("stage1", "--config", config, "--out", out) == 0
    return config, out / "checkpoint.bin"


def count_cached_steps(monkeypatch):
    """Record every gradient-cached step stage2_train takes."""
    calls = []
    cached_step = nce.cached_step

    def counting(*args, **kwargs):
        calls.append(1)
        return cached_step(*args, **kwargs)

    monkeypatch.setattr(nce, "cached_step", counting)
    return calls


class TestConfigLoading:
    def test_minimal_config_gets_desk_defaults(self, tmp_path):
        path = tmp_path / "minimal.json"
        path.write_text("{}")
        cfg = load_config(path)
        assert cfg.encoder.hidden_dim == 64
        assert cfg.encoder.embed_dim == 32
        assert cfg.optimizer.kind == "adam"
        assert cfg.optimizer.learning_rate == pytest.approx(1e-2)
        assert cfg.optimizer.clip_norm == pytest.approx(1.0)
        assert cfg.steps == 1000
        assert cfg.miner.beta == pytest.approx(0.1)
        assert cfg.miner.k == 8
        assert cfg.miner.tau == pytest.approx(0.05)
        assert cfg.gradcache_sub_batch is None
        assert cfg.seed == 0

    def test_encoder_input_dim_follows_corpus_spec(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.encoder.input_dim == 8

    def test_teacher_defaults_to_student_architecture_distinct_seed(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.teacher.hidden_dim == cfg.encoder.hidden_dim
        assert cfg.teacher.embed_dim == cfg.encoder.embed_dim
        assert cfg.teacher.seed != cfg.encoder.seed

    def test_missing_config_file_names_path(self, tmp_path):
        with pytest.raises(ConfigError, match="nowhere.json"):
            load_config(tmp_path / "nowhere.json")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_config(tmp_path, optimzer={"steps": 5})
        with pytest.raises(ConfigError, match="optimzer"):
            load_config(path)

    def test_missing_corpus_path_names_the_path(self, tmp_path):
        path = write_config(tmp_path, corpus={"path": "ghost/corpus.jsonl"})
        with pytest.raises(ConfigError, match="ghost/corpus.jsonl"):
            load_config(path)

    def test_corpus_path_with_spec_fields_rejected(self, tmp_path):
        (tmp_path / "c.jsonl").write_text("")
        path = write_config(tmp_path, corpus={"path": str(tmp_path / "c.jsonl"), "n_groups": 4})
        with pytest.raises(ConfigError, match="n_groups"):
            load_config(path)

    def test_corpus_from_path_requires_explicit_input_dim(self, tmp_path):
        (tmp_path / "c.jsonl").write_text("")
        path = write_config(
            tmp_path, corpus={"path": str(tmp_path / "c.jsonl")}, encoder={"hidden_dim": 16, "embed_dim": 8}
        )
        with pytest.raises(ConfigError, match="input_dim"):
            load_config(path)

    def test_encoder_corpus_width_mismatch_rejected(self, tmp_path):
        path = write_config(tmp_path, encoder={"input_dim": 9, "hidden_dim": 16, "embed_dim": 8})
        with pytest.raises(ConfigError, match="input_dim"):
            load_config(path)

    def test_invalid_subconfig_value_surfaces_section(self, tmp_path):
        path = write_config(tmp_path, miner={"k": 0})
        with pytest.raises(ConfigError, match="miner"):
            load_config(path)

    def test_removed_kl_numerator_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, distill={"batch_size": 8, "kl_numerator": "pairwise"})
        assert run("stage1", "--config", config, "--out", tmp_path / "out") == 2
        assert "kl_numerator" in capsys.readouterr().err

    def test_removed_exclude_other_positives_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, miner={"beta": 0.1, "k": 4, "exclude_other_positives": True})
        assert run("stage2", "--config", config, "--out", tmp_path / "out") == 2
        assert "exclude_other_positives" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, overrides, field",
        [
            ("stage2", {"gradcache": {"enabled": "false"}}, "enabled"),
            ("stage1", {"seed": True}, "seed"),
            ("stage1", {"optimizer": {"steps": True}}, "steps"),
            ("stage2", {"gradcache": {"enabled": True, "sub_batch": True}}, "sub_batch"),
            ("stage2", {"miner": {"k": True}}, "k"),
            ("stage1", {"encoder": {"hidden_dim": True, "embed_dim": 8}}, "hidden_dim"),
            ("stage1", {"encoder": {"hidden_dim": 16, "embed_dim": True}}, "embed_dim"),
            ("stage1", {"encoder": {"hidden_dim": 16, "embed_dim": 8, "depth": True}}, "depth"),
            ("stage1", {"distill": {"batch_size": 2.5}}, "batch_size"),
            ("stage2", {"miner": {"k": 2.0}}, "k"),
            ("stage1", {"encoder": {"hidden_dim": 16.0, "embed_dim": 8}}, "hidden_dim"),
            ("ablate", {"sweep": {"k": [2, 2.5]}}, "k"),
            ("stage2", {"miner": {"beta": 0.1, "k": 4, "tau": True}}, "tau"),
            ("stage1", {"optimizer": {"learning_rate": True, "steps": 12}}, "learning_rate"),
            ("stage1", {"teacher": {"offset_scale": True}}, "offset_scale"),
            ("stage1", {"teacher": {"offset_scale": "3"}}, "offset_scale"),
            ("ablate", {"sweep": {"beta": [True]}}, "beta"),
            ("stage1", {"corpus": {**CORPUS, "modality_mix": {"text": True}}}, "modality_mix"),
            ("stage1", {"corpus": {**CORPUS, "seq_len_range": [2.5, 4]}}, "seq_len_range"),
            ("stage1", {"corpus": {**CORPUS, "seq_len_range": 5}}, "seq_len_range"),
            ("stage1", {"corpus": {"path": 5}}, "path"),
            ("stage1", {"output_dir": 5}, "output_dir"),
            ("stage2", {"miner": {"beta": float("nan"), "k": 4}}, "beta"),
            ("stage1", {"teacher": {"offset_scale": float("nan")}}, "offset_scale"),
            ("stage1", {"corpus": {**CORPUS, "noise_scale": float("nan")}}, "noise_scale"),
            ("stage1", {"optimizer": {"learning_rate": float("inf"), "steps": 12}}, "learning_rate"),
            ("ablate", {"sweep": {"beta": [0.1, float("-inf")]}}, "beta"),
            ("stage1", {"teacher": {"offset_scale": 10**400}}, "offset_scale"),
        ],
        ids=[
            "enabled_string", "seed_bool", "steps_bool", "sub_batch_bool", "k_bool", "hidden_dim_bool",
            "embed_dim_bool", "depth_bool", "batch_size_fraction", "k_float", "hidden_dim_float",
            "sweep_k_fraction", "tau_bool", "learning_rate_bool", "offset_scale_bool",
            "offset_scale_string", "sweep_beta_bool", "modality_mix_bool", "seq_len_range_fraction",
            "seq_len_range_scalar", "corpus_path_int", "output_dir_int", "beta_nan",
            "offset_scale_nan", "noise_scale_nan", "learning_rate_inf", "sweep_beta_minus_inf",
            "offset_scale_huge_int",
        ],
    )
    def test_badly_typed_value_is_usage_error(self, tmp_path, capsys, command, overrides, field):
        config = write_config(tmp_path, **overrides)
        assert run(command, "--config", config, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_negative_steps_rejected(self, tmp_path):
        path = write_config(tmp_path, optimizer={"steps": -1})
        with pytest.raises(ConfigError, match="steps"):
            load_config(path)

    def test_sweep_needs_exactly_one_parameter(self, tmp_path):
        path = write_config(tmp_path, sweep={"beta": [0.1], "k": [4]})
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(path)

    def test_sweep_unknown_parameter_rejected(self, tmp_path):
        path = write_config(tmp_path, sweep={"tau": [0.1]})
        with pytest.raises(ConfigError, match="tau"):
            load_config(path)

    def test_flag_seed_beats_env_seed(self, tmp_path, monkeypatch):
        # The environment is never read: the config sets the seed, the flag overrides it.
        monkeypatch.setenv("NANOEMBED_SEED", "42")
        path = write_config(tmp_path)
        assert load_config(path).seed == 7
        assert load_config(path, seed_override=5).seed == 5

    def test_out_flag_beats_config_output_dir(self, tmp_path):
        path = write_config(tmp_path, output_dir="cfgout")
        assert load_config(path).output_dir == Path("cfgout")
        assert load_config(path, out_override=str(tmp_path / "flagout")).output_dir == tmp_path / "flagout"


class TestStage1:
    def test_writes_parseable_trace_and_checkpoint(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("stage1", "--config", config, "--out", out) == 0
        trace = read_trace(out / "trace.jsonl")
        assert [m.step for m in trace] == list(range(12))
        encoder = load_checkpoint(out / "checkpoint.bin")
        assert encoder.config.embed_dim == 8

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("stage1", "--config", config, "--out", a) == 0
        assert run("stage1", "--config", config, "--out", b) == 0
        assert (a / "trace.jsonl").read_bytes() == (b / "trace.jsonl").read_bytes()
        assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()

    def test_different_seed_changes_trace(self, tmp_path):
        config = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("stage1", "--config", config, "--out", a, "--seed", 7) == 0
        assert run("stage1", "--config", config, "--out", b, "--seed", 8) == 0
        assert (a / "trace.jsonl").read_bytes() != (b / "trace.jsonl").read_bytes()

    def test_loss_moving_average_decreases(self, tmp_path):
        config = write_config(tmp_path, optimizer={"learning_rate": 0.003, "steps": 80})
        out = tmp_path / "out"
        assert run("stage1", "--config", config, "--out", out) == 0
        losses = [m.loss for m in read_trace(out / "trace.jsonl")]
        assert statistics.mean(losses[-10:]) < statistics.mean(losses[:10])

    def test_missing_corpus_path_exits_with_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, corpus={"path": "ghost.jsonl"})
        assert run("stage1", "--config", config, "--out", tmp_path / "out") == 2
        assert "ghost.jsonl" in capsys.readouterr().err


class TestStage2:
    def test_trace_records_mining_fields(self, tmp_path):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        out = tmp_path / "out"
        assert run("stage2", "--config", config, "--checkpoint", checkpoint, "--out", out) == 0
        trace = read_trace(out / "trace.jsonl")
        assert len(trace) == 12
        assert all(0.0 <= m.false_neg_pct <= 100.0 for m in trace)
        assert all(0.0 <= m.duplication_rate <= 1.0 for m in trace)

    def test_hard_terminal_loss_above_easy(self, tmp_path):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        longer = write_config(tmp_path, name="longer.json", optimizer={"steps": 60})
        terminal = {}
        for mode in ("hard", "easy"):
            out = tmp_path / mode
            assert run("stage2", "--config", longer, "--checkpoint", checkpoint,
                       "--mode", mode, "--out", out) == 0
            losses = [m.loss for m in read_trace(out / "trace.jsonl")]
            terminal[mode] = statistics.mean(losses[-10:])
        assert terminal["hard"] > terminal["easy"]

    @pytest.mark.parametrize("mode", ["hard", "easy", "random"])
    def test_gradcache_on_and_off_reach_equal_parameters(self, tmp_path, mode):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        cached = write_config(tmp_path, name="cached.json", gradcache={"enabled": True, "sub_batch": 5})
        for cfg, out in ((config, "off"), (cached, "on")):
            assert run("stage2", "--config", cfg, "--checkpoint", checkpoint, "--mode", mode,
                       "--out", tmp_path / out) == 0
        off = load_checkpoint(tmp_path / "off" / "checkpoint.bin").weight_arrays()
        on = load_checkpoint(tmp_path / "on" / "checkpoint.bin").weight_arrays()
        for (name_off, values_off), (name_on, values_on) in zip(off, on):
            assert name_off == name_on
            np.testing.assert_allclose(values_on, values_off, rtol=0.0, atol=1e-7)

    def test_cached_step_mines_once_and_encodes_each_row_twice(self, tmp_path, monkeypatch):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        cached = write_config(tmp_path, name="cached.json", gradcache={"enabled": True, "sub_batch": 5})
        corpus = load_config(cached).load_corpus()
        calls, rows = [], []
        select, encode = ng.select_negatives, Encoder.encode

        def counting_select(*args, **kwargs):
            calls.append(1)
            return select(*args, **kwargs)

        def counting_encode(self, items, *args, **kwargs):
            rows.append(len(items))
            return encode(self, items, *args, **kwargs)

        monkeypatch.setattr(ng, "select_negatives", counting_select)
        monkeypatch.setattr(Encoder, "encode", counting_encode)
        assert run("stage2", "--config", cached, "--checkpoint", checkpoint, "--out", tmp_path / "on") == 0
        assert len(calls) == 12
        assert sum(rows) == 12 * 2 * (len(corpus.pairs) + len(corpus.items))

    def test_gradcache_rerun_is_byte_identical(self, tmp_path):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        cached = write_config(tmp_path, name="cached.json", gradcache={"enabled": True, "sub_batch": 4})
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("stage2", "--config", cached, "--checkpoint", checkpoint, "--out", out) == 0
        assert (a / "trace.jsonl").read_bytes() == (b / "trace.jsonl").read_bytes()
        assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()

    def test_interrupted_write_keeps_previous_artifacts(self, tmp_path, monkeypatch):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        out = tmp_path / "out"
        assert run("stage2", "--config", config, "--checkpoint", checkpoint, "--out", out) == 0
        before = {f: (out / f).read_bytes() for f in ("trace.jsonl", "checkpoint.bin")}

        def failing_to_json(self):
            if self.step == 5:
                raise RuntimeError("disk gone")
            return json.dumps({"step": self.step})

        monkeypatch.setattr(StepMetrics, "to_json", failing_to_json)
        longer = write_config(tmp_path, name="longer.json", optimizer={"steps": 20})
        with pytest.raises(RuntimeError, match="disk gone"):
            run("stage2", "--config", longer, "--checkpoint", checkpoint, "--out", out)
        assert sorted(p.name for p in out.iterdir()) == ["checkpoint.bin", "run_info.json", "trace.jsonl"]
        assert {f: (out / f).read_bytes() for f in before} == before

    def test_divergent_run_names_its_step(self, tmp_path, capsys):
        _, checkpoint = make_stage1_checkpoint(tmp_path)
        config = write_config(tmp_path, miner={"beta": 0.1, "k": 4, "tau": 1e-300})
        # The error line is the only report: no overflow warning comes before it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("stage2", "--config", config, "--checkpoint", checkpoint, "--out", tmp_path / "out")
        assert code == 2
        assert capsys.readouterr().err == "error: step 0: grad_norm must be finite, got inf\n"

    def test_fused_items_are_usage_error(self, tmp_path, capsys):
        corpus = {**CORPUS, "seq_len_range": [2, 4], "modality_mix": {"text": 0.5, "fused": 0.5}}
        config = write_config(tmp_path, corpus=corpus)
        assert run("stage2", "--config", config, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: item ") and "stage-2 training takes text and image items only" in err

    def test_unknown_mode_is_usage_error(self, tmp_path):
        config = write_config(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            run("stage2", "--config", config, "--mode", "bogus", "--out", tmp_path / "out")
        assert excinfo.value.code == 2

    def test_missing_checkpoint_names_path(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert run("stage2", "--config", config, "--checkpoint", tmp_path / "ghost.bin",
                   "--out", tmp_path / "out") == 2
        assert "ghost.bin" in capsys.readouterr().err


class TestEval:
    def test_report_round_trips_through_schema(self, tmp_path):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        out = tmp_path / "out"
        assert run("eval", "--config", config, "--checkpoint", checkpoint, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"precision_at", "recall_at", "ranked"}
        assert set(report["precision_at"]) == {"1", "5"}
        for value in report["precision_at"].values():
            assert 0.0 <= value <= 1.0
        assert len(report["ranked"]) == 16
        for ranking in report["ranked"].values():
            assert sorted(ranking) == sorted(set(ranking))

    def test_rerun_is_byte_identical(self, tmp_path):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("eval", "--config", config, "--checkpoint", checkpoint, "--out", out) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_eval_without_checkpoint_scores_fresh_init(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("eval", "--config", config, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["precision_at"]["1"] <= 1.0


# A damaged checkpoint file, built from the bytes of a good one.
DAMAGED_CHECKPOINTS = {
    "three_bytes": lambda good: good[:3],
    "truncated_mid_array": lambda good: good[:-100],
    "trailing_garbage": lambda good: good + b"garbage",
    "nan_weight": lambda good: good[:-8] + struct.pack("<d", float("nan")),
    "inf_weight": lambda good: good[:-8] + struct.pack("<d", float("inf")),
}


class TestDamagedCheckpoint:
    @pytest.mark.parametrize("damage", sorted(DAMAGED_CHECKPOINTS))
    def test_eval_reports_error_and_exits_2(self, tmp_path, capsys, damage):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(DAMAGED_CHECKPOINTS[damage](checkpoint.read_bytes()))
        capsys.readouterr()
        assert run("eval", "--config", config, "--checkpoint", bad, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.bin" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("damage", ["inf_weight", "nan_weight"])
    def test_stage2_reports_error_and_exits_2(self, tmp_path, capsys, damage):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(DAMAGED_CHECKPOINTS[damage](checkpoint.read_bytes()))
        capsys.readouterr()
        assert run("stage2", "--config", config, "--checkpoint", bad, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.bin" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "trace.jsonl").exists()
        assert not (tmp_path / "out" / "checkpoint.bin").exists()


class TestAblate:
    def test_beta_sweep_false_neg_column_non_increasing(self, tmp_path):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        sweep = write_config(
            tmp_path, name="sweep.json",
            optimizer={"steps": 5},
            sweep={"beta": [-0.1, 0.0, 0.1, 0.2, 0.3]},
        )
        out = tmp_path / "out"
        assert run("ablate", "--config", sweep, "--checkpoint", checkpoint, "--out", out) == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "beta,false_neg_pct,precision_at_1"
        rates = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(rates) == 5
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_k_sweep_hard_neg_column_is_exact_arithmetic(self, tmp_path):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        sweep = write_config(
            tmp_path, name="sweep.json",
            optimizer={"steps": 5},
            sweep={"k": [1, 2, 4]},
        )
        out = tmp_path / "out"
        assert run("ablate", "--config", sweep, "--checkpoint", checkpoint, "--out", out) == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "k,hard_neg_pct,precision_at_1"
        rates = [float(line.split(",")[1]) for line in lines[1:]]
        assert rates == [100.0 * k / 16 for k in (1, 2, 4)]

    def test_rerun_is_byte_identical(self, tmp_path):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        sweep = write_config(
            tmp_path, name="sweep.json", optimizer={"steps": 5}, sweep={"beta": [0.1, 0.3]}
        )
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("ablate", "--config", sweep, "--checkpoint", checkpoint, "--out", out) == 0
        assert (a / "ablation.csv").read_bytes() == (b / "ablation.csv").read_bytes()

    def test_gradcache_runs_the_cached_step(self, tmp_path, monkeypatch):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        sweep = write_config(
            tmp_path, name="sweep.json", optimizer={"steps": 3}, sweep={"beta": [0.1, 0.3]},
            gradcache={"enabled": True, "sub_batch": 5},
        )
        calls = count_cached_steps(monkeypatch)
        assert run("ablate", "--config", sweep, "--checkpoint", checkpoint, "--out", tmp_path / "out") == 0
        assert len(calls) == 2 * 3

    def test_missing_sweep_section_is_usage_error(self, tmp_path, capsys):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        assert run("ablate", "--config", config, "--checkpoint", checkpoint,
                   "--out", tmp_path / "out") == 2
        assert "sweep" in capsys.readouterr().err

    def test_invalid_sweep_value_fails_before_any_training(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(nce, "stage2_train", lambda *args, **kwargs: calls.append(1))
        sweep = write_config(tmp_path, sweep={"k": [2, 3, 0]})
        assert run("ablate", "--config", sweep, "--out", tmp_path / "out") == 2
        assert "k must be >= 1" in capsys.readouterr().err
        assert calls == []

    def test_empty_sweep_list_is_usage_error(self, tmp_path, capsys):
        sweep = write_config(tmp_path, sweep={"beta": []})
        assert run("ablate", "--config", sweep, "--out", tmp_path / "out") == 2
        assert "nonempty" in capsys.readouterr().err


class TestTracegrad:
    def test_three_traces_with_identical_step_counts(self, tmp_path):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        out = tmp_path / "out"
        assert run("tracegrad", "--config", config, "--checkpoint", checkpoint, "--out", out) == 0
        counts = {
            mode: len(read_trace(out / f"trace_{mode}.jsonl"))
            for mode in ("easy", "random", "hard")
        }
        assert set(counts.values()) == {12}

    def test_modes_produce_distinct_traces(self, tmp_path):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        out = tmp_path / "out"
        assert run("tracegrad", "--config", config, "--checkpoint", checkpoint, "--out", out) == 0
        contents = {
            (out / f"trace_{mode}.jsonl").read_bytes() for mode in ("easy", "random", "hard")
        }
        assert len(contents) == 3

    def test_gradcache_runs_the_cached_step_and_matches_naive(self, tmp_path, monkeypatch):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        cached = write_config(tmp_path, name="cached.json", gradcache={"enabled": True, "sub_batch": 5})
        assert run("tracegrad", "--config", config, "--checkpoint", checkpoint, "--out", tmp_path / "off") == 0
        calls = count_cached_steps(monkeypatch)
        assert run("tracegrad", "--config", cached, "--checkpoint", checkpoint, "--out", tmp_path / "on") == 0
        assert len(calls) == 3 * 12
        for mode in ng.NEGATIVE_MODES:
            off = read_trace(tmp_path / "off" / f"trace_{mode}.jsonl")
            on = read_trace(tmp_path / "on" / f"trace_{mode}.jsonl")
            assert len(on) == len(off) == 12
            for a, b in zip(off, on):
                np.testing.assert_allclose(
                    [b.loss, b.grad_norm, b.false_neg_pct, b.duplication_rate],
                    [a.loss, a.grad_norm, a.false_neg_pct, a.duplication_rate],
                    rtol=0.0, atol=1e-7,
                )


class TestRunInfo:
    def test_sidecar_lists_command_and_outputs(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("stage1", "--config", config, "--out", out) == 0
        info = json.loads((out / "run_info.json").read_text())
        assert info["command"] == "stage1"
        assert info["outputs"] == ["checkpoint.bin", "trace.jsonl"]
        assert "started_at" in info and "finished_at" in info

    def test_timestamps_stay_out_of_data_files(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("stage1", "--config", config, "--out", out) == 0
        for line in (out / "trace.jsonl").read_text().splitlines():
            record = json.loads(line)
            assert set(record) == {"step", "loss", "grad_norm", "false_neg_pct", "duplication_rate"}
