"""Tests for the command-line surface: config loading, the five commands,
rerun determinism, and the gradcache-equality guarantee."""

import hashlib
import json
import os
import statistics
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from nanoembed import cli
from nanoembed import corpus as cp
from nanoembed import gradcache as gc
from nanoembed import infonce as nce
from nanoembed import negatives as ng
from nanoembed.cli import load_config, main
from nanoembed.encoder import Encoder, load_checkpoint
from nanoembed.metrics import StepMetrics, read_trace
from nanoembed.retrieval import RetrievalReport


CORPUS = {"seed": 3, "n_groups": 4, "items_per_group": 4, "input_dim": 8}
# One unclipped update that leaves the weights finite, too large for the next forward pass.
DIVERGENT_SGD = {"kind": "sgd", "learning_rate": 1e300, "clip_norm": 1e300, "steps": 12}
# One unclipped update that overflows the weights themselves.
OVERFLOWING_UPDATE = {"learning_rate": 1e308, "clip_norm": 1e308, "steps": 12}
TEACHER_WIDTH = "teacher input_dim 4 != encoder input_dim 8"
OVERSIZED = "input_dim, hidden_dim, embed_dim and depth ask for more weights than an address space holds"
OVERSIZED_CORPUS = "n_groups, items_per_group and input_dim ask for more features than an address space holds"


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
        assert cfg.teacher.config.hidden_dim == cfg.encoder.hidden_dim
        assert cfg.teacher.config.embed_dim == cfg.encoder.embed_dim
        assert cfg.teacher.config.seed != cfg.encoder.seed

    def test_missing_config_file_names_path(self, tmp_path):
        with pytest.raises(ValueError, match="config file not found: .*nowhere.json"):
            load_config(tmp_path / "nowhere.json")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_config(path)

    def test_deeply_nested_config_names_the_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"seed": ' + "[" * 200_000)
        capsys.readouterr()
        assert run("stage1", "--config", config, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {config} is not valid JSON: maximum recursion depth exceeded")
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config_names_the_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(json.dumps(base_config(output_dir="runs-X")).encode().replace(b"X", b"\xff"))
        capsys.readouterr()
        assert run("stage1", "--config", config, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {config} is not valid UTF-8: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_config(tmp_path, optimzer={"steps": 5})
        with pytest.raises(ValueError, match="unknown config keys: optimzer"):
            load_config(path)

    def test_missing_corpus_path_names_the_path(self, tmp_path):
        path = write_config(tmp_path, corpus={"path": "ghost/corpus.jsonl"})
        with pytest.raises(ValueError, match="corpus path not found: ghost/corpus.jsonl"):
            load_config(path)

    def test_corpus_path_with_spec_fields_rejected(self, tmp_path):
        (tmp_path / "c.jsonl").write_text("")
        path = write_config(tmp_path, corpus={"path": str(tmp_path / "c.jsonl"), "n_groups": 4})
        with pytest.raises(ValueError, match="corpus path cannot be combined with spec fields: n_groups"):
            load_config(path)

    def test_corpus_from_path_requires_explicit_input_dim(self, tmp_path):
        (tmp_path / "c.jsonl").write_text("")
        path = write_config(
            tmp_path, corpus={"path": str(tmp_path / "c.jsonl")}, encoder={"hidden_dim": 16, "embed_dim": 8}
        )
        with pytest.raises(ValueError, match="input_dim is required when the corpus comes from a path"):
            load_config(path)

    def test_encoder_corpus_width_mismatch_rejected(self, tmp_path):
        path = write_config(tmp_path, encoder={"input_dim": 9, "hidden_dim": 16, "embed_dim": 8})
        with pytest.raises(ValueError, match="encoder input_dim 9 != corpus input_dim 8"):
            load_config(path)

    def test_invalid_subconfig_value_surfaces_section(self, tmp_path):
        path = write_config(tmp_path, miner={"k": 0})
        with pytest.raises(ValueError, match="bad 'miner' config: k must be >= 1"):
            load_config(path)

    def test_removed_kl_numerator_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, distill={"batch_size": 8, "kl_numerator": "pairwise"})
        assert run("stage1", "--config", config, "--out", tmp_path / "out") == 2
        assert "kl_numerator" in capsys.readouterr().err

    def test_removed_exclude_other_positives_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, miner={"beta": 0.1, "k": 4, "exclude_other_positives": True})
        assert run("stage2", "--config", config, "--out", tmp_path / "out") == 2
        assert "exclude_other_positives" in capsys.readouterr().err

    def test_removed_seq_len_range_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, corpus={**CORPUS, "seq_len_range": [2, 4]})
        assert run("stage1", "--config", config, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == (
            "error: bad 'corpus' config: CorpusSpec.__init__() got an unexpected keyword argument 'seq_len_range'\n"
        )
        assert not (tmp_path / "out").exists()

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
            ("stage1", {"corpus": {"path": 5}}, "path"),
            ("stage1", {"output_dir": 5}, "output_dir"),
            ("stage2", {"miner": {"beta": float("nan"), "k": 4}}, "beta"),
            ("stage1", {"teacher": {"offset_scale": float("nan")}}, "offset_scale"),
            ("stage1", {"corpus": {**CORPUS, "noise_scale": float("nan")}}, "noise_scale"),
            ("stage1", {"optimizer": {"learning_rate": float("inf"), "steps": 12}}, "learning_rate"),
            ("ablate", {"sweep": {"beta": [0.1, float("-inf")]}}, "beta"),
            ("stage1", {"teacher": {"offset_scale": 10**400}}, "offset_scale"),
            ("stage1", {"teacher": {"input_dim": 4}, "optimizer": {"steps": 0}}, TEACHER_WIDTH),
            ("stage1", {"teacher": {"input_dim": 4}, "optimizer": {"steps": 3}}, TEACHER_WIDTH),
            ("eval", {"teacher": {"input_dim": 4}}, TEACHER_WIDTH),
        ],
        ids=[
            "enabled_string", "seed_bool", "steps_bool", "sub_batch_bool", "k_bool", "hidden_dim_bool",
            "embed_dim_bool", "depth_bool", "batch_size_fraction", "k_float", "hidden_dim_float",
            "sweep_k_fraction", "tau_bool", "learning_rate_bool", "offset_scale_bool",
            "offset_scale_string", "sweep_beta_bool", "modality_mix_bool", "corpus_path_int",
            "output_dir_int", "beta_nan", "offset_scale_nan", "noise_scale_nan", "learning_rate_inf",
            "sweep_beta_minus_inf",
            "offset_scale_huge_int", "teacher_width_steps0", "teacher_width_steps3", "teacher_width_eval",
        ],
    )
    def test_badly_typed_value_is_usage_error(self, tmp_path, capsys, command, overrides, field):
        config = write_config(tmp_path, **overrides)
        assert run(command, "--config", config, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags, overrides, message",
        [
            (["--seed", "-1"], {}, "seed must be a non-negative integer, got -1"),
            ([], {"seed": -1}, "seed must be a non-negative integer, got -1"),
            ([], {"encoder": {"hidden_dim": 16, "embed_dim": 8, "seed": -5}},
             "bad 'encoder' config: seed must be >= 0, got -5"),
            ([], {"corpus": {**CORPUS, "seed": -3}}, "bad 'corpus' config: seed must be >= 0, got -3"),
        ],
        ids=["seed_flag", "run_seed", "encoder_seed", "corpus_seed"],
    )
    def test_negative_seed_is_usage_error_naming_its_field(self, tmp_path, capsys, flags, overrides, message):
        config = write_config(tmp_path, **overrides)
        assert run("stage1", "--config", config, *flags, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_negative_steps_rejected(self, tmp_path):
        path = write_config(tmp_path, optimizer={"steps": -1})
        with pytest.raises(ValueError, match="optimizer steps must be a nonnegative integer"):
            load_config(path)

    def test_sweep_needs_exactly_one_parameter(self, tmp_path):
        path = write_config(tmp_path, sweep={"beta": [0.1], "k": [4]})
        with pytest.raises(ValueError, match="exactly one"):
            load_config(path)

    def test_sweep_unknown_parameter_rejected(self, tmp_path):
        path = write_config(tmp_path, sweep={"tau": [0.1]})
        with pytest.raises(ValueError, match="sweep parameter must be 'beta' or 'k', got 'tau'"):
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

    def test_overflowing_forward_pass_names_its_step(self, tmp_path, capsys):
        config = write_config(tmp_path, optimizer=DIVERGENT_SGD)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("stage1", "--config", config, "--out", tmp_path / "out")
        assert code == 2
        assert capsys.readouterr().err == "error: step 1: row 0 has norm nan, expected 1 within 1e-10\n"

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_overflowing_update_names_its_step_and_parameter(self, tmp_path, capsys, kind):
        config = write_config(tmp_path, optimizer={"kind": kind, **OVERFLOWING_UPDATE})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("stage1", "--config", config, "--out", tmp_path / "out")
        assert code == 2
        assert capsys.readouterr().err == "error: step 0: the update left non-finite weights in layer0.weight\n"
        assert not (tmp_path / "out").exists()

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
        select, embed = ng.select_negatives, Encoder._embed

        def counting_select(*args, **kwargs):
            calls.append(1)
            return select(*args, **kwargs)

        def counting_embed(self, values, *args, **kwargs):
            rows.append(len(values))
            return embed(self, values, *args, **kwargs)

        monkeypatch.setattr(ng, "select_negatives", counting_select)
        monkeypatch.setattr(Encoder, "_embed", counting_embed)
        assert run("stage2", "--config", cached, "--checkpoint", checkpoint, "--out", tmp_path / "on") == 0
        assert len(calls) == 12
        assert sum(rows) == 12 * 2 * (len(corpus.pairs) + len(corpus.items))

    @pytest.mark.parametrize("enabled", [False, True], ids=["naive", "cached"])
    def test_both_paths_score_each_step_through_one_objective(self, tmp_path, monkeypatch, enabled):
        _, checkpoint = make_stage1_checkpoint(tmp_path)
        config = write_config(tmp_path, name="run.json", gradcache={"enabled": enabled, "sub_batch": 5})
        calls = []
        mine = gc.ContrastiveObjective.mine

        def counting_mine(self, *args):
            calls.append(1)
            return mine(self, *args)

        monkeypatch.setattr(gc.ContrastiveObjective, "mine", counting_mine)
        assert run("stage2", "--config", config, "--checkpoint", checkpoint, "--out", tmp_path / "out") == 0
        assert len(calls) == 12

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
        assert capsys.readouterr().err == "error: step 0: grad_norm must be a finite number, got inf\n"

    def test_mining_failure_names_its_step(self, tmp_path, capsys):
        # At beta -3 every candidate sits above the positive's similarity minus 3, so all are filtered.
        config = write_config(tmp_path, miner={"beta": -3.0, "k": 4})
        capsys.readouterr()
        assert run("stage2", "--config", config, "--mode", "hard", "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == "error: step 0: query 0: no eligible candidates remain after filtering\n"
        assert not (tmp_path / "out").exists()

    def test_mining_failure_names_the_pair_whatever_the_seed(self, tmp_path, capsys):
        # From this untrained encoder every candidate of one query is filtered away.
        config = write_config(
            tmp_path, corpus={"seed": 10**400, "n_groups": 2, "items_per_group": 4, "input_dim": 4},
            encoder={"hidden_dim": 4, "embed_dim": 4, "seed": 0}, optimizer={"steps": 1}, miner={"k": 2},
        )
        cfg = load_config(config)
        corpus, encoder = cfg.load_corpus(), Encoder(cfg.encoder)
        sims = encoder.encode(corpus.queries()).matrix.values @ encoder.encode(corpus.items).matrix.values.T
        with pytest.raises(ng.NoEligibleNegativesError) as pair_order:
            ng.select_negatives(sims, corpus.positive_indices(), cfg.miner.k, "hard", cfg.miner.beta, None)
        capsys.readouterr()
        for seed in (1, 2, 3):
            assert run("stage2", "--config", config, "--seed", seed, "--out", tmp_path / "out") == 2
            assert capsys.readouterr().err == f"error: step 0: {pair_order.value}\n"

    @pytest.mark.parametrize("gradcache", [{"enabled": False}, {"enabled": True, "sub_batch": 5}],
                             ids=["naive", "cached"])
    def test_overflowing_forward_pass_names_its_step(self, tmp_path, capsys, gradcache):
        # Update 0 leaves the weights finite but near 1e301; the forward pass of step 1 overflows.
        _, checkpoint = make_stage1_checkpoint(tmp_path)
        config = write_config(tmp_path, optimizer=DIVERGENT_SGD, gradcache=gradcache)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("stage2", "--config", config, "--checkpoint", checkpoint, "--out", tmp_path / "out")
        assert code == 2
        assert capsys.readouterr().err == "error: step 1: row 0 has norm nan, expected 1 within 1e-10\n"

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("gradcache", [{"enabled": False}, {"enabled": True, "sub_batch": 5}],
                             ids=["naive", "cached"])
    def test_overflowing_update_names_its_step_and_parameter(self, tmp_path, capsys, gradcache, kind):
        _, checkpoint = make_stage1_checkpoint(tmp_path)
        config = write_config(tmp_path, optimizer={"kind": kind, **OVERFLOWING_UPDATE}, gradcache=gradcache)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("stage2", "--config", config, "--checkpoint", checkpoint, "--out", tmp_path / "out")
        assert code == 2
        assert capsys.readouterr().err == "error: step 0: the update left non-finite weights in layer0.weight\n"
        assert not (tmp_path / "out").exists()

    def test_fused_items_are_usage_error(self, tmp_path, capsys):
        corpus = {**CORPUS, "modality_mix": {"text": 0.5, "fused": 0.5}}
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

    def test_report_is_streamed_not_built_whole(self, tmp_path, monkeypatch):
        def whole_string(self):
            raise AssertionError("eval built report.json as one string")

        monkeypatch.setattr(RetrievalReport, "to_json", whole_string)
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        assert run("eval", "--config", config, "--checkpoint", checkpoint, "--out", tmp_path / "out") == 0
        assert json.loads((tmp_path / "out" / "report.json").read_text())["ranked"]

    def test_interrupted_write_keeps_previous_report(self, tmp_path, monkeypatch):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        out = tmp_path / "out"
        assert run("eval", "--config", config, "--checkpoint", checkpoint, "--out", out) == 0
        before = (out / "report.json").read_bytes()

        def failing_write_json(self, handle):
            handle.write(b'{\n  "precision_at": ')
            raise RuntimeError("disk gone")

        monkeypatch.setattr(RetrievalReport, "write_json", failing_write_json)
        with pytest.raises(RuntimeError, match="disk gone"):
            run("eval", "--config", config, "--out", out)
        assert sorted(p.name for p in out.iterdir()) == ["report.json", "run_info.json"]
        assert (out / "report.json").read_bytes() == before

    def test_eval_without_checkpoint_scores_fresh_init(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("eval", "--config", config, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["precision_at"]["1"] <= 1.0


def with_config(good: bytes, **changes) -> bytes:
    """The checkpoint good with fields of its encoder config blob replaced."""
    (length,) = struct.unpack_from("<I", good, 6)
    config = {**json.loads(good[10 : 10 + length]), **changes}
    blob = json.dumps(config, sort_keys=True).encode()
    return good[:6] + struct.pack("<I", len(blob)) + blob + good[10 + length :]


def with_array_name_byte(good: bytes, byte: int) -> bytes:
    """The checkpoint good with the first byte of its first array name replaced."""
    (length,) = struct.unpack_from("<I", good, 6)
    at = 10 + length + 4 + 2  # past the config, the array count and the name length
    return good[:at] + bytes([byte]) + good[at + 1 :]


# A damaged checkpoint file, built from the bytes of a good one.
DAMAGED_CHECKPOINTS = {
    "three_bytes": lambda good: good[:3],
    "truncated_mid_array": lambda good: good[:-100],
    "trailing_garbage": lambda good: good + b"garbage",
    "nan_weight": lambda good: good[:-8] + struct.pack("<d", float("nan")),
    "inf_weight": lambda good: good[:-8] + struct.pack("<d", float("inf")),
    "hidden_dim_float": lambda good: with_config(good, hidden_dim=16.0),
    "seed_fraction": lambda good: with_config(good, seed=7.5),
    "seed_negative": lambda good: with_config(good, seed=-1),
    "hidden_dim_mismatch": lambda good: with_config(good, hidden_dim=17),
    "depth_bool": lambda good: with_config(good, depth=True),
    "seed_bool": lambda good: with_config(good, seed=True),
    "init_gain_bool": lambda good: with_config(good, init_gain=True),
    "array_name_not_utf8": lambda good: with_array_name_byte(good, 0xFF),
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

    @pytest.mark.parametrize("field", ["depth", "seed", "init_gain"])
    def test_bool_config_field_is_named(self, tmp_path, capsys, field):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(DAMAGED_CHECKPOINTS[f"{field}_bool"](checkpoint.read_bytes()))
        capsys.readouterr()
        assert run("eval", "--config", config, "--checkpoint", bad, "--out", tmp_path / "out") == 2
        assert f"bad encoder config: {field} must be" in capsys.readouterr().err

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


def damage_corpus_line(line: str, damage: str) -> str:
    record = json.loads(line)
    target = record["query"] if record["kind"] == "pair" else record
    if damage == "id_int":
        target["id"] = 100
    elif damage == "group_int":
        target["group"] = 5
    elif damage == "group_list":
        target["group"] = [1, 2]
    else:
        target["features"][0][0] = float("nan")
    return json.dumps(record)


class TestDamagedCorpus:
    @pytest.mark.parametrize("kind", ["item", "pair"])
    @pytest.mark.parametrize("damage", ["id_int", "feature_nan", "group_int", "group_list"])
    def test_eval_reports_line_and_exits_2(self, tmp_path, capsys, kind, damage):
        corpus = tmp_path / "corpus.jsonl"
        cp.write_corpus(corpus, cp.generate(cp.CorpusSpec(**CORPUS)))
        lines = corpus.read_text().splitlines()
        bad = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind)
        lines[bad] = damage_corpus_line(lines[bad], damage)
        corpus.write_text("\n".join(lines) + "\n")
        config = write_config(
            tmp_path, corpus={"path": str(corpus)}, encoder={"input_dim": 8, "hidden_dim": 16, "embed_dim": 8}
        )
        capsys.readouterr()
        assert run("eval", "--config", config, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"line {bad + 1}: bad item record" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("flag", ["false", 0, None], ids=["string", "int", "null"])
    def test_planted_flag_must_be_a_json_bool(self, tmp_path, capsys, flag):
        corpus = tmp_path / "corpus.jsonl"
        cp.write_corpus(corpus, cp.generate(cp.CorpusSpec(**CORPUS)))
        lines = corpus.read_text().splitlines()
        bad = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "pair")
        lines[bad] = json.dumps({**json.loads(lines[bad]), "is_false_negative_planted": flag})
        corpus.write_text("\n".join(lines) + "\n")
        config = write_config(
            tmp_path, corpus={"path": str(corpus)}, encoder={"input_dim": 8, "hidden_dim": 16, "embed_dim": 8}
        )
        capsys.readouterr()
        assert run("eval", "--config", config, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err == f"error: {corpus}: line {bad + 1}: is_false_negative_planted must be true or false, got {flag!r}\n"
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("positive", [[1, 2], {"id": "c00-00"}, 5], ids=["list", "object", "int"])
    def test_positive_must_be_a_string(self, tmp_path, capsys, positive):
        corpus = tmp_path / "corpus.jsonl"
        cp.write_corpus(corpus, cp.generate(cp.CorpusSpec(**CORPUS)))
        lines = corpus.read_text().splitlines()
        bad = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "pair")
        lines[bad] = json.dumps({**json.loads(lines[bad]), "positive": positive})
        corpus.write_text("\n".join(lines) + "\n")
        config = write_config(
            tmp_path, corpus={"path": str(corpus)}, encoder={"input_dim": 8, "hidden_dim": 16, "embed_dim": 8}
        )
        capsys.readouterr()
        assert run("eval", "--config", config, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err == f"error: {corpus}: line {bad + 1}: positive_id must be a string, got {positive!r}\n"
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("kind", ["item", "pair"])
    @pytest.mark.parametrize("value", ["1.5", True, 10**400], ids=["string", "bool", "huge_int"])
    def test_features_must_be_json_numbers(self, tmp_path, capsys, kind, value):
        corpus = tmp_path / "corpus.jsonl"
        cp.write_corpus(corpus, cp.generate(cp.CorpusSpec(**CORPUS)))
        lines = corpus.read_text().splitlines()
        bad = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind)
        record = json.loads(lines[bad])
        (record["query"] if kind == "pair" else record)["features"][1][2] = value
        lines[bad] = json.dumps(record)
        corpus.write_text("\n".join(lines) + "\n")
        config = write_config(
            tmp_path, corpus={"path": str(corpus)}, encoder={"input_dim": 8, "hidden_dim": 16, "embed_dim": 8}
        )
        capsys.readouterr()
        assert run("eval", "--config", config, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: {corpus}: line {bad + 1}: bad item record: features must be JSON numbers that a float holds\n"
        )
        assert not (tmp_path / "out" / "report.json").exists()

    def test_deeply_nested_features_name_the_line(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        cp.write_corpus(corpus, cp.generate(cp.CorpusSpec(**CORPUS)))
        lines = corpus.read_text().splitlines()
        lines[2] = '{"kind": "item", "id": "deep", "modality": "text", "features": ' + "[" * 200_000
        corpus.write_text("\n".join(lines) + "\n")
        config = write_config(
            tmp_path, corpus={"path": str(corpus)}, encoder={"input_dim": 8, "hidden_dim": 16, "embed_dim": 8}
        )
        capsys.readouterr()
        assert run("eval", "--config", config, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus}: line 3: invalid JSON: maximum recursion depth exceeded")
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line", ["{not json", "[1, 2]", '{"kind": "mystery"}'], ids=["invalid_json", "not_an_object", "unknown_kind"]
    )
    def test_every_line_error_names_file_and_line(self, tmp_path, capsys, line):
        corpus = tmp_path / "data" / "corpus.jsonl"
        corpus.parent.mkdir()
        cp.write_corpus(corpus, cp.generate(cp.CorpusSpec(**CORPUS)))
        lines = corpus.read_text().splitlines()
        lines[2] = line
        corpus.write_text("\n".join(lines) + "\n")
        config = write_config(
            tmp_path, corpus={"path": str(corpus)}, encoder={"input_dim": 8, "hidden_dim": 16, "embed_dim": 8}
        )
        capsys.readouterr()
        assert run("eval", "--config", config, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus}: line 3: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_non_utf8_corpus_names_file_and_line(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        cp.write_corpus(corpus, cp.generate(cp.CorpusSpec(**CORPUS)))
        lines = corpus.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"c00-', b'"\xff\xfe-', 1)
        corpus.write_bytes(b"".join(lines))
        config = write_config(
            tmp_path, corpus={"path": str(corpus)}, encoder={"input_dim": 8, "hidden_dim": 16, "embed_dim": 8}
        )
        capsys.readouterr()
        assert run("eval", "--config", config, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus}: line 3: not valid UTF-8: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_directory_as_corpus_path_fails_before_the_output_exists(self, tmp_path, capsys):
        config = write_config(
            tmp_path, corpus={"path": str(tmp_path)}, encoder={"input_dim": 8, "hidden_dim": 16, "embed_dim": 8}
        )
        capsys.readouterr()
        assert run("eval", "--config", config, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: corpus path is not a file: {tmp_path}\n"
        assert not (tmp_path / "out").exists()


class TestCorpusFromPath:
    def test_runs_match_the_spec_runs_byte_for_byte(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        cp.write_corpus(corpus, cp.generate(cp.CorpusSpec(**CORPUS)))
        configs = {
            "spec": write_config(tmp_path, name="spec.json"),
            "path": write_config(
                tmp_path, name="path.json", corpus={"path": str(corpus)},
                encoder={"input_dim": 8, "hidden_dim": 16, "embed_dim": 8},
            ),
        }
        digests = {}
        for source, config in configs.items():
            out = tmp_path / source
            assert run("stage1", "--config", config, "--out", out / "stage1") == 0
            assert run(
                "stage2", "--config", config, "--mode", "hard",
                "--checkpoint", out / "stage1" / "checkpoint.bin", "--out", out / "stage2",
            ) == 0
            assert run(
                "eval", "--config", config, "--checkpoint", out / "stage2" / "checkpoint.bin", "--out", out / "eval"
            ) == 0
            digests[source] = {
                path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in out.rglob("*")
                if path.is_file() and path.name != "run_info.json"
            }
        assert len(digests["spec"]) == 5
        assert digests["path"] == digests["spec"]

    def test_corpus_file_is_read_as_utf8_under_the_c_locale(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        cp.write_corpus(corpus, cp.generate(cp.CorpusSpec(**CORPUS)))
        # write_corpus escapes non-ASCII ids, so write the raw UTF-8 bytes by hand.
        corpus.write_bytes(corpus.read_text().replace('"c00-00"', '"c00-00\u00e9"').encode("utf-8"))
        config = write_config(
            tmp_path, corpus={"path": str(corpus)}, encoder={"input_dim": 8, "hidden_dim": 16, "embed_dim": 8}
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {
            **os.environ,
            "LC_ALL": "C",
            "PYTHONCOERCECLOCALE": "0",
            "PYTHONUTF8": "0",
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        out = tmp_path / "out"
        result = subprocess.run(
            [sys.executable, "-m", "nanoembed.cli", "eval", "--config", str(config), "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert '"c00-00\\u00e9"' in (out / "report.json").read_text()


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
        assert lines[1:] == ["1,6.25,0.3125", "2,12.5,0.1875", "4,25.0,0.1875"]

    def test_integer_betas_print_and_train_as_floats(self, tmp_path):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        tables = []
        for name, betas in (("int", [1, 2]), ("float", [1.0, 2.0])):
            sweep = write_config(tmp_path, name=f"{name}.json", optimizer={"steps": 5}, sweep={"beta": betas})
            out = tmp_path / name
            assert run("ablate", "--config", sweep, "--checkpoint", checkpoint, "--out", out) == 0
            tables.append((out / "ablation.csv").read_text())
        assert [line.split(",")[0] for line in tables[0].splitlines()] == ["beta", "1.0", "2.0"]
        assert tables[0] == tables[1]

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

    @pytest.mark.parametrize("gradcache", [{"enabled": False}, {"enabled": True, "sub_batch": 5}],
                             ids=["naive", "cached"])
    def test_each_trace_equals_stage2_in_its_mode(self, tmp_path, gradcache):
        _, checkpoint = make_stage1_checkpoint(tmp_path)
        config = write_config(tmp_path, gradcache=gradcache)
        assert run("tracegrad", "--config", config, "--checkpoint", checkpoint, "--out", tmp_path / "all") == 0
        for mode in ng.NEGATIVE_MODES:
            out = tmp_path / mode
            assert run("stage2", "--config", config, "--checkpoint", checkpoint, "--mode", mode, "--out", out) == 0
            assert (out / "trace.jsonl").read_bytes() == (tmp_path / "all" / f"trace_{mode}.jsonl").read_bytes()


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


class TestBadInputLeavesNoOutput:
    """A command whose input fails to load exits 2 with one error: line and
    makes no output directory: the first artifact write makes it."""

    def assert_clean_failure(self, capsys, out, *args):
        capsys.readouterr()
        assert run(*args, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
        return err

    @pytest.mark.parametrize("command", ["eval", "stage1", "stage2"])
    def test_empty_corpus_file(self, tmp_path, capsys, command):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("")
        config = write_config(
            tmp_path, corpus={"path": str(corpus)}, encoder={"input_dim": 8, "hidden_dim": 16, "embed_dim": 8}
        )
        err = self.assert_clean_failure(capsys, tmp_path / "out", command, "--config", config)
        assert err == f"error: {corpus}: no records\n"

    @pytest.mark.parametrize(
        "command, k, sweep",
        [
            ("stage2", 17, None),
            ("tracegrad", 17, None),
            ("ablate", 17, {"beta": [0.1]}),
            ("ablate", 4, {"k": [2, 17]}),
        ],
        ids=["stage2", "tracegrad", "ablate", "ablate_swept_k"],
    )
    def test_k_above_the_candidate_count(self, tmp_path, capsys, monkeypatch, command, k, sweep):
        monkeypatch.setattr(Encoder, "encode", lambda *args, **kwargs: pytest.fail("encoded"))
        config = write_config(tmp_path, miner={"beta": 0.1, "k": k}, sweep=sweep)
        err = self.assert_clean_failure(capsys, tmp_path / "out", command, "--config", config)
        assert err == "error: miner k=17 exceeds the corpus's 16 candidate items\n"

    @pytest.mark.parametrize("command", ["eval", "ablate", "stage2", "tracegrad"])
    def test_corpus_file_without_pairs(self, tmp_path, capsys, command):
        corpus = tmp_path / "corpus.jsonl"
        cp.write_corpus(corpus, cp.Corpus(cp.generate(cp.CorpusSpec(**CORPUS)).items, []))
        config = write_config(
            tmp_path, corpus={"path": str(corpus)}, encoder={"input_dim": 8, "hidden_dim": 16, "embed_dim": 8},
            sweep={"beta": [0.1]},
        )
        err = self.assert_clean_failure(capsys, tmp_path / "out", command, "--config", config)
        assert err == "error: corpus has no query/positive pairs\n"

    @pytest.mark.parametrize(
        "command, section, tau",
        [("stage1", "distill", 1e-320), ("stage1", "distill", 1e-308), ("stage2", "miner", 1e-320)],
    )
    def test_temperature_whose_logits_overflow(self, tmp_path, capsys, command, section, tau):
        config = write_config(tmp_path, **{section: {**base_config()[section], "tau": tau}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = self.assert_clean_failure(capsys, tmp_path / "out", command, "--config", config)
        assert err.startswith(f"error: bad '{section}' config: tau must be finite and > 0, with 2 / tau finite")
        assert "Warning" not in err

    def test_ablate_without_sweep(self, tmp_path, capsys):
        config = write_config(tmp_path)
        err = self.assert_clean_failure(capsys, tmp_path / "out", "ablate", "--config", config)
        assert "sweep" in err

    # 8 x 2**56 float64 weights ask for 4 EiB, more bytes than an intp counts.
    def test_unallocatable_encoder_size(self, tmp_path, capsys):
        config = write_config(tmp_path, encoder={"hidden_dim": 2**56, "embed_dim": 8})
        err = self.assert_clean_failure(capsys, tmp_path / "out", "stage1", "--config", config)
        assert err == f"error: bad 'encoder' config: {OVERSIZED}\n"

    def test_unallocatable_checkpoint_size(self, tmp_path, capsys):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(with_config(checkpoint.read_bytes(), hidden_dim=2**56))
        err = self.assert_clean_failure(
            capsys, tmp_path / "out", "eval", "--config", config, "--checkpoint", bad
        )
        assert err == f"error: {bad}: bad encoder config: {OVERSIZED}\n"

    @pytest.mark.parametrize("command", ["stage1", "eval"])
    @pytest.mark.parametrize("name", ["depth", "hidden_dim", "embed_dim"])
    def test_size_beyond_any_address_space_fails_at_load(self, tmp_path, capsys, command, name):
        config = write_config(tmp_path, encoder={"hidden_dim": 16, "embed_dim": 8, name: 10**400})
        started = time.perf_counter()
        err = self.assert_clean_failure(capsys, tmp_path / "out", command, "--config", config)
        assert time.perf_counter() - started < 2.0
        assert err == f"error: bad 'encoder' config: {OVERSIZED}\n"

    # Refused at load, before generation allocates or loops.
    @pytest.mark.parametrize("corpus", [{"n_groups": 10**400}], ids=["n_groups_10**400"])
    def test_corpus_beyond_any_address_space_fails_at_load(self, tmp_path, capsys, corpus):
        config = write_config(tmp_path, corpus={**CORPUS, **corpus})
        started = time.perf_counter()
        err = self.assert_clean_failure(capsys, tmp_path / "out", "eval", "--config", config)
        assert time.perf_counter() - started < 2.0
        assert err == f"error: bad 'corpus' config: {OVERSIZED_CORPUS}\n"

    def test_oversized_teacher_names_its_section(self, tmp_path, capsys):
        config = write_config(tmp_path, teacher={"depth": 10**400})
        err = self.assert_clean_failure(capsys, tmp_path / "out", "stage1", "--config", config)
        assert err == f"error: bad 'teacher' config: {OVERSIZED}\n"

    def test_oversized_checkpoint_depth(self, tmp_path, capsys):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(with_config(checkpoint.read_bytes(), depth=10**400))
        err = self.assert_clean_failure(
            capsys, tmp_path / "out", "eval", "--config", config, "--checkpoint", bad
        )
        assert err == f"error: {bad}: bad encoder config: {OVERSIZED}\n"

    # Under the size rule, but the first weight array alone is 8 x 2**54
    # float64, 1 EiB: more than any x86-64 address space, so the allocation
    # fails at once under every overcommit setting. The teacher, which
    # inherits the encoder's sizes, is the first section to allocate them.
    def test_unallocatable_size_under_the_rule(self, tmp_path, capsys):
        encoder = {"input_dim": 8, "hidden_dim": 2**54, "embed_dim": 8, "depth": 1}
        config = write_config(tmp_path, encoder=encoder)
        err = self.assert_clean_failure(capsys, tmp_path / "out", "stage1", "--config", config)
        assert err.startswith(
            "error: bad 'teacher' config: Unable to allocate 1.00 EiB for an array with shape (8, 18014398509481984)"
        )

    @pytest.mark.parametrize("command", ["eval", "stage2"])
    def test_missing_checkpoint(self, tmp_path, capsys, command):
        config = write_config(tmp_path)
        ghost = tmp_path / "ghost.bin"
        err = self.assert_clean_failure(
            capsys, tmp_path / "out", command, "--config", config, "--checkpoint", ghost
        )
        assert err == f"error: checkpoint not found: {ghost}\n"

    @pytest.mark.parametrize("command", ["eval", "stage2"])
    def test_truncated_checkpoint(self, tmp_path, capsys, command):
        config, checkpoint = make_stage1_checkpoint(tmp_path)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(checkpoint.read_bytes()[:-100])
        err = self.assert_clean_failure(
            capsys, tmp_path / "out", command, "--config", config, "--checkpoint", bad
        )
        assert "bad.bin" in err

    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "under_file"])
    def test_output_dir_in_the_way_of_a_file(self, tmp_path, capsys, monkeypatch, below):
        monkeypatch.setattr(cli.nce, "stage2_train", lambda *args, **kwargs: pytest.fail("trained"))
        blocker = tmp_path / "out"
        blocker.write_text("keep\n")
        out = blocker.joinpath(*below)
        capsys.readouterr()
        assert run("stage2", "--config", write_config(tmp_path), "--out", out) == 2
        assert capsys.readouterr().err == f"error: output_dir {out}: {blocker} is not a directory\n"
        assert blocker.read_text() == "keep\n"
