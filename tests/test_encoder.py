"""Tests for the student encoder, frozen teacher, fusion, and checkpoints."""

import dataclasses
import json
import struct

import numpy as np
import pytest

from nanoembed import autodiff as ad
from nanoembed import encoder as enc


def make_items(rng, n, input_dim, seq_lens=None, group=None, modality="text", prefix="it"):
    items = []
    for i in range(n):
        length = seq_lens[i] if seq_lens else int(rng.integers(1, 4))
        items.append(
            enc.ItemRecord(
                id=f"{prefix}{i}",
                modality=modality,
                features=rng.normal(size=(length, input_dim)),
                group=group,
            )
        )
    return items


CFG = enc.EncoderConfig(input_dim=6, hidden_dim=6, embed_dim=4, depth=2, seed=3)


class TestItemRecord:
    def test_rejects_unknown_modality(self):
        with pytest.raises(ValueError):
            enc.ItemRecord("a", "audio", np.zeros((1, 3)))

    def test_rejects_empty_or_flat_features(self):
        with pytest.raises(ValueError, match="features must be \\(positions, input_dim\\)"):
            enc.ItemRecord("a", "text", np.zeros((0, 3)))
        with pytest.raises(ValueError, match="features must be \\(positions, input_dim\\)"):
            enc.ItemRecord("a", "text", np.zeros(3))

    def test_rejects_non_string_id(self):
        with pytest.raises(ValueError, match="id must be a string"):
            enc.ItemRecord(100, "text", np.zeros((1, 3)))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_features(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            enc.ItemRecord("a", "text", np.array([[0.0, value, 1.0]]))


class TestEmbeddingBatch:
    def test_rejects_duplicate_ids(self):
        m = ad.constant(np.eye(2))
        with pytest.raises(ValueError):
            enc.EmbeddingBatch(["a", "a"], m)

    def test_rejects_non_unit_rows(self):
        with pytest.raises(ValueError, match="row 0 has norm"):
            enc.EmbeddingBatch(["a"], ad.constant([[0.5, 0.5]]))

    def test_rejects_nan_row(self):
        with pytest.raises(ValueError, match="row 1 has norm"):
            enc.EmbeddingBatch(["a", "b"], ad.constant([[1.0, 0.0], [np.nan, 0.0]]))


class TestEncoderForward:
    def test_identity_initialized_single_layer_is_projection(self):
        config = enc.EncoderConfig(input_dim=4, hidden_dim=4, embed_dim=3, depth=1, seed=0)
        model = enc.Encoder(config)
        rng = np.random.default_rng(7)
        proj = rng.normal(size=(4, 3))
        model.load_weight_arrays(
            [
                ("layer0.weight", np.eye(4)),
                ("layer0.bias", np.zeros((1, 4))),
                ("proj.weight", proj),
            ]
        )
        x = rng.normal(size=4)
        item = enc.ItemRecord("a", "text", x.reshape(1, -1))
        out = model.encode([item]).values[0]
        expected = x @ proj
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_rows_are_unit_norm(self):
        model = enc.Encoder(CFG)
        items = make_items(np.random.default_rng(0), 12, CFG.input_dim)
        norms = np.linalg.norm(model.encode(items).values, axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-10)

    def test_same_seed_same_embeddings(self):
        rng = np.random.default_rng(1)
        items = make_items(rng, 5, CFG.input_dim)
        a = enc.Encoder(CFG).encode(items).values
        b = enc.Encoder(CFG).encode(items).values
        assert np.array_equal(a, b)

    def test_output_depends_only_on_last_position(self):
        model = enc.Encoder(CFG)
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(3, CFG.input_dim))
        swapped = feats[[1, 0, 2]]
        a = model.encode([enc.ItemRecord("a", "text", feats)]).values
        b = model.encode([enc.ItemRecord("a", "text", swapped)]).values
        assert np.array_equal(a, b)

    def test_batch_permutation_permutes_rows(self):
        model = enc.Encoder(CFG)
        items = make_items(np.random.default_rng(3), 8, CFG.input_dim)
        base = model.encode(items).values
        perm = [5, 2, 7, 0, 1, 6, 3, 4]
        permuted = model.encode([items[i] for i in perm]).values
        np.testing.assert_allclose(permuted, base[perm], rtol=0, atol=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="cannot encode an empty batch"):
            enc.Encoder(CFG).encode([])

    def test_feature_width_mismatch_rejected(self):
        model = enc.Encoder(CFG)
        bad = enc.ItemRecord("a", "text", np.zeros((2, CFG.input_dim + 1)))
        with pytest.raises(ValueError, match="has feature width 7, encoder expects 6"):
            model.encode([bad])

    def test_fused_items_rejected_by_encode(self):
        model = enc.Encoder(CFG)
        fused = enc.ItemRecord("a", "fused", np.zeros((2, CFG.input_dim)))
        with pytest.raises(ValueError):
            model.encode([fused])

    def test_record_false_matches_record_true_and_skips_graph(self):
        model = enc.Encoder(CFG)
        items = make_items(np.random.default_rng(4), 6, CFG.input_dim)
        with_graph = model.encode(items, record=True)
        without = model.encode(items, record=False)
        assert np.array_equal(with_graph.values, without.values)
        assert with_graph.matrix.requires_grad
        assert not without.matrix.requires_grad

    def test_gradients_flow_to_all_parameters(self):
        model = enc.Encoder(CFG)
        items = make_items(np.random.default_rng(5), 4, CFG.input_dim)
        out = model.encode(items)
        ad.backward(ad.total_sum(ad.mul(out.matrix, out.matrix)))
        grads = [p.grad for p in model.parameters()]
        assert all(g is not None for g in grads)
        assert out.matrix.grad is None  # interior node: only leaves keep gradients
        # bias of the last layer and all weights see nonzero signal
        assert any(np.abs(g).max() > 0 for g in grads)


class TestEncoderGradcheck:
    def test_full_pipeline_matches_finite_differences(self):
        config = enc.EncoderConfig(input_dim=3, hidden_dim=4, embed_dim=3, depth=2, seed=9)
        model = enc.Encoder(config)
        items = make_items(np.random.default_rng(10), 3, 3)
        weights = ad.constant(np.random.default_rng(11).normal(size=(3, 3)))

        def loss_fn():
            out = model.encode(items)
            return ad.total_sum(ad.mul(ad.matmul(out.matrix, ad.transpose(out.matrix)), weights))

        report = ad.finite_difference_check(loss_fn, model.parameters(), tolerance=1e-4)
        assert report.passed, report


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("build", [
    lambda value: enc.EncoderConfig(input_dim=6, hidden_dim=6, embed_dim=4, init_gain=value),
    lambda value: enc.TeacherEncoder(CFG, offset_scale=value),
], ids=["init_gain", "offset_scale"])
def test_non_finite_scales_rejected(build, value):
    with pytest.raises(ValueError, match="finite"):
        build(value)


@pytest.mark.parametrize("value", [True, "2"])
def test_init_gain_rejects_bool_and_text(value):
    with pytest.raises(ValueError, match="init_gain must be a finite number"):
        enc.EncoderConfig(input_dim=6, hidden_dim=6, embed_dim=4, init_gain=value)


def test_integer_init_gain_stays_legal():
    assert enc.EncoderConfig(input_dim=6, hidden_dim=6, embed_dim=4, init_gain=2).init_gain == 2


@pytest.mark.parametrize("value", [True, 2.0, "2"])
@pytest.mark.parametrize("name", ["input_dim", "hidden_dim", "embed_dim", "depth", "seed"])
def test_integer_config_fields_reject_other_types(name, value):
    sizes = {"input_dim": 6, "hidden_dim": 6, "embed_dim": 4, "depth": 2, "seed": 3}
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        enc.EncoderConfig(**{**sizes, name: value})


class TestTeacher:
    def grouped_items(self, rng, groups=("g0", "g1", "g2"), per_group=4, input_dim=6):
        items = []
        for g in groups:
            center = rng.normal(size=input_dim)
            for i in range(per_group):
                feats = center + 0.3 * rng.normal(size=(2, input_dim))
                items.append(enc.ItemRecord(f"{g}-{i}", "text", feats, group=g))
        return items

    def test_deterministic_across_instances(self):
        items = self.grouped_items(np.random.default_rng(0))
        a = enc.TeacherEncoder(CFG).encode(items).values
        b = enc.TeacherEncoder(CFG).encode(items).values
        assert np.array_equal(a, b)

    def test_same_group_cosine_exceeds_cross_group(self):
        items = self.grouped_items(np.random.default_rng(1))
        teacher = enc.TeacherEncoder(CFG, offset_scale=3.0)
        values = teacher.encode(items).values
        sims = values @ values.T
        same, cross = [], []
        for i, a in enumerate(items):
            for j, b in enumerate(items):
                if i < j:
                    (same if a.group == b.group else cross).append(sims[i, j])
        assert min(same) > max(cross)

    def test_groupless_items_get_base_embedding(self):
        rng = np.random.default_rng(2)
        items = make_items(rng, 3, CFG.input_dim)
        with_offsets = enc.TeacherEncoder(CFG, offset_scale=3.0).encode(items).values
        plain = enc.TeacherEncoder(CFG, offset_scale=0.0).encode(items).values
        assert np.array_equal(with_offsets, plain)

    def test_zero_offset_equals_student_encoder(self):
        items = self.grouped_items(np.random.default_rng(4))
        teacher = enc.TeacherEncoder(CFG, offset_scale=0.0).encode(items).values
        student = enc.Encoder(CFG).encode(items, record=False).values
        assert np.array_equal(teacher, student)

    def test_teacher_output_is_frozen(self):
        items = self.grouped_items(np.random.default_rng(3))
        batch = enc.TeacherEncoder(CFG).encode(items)
        assert not batch.matrix.requires_grad
        loss = ad.total_sum(ad.mul(batch.matrix, batch.matrix))
        ad.backward(loss)
        assert batch.matrix.grad is None

    def test_group_direction_is_stable_and_unit(self):
        teacher = enc.TeacherEncoder(CFG)
        d1 = teacher.group_direction("alpha")
        d2 = teacher.group_direction("alpha")
        assert np.array_equal(d1, d2)
        assert np.linalg.norm(d1) == pytest.approx(1.0, abs=1e-12)
        assert not np.array_equal(d1, teacher.group_direction("beta"))

    @pytest.mark.parametrize("offset_scale", [0.0, 3.0])
    def test_encode_equals_the_per_row_oracle(self, offset_scale):
        rng = np.random.default_rng(5)
        items = self.grouped_items(rng) + make_items(rng, 3, CFG.input_dim, prefix="free")
        rng.shuffle(items)
        teacher = enc.TeacherEncoder(CFG, offset_scale=offset_scale)
        base = enc.Encoder(CFG).encode(items, record=False).values
        expected = base.copy()
        for i, it in enumerate(items):
            if it.group is not None and offset_scale > 0.0:
                shifted = base[i] + offset_scale * enc._group_direction(CFG.seed, it.group, CFG.embed_dim)
                expected[i] = shifted / np.linalg.norm(shifted)
        for _ in range(2):  # the second pass reads the held directions
            assert (teacher.encode(items).values == expected).all()

    def test_group_direction_is_held_read_only(self):
        teacher = enc.TeacherEncoder(CFG)
        direction = teacher.group_direction("alpha")
        assert teacher.group_direction("alpha") is direction
        assert not direction.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            direction[0] = 0.0

    def test_each_group_direction_is_computed_once(self, monkeypatch):
        calls = []
        compute = enc._group_direction

        def counting(seed, group, embed_dim):
            calls.append(group)
            return compute(seed, group, embed_dim)

        monkeypatch.setattr(enc, "_group_direction", counting)
        items = self.grouped_items(np.random.default_rng(6))
        teacher = enc.TeacherEncoder(CFG)
        for _ in range(3):
            teacher.encode(items)
        assert sorted(calls) == ["g0", "g1", "g2"]

    def test_teachers_with_different_seeds_hold_their_own_directions(self):
        first = enc.TeacherEncoder(CFG)
        second = enc.TeacherEncoder(dataclasses.replace(CFG, seed=CFG.seed + 1))
        a, b = first.group_direction("alpha"), second.group_direction("alpha")
        assert a is not b and not np.array_equal(a, b)
        assert np.array_equal(b, enc._group_direction(CFG.seed + 1, "alpha", CFG.embed_dim))


class TestItemRows:
    def mixed_items(self, rng):
        """Grouped and groupless text and image items, the g1 group repeated."""
        items = TestTeacher().grouped_items(rng, groups=("g0", "g1", "g1"), per_group=3)
        items = [dataclasses.replace(it, id=f"{it.id}-{i}") for i, it in enumerate(items)]
        items += make_items(rng, 4, CFG.input_dim, prefix="free")
        items += make_items(rng, 2, CFG.input_dim, modality="image", prefix="img")
        rng.shuffle(items)
        return items

    def test_of_stacks_ids_groups_and_last_rows(self):
        items = self.mixed_items(np.random.default_rng(0))
        rows = enc.ItemRows.of(items, CFG.input_dim)
        assert len(rows) == len(items)
        assert list(rows.ids) == [it.id for it in items]
        assert list(rows.groups) == [it.group for it in items]
        assert (rows.values == np.stack([it.features[-1] for it in items])).all()

    def test_gathers_and_slices_keep_ids_groups_and_rows_aligned(self):
        items = self.mixed_items(np.random.default_rng(1))
        rows = enc.ItemRows.of(items, CFG.input_dim)
        picks = [5, 0, 13, 5, 2]
        for part, chosen in ((rows[np.array(picks)], picks), (rows[3:9], range(3, 9)), (rows[:1], [0]),
                             (rows[len(items) - 2 :], [-2, -1])):
            expected = [items[i] for i in chosen]
            assert len(part) == len(expected)
            assert list(part.ids) == [it.id for it in expected]
            assert list(part.groups) == [it.group for it in expected]
            assert (part.values == np.stack([it.features[-1] for it in expected])).all()
        assert np.shares_memory(rows[3:9].values, rows.values)

    @pytest.mark.parametrize(
        "items, message",
        [
            ([], "cannot encode an empty batch"),
            (
                [enc.ItemRecord("w", "text", np.zeros((2, CFG.input_dim + 1)))],
                "item 'w' has feature width 7, encoder expects 6",
            ),
            ([enc.ItemRecord("f", "fused", np.zeros((2, CFG.input_dim)))], "item 'f' is fused"),
        ],
        ids=["empty", "width", "fused"],
    )
    def test_of_rejects_what_encode_rejects(self, items, message):
        batch = make_items(np.random.default_rng(2), 2, CFG.input_dim) + items if items else []
        with pytest.raises(ValueError, match=message):
            enc.ItemRows.of(batch, CFG.input_dim)
        with pytest.raises(ValueError, match=message):
            enc.Encoder(CFG).encode(batch)

    def test_block_of_the_wrong_width_is_rejected(self):
        rows = enc.ItemRows.of(make_items(np.random.default_rng(3), 3, CFG.input_dim + 1), CFG.input_dim + 1)
        with pytest.raises(ValueError, match="rows have feature width 7, encoder expects 6"):
            enc.Encoder(CFG).encode(rows)
        with pytest.raises(ValueError, match="rows have feature width 7, encoder expects 6"):
            enc.TeacherEncoder(CFG).encode(rows)

    @pytest.mark.parametrize("record", [True, False])
    def test_student_encodes_a_block_as_its_records(self, record):
        items = self.mixed_items(np.random.default_rng(4))
        model = enc.Encoder(CFG)
        rows = enc.ItemRows.of(items, CFG.input_dim)
        for batch, block in ((items, rows), (items[:1], rows[:1]), ([items[7], items[2]], rows[np.array([7, 2])])):
            expected = model.encode(batch, record=record)
            got = model.encode(block, record=record)
            assert got.ids == expected.ids
            assert (got.values == expected.values).all()
            assert got.matrix.requires_grad == record

    @pytest.mark.parametrize("offset_scale", [0.0, 3.0])
    def test_teacher_encodes_a_block_as_its_records(self, offset_scale):
        items = self.mixed_items(np.random.default_rng(5))
        teacher = enc.TeacherEncoder(CFG, offset_scale=offset_scale)
        rows = enc.ItemRows.of(items, CFG.input_dim)
        groupless = [i for i, it in enumerate(items) if it.group is None]
        for picks in (range(len(items)), [0], groupless[:1], groupless, [3, 1, 4]):
            picks = list(picks)
            expected = teacher.encode([items[i] for i in picks])
            got = teacher.encode(rows[np.array(picks)])
            assert got.ids == expected.ids
            assert (got.values == expected.values).all()

    def test_teacher_block_offsets_match_the_per_row_oracle_at_width_32(self):
        # Wide rows and many groups: a batched sum in another order than the
        # per-row dot would move some last bits.
        config = enc.EncoderConfig(input_dim=12, hidden_dim=24, embed_dim=32, seed=8)
        rng = np.random.default_rng(6)
        items = [
            enc.ItemRecord(f"x{i}", "text", rng.normal(size=(1, 12)), group=f"g{i % 40}" if i % 7 else None)
            for i in range(300)
        ]
        teacher = enc.TeacherEncoder(config, offset_scale=3.0)
        base = enc.Encoder(config).encode(items, record=False).values
        expected = base.copy()
        for i, it in enumerate(items):
            if it.group is not None:
                shifted = base[i] + 3.0 * teacher.group_direction(it.group)
                expected[i] = shifted / np.linalg.norm(shifted)
        assert (teacher.encode(enc.ItemRows.of(items, 12)).values == expected).all()


class TestRenormalized:
    @pytest.mark.parametrize("width", [7, 16, 32])
    def test_rows_equal_the_per_row_norm_by_bytes(self, width):
        rows = np.random.default_rng(width).normal(size=(57, width)) * 3.0
        expected = np.stack([row / np.linalg.norm(row) for row in rows])
        assert enc._renormalized(rows).tobytes() == expected.tobytes()

    def test_cancelling_rows_rejected(self):
        u = np.array([[0.6, 0.8], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="embeddings cancel in row 1"):
            enc._renormalized(u + np.array([[0.6, 0.8], [-1.0, 0.0], [0.0, 1.0]]))


def fused_oracle(model, items):
    """Each fused item's row as (a + b) / ||a + b||, with a and b the
    embeddings of its two half sequences, encoded as records in one batch."""
    fused = [it for it in items if it.modality == "fused"]
    halves = []
    for it in fused:
        half = it.features.shape[0] // 2
        halves += [enc.ItemRecord(f"{it.id}-a", "text", it.features[:half]),
                   enc.ItemRecord(f"{it.id}-b", "image", it.features[half:])]
    if not halves:
        return {}
    pairs = model.encode(halves, record=False).values
    sums = [pairs[2 * i] + pairs[2 * i + 1] for i in range(len(fused))]
    return {it.id: s / np.linalg.norm(s) for it, s in zip(fused, sums)}


class TestEmbedItems:
    def mixed(self, rng, layout, input_dim):
        plain = make_items(rng, 5, input_dim, prefix="t")
        fused = make_items(rng, 4, input_dim, seq_lens=[2, 3, 4, 5], modality="fused", prefix="f")
        if layout == "plain":
            return plain
        if layout == "fused":
            return fused
        return [it for pair in zip(plain, fused) for it in pair] + plain[4:]

    @pytest.mark.parametrize("embed_dim", [5, 16, 32])
    @pytest.mark.parametrize("layout", ["plain", "fused", "interleaved"])
    def test_rows_keep_order_and_equal_the_per_item_oracle(self, layout, embed_dim):
        model = enc.Encoder(dataclasses.replace(CFG, embed_dim=embed_dim))
        items = self.mixed(np.random.default_rng(embed_dim), layout, CFG.input_dim)
        batch = enc.embed_items(model, items)
        assert batch.ids == [it.id for it in items]
        plain = [it for it in items if it.modality != "fused"]
        rows = dict(zip([it.id for it in plain], model.encode(plain, record=False).values)) if plain else {}
        rows.update(fused_oracle(model, items))
        for it, row in zip(items, batch.values):
            assert row.tobytes() == rows[it.id].tobytes(), it.id

    def test_mixed_batch_keeps_order(self):
        model = enc.Encoder(CFG)
        rng = np.random.default_rng(7)
        items = [
            enc.ItemRecord("t0", "text", rng.normal(size=(2, CFG.input_dim))),
            enc.ItemRecord("f0", "fused", rng.normal(size=(4, CFG.input_dim))),
            enc.ItemRecord("i0", "image", rng.normal(size=(1, CFG.input_dim))),
        ]
        batch = enc.embed_items(model, items)
        assert batch.ids == ["t0", "f0", "i0"]
        plain = model.encode([items[0], items[2]], record=False).values
        np.testing.assert_array_equal(batch.values[0], plain[0])
        np.testing.assert_array_equal(batch.values[2], plain[1])

    def test_one_forward_pass_per_modality_and_one_batch_per_call(self, monkeypatch):
        passes, batches = [], []
        embed, batch_class = enc.Encoder._embed, enc.EmbeddingBatch

        def counting_embed(self, values, record):
            passes.append(len(values))
            return embed(self, values, record)

        class CountingBatch(batch_class):
            def __init__(self, ids, matrix):
                batches.append(len(ids))
                super().__init__(ids, matrix)

        monkeypatch.setattr(enc.Encoder, "_embed", counting_embed)
        monkeypatch.setattr(enc, "EmbeddingBatch", CountingBatch)
        items = self.mixed(np.random.default_rng(8), "interleaved", CFG.input_dim)
        enc.embed_items(enc.Encoder(CFG), items)
        assert (passes, batches) == ([5, 8], [9])
        passes.clear()
        batches.clear()
        enc.TeacherEncoder(CFG).encode(TestTeacher().grouped_items(np.random.default_rng(9)))
        assert (passes, batches) == ([12], [12])

    def test_single_position_fused_item_rejected(self):
        model = enc.Encoder(CFG)
        bad = enc.ItemRecord("f", "fused", np.zeros((1, CFG.input_dim)))
        with pytest.raises(ValueError, match="needs at least 2 positions"):
            enc.embed_items(model, [bad])


class TestCheckpoint:
    def test_round_trip_preserves_weights_and_config(self, tmp_path):
        model = enc.Encoder(CFG)
        rng = np.random.default_rng(8)
        # perturb away from init so the round trip is non-trivial
        for p in model.parameters():
            p.tensor.values += rng.normal(size=p.values.shape)
        path = tmp_path / "model.bin"
        enc.save_checkpoint(path, model)
        loaded = enc.load_checkpoint(path)
        assert loaded.config == CFG
        for (name_a, a), (name_b, b) in zip(model.weight_arrays(), loaded.weight_arrays()):
            assert name_a == name_b
            assert np.array_equal(a, b)

    def test_round_trip_is_byte_stable(self, tmp_path):
        model = enc.Encoder(CFG)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        enc.save_checkpoint(p1, model)
        enc.save_checkpoint(p2, model)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError):
            enc.load_checkpoint(path)

    @pytest.mark.parametrize(
        "damage, message",
        [
            pytest.param(lambda good: good[:3], "truncated in header", id="three_bytes"),
            pytest.param(lambda good: good[:8], "truncated in config length", id="no_config"),
            pytest.param(lambda good: good[:-1], "truncated in array", id="mid_array"),
            pytest.param(lambda good: good + b"\x00", "1 trailing bytes", id="trailing_byte"),
            pytest.param(lambda good: good[:-8] + struct.pack("<d", np.nan), "non-finite", id="nan_weight"),
            pytest.param(lambda good: good[:-8] + struct.pack("<d", -np.inf), "non-finite", id="inf_weight"),
        ],
    )
    def test_damaged_file_raises_value_error(self, tmp_path, damage, message):
        path = tmp_path / "model.bin"
        enc.save_checkpoint(path, enc.Encoder(CFG))
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match=message):
            enc.load_checkpoint(path)

    def test_config_with_unknown_field_raises_value_error(self, tmp_path):
        blob = json.dumps({"input_dim": 6, "colour": "red"}).encode()
        path = tmp_path / "model.bin"
        path.write_bytes(b"NEC1" + struct.pack("<HI", 1, len(blob)) + blob + struct.pack("<I", 0))
        with pytest.raises(ValueError, match="bad encoder config"):
            enc.load_checkpoint(path)

    def test_deeply_nested_config_raises_value_error(self, tmp_path):
        blob = b'{"input_dim": ' + b"[" * 200_000
        path = tmp_path / "model.bin"
        path.write_bytes(b"NEC1" + struct.pack("<HI", 1, len(blob)) + blob + struct.pack("<I", 0))
        with pytest.raises(ValueError, match="model.bin: bad encoder config: maximum recursion depth exceeded"):
            enc.load_checkpoint(path)

    def test_load_mismatched_names_rejected(self):
        model = enc.Encoder(CFG)
        with pytest.raises(ValueError):
            model.load_weight_arrays([("nope", np.zeros((1, 1)))])
