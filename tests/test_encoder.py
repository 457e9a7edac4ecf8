"""Tests for the student encoder, frozen teacher, fusion, and checkpoints."""

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
        with pytest.raises(enc.DimMismatchError):
            enc.ItemRecord("a", "text", np.zeros((0, 3)))
        with pytest.raises(enc.DimMismatchError):
            enc.ItemRecord("a", "text", np.zeros(3))


class TestEmbeddingBatch:
    def test_rejects_duplicate_ids(self):
        m = ad.constant(np.eye(2))
        with pytest.raises(ValueError):
            enc.EmbeddingBatch(["a", "a"], m)

    def test_rejects_non_unit_rows(self):
        with pytest.raises(enc.NonUnitRowError):
            enc.EmbeddingBatch(["a"], ad.constant([[0.5, 0.5]]))


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
        with pytest.raises(enc.EmptyBatchError):
            enc.Encoder(CFG).encode([])

    def test_feature_width_mismatch_rejected(self):
        model = enc.Encoder(CFG)
        bad = enc.ItemRecord("a", "text", np.zeros((2, CFG.input_dim + 1)))
        with pytest.raises(enc.DimMismatchError):
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

        report = ad.finite_difference_check(loss_fn, model.parameters(), step=1e-5, tolerance=1e-4)
        assert report.passed, report


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


class TestFusion:
    def test_identical_vectors_fuse_to_themselves(self):
        u = np.array([0.6, 0.8])
        np.testing.assert_allclose(enc.fuse_multimodal(u, u), u, rtol=0, atol=1e-12)

    def test_orthogonal_vectors_fuse_to_scaled_sum(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        expected = (u + v) / np.sqrt(2.0)
        np.testing.assert_allclose(enc.fuse_multimodal(u, v), expected, rtol=0, atol=1e-12)

    def test_fusion_is_commutative(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=5)
        u /= np.linalg.norm(u)
        v = rng.normal(size=5)
        v /= np.linalg.norm(v)
        assert np.array_equal(enc.fuse_multimodal(u, v), enc.fuse_multimodal(v, u))

    def test_opposite_vectors_rejected(self):
        u = np.array([1.0, 0.0])
        with pytest.raises(enc.ZeroSumError):
            enc.fuse_multimodal(u, -u)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(enc.DimMismatchError):
            enc.fuse_multimodal(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    def test_non_unit_inputs_rejected(self):
        with pytest.raises(enc.NonUnitRowError):
            enc.fuse_multimodal(np.array([2.0, 0.0]), np.array([1.0, 0.0]))


class TestEmbedItems:
    def test_fused_item_is_sum_of_half_sequences(self):
        model = enc.Encoder(CFG)
        rng = np.random.default_rng(6)
        feats = rng.normal(size=(4, CFG.input_dim))
        fused = enc.ItemRecord("f", "fused", feats)
        out = enc.embed_items(model, [fused]).values[0]

        e_a = model.encode([enc.ItemRecord("x", "text", feats[:2])], record=False).values[0]
        e_b = model.encode([enc.ItemRecord("y", "text", feats[2:])], record=False).values[0]
        np.testing.assert_allclose(out, enc.fuse_multimodal(e_a, e_b), rtol=0, atol=1e-12)

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

    def test_single_position_fused_item_rejected(self):
        model = enc.Encoder(CFG)
        bad = enc.ItemRecord("f", "fused", np.zeros((1, CFG.input_dim)))
        with pytest.raises(enc.DimMismatchError):
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

    def test_load_mismatched_names_rejected(self):
        model = enc.Encoder(CFG)
        with pytest.raises(ValueError):
            model.load_weight_arrays([("nope", np.zeros((1, 1)))])
