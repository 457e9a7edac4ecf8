"""Tests for the synthetic corpus generator and the JSONL corpus format."""

import json

import numpy as np
import pytest

from nanoembed import corpus as cp
from nanoembed import encoder as enc


SPEC = cp.CorpusSpec(
    seed=11,
    n_groups=4,
    items_per_group=5,
    input_dim=8,
    seq_len_range=(2, 4),
    noise_scale=0.5,
    false_negative_rate=0.2,
)


class TestSpecValidation:
    def test_defaults_are_valid(self):
        cp.CorpusSpec()

    def test_bad_counts_rejected(self):
        with pytest.raises(cp.InvalidSpecError):
            cp.CorpusSpec(n_groups=0)
        with pytest.raises(cp.InvalidSpecError):
            cp.CorpusSpec(input_dim=0)

    def test_bad_seq_len_range_rejected(self):
        with pytest.raises(cp.InvalidSpecError):
            cp.CorpusSpec(seq_len_range=(0, 3))
        with pytest.raises(cp.InvalidSpecError):
            cp.CorpusSpec(seq_len_range=(4, 2))

    def test_rate_outside_unit_interval_rejected(self):
        with pytest.raises(cp.InvalidSpecError):
            cp.CorpusSpec(false_negative_rate=1.5)

    def test_modality_mix_must_sum_to_one(self):
        with pytest.raises(cp.InvalidSpecError):
            cp.CorpusSpec(modality_mix={"text": 0.5})
        with pytest.raises(cp.InvalidSpecError):
            cp.CorpusSpec(modality_mix={"audio": 1.0})

    def test_fused_mix_needs_longer_sequences(self):
        with pytest.raises(cp.InvalidSpecError):
            cp.CorpusSpec(modality_mix={"fused": 1.0}, seq_len_range=(1, 3))
        cp.CorpusSpec(modality_mix={"fused": 1.0}, seq_len_range=(2, 3))


class TestGenerate:
    def test_counts_and_groups(self):
        corpus = cp.generate(SPEC)
        planted = sum(1 for p in corpus.pairs if p.is_false_negative_planted)
        assert len(corpus.pairs) == SPEC.n_groups * SPEC.items_per_group
        assert len(corpus.items) == len(corpus.pairs) + planted
        groups = {it.group for it in corpus.items}
        assert len(groups) == SPEC.n_groups
        for pair in corpus.pairs:
            assert corpus.item_by_id(pair.positive_id).group == pair.query.group

    def test_deterministic_across_calls(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        cp.write_corpus(a, cp.generate(SPEC))
        cp.write_corpus(b, cp.generate(SPEC))
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self):
        a = cp.generate(SPEC)
        b = cp.generate(cp.CorpusSpec(**{**SPEC.__dict__, "seed": 12}))
        assert not np.array_equal(a.items[0].features, b.items[0].features)

    def test_zero_noise_and_pair_scale_collapse_groups(self):
        spec = cp.CorpusSpec(seed=0, n_groups=3, items_per_group=4, input_dim=6, noise_scale=0.0, pair_scale=0.0)
        corpus = cp.generate(spec)
        for group in {it.group for it in corpus.items}:
            rows = [it.features for it in corpus.items if it.group == group]
            first = rows[0][0]
            for feats in rows:
                for position in feats:
                    np.testing.assert_array_equal(position, first)

    def test_planted_quota_is_exact(self):
        spec = cp.CorpusSpec(seed=5, n_groups=10, items_per_group=10, input_dim=8, false_negative_rate=0.2)
        corpus = cp.generate(spec)
        flagged = [p for p in corpus.pairs if p.is_false_negative_planted]
        assert len(flagged) == 20
        for pair in flagged:
            planted_id = corpus.planted_id_for(pair.query.id)
            assert planted_id is not None
            planted = corpus.item_by_id(planted_id)
            assert planted.group == pair.query.group
            assert planted.features.shape == corpus.item_by_id(pair.positive_id).features.shape

    def test_unflagged_pairs_have_no_planted_item(self):
        corpus = cp.generate(SPEC)
        for pair in corpus.pairs:
            if not pair.is_false_negative_planted:
                assert corpus.planted_id_for(pair.query.id) is None

    def test_sequence_lengths_respect_range(self):
        corpus = cp.generate(SPEC)
        lo, hi = SPEC.seq_len_range
        for it in corpus.items + corpus.queries():
            assert lo <= it.features.shape[0] <= hi

    def test_modality_mix_is_respected(self):
        spec = cp.CorpusSpec(seed=3, n_groups=10, items_per_group=20, input_dim=4, modality_mix={"text": 0.5, "image": 0.5})
        corpus = cp.generate(spec)
        frac_text = np.mean([it.modality == "text" for it in corpus.items])
        assert 0.35 < frac_text < 0.65

    def test_planted_sits_closer_to_query_than_positive_in_teacher_space(self):
        # the property the similarity-threshold filter relies on
        spec = cp.CorpusSpec(
            seed=21, n_groups=6, items_per_group=8, input_dim=12, noise_scale=0.5, false_negative_rate=0.25
        )
        corpus = cp.generate(spec)
        teacher = enc.TeacherEncoder(enc.EncoderConfig(input_dim=12, hidden_dim=16, embed_dim=8, seed=2))
        query_values = teacher.encode(corpus.queries()).values
        item_values = teacher.encode(corpus.items).values
        index = {it.id: i for i, it in enumerate(corpus.items)}
        checked = 0
        for i, pair in enumerate(corpus.pairs):
            if not pair.is_false_negative_planted:
                continue
            checked += 1
            pos_sim = query_values[i] @ item_values[index[pair.positive_id]]
            planted_sim = query_values[i] @ item_values[index[corpus.planted_id_for(pair.query.id)]]
            assert planted_sim > pos_sim
        assert checked == 12


class TestCorpusContainer:
    def test_duplicate_ids_rejected(self):
        item = enc.ItemRecord("x", "text", np.zeros((1, 2)))
        dup = enc.ItemRecord("x", "text", np.ones((1, 2)))
        with pytest.raises(ValueError):
            cp.Corpus([item, dup], [])

    def test_missing_positive_rejected(self):
        query = enc.ItemRecord("q", "text", np.zeros((1, 2)))
        with pytest.raises(cp.MissingPositiveError):
            cp.Corpus([], [cp.PairRecord(query=query, positive_id="ghost")])

    def test_positive_indices_follow_pair_order(self):
        corpus = cp.generate(SPEC)
        for pair_idx, cand_idx in enumerate(corpus.positive_indices()):
            assert corpus.items[cand_idx].id == corpus.pairs[pair_idx].positive_id

    def test_text_items_cover_queries_and_candidates(self):
        corpus = cp.generate(SPEC)
        ids = {it.id for it in corpus.text_items()}
        assert corpus.pairs[0].query.id in ids
        assert corpus.pairs[0].positive_id in ids


class TestCorpusRoundTrip:
    def assert_corpora_equal(self, a, b):
        assert len(a.items) == len(b.items)
        assert len(a.pairs) == len(b.pairs)
        for x, y in zip(a.items, b.items):
            assert (x.id, x.modality, x.group) == (y.id, y.modality, y.group)
            assert np.array_equal(x.features, y.features)
        for p, q in zip(a.pairs, b.pairs):
            assert (p.positive_id, p.is_false_negative_planted) == (q.positive_id, q.is_false_negative_planted)
            assert p.query.id == q.query.id
            assert np.array_equal(p.query.features, q.query.features)

    def test_write_read_is_identity(self, tmp_path):
        corpus = cp.generate(SPEC)
        path = tmp_path / "corpus.jsonl"
        cp.write_corpus(path, corpus)
        self.assert_corpora_equal(corpus, cp.read_corpus(path))

    def test_rewrite_is_byte_identical(self, tmp_path):
        corpus = cp.generate(SPEC)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        cp.write_corpus(p1, corpus)
        cp.write_corpus(p2, cp.read_corpus(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_json_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        corpus = cp.generate(SPEC)
        cp.write_corpus(path, corpus)
        lines = path.read_text().splitlines()
        lines[2] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(cp.MalformedRecordError) as err:
            cp.read_corpus(path)
        assert err.value.line_number == 3
        assert "line 3" in str(err.value)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "mystery"}\n')
        with pytest.raises(cp.MalformedRecordError):
            cp.read_corpus(path)

    def test_item_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "item", "id": "a"}\n')
        with pytest.raises(cp.MalformedRecordError):
            cp.read_corpus(path)

    def test_missing_positive_detected_on_read(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = {
            "kind": "pair",
            "query": {"id": "q", "modality": "text", "group": None, "features": [[0.0, 1.0]]},
            "positive": "ghost",
            "is_false_negative_planted": False,
        }
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(cp.MissingPositiveError):
            cp.read_corpus(path)

    def test_blank_lines_are_ignored(self, tmp_path):
        corpus = cp.generate(SPEC)
        path = tmp_path / "corpus.jsonl"
        cp.write_corpus(path, corpus)
        path.write_text(path.read_text().replace("\n", "\n\n", 1))
        self.assert_corpora_equal(corpus, cp.read_corpus(path))
