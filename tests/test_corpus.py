"""Tests for the synthetic corpus generator and the JSONL corpus format."""

import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nanoembed import corpus as cp
from nanoembed import encoder as enc


SPEC = cp.CorpusSpec(
    seed=11,
    n_groups=4,
    items_per_group=5,
    input_dim=8,
    noise_scale=0.5,
    false_negative_rate=0.2,
)


class TestSpecValidation:
    def test_defaults_are_valid(self):
        cp.CorpusSpec()

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError, match="n_groups, items_per_group, and input_dim must be >= 1"):
            cp.CorpusSpec(n_groups=0)
        with pytest.raises(ValueError, match="n_groups, items_per_group, and input_dim must be >= 1"):
            cp.CorpusSpec(input_dim=0)

    def test_rate_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="false_negative_rate must be in"):
            cp.CorpusSpec(false_negative_rate=1.5)

    @pytest.mark.parametrize("overrides", [
        {"noise_scale": float("nan")},
        {"noise_scale": float("inf")},
        {"centroid_scale": float("nan")},
        {"centroid_scale": float("inf")},
        {"pair_scale": float("nan")},
        {"pair_scale": float("inf")},
        {"modality_mix": {"text": float("nan")}},
        {"modality_mix": {"text": float("inf"), "image": -float("inf")}},
    ])
    def test_non_finite_values_rejected(self, overrides):
        (name,) = overrides
        with pytest.raises(ValueError, match=rf"^{name} must be (a|an object of) finite number"):
            cp.CorpusSpec(**overrides)

    def test_modality_mix_must_sum_to_one(self):
        with pytest.raises(ValueError, match="modality_mix weights must sum to 1"):
            cp.CorpusSpec(modality_mix={"text": 0.5})
        with pytest.raises(ValueError, match="unknown modality 'audio' in mix"):
            cp.CorpusSpec(modality_mix={"audio": 1.0})

    def test_features_beyond_any_address_space_rejected(self):
        # Groups of one pair of width 1: two 1 x 1 views, then three sequences
        # of up to SEQ_LEN_RANGE[1] positions a group, 8 bytes a feature.
        # Building a spec allocates nothing.
        most = (np.iinfo(np.intp).max // 8 - 2) // (3 * cp.SEQ_LEN_RANGE[1])
        sizes = {"items_per_group": 1, "input_dim": 1}
        cp.CorpusSpec(**sizes, n_groups=most)
        with pytest.raises(ValueError, match="^n_groups, items_per_group and input_dim ask"):
            cp.CorpusSpec(**sizes, n_groups=most + 1)


def oracle_generate(spec):
    """corpus.generate as it was before its loop invariants were hoisted:
    both spreads divided per pair, the modality drawn with searchsorted."""
    rng = np.random.default_rng(spec.seed)
    dim = spec.input_dim
    lo, hi = cp.SEQ_LEN_RANGE
    query_view = cp._view(rng, dim, spec.view_mix)
    candidate_view = cp._view(rng, dim, spec.view_mix)
    names, cdf = cp._modality_cdf(spec.modality_mix)
    cdf = np.array(cdf)

    def draw_features(latent, length):
        noise = rng.normal(size=(length, dim)) * (spec.noise_scale / np.sqrt(dim))
        return latent + noise

    def draw_modality():
        return names[int(cdf.searchsorted(rng.random(), side="right"))]

    centroids = []
    for _ in range(spec.n_groups):
        c = rng.normal(size=dim)
        centroids.append(c / np.linalg.norm(c) * spec.centroid_scale)
    items, pairs = [], []
    for g in range(spec.n_groups):
        group = f"g{g:02d}"
        for j in range(spec.items_per_group):
            latent = centroids[g] + rng.normal(size=dim) * (spec.pair_scale / np.sqrt(dim))
            q_len = int(rng.integers(lo, hi + 1))
            q_feats = draw_features(query_view @ latent, q_len)
            q_modality = draw_modality()
            c_len = int(rng.integers(lo, hi + 1))
            c_feats = draw_features(candidate_view @ latent, c_len)
            c_modality = draw_modality()
            query = cp.ItemRecord(f"q{g:02d}-{j:02d}", q_modality, q_feats, group=group)
            positive = cp.ItemRecord(f"c{g:02d}-{j:02d}", c_modality, c_feats, group=group)
            items.append(positive)
            pairs.append(cp.PairRecord(query=query, positive_id=positive.id))
    quota = int(round(spec.false_negative_rate * len(pairs)))
    if quota:
        chosen = rng.choice(len(pairs), size=quota, replace=False)
        for idx in sorted(int(i) for i in chosen):
            pair = pairs[idx]
            positive = items[idx]
            feats = positive.features.copy()
            feats[-1] = (1.0 - cp._PLANTED_BLEND) * feats[-1] + cp._PLANTED_BLEND * pair.query.features[-1]
            feats += rng.normal(size=feats.shape) * (spec.noise_scale / 10.0 / np.sqrt(dim))
            items.append(cp.ItemRecord(pair.query.id + cp.PLANTED_SUFFIX, positive.modality, feats, group=positive.group))
            pair.is_false_negative_planted = True
    return cp.Corpus(items, pairs)


def item_fields(it):
    return it.id, it.modality, it.group, it.features.shape, it.features.tobytes()


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

    @pytest.mark.parametrize("view_mix", [0.0, 0.5, 1.0])
    def test_matches_the_per_pair_oracle(self, view_mix):
        spec = cp.CorpusSpec(
            seed=31, n_groups=5, items_per_group=6, input_dim=7, false_negative_rate=0.25,
            modality_mix={"text": 0.5, "image": 0.3, "fused": 0.2}, view_mix=view_mix,
        )
        got, want = cp.generate(spec), oracle_generate(spec)
        assert [item_fields(it) for it in got.items] == [item_fields(it) for it in want.items]
        assert [(item_fields(p.query), p.positive_id, p.is_false_negative_planted) for p in got.pairs] == [
            (item_fields(p.query), p.positive_id, p.is_false_negative_planted) for p in want.pairs
        ]
        assert {it.modality for it in got.items} == {"text", "image", "fused"}
        assert any(p.is_false_negative_planted for p in got.pairs)

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
        lo, hi = cp.SEQ_LEN_RANGE
        for it in corpus.items + corpus.queries():
            assert lo <= it.features.shape[0] <= hi

    def test_modality_mix_is_respected(self):
        spec = cp.CorpusSpec(seed=3, n_groups=10, items_per_group=20, input_dim=4, modality_mix={"text": 0.5, "image": 0.5})
        corpus = cp.generate(spec)
        frac_text = np.mean([it.modality == "text" for it in corpus.items])
        assert 0.35 < frac_text < 0.65

    @settings(max_examples=200, deadline=None)
    @given(
        mix=st.dictionaries(
            st.sampled_from(enc.MODALITIES),
            st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=3,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_modality_draw_matches_generator_choice(self, mix, seed):
        assume(sum(mix.values()) > 0.0)
        names, cdf = cp._modality_cdf(mix)
        weights = np.array([mix[n] for n in names])
        drawn, chosen = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            expected = names[int(chosen.choice(len(names), p=weights / weights.sum()))]
            assert cp._draw_modality(drawn, names, cdf) == expected
        assert drawn.bit_generator.state == chosen.bit_generator.state

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
        with pytest.raises(ValueError, match="references missing positive 'ghost'"):
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

    def test_interrupted_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "corpus.jsonl"
        cp.write_corpus(path, cp.generate(SPEC))
        before = path.read_bytes()
        item_to_json, calls = cp._item_to_json, []

        def failing_item_to_json(item):
            calls.append(1)
            if len(calls) == 5:
                raise RuntimeError("disk gone")
            return item_to_json(item)

        monkeypatch.setattr(cp, "_item_to_json", failing_item_to_json)
        with pytest.raises(RuntimeError, match="disk gone"):
            cp.write_corpus(path, cp.generate(cp.CorpusSpec(seed=12)))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]

    def test_malformed_json_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        corpus = cp.generate(SPEC)
        cp.write_corpus(path, corpus)
        lines = path.read_text().splitlines()
        lines[2] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: invalid JSON"):
            cp.read_corpus(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "mystery"}\n')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 1: unknown kind 'mystery'"):
            cp.read_corpus(path)

    def test_item_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "item", "id": "a"}\n')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 1: bad item record"):
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
        with pytest.raises(ValueError, match="references missing positive 'ghost'"):
            cp.read_corpus(path)

    @pytest.mark.parametrize("text", ["", "\n", "  \n\n\t\n"], ids=["empty", "newline", "blank_lines"])
    def test_file_without_records_names_the_file(self, tmp_path, text):
        path = tmp_path / "empty.jsonl"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            cp.read_corpus(path)
        assert str(err.value) == f"{path}: no records"

    def test_blank_lines_are_ignored(self, tmp_path):
        corpus = cp.generate(SPEC)
        path = tmp_path / "corpus.jsonl"
        cp.write_corpus(path, corpus)
        path.write_text(path.read_text().replace("\n", "\n\n", 1))
        self.assert_corpora_equal(corpus, cp.read_corpus(path))
