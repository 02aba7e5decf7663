"""Adapter creation, delta algebra, effective weights and merge against the per-row oracle, file format."""

from __future__ import annotations

import numpy as np
import pytest

from scoremux.adapters import (
    LoraAdapter,
    TargetKind,
    TargetPatch,
    adapter_to_bytes,
    effective_weights,
    load_adapter,
    merge,
    new_adapter,
    save_adapter,
)
from scoremux.backbone import Backbone, BackboneConfig, tokenize
from scoremux.errors import ChecksumError, RankError, ShapeError
from scoremux.heads import head_forward, new_head
from scoremux.numerics import Matrix, P64, Rng, matrix

from conftest import misloaded_bit_flips, straight_line_encode

CFG = BackboneConfig()
TINY = BackboneConfig(vocab_size=8, d_model=2, n_layers=1, n_heads=1, d_ff=2, max_seq_len=4)


def randomize_b(adapter: LoraAdapter, seed: int, std: float = 0.05) -> LoraAdapter:
    """Give every patch a nonzero B so the adapter actually perturbs the model."""
    rng = Rng(seed)
    for i, p in enumerate(adapter.targets):
        p.b = rng.split(f"b{i}").normal_matrix(p.rank, p.k, std=std, precision=p.b.precision)
    return adapter


@pytest.fixture(scope="module")
def frozen_bb():
    return Backbone(CFG).freeze()


class TestNewAdapter:
    def test_fresh_adapter_deltas_are_zero(self):
        bb = Backbone(CFG)
        weights, deltas = effective_weights(bb, new_adapter("T01", CFG, rng=Rng(1)))
        for delta in deltas:
            assert np.all(delta.data == 0.0)
        for name, w in weights.items():
            np.testing.assert_array_equal(w.data, bb.params[name].data)

    def test_default_config_yields_four_patches(self):
        ad = new_adapter("T01", CFG, rng=Rng(1))
        assert len(ad.targets) == CFG.n_layers * 2
        kinds = {(p.layer_index, p.kind) for p in ad.targets}
        assert kinds == {(i, k) for i in range(2) for k in (TargetKind.QUERY_PROJ, TargetKind.VALUE_PROJ)}

    def test_patch_parameter_count(self):
        ad = new_adapter("T01", CFG, rng=Rng(1))
        per_patch = CFG.d_model * ad.rank + ad.rank * CFG.d_model
        assert per_patch == 1024
        assert ad.param_count() == 4 * 1024

    def test_rank_exceeding_dimension_rejected(self):
        with pytest.raises(RankError):
            new_adapter("T01", CFG, r=CFG.d_model + 1, rng=Rng(1))
        with pytest.raises(RankError):
            new_adapter("T01", CFG, r=0, rng=Rng(1))

    def test_init_is_seed_deterministic(self):
        a1 = new_adapter("T01", CFG, rng=Rng(7))
        a2 = new_adapter("T01", CFG, rng=Rng(7))
        for p1, p2 in zip(a1.targets, a2.targets):
            np.testing.assert_array_equal(p1.a.data, p2.a.data)


def scaled_delta(p: TargetPatch, alpha: float, r: int) -> np.ndarray:
    _, deltas = effective_weights(Backbone(TINY), LoraAdapter("T", r, alpha, [p]))
    return deltas[0].data


class TestDelta:
    def test_zero_b(self):
        p = TargetPatch(0, TargetKind.QUERY_PROJ, matrix([[1.0], [2.0]]), Matrix.zeros(1, 2))
        assert np.all(scaled_delta(p, 16, 1) == 0.0)

    def test_rank_one_hand_product(self):
        p = TargetPatch(0, TargetKind.QUERY_PROJ, matrix([[1.0], [0.0]]), matrix([[0.0, 2.0]]))
        assert scaled_delta(p, 1, 1).tolist() == [[0.0, 2.0], [0.0, 0.0]]

    def test_identity_product_scaled_by_alpha_over_r(self):
        p = TargetPatch(0, TargetKind.VALUE_PROJ, Matrix(np.eye(2, dtype=np.float32)), Matrix(np.eye(2, dtype=np.float32)))
        np.testing.assert_array_equal(scaled_delta(p, 16, 2), 8.0 * np.eye(2, dtype=np.float32))

    def test_delta_rank_bounded_by_r(self):
        ad = randomize_b(new_adapter("T01", CFG, r=3, rng=Rng(5)), 6)
        for delta in effective_weights(Backbone(CFG), ad)[1]:
            assert np.linalg.matrix_rank(delta.data) <= ad.rank

    def test_effective_weight_is_frozen_weight_plus_delta(self):
        bb = Backbone(CFG)
        ad = randomize_b(new_adapter("T01", CFG, rng=Rng(5)), 7)
        weights, deltas = effective_weights(bb, ad)
        assert list(weights) == [f"layer{p.layer_index}.{p.kind.weight_name}" for p in ad.targets]
        for (name, w), delta in zip(weights.items(), deltas):
            np.testing.assert_array_equal(w.data, bb.params[name].data + delta.data)


class TestAttach:
    """An adapter attached to a frozen backbone: the encoder reads its effective weights."""

    def test_zero_init_adapter_is_neutral(self, frozen_bb):
        weights = effective_weights(frozen_bb, new_adapter("T01", CFG, rng=Rng(2)))[0]
        for text in ("", "der strom fliesst", "eine lange antwort mit vielen worten"):
            t = tokenize(text, CFG)
            np.testing.assert_array_equal(frozen_bb.encode(t, weights).data, frozen_bb.encode(t).data)

    def test_fingerprint_unchanged_by_attach(self, frozen_bb):
        before = frozen_bb.fingerprint()
        effective_weights(frozen_bb, randomize_b(new_adapter("T01", CFG, rng=Rng(2)), 3))
        assert frozen_bb.fingerprint() == before == frozen_bb.frozen_fingerprint

    def test_dimension_mismatch_rejected(self, frozen_bb):
        other = BackboneConfig(d_model=32, n_heads=2)
        with pytest.raises(ShapeError):
            effective_weights(frozen_bb, new_adapter("T01", other, rng=Rng(1)))

    def test_unmerged_equals_explicit_w_plus_delta(self, frozen_bb):
        # algebraic identity x(W + sAB) = xW + s(xA)B, checked through the full
        # encoder with random nonzero adapters: effective weights and merge against the per-row oracle
        t = tokenize("der stoff leitet strom und waerme", CFG)
        for seed in range(5):
            ad = randomize_b(new_adapter(f"T{seed}", CFG, rng=Rng(seed)), 100 + seed)
            h_oracle = straight_line_encode(frozen_bb, t.ids, ad)
            h = frozen_bb.encode(t, effective_weights(frozen_bb, ad)[0])
            assert np.abs(h.data[0] - h_oracle).max() <= 1e-5
            assert np.abs(merge(frozen_bb, ad).encode(t).data[0] - h_oracle).max() <= 1e-5


class TestMergeUnmerge:
    def test_merge_zero_adapter_is_identity_clone(self, frozen_bb):
        merged = merge(frozen_bb, new_adapter("T01", CFG, rng=Rng(1)))
        assert merged is not frozen_bb
        assert merged.fingerprint() == frozen_bb.fingerprint()

    def test_merge_replaces_only_patched_weights_p64(self):
        bb = Backbone(CFG, P64).freeze()
        ad = randomize_b(new_adapter("T01", CFG, rng=Rng(3), precision=P64), 53)
        merged = merge(bb, ad)
        assert bb.fingerprint() == bb.frozen_fingerprint
        patched = {f"layer{p.layer_index}.{p.kind.weight_name}" for p in ad.targets}
        for name, m in bb.params.items():
            assert (merged.params[name] is m) == (name not in patched)

    def test_merged_scoring_matches_unmerged_logits(self, frozen_bb):
        head = new_head("T01", 4, CFG.d_model, Rng(9))
        w_head, b_head = head.weight.data.astype(np.float64), head.bias.data.astype(np.float64)
        t = tokenize("antwort mit einigen fachbegriffen", CFG)
        for seed in range(5):
            ad = randomize_b(new_adapter("T01", CFG, rng=Rng(seed)), 200 + seed)
            z_oracle = straight_line_encode(frozen_bb, t.ids, ad) @ w_head.T + b_head
            z_adapted = head_forward(head, frozen_bb.encode(t, effective_weights(frozen_bb, ad)[0])).data
            z_merged = head_forward(head, merge(frozen_bb, ad).encode(t)).data
            assert np.abs(z_adapted - z_oracle).max() <= 1e-5
            assert np.abs(z_merged - z_oracle).max() <= 1e-5

    def test_trainable_fraction_bound(self, frozen_bb):
        ad = new_adapter("T01", CFG, rng=Rng(1))
        assert ad.param_count() / frozen_bb.param_count(include_mlm_head=False) <= 0.05


class TestAdapterFile:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        ad = randomize_b(new_adapter("task-xyz", CFG, rng=Rng(8)), 9)
        p1, p2 = tmp_path / "a1.bin", tmp_path / "a2.bin"
        save_adapter(ad, str(p1))
        loaded = load_adapter(str(p1))
        assert loaded.task_id == ad.task_id
        assert loaded.rank == ad.rank and loaded.alpha == ad.alpha
        save_adapter(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_values_match(self, tmp_path):
        ad = randomize_b(new_adapter("T01", CFG, rng=Rng(8)), 9)
        path = tmp_path / "a.bin"
        save_adapter(ad, str(path))
        loaded = load_adapter(str(path))
        for p, q in zip(ad.targets, loaded.targets):
            np.testing.assert_array_equal(p.a.data, q.a.data)
            np.testing.assert_array_equal(p.b.data, q.b.data)

    def test_single_corrupt_byte_fails_crc(self, tmp_path):
        ad = new_adapter("T01", CFG, rng=Rng(8))
        path = tmp_path / "a.bin"
        save_adapter(ad, str(path))
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load_adapter(str(path))

    def test_every_single_bit_flip_is_a_file_error(self, tmp_path):
        # d = 64 = 0x40, so one flip turns a patch's d or k field to 0
        small = BackboneConfig(vocab_size=50, d_model=64, n_layers=1, n_heads=2, d_ff=16, max_seq_len=8)
        raw = adapter_to_bytes(randomize_b(new_adapter("T01", small, r=1, rng=Rng(8)), 9))
        assert misloaded_bit_flips(raw, tmp_path / "a.bin", load_adapter) == []

    def test_file_size_formula(self):
        ad = new_adapter("T01", CFG, rng=Rng(8))
        header = 4 + 2 + (2 + len("T01")) + 2 + 8 + 2
        per_patch = 2 + 1 + 4 + 4 + (CFG.d_model * ad.rank + ad.rank * CFG.d_model) * 4
        expected = header + 4 * per_patch + 4
        assert len(adapter_to_bytes(ad)) == expected
        assert 4 * 2048 * 4 == 32768  # payload scalars: 4 patches x 2048 x f32


class TestConcurrentAdaptedEncode:
    def test_concurrent_encodes_agree(self, frozen_bb):
        import concurrent.futures

        weights = effective_weights(frozen_bb, randomize_b(new_adapter("T01", CFG, rng=Rng(4)), 5))[0]
        t = tokenize("der strom fliesst durch den leiter", CFG)
        expected = frozen_bb.encode(t, weights).data
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: frozen_bb.encode(t, weights).data, range(32)))
        for r in results:
            np.testing.assert_array_equal(r, expected)
