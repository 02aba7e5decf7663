"""Tokenizer, encoder forward, MLM masking/training, freezing, checkpoints."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import scoremux
from scoremux.backbone import (
    Backbone,
    BackboneConfig,
    CLS_ID,
    MASK_ID,
    RESERVED_IDS,
    TokenSeq,
    fnv1a64,
    load_backbone,
    mask_positions,
    mlm_step,
    param_order,
    save_backbone,
    tokenize,
)
from scoremux.errors import (
    BadMagicError,
    ChecksumError,
    ContractError,
    FrozenViolationError,
    TruncatedFileError,
    VersionMismatchError,
)
from scoremux.numerics import P64, Rng, Tape

from conftest import straight_line_encode

CFG = BackboneConfig()

# Sweeps a checkpoint's header under a 2 GB address-space limit, so a header
# flip that made the loader size a huge allocation raises MemoryError here
# instead of exhausting the host.
_HEADER_FLIP_RUN = """
import json, pathlib, resource, sys
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
limit = 2 << 30
if soft != resource.RLIM_INFINITY:
    limit = min(limit, soft)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
from conftest import misloaded_bit_flips
from scoremux.backbone import load_backbone
raw = pathlib.Path(sys.argv[1]).read_bytes()
print(json.dumps(misloaded_bit_flips(raw, pathlib.Path(sys.argv[2]), load_backbone, range(41))))
"""


def reference_fnv1a64(data: bytes) -> int:
    """Independent FNV-1a oracle (textbook constants, written separately)."""
    h = 14695981039346656037
    for byte in data:
        h = ((h ^ byte) * 1099511628211) % (1 << 64)
    return h


class TestTokenize:
    def test_empty_text_is_cls_only(self):
        assert tokenize("", CFG).ids == (CLS_ID,)

    def test_repeated_word_maps_to_same_id(self):
        seq = tokenize("leitet gut leitet", CFG)
        assert seq.ids[1] == seq.ids[3]

    def test_fnv_oracle(self):
        seq = tokenize("Der Stoff leitet", CFG)
        expected = tuple(
            RESERVED_IDS + reference_fnv1a64(w.encode()) % (CFG.vocab_size - RESERVED_IDS)
            for w in ("der", "stoff", "leitet")
        )
        assert seq.ids == (CLS_ID,) + expected

    def test_punctuation_splits(self):
        assert tokenize("strom,fliesst", CFG).ids == tokenize("strom fliesst", CFG).ids

    def test_internal_and_reference_fnv_agree(self):
        for word in ("a", "strom", "wärme", "x" * 40):
            assert fnv1a64(word.encode()) == reference_fnv1a64(word.encode())

    def test_truncation_to_max_seq_len(self):
        text = " ".join(f"w{i}" for i in range(100))
        seq = tokenize(text, CFG)
        assert len(seq) == CFG.max_seq_len
        assert seq.truncated
        assert not tokenize("kurz", CFG).truncated

    def test_must_start_with_cls(self):
        with pytest.raises(ContractError):
            TokenSeq((5, 6))


class TestEncode:
    def test_output_dimension(self):
        bb = Backbone(CFG)
        for text in ("", "eine antwort", "a b c d e f g"):
            assert bb.encode(tokenize(text, CFG)).shape == (1, CFG.d_model)

    def test_same_seed_same_encoding(self):
        a, b = Backbone(CFG), Backbone(CFG)
        t = tokenize("der strom fliesst", CFG)
        np.testing.assert_array_equal(a.encode(t).data, b.encode(t).data)

    def test_cls_only_matches_straight_line_oracle(self):
        bb = Backbone(CFG, P64)
        h = bb.encode(TokenSeq((CLS_ID,))).data[0]
        np.testing.assert_allclose(h, straight_line_encode(bb, (CLS_ID,)), atol=1e-9)

    def test_real_text_matches_straight_line_oracle(self):
        bb = Backbone(CFG, P64)
        seq = tokenize("der stoff leitet den strom sehr gut", CFG)
        h = bb.encode(seq).data[0]
        np.testing.assert_allclose(h, straight_line_encode(bb, seq.ids), atol=1e-9)

    def test_out_of_range_token_rejected(self):
        bb = Backbone(CFG)
        with pytest.raises(ContractError, match="out of range"):
            bb.encode(TokenSeq((CLS_ID, CFG.vocab_size)))

    def test_oversized_sequence_rejected(self):
        bb = Backbone(CFG)
        with pytest.raises(ContractError, match="max_seq_len"):
            bb.encode(TokenSeq((CLS_ID,) + (7,) * CFG.max_seq_len))

    def ragged_batch(self):
        texts = ("der stoff leitet den strom sehr gut", "", "strom", "a b c d e f g h i j k l m n o p")
        return [tokenize(t, CFG) for t in texts]

    def test_ragged_batch_rows_match_straight_line_oracle(self):
        bb = Backbone(CFG, P64)
        batch = self.ragged_batch()
        h = bb.encode(batch).data
        assert h.shape == (len(batch), CFG.d_model)
        for row, seq in zip(h, batch):
            np.testing.assert_allclose(row, straight_line_encode(bb, seq.ids), atol=1e-9)

    def test_batch_row_equals_single_encode(self):
        # a row must not depend on its batch neighbours
        bb = Backbone(CFG, P64)
        batch = self.ragged_batch()
        h = bb.encode(batch).data
        for i, seq in enumerate(batch):
            np.testing.assert_allclose(h[i], bb.encode(seq).data[0], rtol=0, atol=1e-12)
        swapped = bb.encode([batch[2], batch[0]]).data
        np.testing.assert_allclose(swapped[1], h[0], rtol=0, atol=1e-12)

    def test_batch_errors(self):
        bb = Backbone(CFG)
        good = tokenize("gut", CFG)
        with pytest.raises(ContractError, match="max_seq_len"):
            bb.encode([good, TokenSeq((CLS_ID,) + (7,) * CFG.max_seq_len)])
        with pytest.raises(ContractError, match=f"token id {CFG.vocab_size} out of range"):
            bb.encode([good, TokenSeq((CLS_ID, 5, CFG.vocab_size))])
        with pytest.raises(ContractError, match="out of range"):
            bb.encode([TokenSeq((CLS_ID, -1)), good])
        with pytest.raises(ContractError, match="empty batch"):
            bb.encode([])

    def test_permutation_sensitivity(self):
        bb = Backbone(CFG)
        changed = 0
        for seed in range(20):
            gen = np.random.default_rng(seed)
            ids = [CLS_ID] + list(gen.integers(RESERVED_IDS, CFG.vocab_size, size=10))
            shuffled = [CLS_ID] + list(gen.permutation(ids[1:]))
            if ids[1:] == shuffled[1:]:
                continue
            a = bb.encode(TokenSeq(tuple(ids))).data
            b = bb.encode(TokenSeq(tuple(shuffled))).data
            if not np.allclose(a, b):
                changed += 1
        assert changed >= 18


class TestMasking:
    def test_twenty_token_sequence_masks_three(self):
        seq = tokenize(" ".join(f"w{i}" for i in range(20)), CFG)
        assert len(mask_positions(seq, Rng(0))) == math.ceil(0.15 * 20) == 3

    def test_at_least_one_position(self):
        seq = tokenize("einzeln", CFG)
        assert len(mask_positions(seq, Rng(0))) == 1

    def test_cls_never_masked(self):
        seq = tokenize(" ".join(f"w{i}" for i in range(30)), CFG)
        for s in range(10):
            assert 0 not in mask_positions(seq, Rng(s))

    def test_corpus_fraction_within_band(self):
        # masked count is ceil(0.15 * content length), so the corpus fraction
        # is a deterministic function of the length profile
        lengths = [20, 33, 40, 46, 53, 60]
        total_positions = 0
        total_masked = 0
        rng = Rng(42)
        while total_positions < 10_000:
            for n in lengths:
                seq = tokenize(" ".join(f"w{i}" for i in range(n)), CFG)
                total_masked += len(mask_positions(seq, rng))
                total_positions += n
        assert 0.14 <= total_masked / total_positions <= 0.16


class TestMlmStep:
    def make_corpus(self, n_seqs=8, words=12, seed=3):
        gen = np.random.default_rng(seed)
        return [
            tokenize(" ".join(f"tok{gen.integers(0, 150)}" for _ in range(words)), CFG)
            for _ in range(n_seqs)
        ]

    def test_loss_positive_at_random_init(self):
        bb = Backbone(CFG)
        loss = mlm_step(bb, self.make_corpus(), Rng(1))
        assert loss.item() > 0

    def test_frozen_backbone_rejected(self):
        bb = Backbone(CFG).freeze()
        with pytest.raises(FrozenViolationError):
            mlm_step(bb, self.make_corpus(), Rng(1))

    def test_packed_loss_matches_per_sequence_loss(self):
        # independent of the packing: mask each sequence with the same draws,
        # encode it alone and average the masked-token cross-entropy
        bb = Backbone(CFG, P64)
        corpus = self.make_corpus(6, words=7) + [tokenize("", CFG)] + self.make_corpus(3, words=15, seed=4)
        rng = Rng(9)
        nll, count = 0.0, 0
        for seq in corpus:
            positions = mask_positions(seq, rng)
            if not positions:
                continue
            ids = list(seq.ids)
            for pos in positions:
                ids[pos] = MASK_ID
            hidden = bb.hidden_states([TokenSeq(tuple(ids))]).data
            logits = hidden[positions] @ bb.params["mlm_head"].data
            logp = logits - logits.max(axis=1, keepdims=True)
            logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
            nll -= sum(logp[j, seq.ids[pos]] for j, pos in enumerate(positions))
            count += len(positions)
        assert mlm_step(bb, corpus, Rng(9)).item() == pytest.approx(nll / count, abs=1e-9)

    def test_loss_near_log_vocab_at_random_init(self):
        bb = Backbone(CFG)
        loss = mlm_step(bb, self.make_corpus(), Rng(1)).item()
        assert abs(loss - math.log(CFG.vocab_size)) < 1.0

    def test_gradients_reach_all_layer_parameters(self):
        bb = Backbone(CFG)
        with Tape() as tape:
            tape.watch(*bb.params.values())
            loss = mlm_step(bb, self.make_corpus(4), Rng(2))
        grads = tape.backward(loss)
        for name, _, _ in param_order(CFG):
            g = grads[bb.params[name]].data
            if name == "pos_emb":
                continue  # only rows up to the longest sequence receive signal
            assert np.abs(g).sum() > 0, f"no gradient reached {name}"

    def test_hundred_steps_descend(self):
        # plain Adam written inline so the descent check does not depend on
        # the trainer module
        bb = Backbone(BackboneConfig(seed=7))
        corpus = self.make_corpus(n_seqs=50, words=10, seed=11)
        rng = Rng(5)
        names = list(bb.params)
        m = {n: np.zeros(bb.params[n].shape) for n in names}
        v = {n: np.zeros(bb.params[n].shape) for n in names}
        lr, b1, b2, eps = 5e-5, 0.9, 0.999, 1e-8
        first = last = None
        for step in range(1, 101):
            batch = corpus[(step * 10) % 50 : (step * 10) % 50 + 10]
            with Tape() as tape:
                tape.watch(*bb.params.values())
                loss = mlm_step(bb, batch, rng)
            grads = tape.backward(loss)
            if first is None:
                first = loss.item()
            last = loss.item()
            for n in names:
                g = grads[bb.params[n]].data
                m[n] = b1 * m[n] + (1 - b1) * g
                v[n] = b2 * v[n] + (1 - b2) * g * g
                mh = m[n] / (1 - b1**step)
                vh = v[n] / (1 - b2**step)
                new = bb.params[n].data - lr * mh / (np.sqrt(vh) + eps)
                bb.set_param(n, type(bb.params[n])(new.astype(np.float32)))
        assert last < first


class TestFreeze:
    def test_idempotent(self):
        bb = Backbone(CFG)
        bb.freeze()
        fp = bb.frozen_fingerprint
        bb.freeze()
        assert bb.frozen_fingerprint == fp

    def test_fingerprint_matches_independent_rehash(self):
        bb = Backbone(CFG).freeze()
        h = hashlib.sha256()
        for name, _, _ in param_order(CFG):
            h.update(bb.params[name].data.astype("<f4").tobytes())
        assert bb.frozen_fingerprint == h.hexdigest()

    def test_mutation_rejected_after_freeze(self):
        bb = Backbone(CFG).freeze()
        with pytest.raises(FrozenViolationError):
            bb.set_param("mlm_head", bb.params["mlm_head"])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        bb = Backbone(BackboneConfig(seed=99)).freeze()
        p1 = tmp_path / "bb.bin"
        p2 = tmp_path / "bb2.bin"
        save_backbone(bb, str(p1))
        loaded = load_backbone(str(p1))
        assert loaded.frozen and loaded.frozen_fingerprint == bb.frozen_fingerprint
        save_backbone(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_p64_round_trip(self, tmp_path):
        bb = Backbone(BackboneConfig(d_model=16, n_heads=2, d_ff=32, vocab_size=50), P64)
        path = tmp_path / "bb64.bin"
        save_backbone(bb, str(path))
        loaded = load_backbone(str(path))
        assert loaded.precision is P64
        np.testing.assert_array_equal(loaded.params["mlm_head"].data, bb.params["mlm_head"].data)

    def test_corrupt_payload_byte_detected(self, tmp_path):
        bb = Backbone(CFG)
        path = tmp_path / "bb.bin"
        save_backbone(bb, str(path))
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load_backbone(str(path))

    def test_truncated_file_detected(self, tmp_path):
        bb = Backbone(CFG)
        path = tmp_path / "bb.bin"
        save_backbone(bb, str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ChecksumError):  # the frame is checked first: the last 4 bytes are not the CRC
            load_backbone(str(path))
        path.write_bytes(raw[:9])  # shorter than magic, version and trailer
        with pytest.raises(TruncatedFileError):
            load_backbone(str(path))

    def test_every_header_bit_flip_is_a_file_error(self, tmp_path):
        # offsets 0-40: magic, version, the six u32 config fields, seed, frozen and precision bytes
        small = BackboneConfig(vocab_size=50, d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq_len=8)
        path = tmp_path / "bb.bin"
        save_backbone(Backbone(small).freeze(), str(path))
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(scoremux.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, tests_dir]), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", _HEADER_FLIP_RUN, str(path), str(tmp_path / "bad.bin")],
            capture_output=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert json.loads(proc.stdout.decode().splitlines()[-1]) == []

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "bb.bin"
        bb = Backbone(CFG)
        save_backbone(bb, str(path))
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            load_backbone(str(path))

    def test_version_mismatch_detected(self, tmp_path):
        path = tmp_path / "bb.bin"
        bb = Backbone(CFG)
        save_backbone(bb, str(path))
        raw = bytearray(path.read_bytes())
        raw[4] = 0xEE  # version u16 follows the 4-byte magic
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError):
            load_backbone(str(path))
